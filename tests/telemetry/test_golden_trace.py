"""Golden digests: traces, Chrome exports and metrics are frozen.

Tracer refactors (the columnar event buffer, tick telemetry read from
the fleet's sample rows, deferred steady-stretch ticks) must leave every
traced artifact byte-identical.  The reference digests in
``golden/golden_traces.json`` were captured from the list-of-events
tracer whose per-tick spans and counters were recorded as the ticks
fired; this test regenerates the same seed-pinned runs and asserts the
current code reproduces the exact bytes.

The fleet cases cover a multi-day ``fleet/busy`` region (steady
stretches with queue arrivals landing mid-stretch) and a fault-storm
region cut at a horizon while jobs still run.  The ``experiments`` case
pins the non-fleet planes (chaos rounds, timed DPP) through the same
recorder.

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python -m tests.telemetry.test_golden_trace
"""

import hashlib
import json
import pathlib

import pytest

from repro.common.serialization import dump_json, null_specials
from repro.experiments import build_scenario, run_experiment_traced
from repro.experiments.grid import (
    QUICK_GRID_CONFIG_SPEC,
    QUICK_GRID_MIX_OVERRIDES,
    QUICK_GRID_STORM_ROWS,
)
from repro.experiments.scenarios import (
    FleetRegionScenario,
    config_from_spec,
    fault_events_from_rows,
    mix_from_overrides,
)
from repro.telemetry import Tracer, merge_traces, to_chrome

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "golden_traces.json"

DAY_S = 24 * 3600.0

#: name -> (mix, trace seed, arrival window days, horizon days, storm?)
FLEET_CASES = {
    "fleet_busy_3day": ("busy", 7, 3.0, 3.0, False),
    "fleet_busy_storm_cut": ("busy", 7, 3.0, 1.5, True),
}
EXPERIMENT_KINDS = ("chaos/seeded", "dpp/worker-churn")
EXPERIMENT_SEED = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _chrome_text(trace) -> str:
    """The bytes :func:`write_chrome_trace` would put on disk."""
    return dump_json(null_specials(to_chrome(trace)))


def fleet_scenario(name: str) -> FleetRegionScenario:
    mix, seed, days, horizon_days, storm = FLEET_CASES[name]
    return FleetRegionScenario(
        name=f"golden/{name}",
        trace_seed=seed,
        mix=mix_from_overrides(QUICK_GRID_MIX_OVERRIDES[mix]),
        config=config_from_spec(QUICK_GRID_CONFIG_SPEC),
        duration_s=days * DAY_S,
        horizon_s=horizon_days * DAY_S,
        faults=(
            fault_events_from_rows(QUICK_GRID_STORM_ROWS, "at_s") if storm else ()
        ),
    )


def run_fleet_case(name: str):
    scenario = fleet_scenario(name)
    tracer = Tracer(scenario=scenario.name, seed=scenario.trace_seed)
    report = scenario.run_traced(tracer)
    trace = tracer.freeze()
    return report, tracer, trace


def digests() -> dict:
    """Every golden digest, computed by the code under test."""
    out: dict = {}
    traces = []
    for name in FLEET_CASES:
        report, tracer, trace = run_fleet_case(name)
        traces.append(trace)
        chrome = _chrome_text(trace)
        out[name] = {
            "tracer_events": tracer.event_count,
            "chrome_events": len(json.loads(chrome)["traceEvents"]),
            "report_sha256": _sha(report.to_json()),
            "trace_sha256": _sha(trace.to_json()),
            "chrome_sha256": _sha(chrome),
            "metrics_sha256": _sha(tracer.metrics.snapshot().to_json()),
        }
    merged = merge_traces(traces)
    out["fleet_merged"] = {
        "trace_sha256": _sha(merged.to_json()),
        "chrome_sha256": _sha(_chrome_text(merged)),
    }
    experiment_traces = []
    for kind in EXPERIMENT_KINDS:
        _, trace = run_experiment_traced(build_scenario(kind, seed=EXPERIMENT_SEED))
        experiment_traces.append(trace)
    merged = merge_traces(experiment_traces)
    out["experiments"] = {
        "trace_sha256": _sha(merged.to_json()),
        "chrome_sha256": _sha(_chrome_text(merged)),
    }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize(
    "case", [*FLEET_CASES, "fleet_merged", "experiments"]
)
def test_traced_artifacts_match_golden(case, golden, current):
    assert current[case] == golden[case]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
