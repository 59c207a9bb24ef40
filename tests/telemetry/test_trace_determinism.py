"""The trace determinism contract.

A traced scenario must produce the *byte-identical* span stream no
matter how it was scheduled: inline, across any ``--jobs N`` fan-out,
or on a re-run at the same seed.  Sim-time stamping (never wall clock)
is what makes this possible; these tests are the enforcement.
"""

import pytest

from repro.common.serialization import report_from_json
from repro.experiments import (
    ExperimentRunner,
    SweepRunner,
    build_scenario,
    quick_grid,
    run_experiment,
    run_experiment_traced,
)
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

KINDS = ["fleet/busy", "chaos/seeded", "dpp/worker-churn"]


def batch():
    return [build_scenario(name, seed=2) for name in KINDS]


def busy_storm(seed: int) -> FleetRegionScenario:
    """``fleet/busy`` under the quick-grid fault storm, two days of
    arrivals cut at a one-day horizon: long enough for steady stretches
    (deferred ticks) around the crash and storage derate."""
    day = 24 * 3600.0
    return FleetRegionScenario(
        name=f"fleet/busy-storm/seed{seed}",
        trace_seed=seed,
        mix=mix_from_overrides(QUICK_GRID_MIX_OVERRIDES["busy"]),
        config=config_from_spec(QUICK_GRID_CONFIG_SPEC),
        duration_s=2 * day,
        horizon_s=day,
        faults=fault_events_from_rows(QUICK_GRID_STORM_ROWS, "at_s"),
    )


class TestSerialVsParallel:
    def test_experiment_traces_identical_across_jobs(self):
        _, serial = ExperimentRunner(batch(), jobs=1).run_traced("det")
        _, parallel = ExperimentRunner(batch(), jobs=3).run_traced("det")
        assert serial.to_json() == parallel.to_json()
        assert serial.metrics()["trace.events"] > 0

    def test_sweep_traces_identical_across_jobs(self):
        grid = quick_grid(seeds=(0, 1))
        _, serial = SweepRunner(grid, jobs=1).run_traced("det")
        _, parallel = SweepRunner(grid, jobs=2).run_traced("det")
        assert serial.to_json() == parallel.to_json()
        assert len(serial.processes) == len(grid.expand())


class TestFixedSeedReproducibility:
    @pytest.mark.parametrize("name", KINDS)
    def test_rerun_is_byte_identical(self, name):
        scenario = build_scenario(name, seed=5)
        _, first = run_experiment_traced(scenario)
        _, second = run_experiment_traced(scenario)
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize("name", KINDS)
    def test_different_seeds_differ(self, name):
        _, a = run_experiment_traced(build_scenario(name, seed=0))
        _, b = run_experiment_traced(build_scenario(name, seed=1))
        assert a.processes[0].run_id != b.processes[0].run_id


class TestTracingIsPassive:
    @pytest.mark.parametrize("name", KINDS)
    def test_traced_report_matches_untraced(self, name):
        scenario = build_scenario(name, seed=1)
        plain = run_experiment(scenario).report
        traced_entry, trace = run_experiment_traced(scenario)
        assert plain.to_json() == traced_entry.report.to_json()
        assert trace.metrics()["trace.events"] > 0

    def test_traced_ticks_take_the_steady_stretch_path(self, monkeypatch):
        from repro.fleet.simulator import FleetSimulator
        from repro.telemetry import Tracer

        sampled = []
        original = FleetSimulator._sample

        def counting_sample(self, *args):
            sampled.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(FleetSimulator, "_sample", counting_sample)
        scenario = busy_storm(1)
        tracer = Tracer(scenario=scenario.name, seed=1)
        report = scenario.run_traced(tracer)
        snapshot = tracer.metrics.snapshot()
        # Steady-stretch ticks are counted, not sampled one by one; the
        # settle materializes their rows, and the tick metrics and the
        # trace still see every tick.
        assert 0 < len(sampled) < len(report.samples) // 2
        assert snapshot.counters["fleet.ticks"] == len(report.samples)
        assert tracer.event_count >= 4 * len(report.samples)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_busy_storm_traced_report_matches_untraced(self, seed):
        scenario = busy_storm(seed)
        plain = run_experiment(scenario).report
        traced_entry, trace = run_experiment_traced(scenario)
        assert plain.to_json() == traced_entry.report.to_json()
        assert trace.metrics()["trace.counters"] > 0


class TestRoundTrips:
    def test_experiment_trace_revives_byte_identically(self):
        _, trace = ExperimentRunner(batch(), jobs=1).run_traced("rt")
        text = trace.to_json()
        revived = report_from_json(text)
        assert revived == trace
        assert revived.to_json() == text

    def test_per_scenario_metrics_snapshot_round_trips(self):
        from repro.telemetry import Tracer

        scenario = build_scenario("dpp/worker-churn", seed=3)
        tracer = Tracer(scenario=scenario.name, seed=3)
        scenario.run_traced(tracer)
        snapshot = tracer.metrics.snapshot()
        text = snapshot.to_json()
        assert snapshot.metrics()  # instrumented planes did record
        assert report_from_json(text).to_json() == text
