"""The perf harness runs inside tier-1 and emits a valid artifact.

Assertions here are structural (every named metric present with a
positive value) — absolute throughput floors would flake across
machines.  The test writes to a temp path so plain ``pytest`` runs
never touch the committed repo-root ``BENCH_perf.json``; that file is
refreshed deliberately via ``python -m benchmarks.perf`` (the CI perf
job regenerates and uploads it), and trajectory comparisons across PRs
diff the committed artifact.  The regression gate
(``python -m benchmarks.perf --check``) is covered with synthetic
payloads, where it cannot flake on machine speed.
"""

import json

from .harness import (
    REGRESSION_TOLERANCE,
    baseline_warnings,
    compare_against_baseline,
    delta_table,
    gate_required,
    run_all,
)

REQUIRED_METRICS = {
    "seal_mb_per_s",
    "unseal_mb_per_s",
    "stripe_encode_rows_per_s",
    "stripe_decode_rows_per_s",
    "extract_samples_per_s",
    "simclock_events_per_s",
    "fleet_events_per_s",
    "traced_fleet_events_per_s",
    "sweep_scenarios_per_s",
    "journaled_sweep_scenarios_per_s",
    "serving_requests_per_s",
    "serving_p99_fetch_ms",
}


def test_perf_harness_writes_consolidated_artifact(tmp_path):
    artifact = tmp_path / "BENCH_perf.json"
    payload = run_all(write=True, path=artifact)
    assert json.loads(artifact.read_text()) == payload
    assert REQUIRED_METRICS <= set(payload["metrics"])
    for name, entry in payload["metrics"].items():
        assert entry["value"] > 0, f"metric {name} measured non-positive throughput"
        assert entry["unit"]
        assert entry["workload"]
        expected = "lower" if name == "serving_p99_fetch_ms" else "higher"
        assert entry["better"] == expected, name


def _payload(**values):
    return {
        "metrics": {
            name: {"value": value, "unit": "x/s", "workload": "synthetic"}
            for name, value in values.items()
        }
    }


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        fresh = _payload(a=80.0, b=200.0)
        baseline = _payload(a=100.0, b=150.0)
        assert compare_against_baseline(fresh, baseline) == []

    def test_beyond_tolerance_flagged(self):
        fresh = _payload(a=60.0)
        baseline = _payload(a=100.0)
        problems = compare_against_baseline(fresh, baseline)
        assert len(problems) == 1
        # Regression lines round like delta_table: one decimal place.
        assert "a:" in problems[0] and "40.0%" in problems[0]

    def test_boundary_is_exactly_the_tolerance(self):
        baseline = _payload(a=100.0)
        at_edge = _payload(a=100.0 * (1.0 - REGRESSION_TOLERANCE))
        assert compare_against_baseline(at_edge, baseline) == []
        below = _payload(a=100.0 * (1.0 - REGRESSION_TOLERANCE) - 0.5)
        assert compare_against_baseline(below, baseline)

    def test_new_metrics_do_not_fail_the_gate(self):
        fresh = _payload(a=100.0, brand_new=1.0)
        baseline = _payload(a=100.0)
        assert compare_against_baseline(fresh, baseline) == []

    def test_retired_metrics_do_not_fail_the_gate(self):
        fresh = _payload(a=100.0)
        baseline = _payload(a=100.0, retired=50.0)
        assert compare_against_baseline(fresh, baseline) == []

    def test_malformed_entries_do_not_fail_the_gate(self):
        fresh = {"metrics": {"a": {"unit": "x/s"}}}  # no "value"
        baseline = _payload(a=100.0)
        assert compare_against_baseline(fresh, baseline) == []


class TestGateDirection:
    """Lower-is-better metrics regress when they rise, not when they fall."""

    @staticmethod
    def _latency(value, better="lower"):
        return {
            "metrics": {
                "p99_ms": {
                    "value": value,
                    "unit": "ms",
                    "workload": "synthetic",
                    "better": better,
                }
            }
        }

    def test_latency_rise_is_flagged(self):
        problems = compare_against_baseline(
            self._latency(200.0), self._latency(100.0)
        )
        assert len(problems) == 1
        assert "p99_ms:" in problems[0] and "100.0% above" in problems[0]

    def test_latency_drop_passes(self):
        assert compare_against_baseline(
            self._latency(50.0), self._latency(100.0)
        ) == []

    def test_latency_boundary_is_exactly_the_tolerance(self):
        baseline = self._latency(100.0)
        at_edge = self._latency(100.0 * (1.0 + REGRESSION_TOLERANCE))
        assert compare_against_baseline(at_edge, baseline) == []
        above = self._latency(100.0 * (1.0 + REGRESSION_TOLERANCE) + 0.5)
        assert compare_against_baseline(above, baseline)

    def test_higher_is_better_drop_is_flagged_rise_passes(self):
        baseline = self._latency(100.0, better="higher")
        assert compare_against_baseline(
            self._latency(50.0, better="higher"), baseline
        )
        assert compare_against_baseline(
            self._latency(200.0, better="higher"), baseline
        ) == []

    def test_direction_from_baseline_when_fresh_lacks_it(self):
        fresh = _payload(p99_ms=200.0)  # no "better" field
        assert compare_against_baseline(fresh, self._latency(100.0))


class TestDeltaTable:
    def test_union_with_new_and_retired_markers(self):
        fresh = _payload(a=90.0, brand_new=5.0)
        baseline = _payload(a=100.0, retired=2.0)
        lines = "\n".join(delta_table(fresh, baseline))
        assert "-10.0%" in lines
        assert "new (no baseline" in lines
        assert "retired" in lines

    def test_malformed_entries_are_informational_not_crashes(self):
        # A metrics entry missing "value" on either (or both) sides must
        # render, never raise — the same promise --check makes.
        fresh = {"metrics": {"x": {"unit": "s"}, "y": {"value": 1.0, "unit": "s"}}}
        baseline = {"metrics": {"x": {"unit": "s"}}}
        lines = delta_table(fresh, baseline)
        assert any("no value recorded" in line for line in lines)
        assert any("new (no baseline" in line for line in lines)

    def test_empty_sides_render(self):
        assert delta_table({}, {}) == ["  (no metrics on either side)"]


class TestBaselineWarnings:
    def test_complete_baseline_is_silent(self):
        assert baseline_warnings(_payload(a=1.0, b=2.0)) == []

    def test_missing_unit_and_workload_warn_loudly(self):
        baseline = {
            "metrics": {
                "a": {"value": 1.0, "workload": "synthetic"},  # no unit
                "b": {"value": 2.0, "unit": "x/s"},  # no workload
                "c": {"value": 3.0},  # neither
            }
        }
        warnings = baseline_warnings(baseline)
        assert len(warnings) == 3
        assert "'a'" in warnings[0] and "unit" in warnings[0]
        assert "'b'" in warnings[1] and "workload" in warnings[1]
        assert "'c'" in warnings[2] and "unit and workload" in warnings[2]
        assert all(line.startswith("warning:") for line in warnings)

    def test_empty_string_fields_count_as_missing(self):
        baseline = {"metrics": {"a": {"value": 1.0, "unit": "", "workload": "w"}}}
        assert len(baseline_warnings(baseline)) == 1

    def test_no_metrics_key_is_fine(self):
        assert baseline_warnings({}) == []


class TestRequiredGates:
    def test_present_on_both_sides_passes(self):
        fresh = _payload(fleet_events_per_s=100.0)
        baseline = _payload(fleet_events_per_s=90.0)
        assert gate_required(fresh, baseline, ("fleet_events_per_s",)) == []

    def test_missing_from_fresh_run_fails(self):
        problems = gate_required(
            _payload(other=1.0), _payload(gated=1.0, other=1.0), ("gated",)
        )
        assert len(problems) == 1
        assert "gated" in problems[0] and "missing from this run" in problems[0]

    def test_missing_from_baseline_fails(self):
        problems = gate_required(
            _payload(gated=1.0), _payload(other=1.0), ("gated",)
        )
        assert len(problems) == 1
        assert "committed baseline" in problems[0]

    def test_value_less_entry_counts_as_missing(self):
        fresh = {"metrics": {"gated": {"unit": "x/s"}}}
        assert gate_required(fresh, _payload(gated=1.0), ("gated",))

    def test_no_required_metrics_is_a_no_op(self):
        assert gate_required(_payload(a=1.0), _payload(b=2.0), ()) == []
