"""Microbenchmarks for the DSI data plane's real hot paths.

Each benchmark times a fixed workload with ``time.perf_counter`` and
reports a throughput metric:

* ``seal_mb_per_s`` / ``unseal_mb_per_s`` — the compress+encrypt codec
  (`repro.dwrf.encoding.seal`/``unseal``) over stripe-sized payloads;
* ``stripe_encode_rows_per_s`` / ``stripe_decode_rows_per_s`` — the
  FLATTENED columnar stripe codec end to end;
* ``extract_samples_per_s`` — a full DPP session (extract → transform
  → load) on an RM1-shaped miniature, flatmap path;
* ``simclock_events_per_s`` — raw discrete-event kernel throughput
  (schedule/fire chains plus cancel traffic for the lazy-deletion path);
* ``fleet_events_per_s`` — discrete-event throughput of the fleet
  simulator on a 32-job multi-tenant region (telemetry disabled — this
  is also the disabled-overhead gate for the tracing plane);
* ``traced_fleet_events_per_s`` — the same region with full sim-time
  tracing enabled, measuring the telemetry tax;
* ``sweep_scenarios_per_s`` — parallel scenario-sweep throughput
  (persistent fork-pool fan-out over a shared-memory arena);
* ``journaled_sweep_scenarios_per_s`` — the same sweep with the
  crash-safe run journal enabled (one fsync'd JSONL append per cell),
  measuring the durability tax against ``sweep_scenarios_per_s``;
* ``serving_requests_per_s`` / ``serving_p99_fetch_ms`` — the live DPP
  service plane under a bursty open-loop load test: wall-clock request
  throughput through the async kernel, plus the (deterministic,
  virtual-time) P99 trainer fetch latency the same run reports.

Results are merged into one ``BENCH_perf.json`` at the repo root, and
:func:`compare_against_baseline` turns the committed artifact into a
regression gate (CI fails the perf job when any metric moves more than
30% the wrong way against it: down for rates, up for latencies).
``--profile`` runs the sweep workload under stdlib ``cProfile`` and
prints the top cumulative functions — the first stop when a sweep
number moves.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass

import numpy as np

BENCH_PATH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_perf.json"

#: Workload sizes tuned so the full harness stays in single-digit seconds.
SEAL_PAYLOAD_BYTES = 4 * 1024 * 1024
STRIPE_ROWS = 2_000
EXTRACT_ROWS = 4_000
FLEET_JOBS = 32
FLEET_WAVES = 4
FLEET_WAVE_GAP_S = 900.0
FLEET_JOB_HOURS = 6.0
SIMCLOCK_CHAINS = 64
SIMCLOCK_EVENTS = 200_000
SWEEP_SEEDS = 8
SWEEP_HORIZON_S = 3_600.0
#: Pool width for the sweep benches, capped at what the machine has —
#: oversubscribing a small box just measures scheduler thrash.
SWEEP_PROCESSES = min(4, os.cpu_count() or 1)
SERVING_REQUESTS = 2_000

#: Fractional slowdown against the committed baseline that fails CI.
REGRESSION_TOLERANCE = 0.30


@dataclass(frozen=True)
class Metric:
    """One named measurement; *better* says which way is an improvement."""

    name: str
    value: float
    unit: str
    workload: str
    better: str = "higher"


def _timed(work, *, repeats: int = 1):
    """Best-of-*repeats* wall time of ``work()`` (returns last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = work()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_seal(repeats: int = 3) -> list[Metric]:
    """Seal/unseal throughput on a compressible stripe-sized payload."""
    from repro.dwrf import encoding

    rng = np.random.default_rng(3)
    # Realistic compressibility: narrow-range ints, like ID streams.
    payload = rng.integers(0, 5_000, size=SEAL_PAYLOAD_BYTES // 4).astype("<i4").tobytes()
    mb = len(payload) / 1e6
    seal_s, sealed = _timed(lambda: encoding.seal(payload), repeats=repeats)
    unseal_s, _ = _timed(lambda: encoding.unseal(sealed), repeats=repeats)
    workload = f"{mb:.0f} MB synthetic ID stream"
    return [
        Metric("seal_mb_per_s", mb / seal_s, "MB/s", workload),
        Metric("unseal_mb_per_s", mb / unseal_s, "MB/s", workload),
    ]


def bench_stripe_codec(repeats: int = 2) -> list[Metric]:
    """FLATTENED stripe encode/decode throughput in rows per second."""
    from repro.dwrf.layout import EncodingOptions, FileLayout
    from repro.dwrf.reader import DwrfReader
    from repro.dwrf.writer import write_table_partition
    from repro.workloads import RM1, build_mini_dataset

    dataset = build_mini_dataset(RM1, ["p0"], STRIPE_ROWS, seed=5)
    rows = dataset.table.partition("p0").rows
    options = EncodingOptions(layout=FileLayout.FLATTENED, stripe_rows=STRIPE_ROWS)
    encode_s, dwrf = _timed(
        lambda: write_table_partition(rows, dataset.table.schema, options),
        repeats=repeats,
    )
    decode_s, decoded = _timed(
        lambda: list(DwrfReader.for_file(dwrf).read_rows(dataset.table.schema)),
        repeats=repeats,
    )
    assert len(decoded) == len(rows)
    workload = f"RM1 miniature, {len(rows)} rows, 1 stripe"
    return [
        Metric("stripe_encode_rows_per_s", len(rows) / encode_s, "rows/s", workload),
        Metric("stripe_decode_rows_per_s", len(rows) / decode_s, "rows/s", workload),
    ]


def bench_extract(repeats: int = 1) -> list[Metric]:
    """End-to-end DPP session throughput (extract → transform → load)."""
    from repro.dpp.service import DppSession
    from repro.dpp.spec import SessionSpec
    from repro.dwrf.layout import EncodingOptions, FileLayout
    from repro.tectonic.filesystem import TectonicFilesystem
    from repro.warehouse.publish import publish_table
    from repro.workloads import RM1, build_mini_dataset

    dataset = build_mini_dataset(RM1, ["p0"], EXTRACT_ROWS, seed=9)

    def run_session() -> int:
        filesystem = TectonicFilesystem(n_nodes=6)
        footers = publish_table(
            filesystem,
            dataset.table,
            EncodingOptions(layout=FileLayout.FLATTENED, stripe_rows=1_000),
        )
        spec = SessionSpec(
            table_name=dataset.table.name,
            partitions=tuple(dataset.table.partition_names()),
            projection=dataset.projection,
            dag=dataset.dag,
            output_ids=dataset.output_ids,
            batch_size=256,
            coalesce_window=1_310_720,
        )
        session = DppSession(spec, filesystem, dataset.schema, footers, n_workers=2)
        session.pump()
        return sum(w.stats.rows_processed for w in session.workers)

    elapsed, rows = _timed(run_session, repeats=repeats)
    workload = f"RM1 miniature, {EXTRACT_ROWS} rows, publish + 2-worker session"
    return [Metric("extract_samples_per_s", rows / elapsed, "samples/s", workload)]


def bench_simclock(repeats: int = 3) -> list[Metric]:
    """Raw kernel throughput: chained events plus cancel churn.

    The workload mirrors what the fleet plane asks of the clock:
    many interleaved self-rescheduling processes, with a quarter of
    each round's schedules cancelled before firing (exercising the
    lazy-deletion/compaction path).
    """
    from repro.common.simclock import SimClock

    per_chain = SIMCLOCK_EVENTS // SIMCLOCK_CHAINS

    def run_kernel() -> int:
        clock = SimClock()
        state = {"doomed": []}

        def make_chain(offset: float):
            remaining = [per_chain]

            def hop() -> None:
                remaining[0] -= 1
                if remaining[0] > 0:
                    clock.schedule(1.0, hop)
                    # Cancel traffic: every fourth hop also schedules a
                    # decoy and kills it, so the heap carries corpses.
                    if remaining[0] % 4 == 0:
                        state["doomed"].append(clock.schedule(5.0, _noop))
                        if len(state["doomed"]) >= 512:
                            for handle in state["doomed"]:
                                handle.cancel()
                            state["doomed"].clear()

            clock.schedule(offset, hop)

        def _noop() -> None:
            pass

        for chain in range(SIMCLOCK_CHAINS):
            make_chain(1.0 + chain / SIMCLOCK_CHAINS)
        return clock.run(max_events=2 * SIMCLOCK_EVENTS)

    elapsed, events = _timed(run_kernel, repeats=repeats)
    workload = (
        f"{SIMCLOCK_CHAINS} chains, {events} events, 25% cancel traffic"
    )
    return [Metric("simclock_events_per_s", events / elapsed, "events/s", workload)]


def _fleet_workload():
    """The shared 32-job region both fleet benches run.

    Jobs arrive in :data:`FLEET_WAVES` synchronized waves (the paper's
    exploratory bursts land as co-scheduled batches, not a Poisson
    trickle), on a region wide enough to admit every wave: the steady
    stretches between waves are where a fleet simulator spends real
    sweeps, and they keep the region above the vectorized-tick
    threshold for most of the run.
    """
    from repro.cluster.job import JobKind
    from repro.fleet import FleetConfig, FleetJobSpec, PoolConfig, StorageFabric
    from repro.workloads.models import RM1, RM2, RM3

    models = (RM1, RM2, RM3)
    config = FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=40, n_ssd_cache_nodes=4),
        n_trainer_nodes=64,
        pool=PoolConfig(max_workers=2_000),
    )
    per_wave = FLEET_JOBS // FLEET_WAVES
    jobs = [
        FleetJobSpec(
            job_id=i,
            model=models[i % 3],
            kind=JobKind.EXPLORATORY,
            arrival_s=FLEET_WAVE_GAP_S * (i // per_wave),
            trainer_nodes=2,
            target_samples=FLEET_JOB_HOURS
            * 3600
            * 2
            * models[i % 3].samples_per_s_per_trainer,
        )
        for i in range(FLEET_JOBS)
    ]
    return config, jobs


def bench_fleet(repeats: int = 3) -> list[Metric]:
    """Discrete-event throughput of the fleet orchestration plane.

    Telemetry stays disabled (the NULL_TRACER default), so this metric
    doubles as the disabled-overhead gate: instrumented hot paths pay
    one attribute check, and the 30% regression tolerance on this
    number is the backstop if that ever stops being true.
    """
    from repro.fleet import FleetSimulator

    config, jobs = _fleet_workload()

    def run_fleet() -> int:
        simulator = FleetSimulator(config, list(jobs))
        simulator.schedule()
        return simulator.clock.run()

    elapsed, events = _timed(run_fleet, repeats=repeats)
    workload = (
        f"{FLEET_JOBS} jobs in {FLEET_WAVES} waves, run to completion "
        f"({events} events)"
    )
    return [Metric("fleet_events_per_s", events / elapsed, "events/s", workload)]


def bench_traced_fleet(repeats: int = 3) -> list[Metric]:
    """The same fleet region with full telemetry recording on.

    The gap between this and ``fleet_events_per_s`` is the tracing
    tax: job-lifecycle spans, broker instants and fault events are
    recorded live; the per-tick span and counters are read from the
    simulator's sample rows, so the tick path records nothing.
    """
    from repro.fleet import FleetSimulator
    from repro.telemetry import Tracer

    config, jobs = _fleet_workload()

    def run_fleet() -> int:
        tracer = Tracer(scenario="bench", seed=0)
        simulator = FleetSimulator(config, list(jobs), tracer=tracer)
        simulator.schedule()
        events = simulator.clock.run()
        assert tracer.event_count > 0
        return events

    elapsed, events = _timed(run_fleet, repeats=repeats)
    workload = (
        f"{FLEET_JOBS} jobs in {FLEET_WAVES} waves, tracing enabled "
        f"({events} events)"
    )
    return [
        Metric("traced_fleet_events_per_s", events / elapsed, "events/s", workload)
    ]


def _sweep_grid():
    """The shared sweep workload (also what ``--profile`` profiles)."""
    from repro.experiments import ScenarioGrid
    from repro.fleet import FleetConfig, FleetMix, PoolConfig, StorageFabric

    return ScenarioGrid(
        seeds=tuple(range(SWEEP_SEEDS)),
        mixes=(
            ("default", FleetMix()),
            ("busy", FleetMix(exploratory_per_day=96.0)),
        ),
        configs=(
            (
                "base",
                FleetConfig(
                    fabric=StorageFabric(n_hdd_nodes=20, n_ssd_cache_nodes=2),
                    n_trainer_nodes=16,
                    pool=PoolConfig(max_workers=500),
                ),
            ),
        ),
        duration_s=SWEEP_HORIZON_S,
    )


def bench_sweep(repeats: int = 1) -> list[Metric]:
    """Scenario-sweep throughput: persistent-pool fan-out over a grid."""
    from repro.experiments import SweepRunner

    grid = _sweep_grid()

    def run_sweep() -> int:
        report = SweepRunner(grid, jobs=SWEEP_PROCESSES).run()
        return len(report.results)

    elapsed, scenarios = _timed(run_sweep, repeats=repeats)
    workload = (
        f"{len(grid)} scenarios (2 mixes x {SWEEP_SEEDS} seeds), "
        f"{SWEEP_PROCESSES} processes"
    )
    return [
        Metric("sweep_scenarios_per_s", scenarios / elapsed, "scenarios/s", workload)
    ]


def bench_sweep_journaled(repeats: int = 1) -> list[Metric]:
    """The same sweep with the crash-safe run journal turned on.

    Journal appends batch per worker chunk — one compact-JSON write
    plus one ``fsync`` covers every cell the chunk completed — so the
    gap between this and ``sweep_scenarios_per_s`` is the durability
    tax at chunk granularity.  The 30% regression gate on this metric
    is the journal-overhead budget the fault-tolerance plane has to
    live inside.
    """
    import tempfile

    from repro.experiments import SweepRunner

    grid = _sweep_grid()

    def run_sweep() -> int:
        with tempfile.TemporaryDirectory() as scratch:
            journal = pathlib.Path(scratch) / "bench.journal.jsonl"
            report = SweepRunner(grid, jobs=SWEEP_PROCESSES).run(
                journal_path=journal
            )
            return len(report.results)

    elapsed, scenarios = _timed(run_sweep, repeats=repeats)
    workload = (
        f"{len(grid)} scenarios, {SWEEP_PROCESSES} processes, "
        "fsync'd journal per chunk"
    )
    return [
        Metric(
            "journaled_sweep_scenarios_per_s",
            scenarios / elapsed,
            "scenarios/s",
            workload,
        )
    ]


def bench_serving(repeats: int = 1) -> list[Metric]:
    """The live serving plane: kernel throughput and tail latency.

    Drives the ``serving/bursty`` shape (synchronized-trainer-step
    bursts under retry-with-backoff) so admission control, both worker
    pools, and the backoff path are all hot.  The throughput metric is
    wall-clock — how fast the cooperative kernel turns the load test —
    while the P99 fetch latency is virtual-time and therefore
    deterministic: it moves only when plane *behavior* changes, making
    it a free semantic regression tripwire alongside the perf gate.
    """
    from repro.serving import ServingScenario

    scenario = ServingScenario(
        name="bench/serving",
        seed=0,
        arrival_mix="bursty",
        fetch_policy="retry",
        n_requests=SERVING_REQUESTS,
    )
    elapsed, report = _timed(scenario.run, repeats=repeats)
    workload = (
        f"bursty open-loop mix, {SERVING_REQUESTS} fetches, retry policy"
    )
    return [
        Metric(
            "serving_requests_per_s", report.served / elapsed, "req/s", workload
        ),
        Metric(
            "serving_p99_fetch_ms", report.fetch_p99_ms, "ms", workload,
            better="lower",
        ),
    ]


def run_all(write: bool = True, path: pathlib.Path | None = None) -> dict:
    """Run every microbenchmark; optionally persist the JSON artifact.

    The default *path* is the repo-root ``BENCH_perf.json`` (the
    committed trajectory reference) — only the deliberate
    ``python -m benchmarks.perf`` entry point writes there; the tier-1
    structural test passes a temp path so plain ``pytest`` runs never
    dirty the tree with machine-local numbers.
    """
    metrics: list[Metric] = []
    for bench in (
        bench_seal,
        bench_stripe_codec,
        bench_extract,
        bench_simclock,
        bench_fleet,
        bench_traced_fleet,
        bench_sweep,
        bench_sweep_journaled,
        bench_serving,
    ):
        metrics.extend(bench())
    payload = {
        "harness": "benchmarks.perf",
        "metrics": {
            m.name: {
                "value": round(m.value, 3),
                "unit": m.unit,
                "workload": m.workload,
                "better": m.better,
            }
            for m in metrics
        },
    }
    if write:
        from repro.common.serialization import atomic_write_text

        target = BENCH_PATH if path is None else path
        atomic_write_text(
            target, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return payload


def compare_against_baseline(
    payload: dict,
    baseline: dict,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Regressions of *payload* versus *baseline*, as human-readable lines.

    A metric regresses when it moves more than *tolerance* the wrong
    way: a higher-is-better metric (rates, the default) falls below the
    baseline, a ``"better": "lower"`` metric (latencies) rises above it.
    The fresh entry's direction wins over the baseline's, so a baseline
    written before directions existed still gates correctly.  Metrics
    present only on one side are noted but do not fail the gate (the
    baseline predates newly added benchmarks exactly once).
    """
    problems: list[str] = []
    fresh = payload["metrics"]
    recorded = baseline.get("metrics", {})
    for name, entry in sorted(recorded.items()):
        if name not in fresh:
            continue  # retired metric: the baseline refresh removes it
        old = entry.get("value")
        new = fresh[name].get("value")
        if old is None or new is None:
            continue  # malformed entry: informational in the delta table
        if old <= 0:
            continue
        better = fresh[name].get("better", entry.get("better", "higher"))
        # Same one-decimal rounding as delta_table, so the two
        # renderings of one regression never disagree.
        unit = fresh[name].get("unit", "")
        if better == "lower":
            if new > old * (1.0 + tolerance):
                problems.append(
                    f"{name}: {new:,.1f} {unit} is {(new / old - 1.0):.1%} "
                    f"above baseline {old:,.1f} (lower is better)"
                )
        elif new < old * (1.0 - tolerance):
            problems.append(
                f"{name}: {new:,.1f} {unit} is "
                f"{(1.0 - new / old):.1%} below baseline {old:,.1f}"
            )
    return problems


def baseline_warnings(baseline: dict) -> list[str]:
    """Schema warnings for the committed baseline, as printable lines.

    A baseline metric missing its ``unit`` or ``workload`` field still
    gates fine (only ``value`` matters to the tolerance check), but it
    means the artifact was hand-edited or written by an older harness —
    worth a loud warning instead of a silent pass.
    """
    warnings: list[str] = []
    for name, entry in sorted(baseline.get("metrics", {}).items()):
        missing = [field for field in ("unit", "workload") if not entry.get(field)]
        if missing:
            warnings.append(
                f"warning: baseline metric {name!r} is missing "
                f"{' and '.join(missing)} — refresh BENCH_perf.json with "
                "`python -m benchmarks.perf`"
            )
    return warnings


def delta_table(payload: dict, baseline: dict) -> list[str]:
    """Per-metric delta lines over the *union* of both metric sets.

    Metrics on one side only never fail anything — they render as
    informational ``new (no baseline)`` / ``retired`` rows, so a
    freshly added benchmark cannot hard-fail ``--check`` against a
    baseline that predates it.
    """
    fresh = payload.get("metrics", {})
    recorded = baseline.get("metrics", {})
    names = sorted(set(fresh) | set(recorded))
    if not names:
        return ["  (no metrics on either side)"]
    width = max(len(name) for name in names)
    lines = []
    for name in names:
        new = fresh.get(name, {}).get("value")
        old = recorded.get(name, {}).get("value")
        unit = fresh.get(name, {}).get("unit") or recorded.get(name, {}).get(
            "unit", ""
        )
        if new is None and old is None:
            lines.append(
                f"  {name:<{width}}  (no value recorded on either side)"
            )
        elif new is None:
            lines.append(
                f"  {name:<{width}}  {'-':>14}  vs {old:>14,.1f} {unit:<12} "
                "retired (not measured this run)"
            )
        elif old is None:
            lines.append(
                f"  {name:<{width}}  {new:>14,.1f}  {unit:<12} "
                "new (no baseline yet — informational)"
            )
        else:
            delta = (new - old) / old if old else float("nan")
            lines.append(
                f"  {name:<{width}}  {new:>14,.1f}  vs {old:>14,.1f} "
                f"{unit:<12} {delta:+.1%}"
            )
    return lines


def gate_required(
    payload: dict, baseline: dict, required: tuple[str, ...]
) -> list[str]:
    """Hard failures for metrics that *must* hold the gate.

    The plain tolerance check deliberately ignores metrics that exist
    on only one side (baselines predate new benchmarks exactly once).
    A *required* metric gets no such grace: missing from the fresh run
    or from the committed baseline is itself a gate failure, so a
    renamed or silently dropped headline metric cannot sneak past CI.
    """
    problems: list[str] = []
    fresh = payload.get("metrics", {})
    recorded = baseline.get("metrics", {})
    for name in required:
        if fresh.get(name, {}).get("value") is None:
            problems.append(f"{name}: required gate metric missing from this run")
        elif recorded.get(name, {}).get("value") is None:
            problems.append(
                f"{name}: required gate metric missing from the committed "
                "baseline — refresh BENCH_perf.json"
            )
    return problems


def check(
    path: pathlib.Path | None = None,
    tolerance: float = REGRESSION_TOLERANCE,
    artifact: pathlib.Path | None = None,
    delta_out: pathlib.Path | None = None,
    required: tuple[str, ...] = (),
) -> int:
    """Run the harness and gate it against the committed baseline.

    Returns a process exit code: 0 when every metric holds within
    *tolerance* of ``BENCH_perf.json`` (or no baseline exists yet),
    1 otherwise.  The fresh run is *not* written to the baseline —
    refreshing it stays a deliberate ``python -m benchmarks.perf`` act
    — but *artifact* captures it elsewhere (the CI job gates and
    uploads from one harness run instead of benchmarking twice), and
    *delta_out* writes the per-metric delta table as its own text
    artifact.
    """
    baseline_path = BENCH_PATH if path is None else path
    payload = run_all(write=artifact is not None, path=artifact)
    _print_metrics(payload, header="perf harness (check mode)")
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression gate")
        if delta_out is not None:
            delta_out.write_text("(no baseline; no deltas recorded)\n")
        return 0
    baseline = json.loads(baseline_path.read_text())
    for warning in baseline_warnings(baseline):
        print(warning)
    deltas = delta_table(payload, baseline)
    print(f"deltas versus {baseline_path}:")
    for line in deltas:
        print(line)
    problems = gate_required(payload, baseline, required)
    problems += compare_against_baseline(payload, baseline, tolerance)
    if delta_out is not None:
        status = (
            f"FAIL: {len(problems)} metric(s) regressed beyond "
            f"{tolerance:.0%}"
            if problems
            else f"OK: all metrics within {tolerance:.0%} of baseline"
        )
        delta_out.write_text(
            f"deltas versus {baseline_path.name}:\n"
            + "\n".join(deltas)
            + "\n"
            + "\n".join(f"  {line}" for line in problems)
            + ("\n" if problems else "")
            + status
            + "\n"
        )
    if problems:
        print(f"PERF REGRESSION versus {baseline_path} (>{tolerance:.0%}):")
        for line in problems:
            print(f"  {line}")
        return 1
    print(f"all metrics within {tolerance:.0%} of {baseline_path}")
    return 0


def profile_sweep(top: int = 25) -> int:
    """cProfile the sweep workload and print the top-*top* functions.

    Runs the grid serially (``jobs=1``) so the profile captures the
    actual simulation stack instead of queue plumbing in the parent —
    worker-process samples never reach a parent-side profiler.  Sorted
    by cumulative time: the first stop when the sweep metric moves.
    """
    import cProfile
    import io
    import pstats

    from repro.experiments import SweepRunner

    grid = _sweep_grid()
    profiler = cProfile.Profile()
    profiler.enable()
    report = SweepRunner(grid, jobs=1).run()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(
        f"profiled sweep workload: {len(report.results)} scenarios, serial "
        f"(top {top} by cumulative time)"
    )
    print(stream.getvalue())
    return 0


def _print_metrics(payload: dict, header: str) -> None:
    width = max(len(name) for name in payload["metrics"])
    print(header)
    for name, entry in payload["metrics"].items():
        print(
            f"  {name:<{width}}  {entry['value']:>14,.1f} {entry['unit']:<12} "
            f"[{entry['workload']}]"
        )


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed BENCH_perf.json instead of "
        "rewriting it; exit 1 on a >30%% regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=REGRESSION_TOLERANCE,
        help="fractional slowdown allowed in --check mode (default 0.30)",
    )
    parser.add_argument(
        "--artifact",
        type=pathlib.Path,
        help="in --check mode, also write the fresh metrics to this path "
        "(the committed baseline is never touched)",
    )
    parser.add_argument(
        "--delta-out",
        type=pathlib.Path,
        help="in --check mode, write the per-metric delta table to this "
        "path (for CI build artifacts)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="METRIC",
        help="in --check mode, require METRIC to be present on both "
        "sides and hold the tolerance (repeatable); a missing required "
        "metric fails the gate instead of passing silently",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        type=int,
        metavar="TOP",
        help="cProfile the sweep workload instead of benchmarking; print "
        "the top TOP functions by cumulative time (default 25)",
    )
    args = parser.parse_args(argv)
    if args.profile is not None:
        return profile_sweep(top=args.profile)
    if args.check:
        return check(
            tolerance=args.tolerance,
            artifact=args.artifact,
            delta_out=args.delta_out,
            required=tuple(args.gate),
        )
    payload = run_all()
    _print_metrics(payload, header=f"perf harness → {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
