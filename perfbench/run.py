"""The DSI benchmark: one command, two workloads, plain or traced.

Run from the repository root::

    python3 perfbench/run.py --workload dsi --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and instrumented operations, profiles one
more operation with ``cProfile``, and reports the per-layer metrics: the
self-time ledger, deterministic work counts and the tracing overhead.
Metric names, units and directions come from ``BENCHMARK.json`` at the
repository root.  Stdout ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the details (named per-workload rates, pinned
simulated statistics, output digest, ledger).  The traced run also
writes its spans to ``perfbench/out/``.  See README.md here for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import sys
import time
import traceback

import tracing

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("dsi", "fleet")

#: Every run makes at least this many measured ops (or plain/traced pairs),
#: however short --seconds is, so a median exists.
MIN_OPS = 3
MIN_PAIRS = 2
#: Set-up-only repetitions before the measured ops.
SETUP_REPS = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_checkout():
    """Put this checkout's ``src/`` first on the path; refuse to run
    against anything else (an installed copy, or no sources at all)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


class Ops:
    """Runs ops, times them and applies the cross-op output checks."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.results = []  # OpResult of every op that returned
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None

    def run(self, op=None, recorder=None):
        """One op; returns ``(result or None, wall seconds)``.  With a
        *recorder*, the op runs inside its root span."""
        op = op or self.workload.op
        self.attempted += 1
        # Garbage left by the previous op is collected here, not inside
        # the next op's timing.
        gc.collect()
        root = recorder.open(tracing.ROOT) if recorder is not None else -1
        start = time.perf_counter()
        try:
            result = op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.close(root)
        if result is None:
            self.failed += 1
            self.failures.append(f"op {self.attempted} raised")
            return None, wall
        problems = list(result.failures)
        digest = result.digest()
        result.digest = None
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"digest {digest} != first op's {self.digest}")
        if problems:
            self.failed += 1
            self.failures.extend(f"op {self.attempted}: {p}" for p in problems)
        self.results.append(result)
        return result, wall

    def median_rate(self) -> float:
        return statistics.median(r.units / r.work_s for r in self.results)

    def rates(self) -> dict[str, float]:
        names = sorted({name for r in self.results for name in r.rates})
        return {
            name: statistics.median(r.rates[name] for r in self.results)
            for name in names
        }


def plain_run(workload, seconds: float, setup: list[float]):
    """One warm-up op, checked but not timed, then measured ops until
    *seconds* have passed since the start (at least MIN_OPS)."""
    ops = Ops(workload)
    start = time.perf_counter()
    ops.run()
    ops.results.clear()
    while ops.attempted <= MIN_OPS or time.perf_counter() - start < seconds:
        ops.run()
    setup += [r.setup_s for r in ops.results if r.setup_s is not None]
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units_per_s": ops.median_rate() if ops.results else 0.0,
    }
    return ops, metrics, {
        "op_rates": [r.units / r.work_s for r in ops.results],
        "rates": ops.rates(),
    }


def traced_run(workload, seconds: float, seed: int):
    """Profile one op, then alternate plain and instrumented ops until
    *seconds* have passed since the start (at least MIN_PAIRS pairs)."""
    recorder = tracing.Recorder()
    ops = Ops(workload)
    start = time.perf_counter()
    profiler = cProfile.Profile()
    profiled, _ = ops.run(
        lambda: profiler.runcall(getattr(workload, "profile_op", workload.op))
    )
    calls = pstats.Stats(profiler).total_calls
    plain_walls, traced_walls, traced_results, per_op = [], [], [], []
    while len(traced_walls) < MIN_PAIRS or time.perf_counter() - start < seconds:
        _, wall = ops.run()
        plain_walls.append(wall)
        recorder.begin_op(len(traced_walls))
        with recorder.installed():
            result, wall = ops.run(recorder=recorder)
        traced_walls.append(wall)
        per_op.append(_collect(recorder))
        if result is not None:
            traced_results.append(result)
    twin = getattr(workload, "twin", None)
    twin_walls = [twin() for _ in range(MIN_PAIRS)] if twin else []
    metrics = layer_metrics(
        recorder, traced_results, per_op, plain_walls, traced_walls, twin_walls,
        calls / profiled.units if profiled else 0.0,
    )
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.json.gz"
    recorder.write(spans_path)
    n = len(traced_walls)
    ledger = {k: v / n for k, v in sorted(tracing.ledger(recorder.spans).items())}
    return ops, metrics, {
        "ledger_s_per_op": ledger,
        "spans": str(spans_path.relative_to(ROOT)),
    }


def _collect(recorder) -> dict:
    """Per-op counts that live on the objects the op touched."""
    useful = fetched = 0
    for worker in recorder.workers.values():
        useful += worker.io_trace.useful_bytes
        fetched += worker.io_trace.bytes_read
    events = sum(sim.clock.fired for sim in recorder.simulators)
    recorder.simulators.clear()
    return {"useful": useful, "fetched": fetched, "sim_events": events}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, results, per_op, plain_walls, traced_walls,
                  twin_walls, calls_per_unit) -> dict[str, float]:
    spans = recorder.spans
    n = len(traced_walls)
    own = tracing.self_times(spans)
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    for span, s in zip(spans, own):
        self_s[span[tracing.NAME]] = self_s.get(span[tracing.NAME], 0.0) + s
        count[span[tracing.NAME]] = count.get(span[tracing.NAME], 0) + 1

    def per_op_self(name: str) -> float:
        return self_s.get(name, 0.0) / n

    # Per split execution of the closed-loop jobs: host time of its
    # extract / transform / tensorize / deposit spans.  Per split execution
    # of the serving plane's long-lived workers: extract alone, in
    # execution order, per op.
    serving = [False] * len(spans)
    for index, span in enumerate(spans):
        parent = span[tracing.PARENT]
        serving[index] = span[tracing.NAME] == "serving.kernel" or (
            parent >= 0 and serving[parent])
    split_s: dict[tuple[int, int], float] = {}
    extract_s: dict[int, dict[int, float]] = {}
    for span, in_serving in zip(spans, serving):
        key = span[tracing.KEY]
        if key < 0:
            continue
        duration = span[tracing.END] - span[tracing.START]
        if not in_serving:
            split_s[(span[tracing.OP], key)] = split_s.get(
                (span[tracing.OP], key), 0.0) + duration
        elif span[tracing.NAME] == "dpp.extract":
            by_exec = extract_s.setdefault(span[tracing.OP], {})
            by_exec[key] = by_exec.get(key, 0.0) + duration
    growth = []
    for by_exec in extract_s.values():
        ordered = [by_exec[k] for k in sorted(by_exec)]
        quarter = len(ordered) // 4
        if quarter:
            growth.append(
                statistics.fmean(ordered[-quarter:]) / statistics.fmean(ordered[:quarter])
            )
    split_ms = sorted(1_000.0 * v for v in split_s.values())
    root_s = sum(
        span[tracing.END] - span[tracing.START]
        for span in spans if span[tracing.NAME] == tracing.ROOT
    )
    run_traced_s = [
        span[tracing.END] - span[tracing.START]
        for span in spans if span[tracing.NAME] == "fleet.run"
    ]

    def mean_stat(name: str) -> float:
        return statistics.fmean(r.stats.get(name, 0.0) for r in results) if results else 0.0

    clock_events = mean_stat("clock_events") + statistics.fmean(
        op["sim_events"] for op in per_op)
    cell_wall_s = mean_stat("cell_wall_s")
    from workloads import JOBS

    return {
        "dwrf.encode_s": per_op_self("dwrf.encode"),
        "tectonic.write_s": per_op_self("tectonic.write"),
        "tectonic.stored_per_logical_byte": _ratio(
            recorder.stored_bytes, recorder.stored_logical_bytes),
        "tectonic.read_s": per_op_self("tectonic.read"),
        "tectonic.reads": count.get("tectonic.read", 0) / n,
        "tectonic.read_bytes": recorder.read_bytes / n,
        "dwrf.decode_s": per_op_self("dpp.extract"),
        "dwrf.useful_byte_ratio": _ratio(
            sum(op["useful"] for op in per_op), sum(op["fetched"] for op in per_op)),
        "transforms.busy_s": per_op_self("transforms"),
        "transforms.batches": count.get("transforms", 0) / n,
        "dpp.extract_s": sum(sum(v.values()) for v in extract_s.values()) / n,
        "dpp.extract_growth": statistics.fmean(growth) if growth else 0.0,
        "dpp.tensorize_s": per_op_self("dpp.tensorize"),
        "dpp.tensor_batches": count.get("dpp.tensorize", 0) / n,
        "dpp.deposit_s": per_op_self("dpp.deposit"),
        "dpp.master_s": per_op_self("dpp.master"),
        "dpp.client_s": per_op_self("dpp.client"),
        "dpp.split_ms_p50": statistics.median(split_ms) if split_ms else 0.0,
        "dpp.split_ms_max": split_ms[-1] if split_ms else 0.0,
        "serving.build_plane_s": per_op_self("serving.build_plane"),
        "serving.kernel_s": per_op_self("serving.kernel"),
        "experiments.pool_wait_s": per_op_self("experiments.pool_wait"),
        "experiments.journal_s": per_op_self("experiments.journal"),
        "experiments.journal_fsyncs": recorder.journal_fsyncs / n,
        "experiments.parallel_efficiency": _ratio(
            cell_wall_s, JOBS * mean_stat("sweep_wall_s")) if cell_wall_s else 0.0,
        "fleet.run_s": per_op_self("fleet.run") + cell_wall_s,
        "simclock.events": clock_events,
        "simclock.events_per_sim_hour": _ratio(clock_events, mean_stat("sim_hours")),
        "telemetry.events": mean_stat("tracer_events"),
        "telemetry.freeze_s": per_op_self("telemetry.freeze"),
        "telemetry.export_s": per_op_self("telemetry.export"),
        "telemetry.validate_s": per_op_self("telemetry.validate"),
        "telemetry.tax_ratio": _ratio(
            statistics.median(run_traced_s), statistics.median(twin_walls))
        if twin_walls and run_traced_s else 0.0,
        "ledger.wall_s": root_s / n,
        "ledger.unattributed_s": self_s.get(tracing.ROOT, 0.0) / n,
        "ledger.unattributed_share": _ratio(self_s.get(tracing.ROOT, 0.0), root_s),
        "trace.overhead_ratio": _ratio(
            statistics.median(traced_walls), statistics.median(plain_walls)),
        "profile.calls_per_unit": calls_per_unit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT)
    setup = [workload.setup() for _ in range(SETUP_REPS)]
    if args.trace:
        ops, values, extra = traced_run(workload, args.seconds, args.seed)
        wanted = declared["per_layer"]
    else:
        ops, values, extra = plain_run(workload, args.seconds, setup)
        wanted = declared["end_to_end"]
    for failure in ops.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "unit": workload.unit,
        "ops": ops.attempted,
        "pinned": ops.results[0].pinned if ops.results else {},
        "digest": ops.digest,
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
