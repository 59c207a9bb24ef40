"""The two DSI benchmark workloads.

Each workload builds its inputs from the seed once, then runs the same
operation (an *op*) again and again.  An op returns how long its set-up
and its measured work took, how many fixed work units it completed, the
output checks that failed, and a digest of its deterministic output,
which must repeat exactly from op to op.

* ``dsi``   -- the data plane: publish an RM1-shaped table and read it back
               with four closed-loop DPP jobs (warehouse -> tensors), then
               one open-loop bursty serving load test.
* ``fleet`` -- the what-if plane: one journaled fleet-grid sweep on 2
               processes, then one busy fleet region over three weeks with
               a live tracer, frozen, exported to Chrome and validated.

Each is a :class:`Composite` of parts that count the same unit.  See
README.md in this directory for why each exists and what it bypasses.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.telemetry as telemetry
from repro.dpp.client import DppClient
from repro.dpp.service import DppSession
from repro.dpp.spec import SessionSpec
from repro.dwrf.layout import EncodingOptions, FileLayout
from repro.experiments import (
    FleetRegionScenario,
    SweepRunner,
    grid_from_json,
    run_chunked,
)
from repro.experiments.grid import (
    QUICK_GRID_CONFIG_SPEC,
    QUICK_GRID_MIX_OVERRIDES,
    QUICK_GRID_STORM_ROWS,
)
from repro.experiments.scenarios import config_from_spec, mix_from_overrides
from repro.serving import ServingScenario
from repro.tectonic.filesystem import TectonicFilesystem
from repro.transforms import FirstX, Logit, NGram, SigridHash, TransformDag
from repro.warehouse import SampleGenerator, Table, publish
from repro.warehouse.schema import FeatureType
from repro.workloads import DERIVED_BASE, RM1, build_mini_dataset

#: Never more processes than the sandbox has cores, and at most two.
JOBS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class OpResult:
    """What one op did and how long it took."""

    #: None when the op's set-up is not separable from its work.
    setup_s: float | None
    work_s: float
    units: float
    #: Digest of the op's deterministic output; called once after the op,
    #: so hashing stays out of both the measured and the traced time, then
    #: dropped so the output it holds does not outlive the op.
    digest: Callable[[], str] | None
    failures: list[str] = field(default_factory=list)
    #: By-products: simulated statistics, work counts and the wall time of
    #: parts of the op.
    stats: dict[str, float] = field(default_factory=dict)
    #: Simulated statistics: recorded and pinned, never gated.
    pinned: dict[str, float] = field(default_factory=dict)
    #: Named wall-clock rates of this op (e.g. ``ingest.publish_rows_per_s``).
    rates: dict[str, float] = field(default_factory=dict)


def _digest(payload) -> Callable[[], str]:
    def digest() -> str:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    return digest


# -- ingest ---------------------------------------------------------------------

INGEST_PARTITIONS = 4
INGEST_ROWS_PER_PARTITION = 1_000
INGEST_STRIPE_ROWS = 250
#: Per-job row-sampling rates, applied at split granularity.
INGEST_SAMPLE_RATES = (1.0, 0.5, 1.0, 0.25)
#: Share of stored features a job projects (the paper's ~11% for RM1).
INGEST_PROJECTED_SHARE = 0.11
#: Jobs draw their projection from this many times as many popular features,
#: so projections overlap on the popular ones.
INGEST_POPULAR_POOL = 2
#: RM1's feature-generation intensity (NGram per pair of sparse features).
INGEST_NGRAMS_PER_SPARSE = 1.2


class Ingest:
    """Warehouse -> DWRF -> Tectonic -> DPP -> trainer tensors.

    Closed loop: each job has one trainer client that pulls the next
    batch only after the previous one arrived, fed by 2 DPP workers.
    """

    def __init__(self, seed: int) -> None:
        # The feature set (per-feature coverage and lengths) and the jobs'
        # projections are fixed; the seed draws the rows.  Seeded feature
        # sets changed the bytes per row, and so the work, by up to 25%.
        partitions = [f"p{i}" for i in range(INGEST_PARTITIONS)]
        self.dataset = build_mini_dataset(RM1, partitions, 1, seed=0)
        self.table = Table(self.dataset.schema)
        SampleGenerator(self.dataset.generator.profile, seed=seed).populate_table(
            self.table, partitions, INGEST_ROWS_PER_PARTITION
        )
        self.rows = INGEST_PARTITIONS * INGEST_ROWS_PER_PARTITION
        self.options = EncodingOptions(
            layout=FileLayout.FLATTENED, stripe_rows=INGEST_STRIPE_ROWS
        )
        rng = np.random.default_rng(0)
        self.specs = []
        for rate in INGEST_SAMPLE_RATES:
            projection, dag, outputs = self._job(rng)
            self.specs.append(
                SessionSpec(
                    table_name=self.table.name,
                    partitions=tuple(self.table.partition_names()),
                    projection=projection,
                    dag=dag,
                    output_ids=outputs,
                    batch_size=256,
                    coalesce_window=1_310_720,
                    row_sample_rate=rate,
                )
            )
        # Encoded once up front for the set-up-only repetitions (which
        # need footers to plan sessions); ops encode afresh.
        self._encoded = publish.encode_table(self.table, self.options)

    def _job(self, rng):
        """A paper-style job: ~11% of stored features, drawn from the most
        popular ones, with RM1's transform mix over them."""
        specs = list(self.dataset.schema)
        popularity = sorted(
            specs,
            key=lambda s: (-s.coverage * (1.0 + s.avg_sparse_length), s.feature_id),
        )
        take = max(2, round(len(specs) * INGEST_PROJECTED_SHARE))
        pool = popularity[: INGEST_POPULAR_POOL * take]
        chosen = [pool[i] for i in sorted(rng.choice(len(pool), take, replace=False))]
        dense = [s.feature_id for s in chosen if s.ftype is FeatureType.DENSE]
        sparse = [s.feature_id for s in chosen if s.ftype is not FeatureType.DENSE]
        dag = TransformDag()
        outputs = []
        next_id = DERIVED_BASE
        for fid in dense:
            dag.add(next_id, Logit(fid))
            outputs.append(next_id)
            next_id += 1
        for fid in sparse:
            dag.add(next_id, FirstX(fid, 32))
            dag.add(next_id + 1, SigridHash(next_id, table_size=1_000_000))
            outputs.append(next_id + 1)
            next_id += 2
        for i in range(round(INGEST_NGRAMS_PER_SPARSE * len(sparse))):
            pair = [sparse[i % len(sparse)], sparse[(i + 1) % len(sparse)]]
            dag.add(next_id, NGram(pair, n=2))
            dag.add(next_id + 1, SigridHash(next_id, table_size=1_000_000))
            outputs.append(next_id + 1)
            next_id += 2
        return frozenset(dense + sparse), dag, tuple(outputs)

    def _session(self, filesystem, spec, footers):
        session = DppSession(
            spec, filesystem, self.dataset.schema, footers, n_workers=2, n_clients=1
        )
        # The benchmark is the trainer: its client keeps what it receives.
        session.clients = [TrainerClient("client-0", session.workers)]
        return session

    def setup(self) -> float:
        start = time.perf_counter()
        filesystem = TectonicFilesystem(n_nodes=6)
        elapsed = time.perf_counter() - start
        footers = publish.store_files(filesystem, self.table.name, self._encoded)
        start = time.perf_counter()
        for spec in self.specs:
            self._session(filesystem, spec, footers)
        return elapsed + time.perf_counter() - start

    def op(self) -> OpResult:
        start = time.perf_counter()
        filesystem = TectonicFilesystem(n_nodes=6)
        setup_s = time.perf_counter() - start

        start = time.perf_counter()
        files = publish.encode_table(self.table, self.options)
        footers = publish.store_files(filesystem, self.table.name, files)
        publish_s = time.perf_counter() - start

        read_s = 0.0
        failures = []
        samples = 0
        received = []
        for job, spec in enumerate(self.specs):
            start = time.perf_counter()
            session = self._session(filesystem, spec, footers)
            setup_s += time.perf_counter() - start
            start = time.perf_counter()
            session.pump()
            read_s += time.perf_counter() - start
            planned = sum(split.row_count for split in session.master.primary.splits)
            delivered = sum(batch.n_rows for batch in session.clients[0].received)
            if delivered != planned:
                failures.append(
                    f"job {job}: delivered {delivered} rows, planned {planned}"
                )
            samples += delivered
            received += session.clients[0].received
        return OpResult(
            setup_s=setup_s,
            work_s=publish_s + read_s,
            units=samples,
            digest=lambda: _tensor_digest(received),
            failures=failures,
            rates={
                "ingest.publish_rows_per_s": self.rows / publish_s,
                "ingest.read_samples_per_s": samples / read_s,
            },
        )


class TrainerClient(DppClient):
    """A DPP client that keeps every batch it hands to the trainer."""

    def __init__(self, client_id: str, workers) -> None:
        super().__init__(client_id, workers)
        self.received = []

    def get_batch(self):
        batch = super().get_batch()
        if batch is not None:
            self.received.append(batch)
        return batch


def _tensor_digest(batches) -> str:
    """Digest of every delivered tensor, in delivery order."""
    digest = hashlib.sha256()
    for batch in batches:
        digest.update(batch.labels.tobytes())
        for group in (
            batch.dense,
            batch.sparse_offsets,
            batch.sparse_values,
            batch.sparse_weights,
        ):
            for fid in sorted(group):
                digest.update(str(fid).encode())
                digest.update(group[fid].tobytes())
    return digest.hexdigest()[:16]


# -- serving --------------------------------------------------------------------

#: Large enough that the per-request cost growth of long-lived workers
#: shows between the first and last quarter of a run.
SERVING_REQUESTS = 3_000


class Serving:
    """The ``serving/bursty`` shape: open-loop bursty arrivals in virtual
    time with a retry-with-backoff fetch policy, one run per op."""

    def __init__(self, seed: int) -> None:
        self.scenario = ServingScenario(
            name=f"serving/bursty/seed{seed}",
            seed=seed,
            arrival_mix="bursty",
            fetch_policy="retry",
            n_requests=SERVING_REQUESTS,
        )
        # A served fetch is one tensor batch.  Partitions of whole batches
        # keep every batch full, so a fetch delivers batch_size samples.
        if self.scenario.rows_per_partition % self.scenario.batch_size:
            raise ValueError("serving partitions must hold whole batches")

    def setup(self) -> float:
        start = time.perf_counter()
        self.scenario.build_plane()
        return time.perf_counter() - start

    def op(self) -> OpResult:
        start = time.perf_counter()
        plane = self.scenario.build_plane()
        setup_s = time.perf_counter() - start
        start = time.perf_counter()
        report = plane.run()
        work_s = time.perf_counter() - start
        failures = []
        if report.served + report.shed != SERVING_REQUESTS:
            failures.append(
                f"served {report.served} + shed {report.shed} "
                f"!= {SERVING_REQUESTS} requests"
            )
        return OpResult(
            setup_s=setup_s,
            work_s=work_s,
            units=report.served * self.scenario.batch_size,
            digest=_digest(report.payload()),
            failures=failures,
            pinned={
                "serving.sim_fetch_p50_ms": report.fetch_p50_ms,
                "serving.sim_fetch_p99_ms": report.fetch_p99_ms,
                "serving.shed": report.shed,
                "serving.epochs": report.epochs,
            },
            stats={
                "clock_events": plane.clock.fired,
                "sim_hours": plane.clock.now / 3600.0,
            },
            rates={"serving.requests_per_s": report.served / work_s},
        )


# -- fleet ----------------------------------------------------------------------

SWEEP_SEEDS = 4
#: Arrivals and each cell's simulation stop here, so every seed's grid
#: does nearly the same work (run to completion, it varied with the seed).
SWEEP_HORIZON_S = 7 * 24 * 3600.0
#: Arrivals and the traced region's simulation both stop at the horizon,
#: so every seed simulates the same region-hours with nearly the same
#: event count.
REGION_HORIZON_S = 21 * 24 * 3600.0


class Sweep:
    """A journaled quick-grid-shaped sweep: 2 mixes x {none, storm} x 4
    seeds at a 7-day horizon, fsync per chunk, ``jobs=min(2, nproc)``."""

    def __init__(self, seed: int, out_dir) -> None:
        self.grid = grid_from_json(
            {
                "seeds": [seed * SWEEP_SEEDS + i for i in range(SWEEP_SEEDS)],
                "duration_s": SWEEP_HORIZON_S,
                "horizon_s": SWEEP_HORIZON_S,
                "mixes": QUICK_GRID_MIX_OVERRIDES,
                "configs": {"base": QUICK_GRID_CONFIG_SPEC},
                "faults": {"none": [], "storm": QUICK_GRID_STORM_ROWS},
            }
        )
        self.journal = out_dir / f"sweep-{os.getpid()}.journal.jsonl"

    def _runner(self):
        """Runner construction plus one start and stop of the fork pool."""
        runner = SweepRunner(self.grid, jobs=JOBS)
        run_chunked(_noop_chunk, JOBS, jobs=JOBS, chunk_size=1)
        return runner

    def setup(self) -> float:
        start = time.perf_counter()
        self._runner()
        return time.perf_counter() - start

    def profile_op(self) -> OpResult:
        """Profiled serially: calls inside pool workers are invisible to
        the parent's profiler, and the parent's polling depends on timing."""
        return self.op(jobs=1)

    def op(self, jobs: int | None = None) -> OpResult:
        start = time.perf_counter()
        runner = self._runner() if jobs is None else SweepRunner(self.grid, jobs=jobs)
        setup_s = time.perf_counter() - start
        try:
            start = time.perf_counter()
            report = runner.run(grid_name="perfbench", journal_path=self.journal)
            work_s = time.perf_counter() - start
        finally:
            self.journal.unlink(missing_ok=True)
        failures = [
            f"cell {r.name} quarantined: {r.error}" for r in report.quarantined
        ]
        completed = sum(1 for r in report.results if r.status == "ok")
        hours = SWEEP_HORIZON_S / 3600.0
        return OpResult(
            setup_s=setup_s,
            work_s=work_s,
            units=completed * hours,
            digest=_digest(report.deterministic_payload()),
            failures=failures,
            stats={
                "clock_events": sum(r.events_fired for r in report.results),
                "sim_hours": len(report.results) * hours,
                "cell_wall_s": sum(r.wall_s for r in report.results),
                "sweep_wall_s": work_s,
            },
            rates={"sweep.cells_per_s": completed / work_s},
        )


def _noop_chunk(start: int, stop: int, cell_done) -> None:
    return None


class TracedRegion:
    """One ``fleet/busy`` region over three weeks with a live tracer, then
    ``freeze()``, Chrome export and validation."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenario = FleetRegionScenario(
            name=f"fleet/busy/seed{seed}",
            trace_seed=seed,
            mix=mix_from_overrides(QUICK_GRID_MIX_OVERRIDES["busy"]),
            config=config_from_spec(QUICK_GRID_CONFIG_SPEC),
            duration_s=REGION_HORIZON_S,
            horizon_s=REGION_HORIZON_S,
        )
        self.hours = REGION_HORIZON_S / 3600.0

    def _tracer(self) -> telemetry.Tracer:
        return telemetry.Tracer(scenario=self.scenario.name, seed=self.seed)

    def setup(self) -> float:
        tracer = self._tracer()
        start = time.perf_counter()
        self.scenario.build(tracer=tracer)
        return time.perf_counter() - start

    def op(self) -> OpResult:
        tracer = self._tracer()
        start = time.perf_counter()
        self.scenario.run_traced(tracer)
        trace = tracer.freeze()
        chrome = telemetry.to_chrome(trace)
        problems = telemetry.validate_chrome_trace(chrome)
        work_s = time.perf_counter() - start
        return OpResult(
            setup_s=None,
            work_s=work_s,
            units=self.hours,
            digest=_digest(chrome),
            failures=[f"chrome export: {p}" for p in problems],
            stats={"tracer_events": tracer.event_count, "sim_hours": self.hours},
            rates={"fleet.sim_hours_per_s": self.hours / work_s},
        )

    def twin(self) -> float:
        """Wall time of the same region without a tracer."""
        start = time.perf_counter()
        self.scenario.run()
        return time.perf_counter() - start


# -- workloads ------------------------------------------------------------------


class Composite:
    """A workload whose op runs its parts' ops back to back.  Every part
    counts the workload's unit, so the op's units and work time are sums."""

    def __init__(self, name: str, unit: str, parts) -> None:
        self.name = name
        self.unit = unit
        self.parts = parts
        twins = [part.twin for part in parts if hasattr(part, "twin")]
        if twins:
            (self.twin,) = twins

    def setup(self) -> float:
        return sum(part.setup() for part in self.parts)

    def op(self) -> OpResult:
        return self._merge([part.op() for part in self.parts])

    def profile_op(self) -> OpResult:
        return self._merge(
            [getattr(part, "profile_op", part.op)() for part in self.parts]
        )

    @staticmethod
    def _merge(results: list[OpResult]) -> OpResult:
        setups = [r.setup_s for r in results]
        digests = [r.digest for r in results]
        stats: dict[str, float] = {}
        for r in results:
            for name, value in r.stats.items():
                stats[name] = stats.get(name, 0.0) + value
        return OpResult(
            # A part whose set-up is inside its work (the traced region
            # builds inside run_traced) leaves set-up to the set-up-only
            # repetitions.
            setup_s=None if None in setups else sum(setups),
            work_s=sum(r.work_s for r in results),
            units=sum(r.units for r in results),
            digest=lambda: _digest([d() for d in digests])(),
            failures=[f for r in results for f in r.failures],
            stats=stats,
            pinned={k: v for r in results for k, v in r.pinned.items()},
            rates={k: v for r in results for k, v in r.rates.items()},
        )


def make(name: str, seed: int, out_dir):
    if name == "dsi":
        return Composite(
            "dsi", "trainer samples delivered", [Ingest(seed), Serving(seed)]
        )
    if name == "fleet":
        return Composite(
            "fleet",
            "simulated region-hours",
            [Sweep(seed, out_dir), TracedRegion(seed)],
        )
    raise ValueError(f"unknown workload {name!r}")
