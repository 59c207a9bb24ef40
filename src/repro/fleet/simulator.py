"""The fleet orchestration plane: many jobs, one clock, shared everything.

:class:`FleetSimulator` runs a multi-tenant region as a discrete-event
simulation on a single :class:`~repro.common.simclock.SimClock`:

* jobs arrive from a trace (:mod:`repro.fleet.jobs`) and queue FCFS for
  trainer capacity (the admission story of Section 4.2);
* active sessions' preprocessing is a fluid model per job — workers
  produce at their model's achievable QPS, trainers consume at GPU
  demand, a bounded buffer absorbs transients — the fleet
  generalization of :class:`~repro.dpp.simulation.TimedDppSimulation`;
* every tick the :class:`~repro.fleet.broker.StorageBroker` apportions
  shared Tectonic bandwidth and cache across sessions, capping each
  job's achievable rate;
* every control period each job's autoscaling controller proposes a
  fleet size and the :class:`~repro.fleet.allocator.GlobalDppAllocator`
  arbitrates all proposals against one power-bounded worker pool.

The tick dynamics run in one of two modes with identical semantics:
the default **fused** mode coalesces the per-job state update into
vectorized numpy passes over all active jobs (demand declaration,
grant application, consumption, stall accrual), while the **reference**
mode keeps the original one-Python-loop-per-phase structure.  Both
modes share the same event ordering and the same floating-point
operations, so a fixed job trace produces *bit-identical*
:class:`~repro.fleet.report.FleetReport`\\ s either way — the
equivalence suite (``tests/fleet/test_tick_equivalence.py``) holds the
fused hot path to that contract.

The result is a :class:`~repro.fleet.report.FleetReport`: per-job
throughput, contention slowdown, queue delay, and shared-resource
utilization traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigError, SchedulingError
from ..common.simclock import SimClock
from ..dpp.analytical import worker_throughput
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..dpp.autoscaler import AutoscalerConfig, AutoscalingController
from ..workloads.hardware import V100_TRAINER, TrainerNodeSpec
from .allocator import (
    KIND_PRIORITY,
    AllocationRound,
    FleetPowerBudget,
    GlobalDppAllocator,
    PoolConfig,
)
from .broker import StorageBroker, StorageFabric, max_min_share
from .jobs import FleetJobSpec
from .report import FleetReport, FleetSample, JobOutcome

_EPS = 1e-9

#: Active-job count from which the fused tick switches its coalesced
#: pass from the tight scalar loop to numpy array operations.  Below
#: this, per-ufunc dispatch overhead outweighs the vectorized
#: arithmetic; measured crossover on CPython 3.11 / numpy 2.x is
#: around a few dozen jobs.
_VECTOR_MIN = 32

#: Per-tick trace counters read from the sample rows: (counter name,
#: row column) in recording order — live workers, queued jobs, granted
#: bytes/s.  Column 0 (the tick time) stamps them and the tick span.
_TICK_COUNTERS = (
    ("fleet.live_workers", 3),
    ("fleet.queued_jobs", 2),
    ("fleet.granted_bytes_per_s", 7),
)


def _fleet_autoscaler_config() -> AutoscalerConfig:
    """Per-job controller thresholds in buffered *seconds of demand*."""
    return AutoscalerConfig(
        min_buffered_per_worker=5.0,
        drain_buffered_per_worker=30.0,
        low_utilization=0.5,
        scale_up_step=4,
        drain_step=2,
        min_workers=1,
        max_workers=1_000_000,
    )


@dataclass(frozen=True)
class FleetConfig:
    """One region's shared plant and control-loop settings."""

    fabric: StorageFabric
    n_trainer_nodes: int = 64
    trainer_node: TrainerNodeSpec = V100_TRAINER
    pool: PoolConfig = field(default_factory=PoolConfig)
    autoscaler: AutoscalerConfig = field(default_factory=_fleet_autoscaler_config)
    power_budget_watts: float | None = None
    tick_s: float = 60.0
    control_period_s: float = 300.0
    buffer_capacity_s: float = 60.0  # seconds of demand a job may buffer

    def __post_init__(self) -> None:
        if self.n_trainer_nodes < 1:
            raise ConfigError("region needs at least one trainer node")
        if self.tick_s <= 0 or self.control_period_s <= 0:
            raise ConfigError("time steps must be positive")
        if self.buffer_capacity_s <= 0:
            raise ConfigError("buffer capacity must be positive")

    def power_budget(self) -> FleetPowerBudget | None:
        """The power coupling, when a budget is set."""
        if self.power_budget_watts is None:
            return None
        return FleetPowerBudget(
            budget_watts=self.power_budget_watts,
            storage_watts=self.fabric.total_watts,
            trainer_node_watts=self.trainer_node.total_watts,
            worker_node_watts=self.pool.worker_node.watts,
        )


@dataclass
class _ActiveJob:
    """Fluid state of one admitted session.

    Spec-derived rates are resolved once at admission: the tick loop
    reads them every virtual minute, and walking the model-config
    property chains per tick per job was measurable overhead.
    """

    spec: FleetJobSpec
    outcome: JobOutcome
    worker_qps: float
    controller: AutoscalingController
    requested: int
    # Cached spec constants (admission-time resolution).
    demand_sps: float = 0.0
    rx_bytes_per_sample: float = 0.0
    buffer_cap_samples: float = 0.0
    base_workers: int = 1
    priority: int = 0  # KIND_PRIORITY rank, resolved once
    live_workers: int = 0
    # In-flight launches, (ready_s, count), ascending ready time: new
    # launches mature last and sheds cancel from the right, so the
    # deque matures strictly from the left.
    pending: deque[tuple[float, int]] = field(default_factory=deque)
    pending_count: int = 0
    buffer_samples: float = 0.0
    last_rate: float = 0.0

    @property
    def total_workers(self) -> int:
        """Live plus in-flight launches (counts against the pool)."""
        return self.live_workers + self.pending_count

    def mature_pending(self, now: float) -> int:
        """Promote launches whose spin-up completed by *now*.

        Returns how many matured (the simulator keeps fleet-wide
        worker totals, so callers fold the count in).
        """
        pending = self.pending
        if not pending:
            return 0
        matured = 0
        while pending and pending[0][0] <= now:
            matured += pending.popleft()[1]
        if matured:
            self.live_workers += matured
            self.pending_count -= matured
        return matured


class _EpochColumns:
    """Membership-epoch columnar state for the fused tick.

    Allocated once per membership epoch (the active-job set changing is
    the only boundary) and mutated in place every tick, so the hot loop
    is pure list/array arithmetic with no per-tick re-materialization
    and no Python-object attribute traffic.  Two groups live here:

    * **static columns** — rates, caps, targets, cache absorption —
      resolved once at epoch build;
    * **state columns** — live workers, buffer depth, samples done,
      stall, worker-seconds, granted bytes, last rate — the *truth*
      for the epoch's duration.  The owning :class:`_ActiveJob` /
      :class:`~repro.fleet.report.JobOutcome` objects go stale between
      flushes; :meth:`FleetSimulator._flush_columns` writes them back
      at every epoch boundary (admission, finish, report snapshot), so
      nothing outside the simulator ever observes the staleness.  The
      ``live`` column is the one exception: ``job.live_workers`` stays
      authoritative (control grants, crashes, and maturation mutate
      it) and the column mirrors it at each of those points.

    The numpy views of the static columns are only built for epochs
    wide enough to take the vectorized tick path.
    """

    __slots__ = (
        "jobs", "index_of",
        "qps", "demand", "rx", "cap", "target", "absorbed", "one_minus",
        "total_demand",
        "live", "buffer", "done", "stall", "wsec", "gbytes", "rate",
        "supplies", "ssd_in", "hdd_in",
        "done_d", "stall_d", "wsec_d", "gbytes_d",
        "qps_arr", "demand_arr", "rx_arr", "cap_arr", "target_arr",
        "absorbed_arr", "one_minus_arr",
    )


class _SteadyStretch:
    """A proven fixed point of the fluid dynamics, exploited lazily.

    When a tick leaves every job's buffer exactly where it found it —
    and no launches are in flight — the next tick is provably
    identical: supplies, declared demand, water-fill grants, rates,
    and consumption are all pure functions of state that did not
    change.  The only evolution is four per-job accumulators (samples
    done, stall, worker-seconds, granted bytes) advancing by a
    *constant* per-tick delta.

    A stretch defers those accumulations — and the sample rows
    themselves, traced or not: fast ticks just count themselves, and
    settling (a) replays the deferred count as one fused
    ``acc += delta`` per tick over a stacked ``(4, n)`` float64 array —
    the exact same IEEE-754 addition sequence the reference would have
    executed job by job — and (b) appends the deferred rows with their
    tick times rebuilt by the same chained ``t + tick`` float adds the
    clock's periodic reschedule performs, so byte-identity survives
    both.
    ``remaining`` bounds the stretch so no job can cross its
    completion threshold (or bend its consumption clamp) inside it;
    any state mutation (grant change, crash, derate, membership
    change, queue growth, report snapshot) settles first.
    """

    __slots__ = (
        "remaining", "deferred", "delta",
        "total_rate", "total_demand", "granted_bps", "control_steady",
        "t_next", "row_tail", "queue_breaks",
    )

    def __init__(
        self,
        remaining: int,
        delta: np.ndarray,
        total_rate: float,
        total_demand: float,
        granted_bps: float,
    ) -> None:
        self.remaining = remaining
        self.deferred = 0
        self.delta = delta
        self.total_rate = total_rate
        self.total_demand = total_demand
        self.granted_bps = granted_bps
        self.control_steady = False
        # Deferred-row reconstruction state: the time of the first
        # deferred tick (the clock's own ``now + interval`` float) and
        # the constant sample-row tail (everything after time_s) —
        # both pinned for the stretch's lifetime, since every tail
        # field is a pure function of state the stretch freezes.
        self.t_next = 0.0
        self.row_tail: tuple = ()
        # Deferred-row indices at which the fleet queue grew (an
        # arrival that was not admitted — the one tail field a stretch
        # does not pin).  None until the first such arrival.
        self.queue_breaks: list[int] | None = None


#: Stretch length used when no job makes progress (fully starved
#: fleet): effectively unbounded — only an external event ends it.
_STRETCH_UNBOUNDED = 0x7FFFFFFFFFFFFFFF


class FleetSimulator:
    """Discrete-event, multi-tenant datacenter-region simulator.

    *fused* selects the vectorized tick (default).  ``fused=False``
    runs the per-callback reference dynamics — same semantics, kept as
    the equivalence baseline and for single-stepping comprehension.
    """

    def __init__(
        self,
        config: FleetConfig,
        jobs: list[FleetJobSpec],
        clock: SimClock | None = None,
        fused: bool = True,
        tracer: Tracer | None = None,
    ) -> None:
        if not jobs:
            raise ConfigError("fleet needs at least one job")
        oversized = [j for j in jobs if j.trainer_nodes > config.n_trainer_nodes]
        if oversized:
            raise SchedulingError(
                f"{len(oversized)} job(s) need more trainers than the region has"
            )
        if len({j.job_id for j in jobs}) != len(jobs):
            raise ConfigError("job ids must be unique")
        self.config = config
        self.clock = clock or SimClock()
        self.fused = fused
        self.broker = StorageBroker(config.fabric)
        # One budget object serves both the allocator's worker cap
        # (when configured) and the per-tick power accounting; an
        # unbudgeted fleet still meters its draw against an unbounded
        # budget so the report's power trace uses one formula.
        self._budget = config.power_budget()
        self._power_meter = self._budget or FleetPowerBudget(
            budget_watts=math.inf,
            storage_watts=config.fabric.total_watts,
            trainer_node_watts=config.trainer_node.total_watts,
            worker_node_watts=config.pool.worker_node.watts,
        )
        self.allocator = GlobalDppAllocator(config.pool, self._budget)
        self.jobs = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        self._pending_arrivals = len(self.jobs)
        self._queue: list[FleetJobSpec] = []
        self._active: dict[int, _ActiveJob] = {}
        self._free_trainers = config.n_trainer_nodes
        self._outcomes: dict[int, JobOutcome] = {}
        # Samples accumulate columnar (one tuple per tick) and
        # materialize into FleetSample objects only in report() —
        # dataclass construction per tick was measurable.
        self._sample_rows: list[tuple] = []
        self._qps_cache: dict[str, float] = {}
        self._fabric_bandwidth = config.fabric.total_bandwidth
        # Tick-loop constants hoisted out of the per-event path.
        self._tick_s = config.tick_s
        self._pw_storage = self._power_meter.storage_watts
        self._pw_trainer = self._power_meter.trainer_node_watts
        self._pw_worker = self._power_meter.worker_node_watts
        # Last allocation round memo: steady-state control periods
        # re-present identical (rows, active_trainers) asks, and the
        # water-fill is pure in them — replay the grants, still
        # recording the round for the allocator's history.
        self._alloc_cache: tuple[list, int, dict[int, int], int] | None = None
        # Fleet-wide worker totals, maintained at every mutation point
        # (launch, maturation, shed, crash, finish) so the per-tick
        # sample is O(1) instead of a sum over active jobs.
        self._live_total = 0
        self._pending_total = 0
        # Membership-epoch columnar state for the fused tick: rebuilt
        # only when a job is admitted or finishes, not every tick.
        self._static: _EpochColumns | None = None
        # Open steady-state stretch (fixed-point fast path), if any.
        self._stretch: _SteadyStretch | None = None
        # Memoized tier apportionments, keyed by exact demand vectors
        # (+ derate): max_min_share is pure, so a hit replays the
        # identical grant floats without re-water-filling.
        self._grant_memo: dict = {}
        self._chains_started = False
        self._tick_handle = None
        self._control_handle = None
        # The tick body is bound once; traced or not, the periodic
        # callback dispatches straight into the dynamics.
        self._tick_core = self._tick_fused if fused else self._tick_reference
        # Telemetry: the tracer rides the simulation clock.  Disabled
        # (the shared NULL_TRACER) every hot-path site costs one
        # `tracer.enabled` check.  Enabled, the tick path still records
        # nothing: the sample rows *are* the tick telemetry (a span plus
        # three counters per row, read at freeze/export time), and the
        # tick and clock-event metrics are derived from the row count
        # and the clock's fired total when the metrics are snapshotted.
        self.tracer = tracer or NULL_TRACER
        # Hoisted once: every per-event site guards on this plain bool
        # instead of an attribute chain through the tracer object.
        self._traced = self.tracer.enabled
        if self._traced:
            self.tracer.bind_clock(lambda: self.clock.now)
            self.tracer.attach_ticks(
                "fleet.tick", "fleet", _TICK_COUNTERS,
                rows=self._settled_rows, count=self._tick_count,
            )
            self._fired_at_attach = self.clock.fired
            self.tracer.metrics.add_collector(self._collect_metrics)
            self.broker.attach_tracer(self.tracer)

    # -- lifecycle -------------------------------------------------------------

    def _worker_qps(self, spec: FleetJobSpec) -> float:
        model = spec.model
        if model.name not in self._qps_cache:
            self._qps_cache[model.name] = worker_throughput(
                model, self.config.pool.worker_node
            ).qps
        return self._qps_cache[model.name]

    def _arrive(self, spec: FleetJobSpec) -> None:
        self._pending_arrivals -= 1
        # The queue length is baked into an open stretch's cached row
        # tail; record the deferred-row index where it grows so the
        # settle materializes earlier rows with the old length and
        # later ones with the new.  (If this arrival admits, the
        # membership change settles the stretch immediately and the
        # break covers zero rows.)
        stretch = self._stretch
        if stretch is not None:
            if stretch.queue_breaks is None:
                stretch.queue_breaks = [stretch.deferred]
            else:
                stretch.queue_breaks.append(stretch.deferred)
        self._queue.append(spec)
        if self._traced:
            self.tracer.begin(
                "job.queued", actor=f"job-{spec.job_id}", job_id=spec.job_id
            )
            self.tracer.log("job arrived", job_id=spec.job_id)
        self._admit_queued()

    def _admit_queued(self) -> None:
        """FCFS admission with head-of-line blocking (Section 4.2)."""
        admitted = False
        while self._queue and self._queue[0].trainer_nodes <= self._free_trainers:
            spec = self._queue.pop(0)
            self._free_trainers -= spec.trainer_nodes
            outcome = JobOutcome(spec=spec, admitted_s=self.clock.now)
            self._outcomes[spec.job_id] = outcome
            worker_qps = self._worker_qps(spec)
            demand = spec.demand_samples_per_s
            job = _ActiveJob(
                spec=spec,
                outcome=outcome,
                worker_qps=worker_qps,
                controller=AutoscalingController(self.config.autoscaler),
                requested=0,
                demand_sps=demand,
                rx_bytes_per_sample=spec.storage_rx_bytes_per_sample,
                buffer_cap_samples=self.config.buffer_capacity_s * demand,
                base_workers=max(1, math.ceil(demand / worker_qps)),
                priority=KIND_PRIORITY[spec.kind],
            )
            job.requested = job.base_workers
            self._active[spec.job_id] = job
            self._invalidate_static()  # membership changed
            if self._traced:
                actor = f"job-{spec.job_id}"
                self.tracer.end(actor=actor)  # closes job.queued
                self.tracer.begin(
                    "job.running",
                    actor=actor,
                    job_id=spec.job_id,
                    trainer_nodes=spec.trainer_nodes,
                )
            self.broker.register(
                spec.job_id,
                dataset_bytes=spec.model.table_sizes.used_partitions,
                popularity_bytes_for_80pct=spec.model.popularity_bytes_for_80pct,
            )
            admitted = True
        if admitted:
            # Newly admitted jobs should not idle until the next control
            # period: run an allocation round now.
            self._control()

    def _finish(self, job: _ActiveJob) -> None:
        job.outcome.completed_s = self.clock.now
        if self._traced:
            actor = f"job-{job.spec.job_id}"
            self.tracer.end(actor=actor)  # closes job.running
            self.tracer.instant(
                "job.finish",
                actor=actor,
                job_id=job.spec.job_id,
                stall_s=job.outcome.stall_s,
            )
        self._free_trainers += job.spec.trainer_nodes
        self._live_total -= job.live_workers
        self._pending_total -= job.pending_count
        self.broker.unregister(job.spec.job_id)
        del self._active[job.spec.job_id]
        self._invalidate_static()  # membership changed
        self._admit_queued()
        if not (self._active or self._queue or self._pending_arrivals):
            # The fleet is done: stop the tick periodic (the control
            # periodic cancels itself from its own wrapper, preserving
            # the old chains' one-stale-round behavior on shared
            # clocks).
            handle = self._tick_handle
            if handle is not None:
                handle.cancel()

    # -- fault injection ------------------------------------------------------

    def inject_worker_crash(self, job_id: int, count: int = 1) -> int:
        """Kill up to *count* of a job's live DPP workers (chaos plane).

        Returns how many actually died.  Workers are stateless, so the
        job loses rate, not data; its controller re-requests and the
        global allocator re-grants at the next control period.  A job
        not currently active absorbs nothing.
        """
        if count < 1:
            raise ConfigError("must crash at least one worker")
        job = self._active.get(job_id)
        if job is None:
            return 0
        # A crash changes live workers, which every stretch delta is
        # conditioned on: settle the deferred ticks first.
        self._settle_stretch()
        died = min(count, job.live_workers)
        job.live_workers -= died
        self._live_total -= died
        static = self._static
        if static is not None:
            static.live[static.index_of[job_id]] = job.live_workers
        if self._traced:
            self.tracer.instant(
                "fault.worker_crash", actor="fleet", job_id=job_id, died=died
            )
        return died

    def degrade_storage(self, fraction: float) -> None:
        """Degrade the shared Tectonic fabric to *fraction* of nominal
        bandwidth; 1.0 restores it.  Takes effect from the next tick's
        apportionment."""
        self._settle_stretch()  # grants change from here on
        self.broker.set_bandwidth_derate(fraction)

    # -- control loop ---------------------------------------------------------

    def _control(self) -> None:
        """Per-job autoscalers propose; the global allocator disposes.

        With a live columnar epoch the proposal pass reads the fluid
        state straight from the columns, with the controller's
        aggregate policy (:meth:`AutoscalingController.evaluate_uniform`)
        inlined — same branch structure, same arithmetic, minus one
        method call and one decision record per job per period.  The
        object path remains for epoch boundaries (a control round
        triggered by admission) and the reference mode, which never
        builds columns.

        During a steady stretch whose previous control round was a
        fixed point (cache hit *and* every grant a no-op), the whole
        round is provably identical — the controller inputs are
        constant and the cached rows equalling this round's rows means
        ``requested`` maps to itself under the policy, so it stays
        fixed inductively.  Such rounds collapse to appending the
        cached allocation record.
        """
        stretch = self._stretch
        if stretch is not None and stretch.control_steady:
            cache = self._alloc_cache
            self.allocator.rounds.append(
                AllocationRound(
                    time_s=self.clock.now,
                    pool_limit=cache[3],
                    granted=dict(cache[2]),
                )
            )
            return
        static = self._static
        if static is not None:
            jobs = static.jobs
            live = static.live
            buffer = static.buffer
            rate = static.rate
            demand = static.demand
            qps = static.qps
            scaler = self.config.autoscaler
            min_buf = scaler.min_buffered_per_worker
            drain_buf = scaler.drain_buffered_per_worker
            low_util = scaler.low_utilization
            up_step = scaler.scale_up_step
            drain_step = scaler.drain_step
            min_w = scaler.min_workers
            max_w = scaler.max_workers
            rows = []
            append = rows.append
            for i, job in enumerate(jobs):
                n_live = live[i]
                if n_live <= 0:
                    delta = up_step
                else:
                    buffered = float(int(buffer[i] / demand[i]))
                    supply = n_live * qps[i]
                    if supply > 0:
                        utilization = rate[i] / supply
                        if utilization > 1.0:
                            utilization = 1.0
                    else:
                        utilization = 1.0
                    if utilization < 0.0:
                        utilization = 0.0
                    if buffered >= min_buf and (
                        buffered <= drain_buf
                        or utilization >= low_util
                        or n_live <= min_w
                    ):
                        delta = 0
                    elif buffered < min_buf:
                        headroom = max_w - n_live
                        delta = up_step if up_step < headroom else headroom
                    else:
                        drainable = n_live - min_w
                        delta = -(
                            drain_step if drain_step < drainable else drainable
                        )
                requested = job.requested + delta
                ceiling = 2 * job.base_workers
                if ceiling < 1:
                    ceiling = 1
                if requested > ceiling:
                    requested = ceiling
                if requested < 1:
                    requested = 1
                job.requested = requested
                append((job.priority, job.spec.job_id, requested, 1))
        else:
            rows = [
                (job.priority, job.spec.job_id, self._desired_workers(job), 1)
                for job in self._active.values()
            ]
        active_trainers = self.config.n_trainer_nodes - self._free_trainers
        cache = self._alloc_cache
        hit = (
            cache is not None
            and cache[1] == active_trainers
            and cache[0] == rows
        )
        if hit:
            # Steady state: the same asks against the same pool.  The
            # water-fill is pure in (rows, pool_limit), so replay the
            # grants — still appending a round, because the allocation
            # history is part of the observable report surface.
            granted = dict(cache[2])
            self.allocator.rounds.append(
                AllocationRound(
                    time_s=self.clock.now, pool_limit=cache[3], granted=granted
                )
            )
        else:
            granted = self.allocator.allocate_compact(
                rows, active_trainers, self.clock.now
            )
            self._alloc_cache = (
                rows,
                active_trainers,
                dict(granted),
                self.allocator.rounds[-1].pool_limit,
            )
        if static is not None:
            live = static.live
            changed = False
            for index, job in enumerate(static.jobs):
                target = granted.get(job.spec.job_id, 0)
                # An exact-size grant is a no-op in _apply_grant; skip
                # the call (and track whether anything moved — the
                # stretch, if open, survives only no-op rounds).
                if target != job.live_workers + job.pending_count:
                    changed = True
                    self._apply_grant(job, target)
                    live[index] = job.live_workers
            if stretch is not None:
                if changed:
                    self._settle_stretch()
                elif hit:
                    stretch.control_steady = True
        else:
            for job in self._active.values():
                self._apply_grant(job, granted.get(job.spec.job_id, 0))

    def _desired_workers(self, job: _ActiveJob) -> int:
        """Evolve the job's ask with its per-job autoscaling controller.

        The fluid state maps onto the controller's aggregate inputs:
        buffered *seconds of demand* stand in for buffered batches, and
        achieved rate over worker capacity for CPU utilization.  Every
        worker in the fluid model reports identically, so the O(1)
        :meth:`~repro.dpp.autoscaler.AutoscalingController.evaluate_uniform`
        replaces materializing one telemetry record per worker — the
        old control-path hot spot.
        """
        buffered_s = job.buffer_samples / job.demand_sps
        supply = job.live_workers * job.worker_qps
        utilization = min(1.0, job.last_rate / supply) if supply > 0 else 1.0
        delta = job.controller.evaluate_uniform(
            job.live_workers, int(buffered_s), utilization
        ).delta
        ceiling = max(1, 2 * job.base_workers)
        job.requested = max(1, min(ceiling, job.requested + delta))
        return job.requested

    def _apply_grant(self, job: _ActiveJob, target: int) -> None:
        """Reshape a job's worker fleet toward its granted size."""
        current = job.live_workers + job.pending_count
        if target > current:
            job.pending.append(
                (self.clock.now + self.config.pool.spinup_s, target - current)
            )
            job.pending_count += target - current
            self._pending_total += target - current
        elif target < current:
            shed = current - target
            # In-flight launches are cancelled first (free), then live
            # workers drain back to the shared pool.
            while shed > 0 and job.pending:
                ready, count = job.pending.pop()
                keep = max(0, count - shed)
                removed = count - keep
                shed -= removed
                job.pending_count -= removed
                self._pending_total -= removed
                if keep:
                    job.pending.append((ready, keep))
            if shed > 0:
                drained = min(shed, job.live_workers)
                job.live_workers -= drained
                self._live_total -= drained

    # -- membership-epoch columns ----------------------------------------------

    def _build_columns(self) -> _EpochColumns:
        """Materialize the epoch's columns from the active-job objects.

        Runs once per membership epoch — the *only* per-epoch
        materialization cost; every tick thereafter mutates these
        columns in place.  For epochs wide enough to take the
        vectorized tick, the mutable state columns are float64 arrays
        (in-place ufunc targets); narrow epochs keep plain lists for
        the tight scalar loop.
        """
        jobs = tuple(self._active.values())
        n = len(jobs)
        static = _EpochColumns()
        static.jobs = jobs
        static.index_of = {job.spec.job_id: i for i, job in enumerate(jobs)}
        static.qps = [j.worker_qps for j in jobs]
        demand = [j.demand_sps for j in jobs]
        static.demand = demand
        static.rx = [j.rx_bytes_per_sample for j in jobs]
        static.cap = [j.buffer_cap_samples for j in jobs]
        static.target = [float(j.spec.target_samples) for j in jobs]
        absorbed = [
            self.broker.cache_absorbed_fraction(j.spec.job_id) for j in jobs
        ]
        static.absorbed = absorbed
        static.one_minus = [1.0 - a for a in absorbed]
        # Matches the reference's per-tick `+=` accumulation: same
        # operands, same order, every tick of this epoch.
        total_demand = 0.0
        for value in demand:
            total_demand += value
        static.total_demand = total_demand
        static.supplies = [0.0] * n
        static.ssd_in = [0.0] * n
        static.hdd_in = [0.0] * n
        if n >= _VECTOR_MIN:
            static.qps_arr = np.asarray(static.qps)
            static.demand_arr = np.asarray(demand)
            static.rx_arr = np.asarray(static.rx)
            static.cap_arr = np.asarray(static.cap)
            static.target_arr = np.asarray(static.target)
            static.absorbed_arr = np.asarray(absorbed)
            static.one_minus_arr = np.asarray(static.one_minus)
            static.live = np.fromiter(
                (j.live_workers for j in jobs), float, n
            )
            static.buffer = np.fromiter(
                (j.buffer_samples for j in jobs), float, n
            )
            static.done = np.fromiter(
                (j.outcome.samples_done for j in jobs), float, n
            )
            static.stall = np.fromiter(
                (j.outcome.stall_s for j in jobs), float, n
            )
            static.wsec = np.fromiter(
                (j.outcome.worker_seconds for j in jobs), float, n
            )
            static.gbytes = np.fromiter(
                (j.outcome.granted_bytes for j in jobs), float, n
            )
            static.rate = np.fromiter((j.last_rate for j in jobs), float, n)
        else:
            static.live = [j.live_workers for j in jobs]
            static.buffer = [j.buffer_samples for j in jobs]
            static.done = [j.outcome.samples_done for j in jobs]
            static.stall = [j.outcome.stall_s for j in jobs]
            static.wsec = [j.outcome.worker_seconds for j in jobs]
            static.gbytes = [j.outcome.granted_bytes for j in jobs]
            static.rate = [j.last_rate for j in jobs]
            # Per-tick accumulator deltas, captured by the scalar loop
            # so a fixed-point tick can open a steady stretch.
            static.done_d = [0.0] * n
            static.stall_d = [0.0] * n
            static.wsec_d = [0.0] * n
            static.gbytes_d = [0.0] * n
        self._static = static
        return static

    def _flush_columns(self, static: _EpochColumns) -> None:
        """Write the epoch's state columns back to the job objects.

        Anything observing jobs through the object graph (reports,
        admission-time control rounds, the next epoch's column build)
        runs after a flush, so the columnar staleness is invisible
        outside the tick.  ``live`` is skipped: ``job.live_workers``
        is authoritative and the column only mirrors it.
        """
        buffer = static.buffer
        done = static.done
        stall = static.stall
        wsec = static.wsec
        gbytes = static.gbytes
        rate = static.rate
        for i, job in enumerate(static.jobs):
            job.buffer_samples = float(buffer[i])
            job.last_rate = float(rate[i])
            outcome = job.outcome
            outcome.samples_done = float(done[i])
            outcome.stall_s = float(stall[i])
            outcome.worker_seconds = float(wsec[i])
            outcome.granted_bytes = float(gbytes[i])

    def _settle_stretch(self) -> None:
        """Replay an open stretch's deferred accumulator ticks.

        Each deferred tick becomes one fused ``acc += delta`` over the
        stacked ``(4, n)`` accumulator — the same per-job IEEE-754
        additions, in the same tick order, that the slow path would
        have executed, so the settled columns are bit-identical to
        never having deferred at all.
        """
        stretch = self._stretch
        if stretch is None:
            return
        self._stretch = None
        k = stretch.deferred
        if not k:
            return
        static = self._static
        acc = np.array([static.done, static.stall, static.wsec, static.gbytes])
        delta = stretch.delta
        if k < 32:
            count = k
            while count:
                acc += delta
                count -= 1
        else:
            # Long stretch: the same sequential additions, computed by
            # ufunc.accumulate (defined left-to-right, no pairwise
            # reassociation) along a stacked step axis — C speed, bit-
            # identical to the Python replay loop.
            steps = np.empty((k + 1,) + acc.shape)
            steps[0] = acc
            steps[1:] = delta
            np.add.accumulate(steps, axis=0, out=steps)
            acc = steps[k]
        done_row, stall_row, wsec_row, gbytes_row = acc.tolist()
        static.done[:] = done_row
        static.stall[:] = stall_row
        static.wsec[:] = wsec_row
        static.gbytes[:] = gbytes_row
        # Materialize the deferred sample rows.  Tick times chain as
        # ``t + tick`` — operand-for-operand the float adds the clock's
        # periodic reschedule executed for those fires.
        rows = self._sample_rows
        tail = stretch.row_tail
        t = stretch.t_next
        tick = self._tick_s
        breaks = stretch.queue_breaks
        if breaks is None:
            for _ in range(k):
                rows.append((t,) + tail)
                t += tick
        else:
            # Queue arrivals mid-stretch: bump the one unpinned tail
            # field (queued_jobs) at each recorded row index.
            qlen = tail[1]
            cursor = 0
            n_breaks = len(breaks)
            for i in range(k):
                while cursor < n_breaks and breaks[cursor] == i:
                    qlen += 1
                    cursor += 1
                if qlen != tail[1]:
                    tail = tail[:1] + (qlen,) + tail[2:]
                rows.append((t,) + tail)
                t += tick

    def _open_stretch(
        self, stretch: _SteadyStretch, now: float, tick: float
    ) -> None:
        """Install a fresh stretch, caching its deferred-row state.

        The tail fields are computed exactly as :meth:`_sample` would —
        same operands, same order — and reused verbatim: the stretch
        invariant pins every one of them (queue growth settles the
        stretch first, see :meth:`_arrive`).  ``t_next`` is the clock's
        own next-occurrence float for the tick recurrence.
        """
        live = self._live_total
        pending = self._pending_total
        active_trainers = self.config.n_trainer_nodes - self._free_trainers
        power = (
            self._pw_storage
            + active_trainers * self._pw_trainer
            + (live + pending) * self._pw_worker
        )
        granted_bps = stretch.granted_bps
        stretch.row_tail = (
            len(self._active),
            len(self._queue),
            live,
            pending,
            stretch.total_rate,
            stretch.total_demand,
            granted_bps,
            granted_bps / self._fabric_bandwidth,
            power,
        )
        stretch.t_next = now + tick
        self._stretch = stretch

    def _invalidate_static(self) -> None:
        """Close the membership epoch: settle, flush columns, drop them."""
        static = self._static
        if static is not None:
            self._settle_stretch()
            self._flush_columns(static)
            self._static = None

    def _retire(self, static: _EpochColumns, indices: list[int]) -> None:
        """Finish the tick's completed jobs (closing the epoch first).

        The flush must precede the first :meth:`_finish`: a finish can
        trigger admission and an allocation round, which read survivor
        jobs through the object graph.
        """
        jobs = static.jobs
        self._flush_columns(static)
        self._static = None
        for index in indices:
            self._finish(jobs[index])

    # -- dynamics -------------------------------------------------------------

    def _grant_capacities(self) -> tuple[float, float]:
        """Current per-tier deliverable bandwidth (derated)."""
        broker = self.broker
        derate = broker.bandwidth_derate
        return broker._hdd_bandwidth * derate, broker._ssd_bandwidth * derate

    def _tick_fused(self) -> None:
        """Fused dynamics: one coalesced pass over the epoch's columns.

        The per-tier apportionment is inlined (no per-job
        :class:`~repro.fleet.broker.BandwidthGrant` objects, no
        sorted-id permutation — ``max_min_share`` grants depend only on
        the demand multiset, not input order), and both the constants
        and the fluid state come from the membership-epoch columns — no
        per-tick re-materialization, no Python-object attribute traffic
        in the inner loops.  Above ``_VECTOR_MIN`` active jobs the pass
        runs as in-place numpy array operations; below it, where ufunc
        dispatch would dominate the arithmetic, as one tight scalar
        loop over the column lists.  Both flavors execute the same
        IEEE-754 operations per job as :meth:`_tick_reference`, so all
        three produce bit-identical reports.

        When a previous tick proved a fixed point (see
        :class:`_SteadyStretch`), the tick collapses to counting one
        deferred delta application and appending its (constant-valued)
        sample row — the accumulators are replayed exactly at the next
        state-observing boundary.
        """
        stretch = self._stretch
        if stretch is not None:
            if stretch.remaining > 0:
                stretch.remaining -= 1
                stretch.deferred += 1
                return
            self._settle_stretch()
        now = self.clock.now
        tick = self._tick_s
        static = self._static
        if static is None:
            static = self._build_columns()
        jobs = static.jobs
        n = len(jobs)
        if not n:
            self._sample(now, 0.0, 0.0, 0.0)
            return
        if n >= _VECTOR_MIN:
            self._tick_vector(now, tick, static)
            return

        # Phase 1: mature in-flight launches.  Maturation is the one
        # tick-path mutation of live_workers, so the mirror column is
        # refreshed here; the fleet-wide pending total gates the whole
        # loop (zero in steady state).
        live = static.live
        if self._pending_total:
            for index, job in enumerate(jobs):
                if job.pending:
                    matured = job.mature_pending(now)
                    if matured:
                        self._live_total += matured
                        self._pending_total -= matured
                        live[index] = job.live_workers

        # Phase 2: declared demand, split per tier by cache absorption.
        # Pure column arithmetic; ``min`` is spelled as a conditional
        # expression — same IEEE-754 result, no builtin call per phase
        # per job.
        qps = static.qps
        demand = static.demand
        rx = static.rx
        cap = static.cap
        buffer = static.buffer
        supplies = static.supplies
        ssd_in = static.ssd_in
        hdd_in = static.hdd_in
        absorbed = static.absorbed
        one_minus = static.one_minus
        for index in range(n):
            supply = live[index] * qps[index]
            supplies[index] = supply
            if buffer[index] < cap[index]:
                wanted = supply
            else:
                demand_sps = demand[index]
                wanted = demand_sps if demand_sps < supply else supply
            declared = wanted * rx[index]
            ssd_in[index] = declared * absorbed[index]
            hdd_in[index] = declared * one_minus[index]

        # Phase 3: produce at the granted rate, consume trainer demand,
        # accrue stalls, cap the buffer — all into the state columns.
        # Apportionment is memoized on the exact demand vectors: during
        # ramps the same contended water-filling recurs across nearby
        # ticks (launch plateaus between spin-up maturations), and the
        # function is pure, so replaying the cached grants is the
        # identical float sequence.
        broker = self.broker
        derate = broker.bandwidth_derate
        memo_key = (tuple(ssd_in), tuple(hdd_in), derate)
        memo = self._grant_memo
        grants = memo.get(memo_key)
        if grants is None:
            grants = (
                max_min_share(ssd_in, broker._ssd_bandwidth * derate),
                max_min_share(hdd_in, broker._hdd_bandwidth * derate),
            )
            if len(memo) >= 16:
                memo.clear()
            memo[memo_key] = grants
        ssd_grants, hdd_grants = grants
        target = static.target
        done = static.done
        stall = static.stall
        wsec = static.wsec
        gbytes = static.gbytes
        rate = static.rate
        done_d = static.done_d
        stall_d = static.stall_d
        wsec_d = static.wsec_d
        gbytes_d = static.gbytes_d
        total_rate = 0.0
        granted_bps = 0.0
        steady = True
        finished: list[int] | None = None
        for index in range(n):
            grant = hdd_grants[index] + ssd_grants[index]
            reachable = grant / rx[index]
            supply = supplies[index]
            job_rate = reachable if reachable < supply else supply
            rate[index] = job_rate
            old_buffer = buffer[index]
            available = old_buffer + job_rate * tick
            need = demand[index] * tick
            headroom = target[index] - done[index]
            if headroom < need:
                need = headroom
            consumed = available if available < need else need
            if need > _EPS and consumed < need - _EPS:
                stall_inc = tick * (1.0 - consumed / need)
                stall[index] += stall_inc
            else:
                stall_inc = 0.0
            leftover = available - consumed
            ceiling = cap[index]
            new_buffer = ceiling if ceiling < leftover else leftover
            if new_buffer != old_buffer:
                steady = False
            buffer[index] = new_buffer
            done[index] += consumed
            wsec_inc = live[index] * tick
            wsec[index] += wsec_inc
            gbytes_inc = grant * tick
            gbytes[index] += gbytes_inc
            done_d[index] = consumed
            stall_d[index] = stall_inc
            wsec_d[index] = wsec_inc
            gbytes_d[index] = gbytes_inc
            total_rate += job_rate
            granted_bps += grant
            if done[index] >= target[index] - _EPS:
                if finished is None:
                    finished = []
                finished.append(index)
        total_demand = static.total_demand
        if finished is not None:
            self._retire(static, finished)
        elif steady and not self._pending_total:
            # Fixed point: every buffer is exactly where it started and
            # no launches are in flight, so subsequent ticks are pure
            # accumulator advances.  Bound the stretch so no job can
            # reach its completion threshold (or engage the headroom
            # clamp) inside it; a negative margin (clamp already
            # engaged) simply yields no stretch.
            remaining = _STRETCH_UNBOUNDED
            for index in range(n):
                dd = done_d[index]
                if dd > 0.0:
                    floor = demand[index] * tick
                    if floor < _EPS:
                        floor = _EPS
                    k = int((target[index] - floor - done[index]) / dd) - 4
                    if k < remaining:
                        remaining = k
            if remaining > 0:
                self._open_stretch(
                    _SteadyStretch(
                        remaining,
                        np.array([done_d, stall_d, wsec_d, gbytes_d]),
                        total_rate,
                        total_demand,
                        granted_bps,
                    ),
                    now,
                    tick,
                )
        self._sample(now, total_rate, total_demand, granted_bps)

    def _tick_vector(self, now: float, tick: float, static: _EpochColumns) -> None:
        """Large-fleet flavor of the fused tick: in-place numpy passes.

        The state columns *are* float64 arrays for vector-width epochs,
        so the whole tick is elementwise ufuncs mutating them in place —
        no per-tick gather from the job objects, no per-job writeback.
        Elementwise float64 ufuncs are IEEE-identical to the scalar
        arithmetic, and the scalar totals accumulate over ``tolist()``
        in the reference's iteration order — that is what keeps the
        modes bit-identical.
        """
        jobs = static.jobs
        live = static.live
        if self._pending_total:
            for index, job in enumerate(jobs):
                if job.pending:
                    matured = job.mature_pending(now)
                    if matured:
                        self._live_total += matured
                        self._pending_total -= matured
                        live[index] = job.live_workers

        # Phase 2: declared demand (refill whenever there is headroom),
        # split per tier by cache absorption and water-filled.
        buffer = static.buffer
        done = static.done
        supply = live * static.qps_arr
        wanted = np.where(
            buffer < static.cap_arr,
            supply,
            np.minimum(supply, static.demand_arr),
        )
        demand_bytes = wanted * static.rx_arr
        hdd_capacity, ssd_capacity = self._grant_capacities()
        ssd_grants = max_min_share(
            (demand_bytes * static.absorbed_arr).tolist(), ssd_capacity
        )
        hdd_grants = max_min_share(
            (demand_bytes * static.one_minus_arr).tolist(), hdd_capacity
        )
        grants = np.add(hdd_grants, ssd_grants)

        # Phase 3: produce at the granted rate, consume trainer demand,
        # accrue stalls, cap the buffer — in place on the state columns.
        rate = static.rate
        np.minimum(supply, grants / static.rx_arr, out=rate)
        available = buffer + rate * tick
        need = np.minimum(static.demand_arr * tick, static.target_arr - done)
        consumed = np.minimum(need, available)
        stalled = (need > _EPS) & (consumed < need - _EPS)
        if stalled.any():
            stall_inc = tick * (1.0 - consumed[stalled] / need[stalled])
            static.stall[stalled] += stall_inc
        else:
            stall_inc = None
        new_buffer = np.minimum(available - consumed, static.cap_arr)
        steady = bool((new_buffer == buffer).all())
        buffer[:] = new_buffer
        done += consumed
        wsec_inc = live * tick
        static.wsec += wsec_inc
        gbytes_inc = grants * tick
        static.gbytes += gbytes_inc
        total_rate = sum(rate.tolist())
        granted_bps = sum(grants.tolist())
        total_demand = static.total_demand
        finished = done >= static.target_arr - _EPS
        if finished.any():
            self._retire(static, np.nonzero(finished)[0].tolist())
        elif steady and not self._pending_total:
            # Same fixed-point reasoning as the scalar flavor, with the
            # margin guard evaluated as array arithmetic.
            progressing = consumed > 0.0
            if progressing.any():
                floor = np.maximum(static.demand_arr * tick, _EPS)
                margins = static.target_arr - floor - done
                remaining = (
                    int((margins[progressing] / consumed[progressing]).min())
                    - 4
                )
            else:
                remaining = _STRETCH_UNBOUNDED
            if remaining > 0:
                stall_d = np.zeros(len(jobs))
                if stall_inc is not None:
                    stall_d[stalled] = stall_inc
                self._open_stretch(
                    _SteadyStretch(
                        remaining,
                        np.array([consumed, stall_d, wsec_inc, gbytes_inc]),
                        total_rate,
                        total_demand,
                        granted_bps,
                    ),
                    now,
                    tick,
                )
        self._sample(now, total_rate, total_demand, granted_bps)

    def _tick_reference(self) -> None:
        """Per-callback dynamics: one Python pass per phase, per job.

        This is the pre-fusion structure — the equivalence baseline the
        vectorized tick is tested against byte for byte.
        """
        now = self.clock.now
        tick = self.config.tick_s
        for job in self._active.values():
            matured = job.mature_pending(now)
            self._live_total += matured
            self._pending_total -= matured

        # Declare storage demand: workers refill buffers whenever there
        # is headroom, so demand reflects what the job *could* read.
        demands: dict[int, float] = {}
        for job_id, job in self._active.items():
            supply = job.live_workers * job.worker_qps
            cap = job.buffer_cap_samples
            wanted = supply if job.buffer_samples < cap else min(
                supply, job.demand_sps
            )
            demands[job_id] = wanted * job.rx_bytes_per_sample
        grants = self.broker.apportion(demands) if demands else {}

        total_rate = 0.0
        total_demand = 0.0
        granted_bps = 0.0
        finished: list[_ActiveJob] = []
        for job_id, job in self._active.items():
            spec = job.spec
            grant = grants[job_id]
            supply = job.live_workers * job.worker_qps
            rate = min(
                supply, grant.total_bytes_per_s / job.rx_bytes_per_sample
            )
            job.last_rate = rate
            produced = rate * tick
            available = job.buffer_samples + produced
            need = min(
                job.demand_sps * tick,
                spec.target_samples - job.outcome.samples_done,
            )
            consumed = min(need, available)
            if need > _EPS and consumed < need - _EPS:
                job.outcome.stall_s += tick * (1.0 - consumed / need)
            job.buffer_samples = min(available - consumed, job.buffer_cap_samples)
            job.outcome.samples_done += consumed
            job.outcome.worker_seconds += job.live_workers * tick
            job.outcome.granted_bytes += grant.total_bytes_per_s * tick
            total_rate += rate
            total_demand += job.demand_sps
            granted_bps += grant.total_bytes_per_s
            if job.outcome.samples_done >= spec.target_samples - _EPS:
                finished.append(job)
        for job in finished:
            self._finish(job)

        self._sample(now, total_rate, total_demand, granted_bps)

    def _sample(
        self, now: float, total_rate: float, total_demand: float, granted_bps: float
    ) -> None:
        """Record one tick's observation of the shared plane.

        Rows accumulate as plain tuples in :class:`FleetSample` field
        order (materialized in :meth:`report`), and the power draw is
        the inlined :meth:`FleetPowerBudget.draw_watts` formula — same
        operands, same order.
        """
        live = self._live_total
        pending = self._pending_total
        active_trainers = self.config.n_trainer_nodes - self._free_trainers
        power = (
            self._pw_storage
            + active_trainers * self._pw_trainer
            + (live + pending) * self._pw_worker
        )
        self._sample_rows.append(
            (
                now,
                len(self._active),
                len(self._queue),
                live,
                pending,
                total_rate,
                total_demand,
                granted_bps,
                granted_bps / self._fabric_bandwidth,
                power,
            )
        )

    # -- telemetry ------------------------------------------------------------

    def _tick_count(self) -> int:
        """Ticks fired so far: sample rows plus an open stretch's
        deferred (not yet materialized) ones."""
        stretch = self._stretch
        deferred = stretch.deferred if stretch is not None else 0
        return len(self._sample_rows) + deferred

    def _settled_rows(self) -> list[tuple]:
        """Every tick's sample row, deferred stretch ticks included."""
        self._settle_stretch()
        return self._sample_rows

    def _collect_metrics(self, registry) -> None:
        """Bring ``fleet.clock_events`` and ``fleet.ticks`` (which exists
        once a tick has fired) up to their totals."""
        events = registry.counter("fleet.clock_events")
        events.inc(self.clock.fired - self._fired_at_attach - events.value)
        ticks = self._tick_count()
        if ticks:
            counter = registry.counter("fleet.ticks")
            counter.inc(ticks - counter.value)

    # -- driver ---------------------------------------------------------------

    def _work_remaining(self) -> bool:
        return bool(self._active or self._queue or self._pending_arrivals)

    def _control_event(self) -> None:
        self._control()
        if not self._work_remaining():
            self._control_handle.cancel()

    def schedule(self) -> None:
        """Register arrivals and control processes on the (shared) clock."""
        if self._chains_started:
            raise SchedulingError("fleet already scheduled")
        self._chains_started = True
        for spec in self.jobs:
            self.clock.schedule_at(
                self.clock.now + spec.arrival_s, lambda s=spec: self._arrive(s)
            )
        # Periodic processes ride the clock's heap-free side list; each
        # is cancelled once the fleet has no work left, matching the
        # old self-rescheduling chains occurrence for occurrence.
        self._tick_handle = self.clock.every(self.config.tick_s, self._tick_core)
        self._control_handle = self.clock.every(
            self.config.control_period_s, self._control_event
        )

    def run(
        self, horizon_s: float | None = None, max_events: int = 5_000_000
    ) -> FleetReport:
        """Run to completion (or *horizon_s*) and build the report.

        Without a horizon the clock is stepped only while fleet work
        remains: on a shared clock, foreign events interleave up to the
        last job's completion but anything beyond stays on the heap for
        the external driver.
        """
        if not self._chains_started:
            self.schedule()
        if horizon_s is not None:
            self.clock.run_until(self.clock.now + horizon_s)
        else:
            fired = self.clock.run_while(
                self._work_remaining, max_events=max_events
            )
            if fired >= max_events:
                raise SchedulingError(
                    f"fleet exceeded {max_events} events (starved jobs "
                    "never finish; pass horizon_s to bound such runs)"
                )
        return self.report()

    def run_summary(
        self, horizon_s: float | None = None, max_events: int = 5_000_000
    ) -> dict:
        """Run to completion and reduce straight to summary metrics.

        Same driver as :meth:`run`, but the reduction skips the
        :class:`FleetReport` envelope entirely — no
        :class:`~repro.fleet.report.FleetSample` materialization, no
        outcome list copies.  Sweeps, which only keep eleven aggregate
        numbers per cell, use this path; the values are bit-identical
        to reducing :meth:`run`'s report (see
        ``tests/fleet/test_flat_summary.py``).
        """
        if not self._chains_started:
            self.schedule()
        if horizon_s is not None:
            self.clock.run_until(self.clock.now + horizon_s)
        else:
            fired = self.clock.run_while(
                self._work_remaining, max_events=max_events
            )
            if fired >= max_events:
                raise SchedulingError(
                    f"fleet exceeded {max_events} events (starved jobs "
                    "never finish; pass horizon_s to bound such runs)"
                )
        return self.result_summary()

    def result_summary(self) -> dict:
        """Aggregate metrics computed directly from the row/outcome state.

        Field-for-field the same arithmetic — same operands, same
        accumulation order over the same (job-id-sorted) outcome list
        and raw sample rows — as the :class:`FleetReport` aggregate
        properties, so every float is bit-identical to the
        report-mediated reduction.  ``nan`` marks aggregates the report
        properties would raise on (no makespan, no finished job, no
        jobs), matching ``ScenarioResult.from_fleet_report``'s guards.
        """
        static = self._static
        if static is not None:
            self._settle_stretch()
            self._flush_columns(static)
        rows = self._sample_rows
        tick_s = self.config.tick_s
        # One pass over the raw rows replaces the report's four
        # generator sweeps; max/comparison extraction is exact, and the
        # busy-utilization sum visits rows in the same order.
        peak_concurrency = 0
        peak_util = 0.0
        peak_power = 0.0
        busy_first = math.nan
        busy_last = math.nan
        busy_util_sum = 0.0
        busy_count = 0
        for row in rows:
            active = row[1]
            if active > peak_concurrency:
                peak_concurrency = active
            util = row[8]
            if util > peak_util:
                peak_util = util
            power = row[9]
            if power > peak_power:
                peak_power = power
            if active > 0:
                if not busy_count:
                    busy_first = row[0]
                busy_last = row[0]
                busy_util_sum += util
                busy_count += 1
        makespan = busy_last - busy_first + tick_s if busy_count else 0.0
        outcomes = sorted(self._outcomes.values(), key=lambda o: o.spec.job_id)
        finished = [o for o in outcomes if o.finished]
        now = self.clock.now
        delays = sorted(
            [o.queue_delay_s for o in outcomes]
            + [now - spec.arrival_s for spec in self._queue]
        )
        return {
            "jobs_submitted": len(outcomes) + len(self._queue),
            "jobs_completed": len(finished),
            "peak_concurrency": peak_concurrency,
            "makespan_s": makespan,
            "aggregate_samples_per_s": (
                sum(o.samples_done for o in outcomes) / makespan
                if makespan > 0
                else math.nan
            ),
            "mean_slowdown": (
                sum(o.slowdown for o in finished) / len(finished)
                if finished
                else math.nan
            ),
            "mean_stall_fraction": (
                sum(o.stall_fraction for o in finished) / len(finished)
                if finished
                else math.nan
            ),
            "p95_queue_delay_s": (
                delays[math.ceil(0.95 * (len(delays) - 1))]
                if delays
                else math.nan
            ),
            "mean_storage_utilization": (
                busy_util_sum / busy_count if busy_count else 0.0
            ),
            "peak_storage_utilization": peak_util,
            "peak_power_watts": peak_power,
        }

    def report(self) -> FleetReport:
        """Snapshot the current outcome set as a report."""
        # Mid-run snapshots must see current fluid state; the epoch
        # stays alive (columns remain the truth for the next tick),
        # but deferred stretch ticks must land first.
        static = self._static
        if static is not None:
            self._settle_stretch()
            self._flush_columns(static)
        rows = self._sample_rows
        # Row layout is FleetSample field order; index 0 is time_s,
        # index 1 active_jobs.
        busy_times = [row[0] for row in rows if row[1] > 0]
        makespan = (
            busy_times[-1] - busy_times[0] + self.config.tick_s
            if busy_times
            else 0.0
        )
        return FleetReport(
            outcomes=sorted(
                self._outcomes.values(), key=lambda o: o.spec.job_id
            ),
            samples=[FleetSample(*row) for row in rows],
            storage_bandwidth_bytes_per_s=self.config.fabric.total_bandwidth,
            makespan_s=makespan,
            # Jobs that arrived but never won trainer capacity: their
            # waits (still growing at snapshot time) must not vanish
            # from the queue-delay tail.
            unadmitted_queue_delays_s=[
                self.clock.now - spec.arrival_s for spec in self._queue
            ],
        )


@dataclass(frozen=True)
class FleetScenario:
    """A named, reproducible fleet experiment."""

    name: str
    config: FleetConfig
    jobs: tuple[FleetJobSpec, ...]


def run_scenario(
    scenario: FleetScenario,
    horizon_s: float | None = None,
    clock: SimClock | None = None,
) -> FleetReport:
    """Run one scenario on a fresh (or shared) clock."""
    simulator = FleetSimulator(scenario.config, list(scenario.jobs), clock=clock)
    return simulator.run(horizon_s=horizon_s)
