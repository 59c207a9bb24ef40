"""Sim-time tracing: spans, instants, and counter samples.

Every event is stamped with *virtual* time — :class:`SimClock` seconds
for the fleet and timed-DPP planes, the round index for the chaos
plane — never wall-clock.  That one rule is what makes traces
first-class artifacts: the same scenario at the same seed produces a
byte-identical trace whether it ran inline, under ``--jobs 8``, or on a
different machine, so traces diff and archive exactly like reports.

The recorder comes in two shapes:

* :class:`Tracer` — the real thing.  Per-actor span stacks (an actor is
  a logical thread: ``"fleet"``, ``"job-7"``, ``"worker-0"``), a
  rebindable time source (each scenario kind binds its own clock), a
  deterministic run id derived from ``stable_hash(scenario, seed)``,
  and an attached :class:`~repro.telemetry.metrics.MetricsRegistry`.
* :data:`NULL_TRACER` — one shared no-op recorder.  Instrumented code
  guards hot paths with ``if tracer.enabled:`` so a disabled telemetry
  plane costs a single attribute check per site.

Events are stored columnar (:class:`EventColumns`): one append per
field, names and actors interned to ids — no object per event.  A
periodic sampler that already keeps one row per tick (the fleet
simulator) does not record its tick telemetry at all: it attaches its
rows as a *tick series* (:meth:`Tracer.attach_ticks`), and every other
event carries its position in that series — how many ticks had fired
when it was emitted — so the rows interleave back in exact emission
order when the trace is read.

:meth:`Tracer.freeze` closes any dangling spans and packages the
columns as a :class:`Trace` — a :class:`ReportBase` subclass (kind
``"trace"``) whose ``merge`` appends whole processes, which is how the
experiment runner folds per-scenario traces from a parallel fan-out
into one bundle.  :class:`TraceEvent` objects are built only when a
caller asks for :attr:`TraceProcess.events`.  Export to the Chrome
trace-event format lives in :mod:`repro.telemetry.chrome`.
"""

from __future__ import annotations

import bisect
import logging
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..common.errors import ConfigError
from ..common.hashing import stable_hash
from ..common.serialization import (
    FormatError,
    ReportBase,
    require_keys,
    revive_float,
)
from .metrics import NULL_METRICS, MetricsRegistry

#: Event phases — a deliberate subset of the Chrome trace-event phases.
PHASE_SPAN = "X"
PHASE_INSTANT = "I"
PHASE_COUNTER = "C"
_PHASES = (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER)

#: A rebindable virtual-clock read, e.g. ``lambda: clock.now``.
TimeSource = Callable[[], float]

_log = logging.getLogger("repro.telemetry")


def _freeze_args(args: Mapping[str, Any]) -> tuple:
    """Canonicalize event args: sorted keys, scalar finite values."""
    if not args:
        return ()
    for key, value in args.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"trace arg {key!r} must be finite, got {value!r}"
            )
        if not isinstance(value, (str, int, float)):
            raise ConfigError(
                f"trace arg {key!r} must be a str/int/float scalar, "
                f"got {type(value).__name__}"
            )
    return tuple(sorted(args.items()))


def _counter_value(name: str, value: Any) -> float:
    """A counter sample as a finite float (what a revived trace holds)."""
    if not isinstance(value, numbers.Real):
        raise ConfigError(
            f"counter {name!r} value must be a real number, "
            f"got {type(value).__name__}"
        )
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(
            f"counter {name!r} value must be finite, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One recorded point or interval, in sim-time seconds."""

    phase: str  # "X" span, "I" instant, "C" counter sample
    name: str
    actor: str
    time_s: float  # span start, or the instant/sample timestamp
    dur_s: float = 0.0  # spans only
    args: tuple = ()  # sorted (key, scalar) pairs

    def to_row(self) -> dict:
        return {
            "ph": self.phase,
            "name": self.name,
            "actor": self.actor,
            "t": self.time_s,
            "dur": self.dur_s,
            "args": {key: value for key, value in self.args},
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "TraceEvent":
        require_keys(
            row, ("ph", "name", "actor", "t", "dur", "args"),
            context="trace event",
        )
        if row["ph"] not in _PHASES:
            raise FormatError(
                f"trace event phase {row['ph']!r} not in {_PHASES}"
            )
        return cls(
            phase=row["ph"],
            name=row["name"],
            actor=row["actor"],
            time_s=revive_float(row["t"]),
            dur_s=revive_float(row["dur"]),
            args=tuple(sorted(row["args"].items())),
        )


class EventColumns:
    """Recorded events as parallel columns, in emission order.

    ``name`` and ``actor`` hold ids into the ``names`` / ``actors``
    tables; ``pos`` holds each event's tick-series position (0 when no
    series is attached).  Positions never decrease along the columns.
    """

    __slots__ = (
        "phase", "name", "actor", "time", "dur", "args", "pos",
        "names", "actors", "_name_ids", "_actor_ids",
    )

    def __init__(self) -> None:
        self.phase: list[str] = []
        self.name: list[int] = []
        self.actor: list[int] = []
        self.time: list[float] = []
        self.dur: list[float] = []
        self.args: list[tuple] = []
        self.pos: list[int] = []
        self.names: list[str] = []
        self.actors: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._actor_ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.phase)

    def append(
        self,
        phase: str,
        name: str,
        actor: str,
        time_s: float,
        dur_s: float,
        args: tuple,
        pos: int,
    ) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        actor_id = self._actor_ids.get(actor)
        if actor_id is None:
            actor_id = self._actor_ids[actor] = len(self.actors)
            self.actors.append(actor)
        self.phase.append(phase)
        self.name.append(name_id)
        self.actor.append(actor_id)
        self.time.append(time_s)
        self.dur.append(dur_s)
        self.args.append(args)
        self.pos.append(pos)

    def copy(self) -> "EventColumns":
        other = EventColumns()
        for slot in self.__slots__:
            setattr(other, slot, getattr(self, slot).copy())
        return other


@dataclass(frozen=True)
class TickSeries:
    """A periodic sampler's rows, read as trace events.

    Each row ``r`` stands for one counter sample per ``(name, column)``
    in *counters* (value ``float(r[column])``), then a zero-duration
    *span*, all on *actor* at time ``r[0]`` — in that order.
    """

    span: str
    actor: str
    counters: tuple[tuple[str, int], ...]
    rows: Sequence[tuple]

    @property
    def events_per_row(self) -> int:
        return len(self.counters) + 1

    def events(self, start: int, stop: int) -> Iterator[tuple]:
        """``(phase, name, actor, time, dur, args)`` of rows start..stop."""
        span, actor, counters = self.span, self.actor, self.counters
        for row in self.rows[start:stop]:
            time_s = row[0]
            for name, column in counters:
                yield (
                    PHASE_COUNTER, name, actor, time_s, 0.0,
                    (("value", float(row[column])),),
                )
            yield PHASE_SPAN, span, actor, time_s, 0.0, ()


class TraceProcess:
    """One traced run (one scenario execution) — a Chrome ``pid``.

    Holds the recorded columns and, for a fleet run, its tick series;
    :attr:`events` builds :class:`TraceEvent` objects on demand.
    """

    def __init__(
        self,
        name: str,
        run_id: str,
        events: Sequence[TraceEvent] = (),
        *,
        columns: EventColumns | None = None,
        ticks: TickSeries | None = None,
    ) -> None:
        self.name = name
        self.run_id = run_id
        if columns is None:
            columns = EventColumns()
            for event in events:
                columns.append(
                    event.phase, event.name, event.actor, event.time_s,
                    event.dur_s, event.args, 0,
                )
        self.columns = columns
        self.ticks = ticks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceProcess):
            return NotImplemented
        return self.to_row() == other.to_row()

    @property
    def tick_rows(self) -> int:
        return len(self.ticks.rows) if self.ticks is not None else 0

    @property
    def event_count(self) -> int:
        ticks = self.ticks
        return len(self.columns) + (
            len(ticks.rows) * ticks.events_per_row if ticks is not None else 0
        )

    def runs(self) -> Iterator[tuple[bool, int, int]]:
        """Emission order as alternating runs: ``(False, i, j)`` is
        column events ``i..j-1``, ``(True, a, b)`` tick rows ``a..b-1``.
        """
        pos = self.columns.pos
        count = len(pos)
        emitted = 0
        i = 0
        while i < count:
            position = pos[i]
            if position > emitted:
                yield True, emitted, position
                emitted = position
            j = bisect.bisect_right(pos, position, i)
            yield False, i, j
            i = j
        total = self.tick_rows
        if total > emitted:
            yield True, emitted, total

    def iter_events(self) -> Iterator[tuple]:
        """``(phase, name, actor, time, dur, args)`` in emission order."""
        cols = self.columns
        names, actors = cols.names, cols.actors
        for is_tick, start, stop in self.runs():
            if is_tick:
                yield from self.ticks.events(start, stop)
                continue
            for i in range(start, stop):
                yield (
                    cols.phase[i], names[cols.name[i]], actors[cols.actor[i]],
                    cols.time[i], cols.dur[i], cols.args[i],
                )

    @property
    def events(self) -> list[TraceEvent]:
        """Every event as a :class:`TraceEvent` (built on each access)."""
        return [TraceEvent(*event) for event in self.iter_events()]

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "run_id": self.run_id,
            "events": [
                {
                    "ph": phase,
                    "name": name,
                    "actor": actor,
                    "t": time_s,
                    "dur": dur_s,
                    "args": {key: value for key, value in args},
                }
                for phase, name, actor, time_s, dur_s, args
                in self.iter_events()
            ],
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "TraceProcess":
        require_keys(
            row, ("name", "run_id", "events"), context="trace process"
        )
        return cls(
            name=row["name"],
            run_id=row["run_id"],
            events=[TraceEvent.from_row(event) for event in row["events"]],
        )


class Trace(ReportBase):
    """A bundle of traced processes, archivable like any report."""

    report_kind = "trace"

    def __init__(self, processes: list[TraceProcess] | None = None) -> None:
        self.processes = list(processes or [])
        self._check_unique()
        self.processes.sort(key=lambda process: process.name)

    def _check_unique(self) -> None:
        names = [process.name for process in self.processes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"trace process names must be unique; duplicated: {dupes}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.to_json() == other.to_json()

    def payload(self) -> dict:
        return {
            "processes": [process.to_row() for process in self.processes]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Trace":
        require_keys(payload, ("processes",), context="trace")
        return cls(
            processes=[
                TraceProcess.from_row(row) for row in payload["processes"]
            ]
        )

    def metrics(self) -> dict[str, float]:
        events = spans = instants = counters = tick_spans = 0
        span_time = 0  # summed like the event stream: in order, from int 0
        for process in self.processes:
            cols = process.columns
            events += process.event_count
            for phase, dur_s in zip(cols.phase, cols.dur):
                if phase == PHASE_SPAN:
                    spans += 1
                    span_time += dur_s
                elif phase == PHASE_INSTANT:
                    instants += 1
                else:
                    counters += 1
            ticks = process.ticks
            if ticks is not None:
                tick_spans += len(ticks.rows)
                counters += len(ticks.rows) * len(ticks.counters)
        if tick_spans:
            span_time += 0.0  # tick spans are zero-length
        return {
            "trace.processes": float(len(self.processes)),
            "trace.events": float(events),
            "trace.spans": float(spans + tick_spans),
            "trace.instants": float(instants),
            "trace.counters": float(counters),
            "trace.span_time_s": span_time,
        }

    def merge(self, other: "ReportBase") -> "Trace":
        """Append *other*'s processes; names must stay disjoint."""
        if not isinstance(other, Trace):
            raise ConfigError("can only merge a trace into a trace")
        self.processes.extend(other.processes)
        self._check_unique()
        self.processes.sort(key=lambda process: process.name)
        return self

    def process(self, name: str) -> TraceProcess:
        for candidate in self.processes:
            if candidate.name == name:
                return candidate
        raise ConfigError(
            f"no traced process named {name!r}; have "
            f"{[p.name for p in self.processes]}"
        )


def merge_traces(traces) -> Trace:
    """Fold per-scenario traces (in input order) into one bundle."""
    merged = Trace()
    for trace in traces:
        if trace is not None:
            merged.merge(trace)
    return merged


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The shared disabled recorder: every operation is a no-op.

    Instrumented code holds a tracer unconditionally and guards only
    hot paths with ``tracer.enabled``; cold paths may simply call
    through and land here.
    """

    __slots__ = ()
    enabled = False
    scenario = ""
    run_id = ""
    metrics = NULL_METRICS  # shared no-op registry

    def bind_clock(self, time_fn: TimeSource) -> None:
        pass

    def now(self) -> float:
        return 0.0

    def begin(self, name: str, actor: str = "main", **args) -> None:
        pass

    def end(self, actor: str = "main") -> None:
        pass

    def span(self, name: str, actor: str = "main", **args) -> _NullSpan:
        return _NULL_SPAN

    def emit_span(
        self,
        name: str,
        actor: str,
        start_s: float,
        dur_s: float,
        args: tuple = (),
    ) -> None:
        pass

    def instant(self, name: str, actor: str = "main", **args) -> None:
        pass

    def counter(self, name: str, value: float, actor: str = "main") -> None:
        pass

    def log(self, message: str, level: int = logging.INFO, **fields) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records sim-time spans, instants, and counter samples.

    One tracer traces one scenario run.  The run id is derived from
    ``(scenario, seed)`` via :func:`stable_hash`, so re-running the
    same cell — in any process — yields the same id and a comparable
    trace.  The time source starts at a constant ``0.0`` and is
    rebound by whichever plane owns the clock (:class:`FleetSimulator`
    binds ``clock.now``, :class:`ChaosRunner` its round index, ...).
    """

    enabled = True

    def __init__(
        self,
        scenario: str = "",
        seed: int = 0,
        time_fn: TimeSource | None = None,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.run_id = format(stable_hash("trace", scenario, seed), "016x")
        self.metrics = MetricsRegistry()
        self._time: TimeSource = time_fn or (lambda: 0.0)
        self._columns = EventColumns()
        self._stacks: dict[str, list[tuple[str, float, tuple]]] = {}
        # The attached tick series (rows filled in at freeze), its
        # settled-rows provider and its tick count — see attach_ticks.
        self._ticks: TickSeries | None = None
        self._tick_rows: Callable[[], Sequence[tuple]] | None = None
        self._tick_count: Callable[[], int] | None = None

    # -- the clock -------------------------------------------------------------

    def bind_clock(self, time_fn: TimeSource) -> None:
        """Point the tracer at the owning plane's virtual clock."""
        self._time = time_fn

    def now(self) -> float:
        return self._time()

    # -- tick series -----------------------------------------------------------

    def attach_ticks(
        self,
        span: str,
        actor: str,
        counters: tuple[tuple[str, int], ...],
        rows: Callable[[], Sequence[tuple]],
        count: Callable[[], int],
    ) -> None:
        """Read a periodic sampler's rows as its per-tick telemetry.

        Every tick the sampler keeps a row (time first) and stands for
        the events of a :class:`TickSeries` — counter samples from the
        named columns, then a zero-duration *span*.  *count* returns how
        many ticks have fired (rows kept or still deferred); it stamps
        every other event's position.  *rows* returns the settled rows
        and is called once per :meth:`freeze`.  A tracer takes one
        series.
        """
        if self._ticks is not None:
            raise ConfigError("a tracer records at most one tick series")
        self._ticks = TickSeries(span, actor, tuple(counters), ())
        self._tick_rows = rows
        self._tick_count = count

    # -- recording -------------------------------------------------------------

    def _record(
        self,
        phase: str,
        name: str,
        actor: str,
        time_s: float,
        dur_s: float,
        args: tuple,
    ) -> None:
        count = self._tick_count
        self._columns.append(
            phase, name, actor, time_s, dur_s, args,
            0 if count is None else count(),
        )

    def begin(self, name: str, actor: str = "main", **args) -> None:
        """Open a span on *actor*'s stack (closed by :meth:`end`)."""
        stack = self._stacks.get(actor)
        if stack is None:
            stack = self._stacks[actor] = []
        stack.append((name, self._time(), _freeze_args(args)))

    def end(self, actor: str = "main") -> None:
        """Close *actor*'s innermost open span and emit it."""
        stack = self._stacks.get(actor)
        if not stack:
            raise ConfigError(f"no open span to end for actor {actor!r}")
        name, start, args = stack.pop()
        now = self._time()
        self._record(
            PHASE_SPAN, name, actor, start, max(0.0, now - start), args
        )

    @contextmanager
    def span(self, name: str, actor: str = "main", **args):
        """``with tracer.span("fleet.tick"):`` — begin/end, exception-safe."""
        self.begin(name, actor, **args)
        try:
            yield self
        finally:
            self.end(actor)

    def emit_span(
        self,
        name: str,
        actor: str,
        start_s: float,
        dur_s: float,
        args: tuple = (),
    ) -> None:
        """Append an already-closed span — the hot-loop shortcut.

        For a caller that knows the span's bounds up front this is
        :meth:`begin` + :meth:`end` minus the actor-stack traffic and
        kwargs freezing; it records the identical event.  *args* must
        already be in frozen ``(key, value)`` tuple form.
        """
        self._record(PHASE_SPAN, name, actor, start_s, dur_s, args)

    def instant(self, name: str, actor: str = "main", **args) -> None:
        """A point event (fault injected, job admitted, ...)."""
        self._record(
            PHASE_INSTANT, name, actor, self._time(), 0.0, _freeze_args(args)
        )

    def counter(self, name: str, value: float, actor: str = "main") -> None:
        """Sample a time series (queue depth, granted bandwidth, ...).

        *value* must be a finite real number: a trace stores it as a
        float, and JSON has no float for ``inf`` or ``nan``.
        """
        self._record(
            PHASE_COUNTER, name, actor, self._time(), 0.0,
            (("value", _counter_value(name, value)),),
        )

    def log(self, message: str, level: int = logging.INFO, **fields) -> None:
        """Structured log record stamped with sim-time, run id, scenario."""
        if _log.isEnabledFor(level):
            _log.log(
                level,
                message,
                extra={
                    "sim_time_s": self._time(),
                    "run_id": self.run_id,
                    "scenario": self.scenario,
                    "fields": dict(fields) if fields else None,
                },
            )

    # -- packaging -------------------------------------------------------------

    @property
    def event_count(self) -> int:
        count = len(self._columns)
        if self._ticks is not None:
            count += self._tick_count() * self._ticks.events_per_row
        return count

    def open_spans(self) -> dict[str, int]:
        """Actor → open-span depth (diagnostic)."""
        return {
            actor: len(stack)
            for actor, stack in sorted(self._stacks.items())
            if stack
        }

    def freeze(self, process_name: str | None = None) -> Trace:
        """Close dangling spans at the current time and package a Trace."""
        for actor in sorted(self._stacks):
            while self._stacks[actor]:
                self.end(actor)
        ticks = None
        if self._ticks is not None:
            rows = self._tick_rows()[: self._tick_count()]
            ticks = replace(self._ticks, rows=rows)
        name = process_name or self.scenario or "trace"
        return Trace(
            processes=[
                TraceProcess(
                    name=name,
                    run_id=self.run_id,
                    columns=self._columns.copy(),
                    ticks=ticks,
                )
            ]
        )
