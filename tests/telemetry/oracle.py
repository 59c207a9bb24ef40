"""Reference telemetry recorder: one frozen ``TraceEvent`` per event.

This is the straightforward list-of-objects tracer, Chrome exporter and
Chrome schema checker that :mod:`repro.telemetry` replaced with a
columnar buffer.  It is kept here, in the test tree, as the oracle the
columnar code is checked against (``test_oracle.py``): given the same
recording calls, both must produce the same ``Trace.to_json()``, the
same Chrome export and the same event count, and the checker must return
the same problem list.

A fleet tick is recorded the way the simulator used to record it while
the tick fired: three counter samples read from the tick's sample row,
then a zero-duration ``fleet.tick`` span (:meth:`OracleTracer.tick`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.common.errors import ConfigError
from repro.common.hashing import stable_hash
from repro.common.serialization import (
    REPORT_SCHEMA_VERSION,
    build_envelope,
    dump_json,
    null_specials,
)

PHASE_SPAN = "X"
PHASE_INSTANT = "I"
PHASE_COUNTER = "C"

_US_PER_S = 1_000_000.0
_VALID_PHASES = {"X", "i", "C", "M"}
_METADATA_NAMES = {"process_name", "thread_name"}

#: The fleet's tick telemetry: (counter name, sample-row column), in
#: recording order, then the per-tick span.
FLEET_TICK_COUNTERS = (
    ("fleet.live_workers", 3),
    ("fleet.queued_jobs", 2),
    ("fleet.granted_bytes_per_s", 7),
)
FLEET_TICK_SPAN = "fleet.tick"


def _freeze_args(args: Mapping[str, Any]) -> tuple:
    if not args:
        return ()
    for key, value in args.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"trace arg {key!r} must be finite, got {value!r}")
        if not isinstance(value, (str, int, float)):
            raise ConfigError(
                f"trace arg {key!r} must be a str/int/float scalar, "
                f"got {type(value).__name__}"
            )
    return tuple(sorted(args.items()))


@dataclass(frozen=True)
class TraceEvent:
    phase: str
    name: str
    actor: str
    time_s: float
    dur_s: float = 0.0
    args: tuple = ()

    def to_row(self) -> dict:
        return {
            "ph": self.phase,
            "name": self.name,
            "actor": self.actor,
            "t": self.time_s,
            "dur": self.dur_s,
            "args": {key: value for key, value in self.args},
        }


class OracleTracer:
    """Records every span, instant and counter as one ``TraceEvent``."""

    def __init__(
        self, scenario: str = "", seed: int = 0, time_fn: Callable[[], float] | None = None
    ) -> None:
        self.scenario = scenario
        self.run_id = format(stable_hash("trace", scenario, seed), "016x")
        self._time = time_fn or (lambda: 0.0)
        self.events: list[TraceEvent] = []
        self._stacks: dict[str, list[tuple[str, float, tuple]]] = {}

    def begin(self, name: str, actor: str = "main", **args) -> None:
        self._stacks.setdefault(actor, []).append(
            (name, self._time(), _freeze_args(args))
        )

    def end(self, actor: str = "main") -> None:
        stack = self._stacks.get(actor)
        if not stack:
            raise ConfigError(f"no open span to end for actor {actor!r}")
        name, start, args = stack.pop()
        now = self._time()
        self.events.append(
            TraceEvent(PHASE_SPAN, name, actor, start, max(0.0, now - start), args)
        )

    def emit_span(
        self, name: str, actor: str, start_s: float, dur_s: float, args: tuple = ()
    ) -> None:
        self.events.append(TraceEvent(PHASE_SPAN, name, actor, start_s, dur_s, args))

    def instant(self, name: str, actor: str = "main", **args) -> None:
        self.events.append(
            TraceEvent(PHASE_INSTANT, name, actor, self._time(), 0.0, _freeze_args(args))
        )

    def counter(self, name: str, value: float, actor: str = "main") -> None:
        self.events.append(
            TraceEvent(
                PHASE_COUNTER, name, actor, self._time(), 0.0, (("value", float(value)),)
            )
        )

    def tick(self, row: tuple, actor: str = "fleet") -> None:
        """One fleet tick, recorded as it fires (time is ``row[0]``)."""
        for name, index in FLEET_TICK_COUNTERS:
            self.events.append(
                TraceEvent(
                    PHASE_COUNTER, name, actor, row[0], 0.0,
                    (("value", float(row[index])),),
                )
            )
        self.emit_span(FLEET_TICK_SPAN, actor, row[0], 0.0)

    @property
    def event_count(self) -> int:
        return len(self.events)

    def freeze(self) -> list[TraceEvent]:
        """Close dangling spans (actors in sorted order); the event list."""
        for actor in sorted(self._stacks):
            while self._stacks[actor]:
                self.end(actor)
        return list(self.events)


def trace_json(processes: list[tuple[str, str, list[TraceEvent]]]) -> str:
    """``Trace.to_json()`` of ``(name, run_id, events)`` processes."""
    payload = {
        "processes": [
            {
                "name": name,
                "run_id": run_id,
                "events": [event.to_row() for event in events],
            }
            for name, run_id, events in sorted(processes, key=lambda p: p[0])
        ]
    }
    return dump_json(
        null_specials(
            build_envelope("report", "trace", REPORT_SCHEMA_VERSION, payload)
        )
    )


def trace_metrics(processes: list[tuple[str, str, list[TraceEvent]]]) -> dict:
    """``Trace.metrics()`` of ``(name, run_id, events)`` processes."""
    ordered = sorted(processes, key=lambda p: p[0])
    events = [e for _, _, process_events in ordered for e in process_events]
    spans = [e for e in events if e.phase == PHASE_SPAN]
    return {
        "trace.processes": float(len(processes)),
        "trace.events": float(len(events)),
        "trace.spans": float(len(spans)),
        "trace.instants": float(sum(1 for e in events if e.phase == PHASE_INSTANT)),
        "trace.counters": float(sum(1 for e in events if e.phase == PHASE_COUNTER)),
        "trace.span_time_s": sum(e.dur_s for e in spans),
    }


def to_chrome(processes: list[tuple[str, str, list[TraceEvent]]]) -> dict:
    """The Chrome export of ``(name, run_id, events)`` processes."""
    events: list[dict] = []
    ordered = sorted(processes, key=lambda p: p[0])
    for pid, (name, _, process_events) in enumerate(ordered, start=1):
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
        )
        tids: dict[str, int] = {}
        for event in process_events:
            tid = tids.get(event.actor)
            if tid is None:
                tid = tids[event.actor] = len(tids) + 1
                events.append(
                    {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                     "args": {"name": event.actor}}
                )
            ts = event.time_s * _US_PER_S
            args = {key: value for key, value in event.args}
            if event.phase == PHASE_SPAN:
                events.append(
                    {"ph": "X", "name": event.name, "pid": pid, "tid": tid,
                     "ts": ts, "dur": event.dur_s * _US_PER_S, "args": args}
                )
            elif event.phase == PHASE_INSTANT:
                events.append(
                    {"ph": "i", "name": event.name, "pid": pid, "tid": tid,
                     "ts": ts, "s": "t", "args": args}
                )
            elif event.phase == PHASE_COUNTER:
                events.append(
                    {"ph": "C", "name": event.name, "pid": pid, "tid": tid,
                     "ts": ts, "args": args}
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Any) -> list[str]:
    """The reference Chrome schema check (``typing.Mapping`` throughout)."""
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no 'traceEvents' list"]
    if not events:
        problems.append("'traceEvents' is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        for id_key in ("pid", "tid"):
            if not isinstance(event.get(id_key), int):
                problems.append(f"{where}: missing integer {id_key!r}")
        if phase == "M":
            if event["name"] not in _METADATA_NAMES:
                problems.append(f"{where}: unknown metadata event {event['name']!r}")
            if not isinstance(event.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata needs args.name")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"{where}: missing numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                problems.append(f"{where}: 'X' needs a non-negative 'dur'")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope 's' must be t/p/g")
        if phase == "C" and not isinstance(event.get("args"), Mapping):
            problems.append(f"{where}: counter needs an 'args' mapping")
    return problems
