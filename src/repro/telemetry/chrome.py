"""Chrome trace-event export: open traces in Perfetto or chrome://tracing.

A :class:`~repro.telemetry.tracer.Trace` maps onto the Chrome JSON
format naturally: each traced process becomes a ``pid`` (with a
``process_name`` metadata event), each actor a ``tid`` (numbered by
first appearance, with a ``thread_name`` metadata event), spans become
complete ``"X"`` events, instants thread-scoped ``"i"`` events, and
counter samples ``"C"`` events.  Sim-time seconds become microsecond
timestamps, which Perfetto renders as wall-clock-looking tracks.

The export is deterministic — event order, ids, and float formatting
all derive from the trace — so exported files diff cleanly, and
:func:`validate_chrome_trace` gives CI a dependency-free schema check
(a list of problems, empty when the payload is well-formed).
"""

from __future__ import annotations

import gc
import pathlib
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any

from ..common.serialization import dump_json, null_specials
from .tracer import (
    PHASE_COUNTER,
    PHASE_INSTANT,
    PHASE_SPAN,
    TickSeries,
    Trace,
)

#: Sim-time seconds → Chrome microseconds.
_US_PER_S = 1_000_000.0

_VALID_PHASES = {"X", "i", "C", "M"}
_METADATA_NAMES = {"process_name", "thread_name"}

#: Trace phase -> Chrome phase.
_CHROME_PHASE = {PHASE_SPAN: "X", PHASE_INSTANT: "i", PHASE_COUNTER: "C"}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for a bulk build of acyclic
    containers: otherwise every few hundred new dicts trigger a
    collection, and the older generations rescan the growing list."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def to_chrome(trace: Trace) -> dict:
    """Render a trace as a Chrome trace-event JSON object.

    Dicts are built straight from each process's columns and tick
    series, in emission order, with no :class:`TraceEvent` in between.
    """
    with _collector_paused():
        return _to_chrome(trace)


def _to_chrome(trace: Trace) -> dict:
    events: list[dict] = []
    append = events.append
    for pid, process in enumerate(trace.processes, start=1):
        append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": process.name},
            }
        )
        tids: dict[str, int] = {}

        def tid_of(actor: str) -> int:
            tid = tids.get(actor)
            if tid is None:
                tid = tids[actor] = len(tids) + 1
                append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": actor},
                    }
                )
            return tid

        cols = process.columns
        names, actors = cols.names, cols.actors
        phases, name_ids, actor_ids = cols.phase, cols.name, cols.actor
        times, durs, arg_lists = cols.time, cols.dur, cols.args
        # Column actor id -> Chrome tid, assigned on first appearance.
        actor_tids: list[int | None] = [None] * len(actors)
        ticks = process.ticks
        for is_tick, start, stop in process.runs():
            if is_tick:
                tid = tid_of(ticks.actor)
                _tick_events(append, ticks, start, stop, pid, tid)
                continue
            for i in range(start, stop):
                actor_id = actor_ids[i]
                tid = actor_tids[actor_id]
                if tid is None:
                    tid = actor_tids[actor_id] = tid_of(actors[actor_id])
                phase = phases[i]
                event = {
                    "ph": _CHROME_PHASE[phase],
                    "name": names[name_ids[i]],
                    "pid": pid,
                    "tid": tid,
                    "ts": times[i] * _US_PER_S,
                }
                if phase == PHASE_SPAN:
                    event["dur"] = durs[i] * _US_PER_S
                elif phase == PHASE_INSTANT:
                    event["s"] = "t"
                event["args"] = {key: value for key, value in arg_lists[i]}
                append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _tick_events(
    append, ticks: TickSeries, start: int, stop: int, pid: int, tid: int
) -> None:
    """Chrome events of tick rows ``start..stop``: the counters, then
    the zero-length span, per row."""
    span = ticks.span
    counters = ticks.counters
    dur = 0.0 * _US_PER_S
    for row in ticks.rows[start:stop]:
        ts = row[0] * _US_PER_S
        for name, column in counters:
            append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": pid,
                    "tid": tid,
                    "ts": ts,
                    "args": {"value": float(row[column])},
                }
            )
        append(
            {
                "ph": "X",
                "name": span,
                "pid": pid,
                "tid": tid,
                "ts": ts,
                "dur": dur,
                "args": {},
            }
        )


def validate_chrome_trace(payload: Any) -> list[str]:
    """Schema-check a Chrome trace payload; returns problems (empty = ok).

    Plain ``dict`` events (every parsed or exported payload) skip the
    abstract ``Mapping`` check; any other mapping is accepted the same.
    """
    if type(payload) is not dict and not isinstance(payload, Mapping):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no 'traceEvents' list"]
    problems: list[str] = []
    if not events:
        problems.append("'traceEvents' is empty")
    found: list[tuple[int, str]] = []  # (index, problem), in event order
    for index, event in enumerate(events):
        if type(event) is not dict and not isinstance(event, Mapping):
            found.append((index, "not an object"))
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            found.append((index, f"bad phase {phase!r}"))
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            found.append((index, "missing event name"))
        if not isinstance(event.get("pid"), int):
            found.append((index, "missing integer 'pid'"))
        if not isinstance(event.get("tid"), int):
            found.append((index, "missing integer 'tid'"))
        if phase == "M":
            if event["name"] not in _METADATA_NAMES:
                found.append(
                    (index, f"unknown metadata event {event['name']!r}")
                )
            if not isinstance(event.get("args", {}).get("name"), str):
                found.append((index, "metadata needs args.name"))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            found.append((index, "missing numeric 'ts'"))
        if phase == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur < 0
            ):
                found.append((index, "'X' needs a non-negative 'dur'"))
        elif phase == "i":
            if event.get("s") not in ("t", "p", "g"):
                found.append((index, "instant scope 's' must be t/p/g"))
        elif phase == "C":
            args = event.get("args")
            if type(args) is not dict and not isinstance(args, Mapping):
                found.append((index, "counter needs an 'args' mapping"))
    problems.extend(
        f"traceEvents[{index}]: {problem}" for index, problem in found
    )
    return problems


def write_chrome_trace(trace: Trace, path: str | pathlib.Path) -> pathlib.Path:
    """Export *trace* to a Chrome trace JSON file; returns the path."""
    target = pathlib.Path(path)
    target.write_text(dump_json(null_specials(to_chrome(trace))))
    return target
