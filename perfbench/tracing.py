"""Wall-clock spans around the DSI layers' public functions.

The benchmark's traced pass installs thin wrappers around the public
entry points of each layer (warehouse publish, Tectonic reads, the DPP
worker phases, master and client calls, the serving plane, the sweep
runner and its journal, the fleet scenario and the telemetry export).
Each call becomes one span: name, start, end, parent span and the
workload operation it belongs to.  Spans stay in memory and are written
out once, after the run.

Nothing inside ``src/`` changes: the wrappers are installed on the
classes and modules for the traced operations only and removed again,
so the untraced operations of the same process run the plain code.

:func:`ledger` turns the spans into per-layer self times.  A span's self
time is its duration minus the time its child spans cover; the root span
of each operation keeps the part no layer claimed as ``unattributed``, so
the buckets add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time

#: Root span of one workload operation; its self time is `unattributed`.
ROOT = "op"

# Span record layout: [name, start, end, parent index, op id, key].
NAME, START, END, PARENT, OP, KEY = range(6)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._item_exec: dict[int, int] = {}
        self._next_exec = 0
        self.workers: dict[int, object] = {}
        self.read_bytes = 0
        self.stored_bytes = 0
        self.stored_logical_bytes = 0
        self.journal_fsyncs = 0
        self.simulators: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, key: int = -1) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, key])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    def begin_op(self, op: int) -> None:
        """Start a new workload operation; per-op lookup state resets."""
        self.op = op
        self._item_exec.clear()
        self.workers.clear()

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _extract(self, fn):
        """``DppWorker.extract_batches`` returns a generator: time each
        ``next()`` as one span, keyed by a per-call execution id so the
        transform / tensorize / deposit spans of the same split can be
        attributed back to it."""

        @functools.wraps(fn)
        def wrapper(worker, split, *args, **kwargs):
            inner = fn(worker, split, *args, **kwargs)
            execution = self._next_exec
            self._next_exec += 1
            self.workers[id(worker)] = worker

            def timed():
                while True:
                    index = self.open("dpp.extract", execution)
                    try:
                        batch = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(index)
                    self._item_exec[id(batch)] = execution
                    yield batch

            return timed()

        return wrapper

    def _keyed(self, name: str, fn):
        """A worker phase whose first argument is an item produced from a
        split: span keyed by that split's execution id; the result (a
        tensor batch) inherits the key."""

        @functools.wraps(fn)
        def wrapper(worker, item, *args, **kwargs):
            execution = self._item_exec.get(id(item), -1)
            index = self.open(name, execution)
            try:
                result = fn(worker, item, *args, **kwargs)
            finally:
                self.close(index)
            if result is not None and execution >= 0:
                self._item_exec[id(result)] = execution
            return result

        return wrapper

    def _read(self, fn):
        @functools.wraps(fn)
        def wrapper(filesystem, name, offset, length):
            index = self.open("tectonic.read")
            try:
                data = fn(filesystem, name, offset, length)
            finally:
                self.close(index)
            self.read_bytes += len(data)
            return data

        return wrapper

    def _store(self, fn):
        @functools.wraps(fn)
        def wrapper(filesystem, table_name, files):
            used, logical = filesystem.used_bytes, filesystem.logical_bytes()
            index = self.open("tectonic.write")
            try:
                footers = fn(filesystem, table_name, files)
            finally:
                self.close(index)
            self.stored_bytes += filesystem.used_bytes - used
            self.stored_logical_bytes += filesystem.logical_bytes() - logical
            return footers

        return wrapper

    def _journal(self, fn):
        @functools.wraps(fn)
        def wrapper(journal, pairs):
            pairs = list(pairs)
            index = self.open("experiments.journal")
            try:
                fn(journal, pairs)
            finally:
                self.close(index)
            if pairs:  # append_results fsyncs once per non-empty batch
                self.journal_fsyncs += 1

        return wrapper

    def _capture_simulator(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            simulator = fn(*args, **kwargs)
            if simulator is not None:
                self.simulators.append(simulator)
            return simulator

        return wrapper

    def targets(self):
        """``(owner, attribute, wrapper factory)`` for every wrapped call."""
        import repro.telemetry as telemetry
        from repro.dpp.client import DppClient
        from repro.dpp.master import ReplicatedMaster
        from repro.dpp.worker import DppWorker
        from repro.experiments.journal import RunJournal
        from repro.experiments.runner import SweepRunner
        from repro.experiments.scenarios import FleetRegionScenario
        from repro.serving.plane import ServingPlane
        from repro.serving.scenario import ServingScenario
        from repro.tectonic.filesystem import TectonicFilesystem
        from repro.telemetry.tracer import Tracer
        from repro.warehouse import publish

        timed = self._timed
        return [
            (publish, "encode_table", lambda fn: timed("dwrf.encode", fn)),
            (publish, "store_files", self._store),
            (TectonicFilesystem, "read", self._read),
            (DppWorker, "extract_batches", self._extract),
            (DppWorker, "transform_batch",
             lambda fn: self._keyed("transforms", fn)),
            (DppWorker, "tensorize", lambda fn: self._keyed("dpp.tensorize", fn)),
            (DppWorker, "deposit", lambda fn: self._keyed("dpp.deposit", fn)),
            (DppClient, "get_batch", lambda fn: timed("dpp.client", fn)),
            (ReplicatedMaster, "request_split", lambda fn: timed("dpp.master", fn)),
            (ReplicatedMaster, "complete_split",
             lambda fn: timed("dpp.master", fn)),
            (ServingScenario, "build_plane",
             lambda fn: timed("serving.build_plane", fn)),
            (ServingPlane, "run", lambda fn: timed("serving.kernel", fn)),
            (SweepRunner, "run", lambda fn: timed("experiments.pool_wait", fn)),
            (RunJournal, "append_results", self._journal),
            (FleetRegionScenario, "build", self._capture_simulator),
            (FleetRegionScenario, "run", lambda fn: timed("fleet.run", fn)),
            (FleetRegionScenario, "run_traced", lambda fn: timed("fleet.run", fn)),
            (Tracer, "freeze", lambda fn: timed("telemetry.freeze", fn)),
            (telemetry, "to_chrome", lambda fn: timed("telemetry.export", fn)),
            (telemetry, "validate_chrome_trace",
             lambda fn: timed("telemetry.validate", fn)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attribute, factory in self.targets():
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, factory(original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as gzipped JSON (one row per span)."""
        with gzip.open(path, "wt") as stream:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "key"],
                 "spans": self.spans},
                stream,
                separators=(",", ":"),
            )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def ledger(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name; the root's share is renamed
    ``unattributed``.  The values add up to the summed root durations."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        name = "unattributed" if span[NAME] == ROOT else span[NAME]
        totals[name] = totals.get(name, 0.0) + own
    return totals
