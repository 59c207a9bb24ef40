"""Metrics instruments: counters, gauges, and histograms.

The registry speaks the same ``<kind>.<metric>`` naming convention as
:meth:`repro.common.serialization.ReportBase.metrics`, so a snapshot of
live instruments and an archived report's metric block are directly
comparable (and :meth:`ReportBase.diff`-able).  Snapshots serialize
through the shared JSON dialect as a first-class report kind
(``"metrics"``), which makes them mergeable across processes with the
usual accumulate semantics: counters add, gauges keep the latest
observation, histograms combine their moments and buckets.

Instrument handles are plain mutable objects — hot paths fetch them
once (``hits = registry.counter("broker.cache_memo_hits")``) and call
``inc()`` with no dictionary lookup per event.  The shared
:data:`NULL_METRICS` registry hands out no-op instruments so code can
be written against the metrics API unconditionally while a disabled
telemetry plane costs one attribute check.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping

from ..common.errors import ConfigError
from ..common.serialization import (
    ReportBase,
    require_keys,
    revive_float,
)

#: Metric names follow report metric keys: ``<kind>.<metric>`` with
#: snake_case segments (``fleet.clock_events``, ``broker.cache_memo_hits``).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

#: Histogram bucket exponents are clamped to this range; values at or
#: below zero land in the dedicated underflow bucket.
_BUCKET_MIN_EXP = -32
_BUCKET_MAX_EXP = 64
_UNDERFLOW_BUCKET = "le0"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigError(
            f"metric name {name!r} must be snake_case '<kind>.<metric>' "
            "(like report metric keys)"
        )
    return name


def _bucket_key(value: float) -> str:
    """Power-of-two bucket label: the smallest ``2**e`` holding *value*."""
    if value <= 0.0:
        return _UNDERFLOW_BUCKET
    exp = math.ceil(math.log2(value))
    exp = max(_BUCKET_MIN_EXP, min(_BUCKET_MAX_EXP, exp))
    return str(exp)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A last-observation-wins level (queue depth, derate fraction)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Moments plus power-of-two buckets — enough for tail summaries
    without storing observations."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.nan
        self.max = math.nan
        self.buckets: dict[str, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        key = _bucket_key(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan


class _NullInstrument:
    """One shared sink behind every disabled counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    total = 0.0
    mean = math.nan

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home for named instruments.

    A name is bound to exactly one instrument type for the life of the
    registry; asking for ``counter(name)`` after ``gauge(name)`` is a
    loud :class:`ConfigError`, not a silent second instrument.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get(self, name: str, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(_check_name(name))
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise ConfigError(
                f"metric {name!r} is already a "
                f"{type(instrument).__name__.lower()}, not a "
                f"{factory.__name__.lower()}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def add_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register *collect(registry)*, run before every snapshot.

        A collector brings instruments whose totals live in engine
        state (rows kept, events fired) up to date on demand, so the
        engine's hot path never touches them.
        """
        self._collectors.append(collect)

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze the live instruments into a serializable report."""
        for collect in self._collectors:
            collect(self)
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = {
                    "count": instrument.count,
                    "total": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                    "buckets": dict(instrument.buckets),
                }
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )


class NullMetricsRegistry:
    """The disabled registry: every instrument is the shared no-op."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> "MetricsSnapshot":
        return MetricsSnapshot(counters={}, gauges={}, histograms={})


NULL_METRICS = NullMetricsRegistry()

_HISTOGRAM_KEYS = ("count", "total", "min", "max", "buckets")


class MetricsSnapshot(ReportBase):
    """A frozen registry state as a report (kind ``"metrics"``)."""

    report_kind = "metrics"

    def __init__(
        self,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        histograms: Mapping[str, Mapping] | None = None,
    ) -> None:
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = {
            name: dict(spec) for name, spec in (histograms or {}).items()
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_json() == other.to_json()

    def payload(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {key: spec[key] for key in _HISTOGRAM_KEYS}
                for name, spec in self.histograms.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MetricsSnapshot":
        require_keys(
            payload,
            ("counters", "gauges", "histograms"),
            context="metrics snapshot",
        )
        histograms = {}
        for name, spec in payload["histograms"].items():
            require_keys(spec, _HISTOGRAM_KEYS, context=f"histogram {name!r}")
            histograms[name] = {
                "count": int(spec["count"]),
                "total": revive_float(spec["total"]),
                "min": revive_float(spec["min"]),
                "max": revive_float(spec["max"]),
                "buckets": {
                    key: int(count) for key, count in spec["buckets"].items()
                },
            }
        return cls(
            counters={
                name: revive_float(value)
                for name, value in payload["counters"].items()
            },
            gauges={
                name: revive_float(value)
                for name, value in payload["gauges"].items()
            },
            histograms=histograms,
        )

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        out.update(self.counters)
        out.update(self.gauges)
        for name, spec in self.histograms.items():
            count = spec["count"]
            out[f"{name}.count"] = float(count)
            out[f"{name}.mean"] = (
                spec["total"] / count if count else math.nan
            )
            out[f"{name}.max"] = spec["max"]
        return dict(sorted(out.items()))

    def merge(self, other: "ReportBase") -> "MetricsSnapshot":
        if not isinstance(other, MetricsSnapshot):
            raise ConfigError(
                "can only merge a metrics snapshot into a metrics snapshot"
            )
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, spec in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = {
                    "count": spec["count"],
                    "total": spec["total"],
                    "min": spec["min"],
                    "max": spec["max"],
                    "buckets": dict(spec["buckets"]),
                }
                continue
            mine["count"] += spec["count"]
            mine["total"] += spec["total"]
            mine["min"] = _nan_min(mine["min"], spec["min"])
            mine["max"] = _nan_max(mine["max"], spec["max"])
            for key, count in spec["buckets"].items():
                mine["buckets"][key] = mine["buckets"].get(key, 0) + count
        return self


def _nan_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def _nan_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


def snapshot_of(instruments: Iterable[Counter | Gauge | Histogram]):
    """Convenience: snapshot a loose collection of instruments."""
    registry = MetricsRegistry()
    for instrument in instruments:
        registry._instruments[instrument.name] = instrument
    return registry.snapshot()
