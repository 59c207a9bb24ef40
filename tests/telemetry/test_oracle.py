"""The columnar tracer against the list-of-events oracle.

Random interleavings of every recording call (``begin``/``end``,
``span``, ``emit_span``, ``instant``, ``counter``) across actors and
clock times, plus a synthetic tick series whose rows are sometimes
deferred and settled later (the fleet's steady-stretch ticks), must give
the same ``Trace.to_json()``, Chrome export, flat metrics and event
count as :mod:`tests.telemetry.oracle`, which records each tick's
counters and span as the tick fires.

Tier-1 runs a capped search; ``--hypothesis-profile=deep`` (registered
in ``tests/conftest.py``) runs that profile's example count instead.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.common.serialization import report_from_json
from repro.telemetry import Tracer, merge_traces, to_chrome
from tests.telemetry import oracle

_DEEP = (
    settings.default.max_examples > settings.get_profile("default").max_examples
)
SEARCH = settings(
    max_examples=settings.default.max_examples if _DEEP else 60, deadline=None
)

ACTORS = ("fleet", "job-1", "job-2", "broker")
NAMES = ("job.queued", "job.running", "fault.worker_crash", "a.b", "fleet.tick")
COUNTER_NAMES = ("fleet.live_workers", "broker.granted_bytes_per_s", "x.depth")

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
values = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
scalar_args = st.dictionaries(
    st.sampled_from(("job_id", "died", "kind", "stall_s")),
    st.one_of(st.integers(-5, 10**6), st.text(max_size=4), times),
    max_size=2,
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.floats(0.0, 120.0, allow_nan=False)),
        st.tuples(
            st.just("begin"), st.sampled_from(NAMES), st.sampled_from(ACTORS),
            scalar_args,
        ),
        st.tuples(st.just("end"), st.sampled_from(ACTORS)),
        st.tuples(
            st.just("span"), st.sampled_from(NAMES), st.sampled_from(ACTORS)
        ),
        st.tuples(
            st.just("emit_span"), st.sampled_from(NAMES),
            st.sampled_from(ACTORS), times, times,
        ),
        st.tuples(
            st.just("instant"), st.sampled_from(NAMES),
            st.sampled_from(ACTORS), scalar_args,
        ),
        st.tuples(
            st.just("counter"), st.sampled_from(COUNTER_NAMES), values,
            st.sampled_from(ACTORS),
        ),
        st.tuples(
            st.just("tick"), st.booleans(), st.integers(0, 500),
            st.integers(0, 40), times,
        ),
        st.tuples(st.just("settle")),
    ),
    max_size=60,
)


def text(payload) -> str:
    """Exact JSON text: ``3 == 3.0`` in Python, but not in the file."""
    return json.dumps(payload, sort_keys=True)


class Sampler:
    """A fleet-like tick source: rows kept, or deferred until settled."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.deferred: list[tuple] = []

    def tick(self, row: tuple, defer: bool) -> None:
        if defer or self.deferred:
            self.deferred.append(row)
        else:
            self.rows.append(row)

    def settle(self) -> list[tuple]:
        self.rows.extend(self.deferred)
        self.deferred.clear()
        return self.rows

    def count(self) -> int:
        return len(self.rows) + len(self.deferred)


def record(ops, scenario: str):
    """Drive both recorders with *ops*; returns (tracer, oracle tracer)."""
    clock = [0.0]
    sampler = Sampler()
    tracer = Tracer(scenario=scenario, seed=1)
    tracer.bind_clock(lambda: clock[0])
    tracer.attach_ticks(
        oracle.FLEET_TICK_SPAN, "fleet", oracle.FLEET_TICK_COUNTERS,
        rows=sampler.settle, count=sampler.count,
    )
    reference = oracle.OracleTracer(scenario, seed=1, time_fn=lambda: clock[0])
    for op in ops:
        kind = op[0]
        if kind == "advance":
            clock[0] += op[1]
        elif kind == "begin":
            tracer.begin(op[1], actor=op[2], **op[3])
            reference.begin(op[1], actor=op[2], **op[3])
        elif kind == "end":
            if tracer.open_spans().get(op[1]):
                tracer.end(actor=op[1])
                reference.end(actor=op[1])
        elif kind == "span":
            with tracer.span(op[1], actor=op[2]):
                pass
            reference.begin(op[1], actor=op[2])
            reference.end(actor=op[2])
        elif kind == "emit_span":
            tracer.emit_span(op[1], op[2], op[3], op[4])
            reference.emit_span(op[1], op[2], op[3], op[4])
        elif kind == "instant":
            tracer.instant(op[1], actor=op[2], **op[3])
            reference.instant(op[1], actor=op[2], **op[3])
        elif kind == "counter":
            tracer.counter(op[1], op[2], actor=op[3])
            reference.counter(op[1], op[2], actor=op[3])
        elif kind == "tick":
            _, defer, live, queued, granted = op
            row = (clock[0], 1, queued, live, 0, 0.0, 0.0, granted, 0.0, 0.0)
            sampler.tick(row, defer)
            reference.tick(row)
        else:
            sampler.settle()
        assert tracer.event_count == reference.event_count
    return tracer, reference


@SEARCH
@given(operations)
def test_columnar_tracer_matches_oracle(ops):
    tracer, reference = record(ops, "cell/a")
    trace = tracer.freeze()
    events = reference.freeze()
    assert tracer.event_count == reference.event_count
    processes = [(trace.processes[0].name, tracer.run_id, events)]
    assert trace.to_json() == oracle.trace_json(processes)
    assert text(to_chrome(trace)) == text(oracle.to_chrome(processes))
    assert text(trace.metrics()) == text(oracle.trace_metrics(processes))
    assert text([e.to_row() for e in trace.processes[0].events]) == text(
        [e.to_row() for e in events]
    )


@SEARCH
@given(operations, operations)
def test_merged_and_revived_traces_match_oracle(first, second):
    tracer_a, reference_a = record(first, "cell/b")
    tracer_b, reference_b = record(second, "cell/a")
    merged = merge_traces([tracer_a.freeze(), tracer_b.freeze()])
    processes = [
        ("cell/b", tracer_a.run_id, reference_a.freeze()),
        ("cell/a", tracer_b.run_id, reference_b.freeze()),
    ]
    merged_json = merged.to_json()
    assert merged_json == oracle.trace_json(processes)
    assert text(to_chrome(merged)) == text(oracle.to_chrome(processes))
    revived = report_from_json(merged_json)
    assert revived.to_json() == merged_json
    assert text(to_chrome(revived)) == text(oracle.to_chrome(processes))
