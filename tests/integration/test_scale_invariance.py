"""Per-unit cost stays flat as a run gets longer.

Work is measured as ``cProfile`` total calls, which is deterministic
across processes, so these checks cannot flake on a noisy machine.  Each
run is made at N and at 4N units; calls per unit at 4N may exceed those
at N by at most ``MAX_GROWTH``.  A per-read cost that grows with the
length of the run (a full re-scan of accumulated state) shows up here as
a ratio near 2x or more.
"""

import cProfile
import pstats

from repro.dpp import DppSession
from repro.dwrf import EncodingOptions
from repro.serving import ServingScenario
from repro.tectonic import TectonicFilesystem
from repro.warehouse import DatasetProfile, SampleGenerator, Table, publish_table

from ..dpp.conftest import make_spec

MAX_GROWTH = 1.25


def profiled_calls(work):
    """(total function calls, result) of one ``work()`` call."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = work()
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls, result


def serving_calls_per_fetch(n_requests: int) -> float:
    scenario = ServingScenario(
        name="scale",
        seed=0,
        arrival_mix="bursty",
        fetch_policy="retry",
        n_requests=n_requests,
    )
    plane = scenario.build_plane()
    calls, report = profiled_calls(plane.run)
    assert report.served > 0
    return calls / report.served


def dpp_calls_per_row(n_partitions: int, rows_per_partition: int = 256) -> float:
    profile = DatasetProfile(
        n_dense=10, n_sparse=5, n_scored=1, avg_coverage=0.6, avg_sparse_length=5.0
    )
    generator = SampleGenerator(profile, seed=13)
    schema = generator.build_schema("dpp_table")
    table = Table(schema)
    partitions = [f"d{index}" for index in range(n_partitions)]
    generator.populate_table(table, partitions, rows_per_partition)
    filesystem = TectonicFilesystem(n_nodes=6)
    footers = publish_table(filesystem, table, EncodingOptions(stripe_rows=64))
    spec = make_spec(schema, partitions=partitions)
    session = DppSession(spec, filesystem, schema, footers, n_workers=2)
    calls, report = profiled_calls(session.pump)
    rows = n_partitions * rows_per_partition
    assert report.rows_processed == rows
    assert report.batches_delivered == rows // spec.batch_size
    return calls / rows


def test_serving_calls_per_fetch_flat():
    small, large = serving_calls_per_fetch(400), serving_calls_per_fetch(1_600)
    assert large <= MAX_GROWTH * small, (small, large)


def test_dpp_pump_calls_per_row_flat():
    small, large = dpp_calls_per_row(2), dpp_calls_per_row(8)
    assert large <= MAX_GROWTH * small, (small, large)
