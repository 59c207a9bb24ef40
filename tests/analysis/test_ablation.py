"""The Table 12 progressive-optimization ablation (small-scale smoke).

The full-scale run lives in benchmarks/test_table12_optimizations.py;
here we run a reduced dataset and assert orderings rather than ratios.
The expensive stage sweep is the session-scoped ``ablation_results``
fixture in ``conftest.py`` so every class (and any future module)
shares one run.
"""

import pytest

from repro.analysis import popularity_feature_order, stages


@pytest.fixture
def dataset(ablation_dataset):
    return ablation_dataset


@pytest.fixture
def results(ablation_results):
    return ablation_results


class TestStageSequence:
    def test_seven_stages_in_paper_order(self):
        names = [stage.name for stage in stages()]
        assert names == ["Baseline", "+FF", "+FM", "+LO", "+CR", "+FR", "+LS"]

    def test_cumulative_flags(self):
        sequence = stages()
        assert not sequence[0].in_memory_flatmap
        assert sequence[2].in_memory_flatmap
        assert not sequence[2].localized_optimizations
        assert sequence[3].localized_optimizations
        assert sequence[4].coalesce_window > 0
        assert sequence[5].popularity_order
        assert sequence[6].stripe_rows > sequence[5].stripe_rows


class TestDppThroughput:
    def test_ff_reduces_cpu_cycles(self, results):
        assert results["+FF"].cpu_cycles < results["Baseline"].cpu_cycles / 1.5

    def test_fm_reduces_over_ff(self, results):
        assert results["+FM"].cpu_cycles < results["+FF"].cpu_cycles

    def test_lo_reduces_over_fm(self, results):
        assert results["+LO"].cpu_cycles < results["+FM"].cpu_cycles

    def test_read_optimizations_leave_cpu_alone(self, results):
        assert results["+CR"].cpu_cycles == pytest.approx(
            results["+LO"].cpu_cycles, rel=0.02
        )

    def test_all_stages_process_all_rows(self, results, dataset):
        expected = dataset.table.total_rows()
        for result in results.values():
            assert result.rows == expected


class TestStorageThroughput:
    def test_ff_craters_storage_throughput(self, results):
        """Flattening wrecks HDD throughput until reads are coalesced."""
        assert (
            results["+FF"].storage_throughput
            < results["Baseline"].storage_throughput / 2
        )

    def test_ff_explodes_io_count(self, results):
        assert results["+FF"].io_count > 10 * results["Baseline"].io_count

    def test_cr_restores_storage_throughput(self, results):
        assert (
            results["+CR"].storage_throughput
            > 3 * results["+FF"].storage_throughput
        )

    def test_cr_introduces_overread(self, results):
        assert results["+CR"].overread_fraction > results["+FF"].overread_fraction

    def test_fr_cuts_overread(self, results):
        assert results["+FR"].overread_fraction < results["+CR"].overread_fraction

    def test_fr_beats_cr(self, results):
        assert results["+FR"].storage_throughput > results["+CR"].storage_throughput

    def test_ls_cuts_seeks_further(self, results):
        assert results["+LS"].seeks <= results["+FR"].seeks

    def test_final_stage_beats_baseline(self, results):
        """The paper's end state: optimized storage throughput exceeds
        the un-flattened baseline (2.41x in Table 12)."""
        assert (
            results["+LS"].storage_throughput
            > results["Baseline"].storage_throughput
        )


class TestFeatureOrdering:
    def test_popularity_order_puts_projection_first(self, dataset):
        order = popularity_feature_order(dataset)
        n_projected = len(dataset.projection)
        assert set(order[:n_projected]) == set(dataset.projection)
        assert len(order) == len(dataset.schema)


#: (rows, cpu_cycles, useful_bytes, disk_time_s, io_count, seeks,
#: overread_fraction) per stage of the conftest sweep.  Worker traces
#: merged through ``IOTrace.extend`` must reproduce every one exactly.
PINNED_STAGES = {
    "Baseline": (1200, 102651088.512, 801693, 0.00209812, 6, 1, 0.0),
    "+FF": (1200, 51835899.64800001, 725377, 0.04023358466666667, 204, 75, 0.0),
    "+FM": (1200, 42003368.832, 725377, 0.04023358466666667, 204, 75, 0.0),
    "+LO": (1200, 32815131.900000002, 725377, 0.04023358466666667, 204, 75, 0.0),
    "+CR": (1200, 32815131.900000002, 725377, 0.002930059333333333, 3, 3, 0.6391318991348145),
    "+FR": (1200, 32815131.900000002, 725377, 0.0020735846666666666, 3, 3, 0.0),
    "+LS": (1200, 32798862.9, 717982, 0.0010086546666666666, 1, 1, 0.0),
}


class TestPinnedStageResults:
    def test_stage_results_unchanged(self, results):
        assert set(results) == set(PINNED_STAGES)
        for name, pinned in PINNED_STAGES.items():
            r = results[name]
            rows, cycles, useful, disk_time, io_count, seeks, overread = pinned
            assert (r.rows, r.useful_bytes, r.io_count, r.seeks) == (
                rows, useful, io_count, seeks
            ), name
            assert r.cpu_cycles == pytest.approx(cycles, rel=1e-9), name
            assert r.disk_time_s == pytest.approx(disk_time, rel=1e-9), name
            assert r.overread_fraction == pytest.approx(overread, rel=1e-9), name
