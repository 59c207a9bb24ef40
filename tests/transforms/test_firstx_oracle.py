"""FirstX against its per-row reference: identical offsets, values, weights.

``first_x_reference`` is the row-at-a-time reference (one ``np.arange``
per row).  The library's offset-arithmetic gather must match it
array-for-array, dtypes included, on every column Hypothesis can find.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.transforms import FeatureBatch, FirstX, SparseColumn

S = 7


def first_x_reference(column: SparseColumn, x: int) -> SparseColumn:
    """Truncate each ID list to its first *x* elements, one row at a time."""
    lengths = np.minimum(column.lengths(), x)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    keep = np.concatenate(
        [
            np.arange(column.offsets[i], column.offsets[i] + lengths[i])
            for i in range(len(column))
        ]
    ).astype(np.int64) if len(column) else np.empty(0, dtype=np.int64)
    values = column.values[keep]
    weights = None if column.weights is None else column.weights[keep]
    return SparseColumn(offsets, values, weights)


def assert_same_column(got: SparseColumn, want: SparseColumn) -> None:
    for name in ("offsets", "values", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def run_first_x(column: SparseColumn, x: int) -> SparseColumn:
    batch = FeatureBatch(labels=np.zeros(len(column), dtype=np.float32))
    batch.add_column(S, column)
    return FirstX(S, x).apply(batch)


ROWS = st.lists(
    st.lists(st.integers(-(2**62), 2**62), max_size=12), max_size=24
)


def build(rows: list[list[int]], weighted: bool) -> SparseColumn:
    weights = (
        [[float(i) + 0.5 for i in range(len(ids))] for ids in rows]
        if weighted
        else None
    )
    return SparseColumn.from_lists(rows, weights)


@given(ROWS, st.integers(0, 16), st.booleans())
@example([], 3, False)  # empty column
@example([], 0, True)
@example([[], [], []], 2, True)  # every row empty
@example([[1, 2, 3], [], [4]], 0, False)  # x = 0
@example([[1, 2, 3], [], [4]], 99, True)  # x above every length
def test_matches_per_row_reference(rows, x, weighted):
    column = build(rows, weighted)
    assert_same_column(run_first_x(column, x), first_x_reference(column, x))


@given(ROWS, st.integers(0, 16))
def test_keeps_prefix_of_every_row(rows, x):
    out = run_first_x(build(rows, weighted=False), x)
    assert out.to_lists() == [ids[:x] for ids in rows]
