"""Sparse feature normalization ops.

SigridHash, FirstX, PositiveModulus, MapId, Enumerate, ComputeScore, and
IdListTransform operate on categorical ID lists; they are the middle
cost class (~20% of transform cycles, Section 6.4).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import TransformError
from .base import OpClass, OpCost, Transform, register
from .batch import Column, FeatureBatch, SparseColumn


class _SparseUnary(Transform):
    """Shared plumbing for single-input sparse ops."""

    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=8.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int) -> None:
        self._input_id = input_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def _input(self, batch: FeatureBatch) -> SparseColumn:
        return batch.sparse(self._input_id)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a real, well-mixed 64-bit hash."""
    x = values.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & np.uint64(
            0xFFFFFFFFFFFFFFFF
        )
        x = x ^ (x >> np.uint64(31))
    return x


@register
class SigridHash(_SparseUnary):
    """Hash categorical IDs into a fixed embedding-table range."""

    name = "SigridHash"
    cost = OpCost(cycles_per_element=12.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, table_size: int, salt: int = 0) -> None:
        super().__init__(input_id)
        if table_size <= 0:
            raise TransformError("table_size must be positive")
        self.table_size = table_size
        self.salt = salt

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        hashed = splitmix64(column.values + np.int64(self.salt))
        values = (hashed % np.uint64(self.table_size)).astype(np.int64)
        weights = None if column.weights is None else column.weights.copy()
        return SparseColumn(column.offsets.copy(), values, weights)


@register
class FirstX(_SparseUnary):
    """Truncate each ID list to its first *x* elements."""

    name = "FirstX"
    cost = OpCost(cycles_per_element=4.0, mem_bytes_per_element=16.0)

    def __init__(self, input_id: int, x: int) -> None:
        super().__init__(input_id)
        if x < 0:
            raise TransformError("x must be non-negative")
        self.x = x

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        lengths = np.minimum(column.lengths(), self.x)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        # Output slot j of row i reads input slot column.offsets[i] +
        # (j - offsets[i]): one row-shift per kept ID plus one arange.
        shift = np.repeat(column.offsets[:-1] - offsets[:-1], lengths)
        keep = shift + np.arange(offsets[-1], dtype=np.int64)
        values = column.values[keep]
        weights = None if column.weights is None else column.weights[keep]
        return SparseColumn(offsets, values, weights)


@register
class PositiveModulus(_SparseUnary):
    """``((v % m) + m) % m`` — always-positive remainder of each ID."""

    name = "PositiveModulus"
    cost = OpCost(cycles_per_element=5.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, modulus: int) -> None:
        super().__init__(input_id)
        if modulus <= 0:
            raise TransformError("modulus must be positive")
        self.modulus = modulus

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        values = np.mod(column.values, self.modulus)  # numpy % is already positive
        weights = None if column.weights is None else column.weights.copy()
        return SparseColumn(column.offsets.copy(), values.astype(np.int64), weights)


@register
class MapId(_SparseUnary):
    """Map feature IDs to fixed values through a lookup table."""

    name = "MapId"
    cost = OpCost(cycles_per_element=10.0, mem_bytes_per_element=32.0)

    def __init__(self, input_id: int, mapping: dict[int, int], default: int = 0) -> None:
        super().__init__(input_id)
        self.mapping = dict(mapping)
        self.default = default

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        values = np.fromiter(
            (self.mapping.get(int(v), self.default) for v in column.values),
            dtype=np.int64,
            count=len(column.values),
        )
        weights = None if column.weights is None else column.weights.copy()
        return SparseColumn(column.offsets.copy(), values, weights)


@register
class Enumerate(_SparseUnary):
    """Replace each ID with its position in the list — Python ``enumerate``."""

    name = "Enumerate"
    cost = OpCost(cycles_per_element=3.0, mem_bytes_per_element=16.0)

    def apply(self, batch: FeatureBatch) -> Column:
        column = self._input(batch)
        positions = np.concatenate(
            [np.arange(n, dtype=np.int64) for n in column.lengths()]
        ) if len(column.values) else np.empty(0, dtype=np.int64)
        weights = None if column.weights is None else column.weights.copy()
        return SparseColumn(column.offsets.copy(), positions, weights)


@register
class ComputeScore(Transform):
    """Arithmetic over the score weights of a scored-sparse feature.

    Produces a new scored column whose weights are ``scale * w + bias``
    — the paper's "arithmetic operations on sparse features".
    """

    name = "ComputeScore"
    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=6.0, mem_bytes_per_element=24.0)

    def __init__(self, input_id: int, scale: float = 1.0, bias: float = 0.0) -> None:
        self._input_id = input_id
        self.scale = scale
        self.bias = bias

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._input_id,)

    def apply(self, batch: FeatureBatch) -> Column:
        column = batch.sparse(self._input_id)
        if column.weights is None:
            raise TransformError(
                f"ComputeScore requires a scored feature, {self._input_id} has no weights"
            )
        weights = column.weights * self.scale + self.bias
        return SparseColumn(
            column.offsets.copy(), column.values.copy(), weights.astype(np.float32)
        )


@register
class IdListTransform(Transform):
    """Per-row intersection of two sparse features' ID lists."""

    name = "IdListTransform"
    op_class = OpClass.SPARSE_NORMALIZATION
    cost = OpCost(cycles_per_element=14.0, mem_bytes_per_element=40.0)

    def __init__(self, left_id: int, right_id: int) -> None:
        self._left_id = left_id
        self._right_id = right_id

    @property
    def input_ids(self) -> tuple[int, ...]:
        return (self._left_id, self._right_id)

    def apply(self, batch: FeatureBatch) -> Column:
        left = batch.sparse(self._left_id)
        right = batch.sparse(self._right_id)
        lists = []
        for i in range(len(left)):
            right_set = set(map(int, right.row(i)))
            seen: set[int] = set()
            intersection = []
            for v in map(int, left.row(i)):
                if v in right_set and v not in seen:
                    intersection.append(v)
                    seen.add(v)
            lists.append(intersection)
        return SparseColumn.from_lists(lists)
