"""Packed-bitmap kernels of the Section 4.2 tail.

When the counter array threatens to explode on the last, densest rows,
DMC switches to per-column bitmaps over the *remaining* rows.  A bitmap
for column ``c_j`` has one bit per remaining row; misses of ``c_j``
against ``c_k`` are then ``popcount(bm(c_j) & ~bm(c_k))``.

Bitmaps are stored packed, eight rows per byte, via ``numpy.packbits``.

The scalar pair helpers (``count_and_not`` et al.) serve the
Algorithm 4.1 tail, which visits one candidate pair at a time.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

# popcount of every byte value, used to count bits in packed arrays.
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0: hardware popcount ufunc
    def _popcount_sum(bytes_array: np.ndarray) -> np.ndarray:
        return np.bitwise_count(bytes_array).sum(dtype=np.int64)
else:  # pragma: no cover — exercised only on numpy < 2.0
    def _popcount_sum(bytes_array: np.ndarray) -> np.ndarray:
        return _POPCOUNT[bytes_array].sum()


def count_ones(packed: np.ndarray) -> int:
    """Return the number of set bits in a packed bitmap."""
    return int(_popcount_sum(packed))


def count_and_not(a: np.ndarray, b: np.ndarray) -> int:
    """Return ``popcount(a & ~b)`` — the misses of ``a`` against ``b``."""
    return int(_popcount_sum(a & ~b))


def count_and(a: np.ndarray, b: np.ndarray) -> int:
    """Return ``popcount(a & b)`` — the hits between two bitmaps."""
    return int(_popcount_sum(a & b))


def bitmaps_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Return True when two packed bitmaps represent the same row set."""
    return a.shape == b.shape and bool(np.array_equal(a, b))


def pack_rows(
    rows: Sequence[Tuple[int, Sequence[int]]],
    columns: Optional[Iterable[int]] = None,
) -> "PackedBitmaps":
    """Pack ``(row_id, column_ids)`` pairs into per-column bitmaps.

    Bit ``t`` of a column's bitmap corresponds to the ``t``-th entry of
    ``rows``.  Only columns that actually appear get a bitmap unless
    ``columns`` explicitly lists the ids to materialize.
    """
    n = len(rows)
    wanted = None if columns is None else set(columns)
    unpacked: Dict[int, np.ndarray] = {}
    for position, (_, row_columns) in enumerate(rows):
        for column in row_columns:
            if wanted is not None and column not in wanted:
                continue
            bits = unpacked.get(column)
            if bits is None:
                bits = np.zeros(n, dtype=np.uint8)
                unpacked[column] = bits
            bits[position] = 1
    packed = {
        column: np.packbits(bits) for column, bits in unpacked.items()
    }
    return PackedBitmaps(packed, n)


class PackedBitmaps:
    """A set of per-column packed bitmaps over the same row window."""

    def __init__(self, bitmaps: Dict[int, np.ndarray], n_rows: int) -> None:
        self._bitmaps = bitmaps
        self.n_rows = n_rows
        n_bytes = (n_rows + 7) // 8
        self._empty = np.zeros(n_bytes, dtype=np.uint8)

    def __contains__(self, column: int) -> bool:
        return column in self._bitmaps

    def __len__(self) -> int:
        return len(self._bitmaps)

    def columns(self) -> Iterable[int]:
        """Return the column ids that have at least one remaining 1."""
        return self._bitmaps.keys()

    def get(self, column: int) -> np.ndarray:
        """Return the bitmap for ``column`` (all-zero if absent)."""
        return self._bitmaps.get(column, self._empty)

    def ones(self, column: int) -> int:
        """Count of remaining 1's for ``column``."""
        return count_ones(self.get(column))

    def misses(self, column_j: int, column_k: int) -> int:
        """Rows where ``column_j`` is 1 but ``column_k`` is 0."""
        return count_and_not(self.get(column_j), self.get(column_k))

    def hits(self, column_j: int, column_k: int) -> int:
        """Rows where both columns are 1."""
        return count_and(self.get(column_j), self.get(column_k))

    def identical(self, column_j: int, column_k: int) -> bool:
        """True when both columns have the same remaining row set."""
        return bitmaps_equal(self.get(column_j), self.get(column_k))

    def memory_bytes(self) -> int:
        """Total bytes held by the packed bitmaps."""
        return sum(b.nbytes for b in self._bitmaps.values())
