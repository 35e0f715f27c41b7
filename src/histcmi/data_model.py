"""Columns, bins, grids and label assignments for mixed discrete-continuous data.

A variable is represented by a :class:`MixedColumn`: the one sort of its
sample by :func:`detect_discrete_points`, not the sample.  It keeps the
sorted distinct values, each row's index into them and which distinct
values are discrete atoms, from which the boolean mask of discrete rows
derives.  Whatever later needs the column's order reads it from that sort,
one distinct value at a time: its atoms, the range of its continuous
values, each row's bin (:func:`assign_labels`) and each continuous row's
interval of a grid (:meth:`MixedColumn.interval_index`).  A discretization
of one variable is a :class:`BinSet`: one singleton bin per atom (volume 1)
plus consecutive half-open interval bins partitioning the continuous range
(volume = width).  It is the one record of that partition: the candidate
grid of interval boundaries and the grid indices chosen as cuts, from which
the edges, bin counts and the model cost's candidate count all derive; the
edges, volumes and bin count are computed once, on first use, and the
arrays are read-only.  A joint model over several variables is the
Cartesian product of per-dimension bin sets, held as a sparse
:class:`Grid`: an array of occupied cells and an array of their row counts.

Every joint cell is counted by :func:`count_cells`, which holds the single
mixed-radix encoding of the package: it names each label row by one int64
id and ranks the ids, which numbers the cells in the rows' lexicographic
order exactly as ``np.unique`` does.  It refuses to wrap: ids that would
pass int64 are first replaced by their order-preserving ranks.  Either rank
step counts the ids in one ``bincount`` when their span is at most
``_COUNT_SPAN`` times their number and sorts them above that.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, LabelingError, require_integer


@dataclass(frozen=True)
class MixedColumn:
    """One variable's sample, sorted once, with its discrete atoms flagged.

    ``distinct`` holds the sorted distinct values, ``inverse`` each row's
    index into them and ``atom`` whether each distinct value is an atom, so
    a row is masked (discrete) exactly when its value is an atom.
    :func:`detect_discrete_points` builds it from one ``np.unique``; every
    other read of the column's order comes from that sort.
    """

    distinct: np.ndarray
    inverse: np.ndarray
    atom: np.ndarray
    discrete_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.inverse) == 0:
            raise InputError("column must contain at least one value")
        if len(self.atom) != len(self.distinct):
            raise InputError("a column needs one atom flag per distinct value")
        object.__setattr__(self, "discrete_mask", self.atom[self.inverse])
        for arr in (self.distinct, self.inverse, self.atom, self.discrete_mask):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.inverse)

    @property
    def atoms(self) -> np.ndarray:
        """Sorted distinct masked values."""
        return self.distinct[self.atom]

    @property
    def continuous(self) -> np.ndarray:
        """Sorted distinct unmasked values."""
        return self.distinct[~self.atom]

    def interval_index(self, edges: np.ndarray) -> np.ndarray:
        """The interval [edges[i], edges[i+1]) of each unmasked row, in row
        order, as :func:`_sorted_interval_index` gives it for the row's
        value, read from the sorted distinct values."""
        return _sorted_interval_index(self.distinct, edges)[self.inverse[~self.discrete_mask]]


def detect_discrete_points(column, t: int = 5) -> MixedColumn:
    """Mask every value whose exact-equality multiplicity in the column is >= t.

    Equality is exact floating-point equality: the mixtures this targets
    produce exactly repeated atoms, and epsilon-matching would silently merge
    close continuous values.
    """
    require_integer("t", t)
    if t < 2:
        raise InputError(f"discreteness threshold must be >= 2, got {t}")
    values = np.asarray(column)  # cast once known real: numpy would drop a complex part
    if not (values.dtype.kind in "biuf" or values.dtype.kind == "O"
            and all(isinstance(v, (numbers.Real, np.bool_)) for v in values.flat)):
        raise InputError(f"column must hold real numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if values.ndim != 1:
        raise InputError("column must be one-dimensional")
    if values.size == 0:
        raise InputError("column must contain at least one value")
    if not np.all(np.isfinite(values)):
        raise InputError("column contains non-finite values")
    distinct, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return MixedColumn(distinct=distinct, inverse=inverse, atom=counts >= t)


_FLOAT_MAX = float(np.finfo(np.float64).max)


def degenerate_width(x: float) -> float:
    """Smallest representable positive width around x: one ULP at max(|x|, 1),
    taken below it at ±max float, where no float lies above."""
    m = max(abs(x), 1.0)
    return m - float(np.nextafter(m, 0.0)) if m == _FLOAT_MAX else float(np.spacing(m))


@dataclass(frozen=True)
class BinSet:
    """Per-dimension partition: singleton bins first, then interval bins.

    ``grid`` is the equi-width candidate boundary array the intervals are cut
    from (empty for a purely discrete column) and ``cuts`` the ascending
    interior grid indices chosen as cuts, so the interval edges are
    ``grid[[0, *cuts, -1]]``.  Intervals are left-closed/right-open with the
    last one right-closed, so every unmasked value has exactly one bin.
    """

    singletons: np.ndarray
    grid: np.ndarray
    cuts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        for arr in (self.singletons, self.grid, self.cuts):
            arr.setflags(write=False)
        if self.grid.size == 1:
            raise InputError("grid must be empty or have >= 2 entries")
        if self.grid.size and not np.all(np.diff(self.grid) > 0):
            raise InputError("grid must be strictly increasing")
        if self.cuts.dtype.kind not in "iu":
            raise InputError("cuts must be integer grid indices")
        if self.cuts.size and (self.cuts[0] < 1 or self.cuts[-1] > len(self.grid) - 2
                               or not np.all(np.diff(self.cuts) > 0)):
            raise InputError("cuts must be ascending interior grid indices")

    @property
    def n_candidates(self) -> int:
        """Selectable interior cut positions of the grid."""
        return max(0, len(self.grid) - 2)

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Interval edges, read-only: the grid ends and the chosen cuts."""
        b = self.grid[[0, *self.cuts, -1]] if self.grid.size else self.grid
        b.setflags(write=False)
        return b

    @property
    def n_singletons(self) -> int:
        return len(self.singletons)

    @property
    def n_intervals(self) -> int:
        return len(self.cuts) + 1 if self.grid.size else 0

    @cached_property
    def n_bins(self) -> int:
        return self.n_singletons + self.n_intervals

    @cached_property
    def volumes(self) -> np.ndarray:
        """Per-bin volume in label order (singletons then intervals), read-only."""
        v = np.concatenate([np.ones(self.n_singletons), np.diff(self.boundaries)])
        v.setflags(write=False)
        return v


def _sorted_interval_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Interval [edges[i], edges[i+1]) of each of the ascending ``values``,
    a value past either end taken into the interval at that end, so the
    maximum folds into the last.  It is one merge with the edges: edge k
    lies at or below values[i] exactly when i >= the count of values below
    edge k, so a running count of those positions counts the edges at or
    below each value."""
    below = np.searchsorted(values, edges)
    at_or_below = np.cumsum(np.bincount(below, minlength=len(values) + 1)[:len(values)])
    return np.clip(at_or_below - 1, 0, len(edges) - 2)


def assign_labels(column: MixedColumn, bins: BinSet) -> np.ndarray:
    """Map every row to its bin index (singletons first, intervals after).

    Masked values map to their singleton; unmasked values to the unique
    interval containing them (last interval right-closed).  Each distinct
    value is labelled once, in sorted order, and each row reads its value's.
    """
    atom = column.atom
    labels = np.empty(len(column.distinct), dtype=np.int64)

    if atom.any():
        vals = column.atoms
        idx = np.searchsorted(bins.singletons, vals)
        found = np.append(bins.singletons, np.nan)[idx] == vals  # nan equals no value
        if not found.all():
            raise LabelingError(f"masked value {vals[~found][0]!r} has no singleton bin")
        labels[atom] = idx

    if not atom.all():
        if bins.n_intervals == 0:
            raise LabelingError("column has continuous values but bins have no intervals")
        vals = column.continuous
        b = bins.boundaries
        if vals[0] < b[0] or vals[-1] > b[-1]:
            raise LabelingError("continuous value outside the interval range")
        labels[~atom] = bins.n_singletons + _sorted_interval_index(vals, b)

    return labels[column.inverse]


# every cell id must stay below this to fit in int64
_ID_LIMIT = 2 ** 63
# ids spanning at most this many times their number are counted, not sorted
_COUNT_SPAN = 2


def _integer_labels(labels) -> np.ndarray:
    """``labels`` as an array, refused unless its dtype is integer or bool:
    float labels would be truncated or collide in the cell encoding."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu":
        raise InputError(f"labels must be integers, got dtype {labels.dtype}")
    return labels


def _rank(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True, return_counts=True)[1:]`` of
    nonnegative int64 ids: each id's index among the sorted distinct ids and
    the count of each.  Ids spanning at most ``_COUNT_SPAN`` times their
    number are counted in O(n + span) instead of sorted in O(n log n)."""
    span = int(ids.max(initial=-1)) + 1
    if span > _COUNT_SPAN * len(ids):
        return np.unique(ids, return_inverse=True, return_counts=True)[1:]
    counts = np.bincount(ids, minlength=span)
    distinct = np.flatnonzero(counts)
    rank = np.empty(span, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return rank[ids], counts[distinct]


def count_cells(labels: np.ndarray, radices) -> tuple[np.ndarray, np.ndarray]:
    """Each label row's cell and each cell's row count, as
    ``np.unique(labels, axis=0, return_inverse=True, return_counts=True)[1:]``
    numbers them: cells in the rows' lexicographic order.

    Column j holds labels in [0, radices[j]).  Each row is encoded as one
    int64 id, first column most significant, so ids order like the rows.
    Before the next column would carry an id past int64, the running ids are
    replaced by their ranks, which keeps their order.
    """
    labels = _integer_labels(labels)
    if labels.ndim != 2 or labels.shape[1] != len(radices):
        raise InputError("labels must be an (n, k) matrix with one radix per column")
    ids = np.zeros(len(labels), dtype=np.int64)
    span = 1  # every running id lies in [0, span)
    for j, r in enumerate(radices):
        r = int(r)
        col = labels[:, j]
        if col.size and ((col.dtype.kind == "i" and col.min() < 0) or col.max() >= r):
            raise InputError(f"labels of column {j} outside [0, {r})")
        if span * r > _ID_LIMIT:
            ids, counts = _rank(ids)
            span = len(counts)
            if span * r > _ID_LIMIT:
                raise InputError("too many distinct cells to encode in int64")
        col = col.astype(np.int64, copy=False)  # uint64 would make ids float64
        ids = col if span == 1 else ids * r + col  # with span 1 every id is 0
        span *= r
    return _rank(ids)


@dataclass(frozen=True)
class Grid:
    """Cartesian product of per-dimension bin sets with sparse cell counts.

    ``cells`` holds one row of per-dimension bin indices per occupied cell,
    in lexicographic order, and ``counts`` the number of rows in each; cells
    not listed are empty.
    """

    dims: tuple[BinSet, ...]
    cells: np.ndarray   # (m, k) int64
    counts: np.ndarray  # (m,) int64
    n: int

    def __post_init__(self):
        self.cells.setflags(write=False)
        self.counts.setflags(write=False)
        if self.cells.shape != (len(self.counts), len(self.dims)):
            raise InputError("grid needs one cell row of every dimension per count")

    @property
    def K(self) -> int:
        return math.prod(d.n_bins for d in self.dims)


def build_grid(labels: np.ndarray, bins: list[BinSet]) -> Grid:
    """Count rows per occupied joint cell of the (n, k) label matrix, whose
    column j holds bin indices of ``bins[j]``; the grid keeps its own copy."""
    mat = _integer_labels(labels).astype(np.int64, copy=False)
    n = len(mat)
    cell, counts = count_cells(mat, [b.n_bins for b in bins])
    # any row of a cell spells that cell
    row = np.empty(len(counts), dtype=np.intp)
    row[cell] = np.arange(n)
    return Grid(dims=tuple(bins), cells=mat[row], counts=counts, n=n)
