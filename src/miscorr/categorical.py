"""Categorical covariate layout and dummy (indicator) design matrices.

Each of the K covariates has L_k categories labelled 0..L_k-1.  The highest
label L_k-1 is the reference category: it gets no indicator column and its
effect is absorbed by the intercept.  Columns are ordered covariate-major,
level-minor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeCategory, ValidationError


@dataclass(frozen=True)
class CategoricalSpec:
    """Number of categories per covariate."""

    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        if len(self.levels) < 1:
            raise ValueError("at least one covariate is required")
        if any(lk < 2 for lk in self.levels):
            raise ValueError("every covariate needs at least 2 categories")

    @property
    def n_covariates(self) -> int:
        return len(self.levels)

    @property
    def n_slopes(self) -> int:
        """Number of indicator columns: sum of (L_k - 1)."""
        return sum(lk - 1 for lk in self.levels)

    @property
    def n_params(self) -> int:
        """Total parameter count including the intercept."""
        return self.n_slopes + 1

    @functools.cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
        """What the levels fix of the dummy encoding, built once per spec and
        read-only: each indicator column's covariate and level, as arrays and
        as (covariate, level) pairs, in column order."""
        pairs = tuple((j, level) for j, lk in enumerate(self.levels) for level in range(lk - 1))
        cov, lev = np.array(pairs).T
        cov.flags.writeable = lev.flags.writeable = False
        return cov, lev, pairs


@dataclass(frozen=True)
class ObservedDataset:
    """Response y, every entry finite, plus observed categories w."""

    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        w = np.asarray(self.w, dtype=int)
        if w.ndim == 1:
            w = w[:, None]
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        if len(y) != w.shape[0]:
            raise ValueError("y and w row counts differ")
        bad = np.nonzero(~np.isfinite(y))[0]
        if bad.size:
            raise ValidationError(f"y is not finite at row {int(bad[0])}: {y[bad[0]]}")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class DesignBundle:
    """Indicator design matrices with and without the intercept column."""

    design: np.ndarray
    design_star: np.ndarray


def _columns(spec: CategoricalSpec, categories) -> list[np.ndarray]:
    """The K category columns, as 64-bit integers, of an n x K table (a
    vector when K is 1) or of a list of its K columns as numpy arrays."""
    if isinstance(categories, list) and all(isinstance(c, np.ndarray) for c in categories):
        columns = [np.asarray(col, dtype=np.int64) for col in categories]
    else:
        cats = np.asarray(categories, dtype=np.int64)
        columns = list((cats[:, None] if cats.ndim == 1 else cats).T)
    if len(columns) != spec.n_covariates:
        raise ValueError(f"expected {spec.n_covariates} covariates, got {len(columns)}")
    if len({len(col) for col in columns}) > 1:
        raise ValueError("the category columns differ in length")
    return columns


def _in_range(spec: CategoricalSpec, categories) -> list[np.ndarray]:
    """The category columns, each checked by one max; the first
    covariate with a category out of range is reported at its first such
    row."""
    columns = _columns(spec, categories)
    for j, (col, lk) in enumerate(zip(columns, spec.levels)):
        unsigned = col.view(np.uint64)  # where a negative category lies above every level
        if col.size and unsigned.max() >= lk:
            i = int(np.argmax(unsigned >= lk))
            raise OutOfRangeCategory(i, j, int(col[i]))
    return columns


def _indicators(spec: CategoricalSpec, cats: np.ndarray, intercept: int = 0) -> np.ndarray:
    """The one dummy encoder: the 0/1 indicator columns of an n x K table of
    categories in range, after ``intercept`` columns of ones.  In C order, so
    that design @ beta sums each row in one order whatever the layout of cats."""
    cov, lev, _ = spec.layout
    design = np.empty((len(cats), intercept + len(cov)))
    design[:, :intercept] = 1.0
    np.equal(cats[:, cov], lev, out=design[:, intercept:])
    return design


def encode_dummy(spec: CategoricalSpec, categories: np.ndarray) -> DesignBundle:
    """Dummy-encode an n x K integer category matrix.

    For covariate k, levels 0..L_k-2 each get one 0/1 column; the last level
    is the reference and encodes to all zeros.  ``design_star`` prepends an
    all-ones intercept column.
    """
    cats = np.column_stack(_in_range(spec, np.asarray(categories)))
    design_star = _indicators(spec, cats, intercept=1)
    return DesignBundle(design=np.ascontiguousarray(design_star[:, 1:]), design_star=design_star)


@dataclass(frozen=True)
class Cells:
    """The occupied cells of an n x K category table.

    A cell is one category combination that occurs in the table.  Every
    design row depends on its cell only, so a fit needs the design row of
    each cell (``design_star``), the rows in it (``counts``) and the cell
    of each row (``inverse``), never the n-row design.
    """

    categories: np.ndarray
    counts: np.ndarray
    inverse: np.ndarray
    design_star: np.ndarray


def encode_cells(spec: CategoricalSpec, categories) -> Cells:
    """Find the occupied cells by their mixed-radix ids, in ascending id
    order, and dummy-encode one row per cell.  ``categories`` is an n x K
    table or a list of its K columns as numpy arrays.  This is the one pass over the rows:
    each column's range check, the ids, one bincount and the cell of each
    row; the cells' categories are decoded from their ids."""
    columns = _in_range(spec, categories)
    n = len(columns[0])
    ids, size, renumbered = columns[0].astype(np.int64), spec.levels[0], {}
    for j in range(1, spec.n_covariates):
        lk = spec.levels[j]
        if size * lk > 2**62:  # renumber the combinations so far: at most n
            renumbered[j], ids = np.unique(ids, return_inverse=True)
            size = n
        ids *= lk
        ids += columns[j]
        size *= lk
    if size > n:  # more combinations than rows: number the occupied ones
        cell_ids, inverse, counts = np.unique(ids, return_inverse=True, return_counts=True)
    else:
        counts = np.bincount(ids, minlength=size)
        cell_ids = np.flatnonzero(counts)
        # the occupied cells below each id: the id itself when every id is occupied
        inverse = ids if len(cell_ids) == size else (np.cumsum(counts > 0) - 1).take(ids)
        counts = counts[cell_ids]
    rows = np.empty((len(cell_ids), spec.n_covariates), dtype=int)
    for j in reversed(range(spec.n_covariates)):
        cell_ids, rows[:, j] = np.divmod(cell_ids, spec.levels[j])
        if j in renumbered:  # back to the ids the renumbering numbered
            cell_ids = renumbered[j][cell_ids]
    return Cells(rows, counts, inverse, _indicators(spec, rows, intercept=1))


@dataclass(frozen=True)
class ValidationReport:
    """The errors found and each covariate's level counts; ``cells`` holds
    the occupied cells for the fit (None when a category is out of range)."""

    errors: tuple[str, ...]
    level_counts: tuple
    cells: Cells | None = field(default=None, compare=False, repr=False)


def validate_dataset(spec: CategoricalSpec, ds, names=None, labels=None) -> ValidationReport:
    """Report-only sanity checks: categories in range, every level present
    (an absent level makes the design singular) and enough rows.  ``ds`` is
    an ObservedDataset or its categories as ``encode_cells`` takes them.
    Messages name covariate k by names[k] (default w1..wK), and an absent
    level also by its label where ``labels`` (column name -> labels in level
    order, as in labels.json) has one.  A level's count is the sum of the
    counts of the cells that hold it; only where a category is out of range
    is each column counted on its own."""
    names = names or [f"w{j + 1}" for j in range(spec.n_covariates)]
    labels = labels or {}
    columns = _columns(spec, ds.w if isinstance(ds, ObservedDataset) else ds)
    try:
        cells = encode_cells(spec, columns)
    except OutOfRangeCategory:
        cells = None
    errors = []
    counts = []
    for j, lk in enumerate(spec.levels):
        if cells is not None:
            cnt = np.bincount(cells.categories[:, j], cells.counts, lk)
        else:
            col = columns[j]
            in_range = (col >= 0) & (col < lk)
            if not in_range.all():
                i = int(np.argmin(in_range))
                errors.append(
                    f"OutOfRangeCategory: data row {i + 1}, column {names[j]}: "
                    f"{int(col[i])} is not in 0..{lk - 1}"
                )
                col = col[in_range]
            cnt = np.bincount(col, minlength=lk)
        counts.append(tuple(int(c) for c in cnt))
        shown = labels.get(names[j], [])
        errors += [f"column {names[j]}: level {level}"
                   f"{f' ({shown[level]!r})' if level < len(shown) else ''} never occurs"
                   for level in np.flatnonzero(cnt == 0)]
    if len(columns[0]) < spec.n_params + 1:
        errors.append(f"need at least {spec.n_params + 1} rows to fit {spec.n_params} "
                      f"parameters, got {len(columns[0])}")
    return ValidationReport(errors=tuple(errors), level_counts=tuple(counts), cells=cells)
