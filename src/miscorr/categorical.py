"""Categorical covariate layout and dummy (indicator) design matrices.

Each of the K covariates has L_k categories labelled 0..L_k-1.  The highest
label L_k-1 is the reference category: it gets no indicator column and its
effect is absorbed by the intercept.  Columns are ordered covariate-major,
level-minor.
"""

from __future__ import annotations

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
    column_map: dict = field(compare=False)


def _category_table(spec: CategoricalSpec, categories) -> np.ndarray:
    """The n x K integer category matrix, with every category in range."""
    cats = np.asarray(categories, dtype=int)
    if cats.ndim == 1:
        cats = cats[:, None]
    if cats.shape[1] != spec.n_covariates:
        raise ValueError(f"expected {spec.n_covariates} covariates, got {cats.shape[1]}")
    bad = (cats < 0) | (cats >= np.array(spec.levels))
    if bad.any():  # the first covariate with a category out of range, at its first such row
        j, i = map(int, np.argwhere(bad.T)[0])
        raise OutOfRangeCategory(i, j, int(cats[i, j]))
    return cats


def encode_dummy(spec: CategoricalSpec, categories: np.ndarray) -> DesignBundle:
    """Dummy-encode an n x K integer category matrix.

    For covariate k, levels 0..L_k-2 each get one 0/1 column; the last level
    is the reference and encodes to all zeros.  ``design_star`` prepends an
    all-ones intercept column.
    """
    cats = _category_table(spec, categories)
    columns = [(j, level) for j, lk in enumerate(spec.levels) for level in range(lk - 1)]
    cov, lev = np.array(columns).T
    # in C order, so that design @ beta sums each row in one order whatever the layout of cats
    design = (cats[:, cov] == lev).astype(float, order="C")
    design_star = np.empty((len(cats), len(columns) + 1))
    design_star[:, 0], design_star[:, 1:] = 1.0, design
    return DesignBundle(design=design, design_star=design_star,
                        column_map={pair: col for col, pair in enumerate(columns)})


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
    column_map: dict = field(compare=False)


def encode_cells(spec: CategoricalSpec, categories: np.ndarray) -> Cells:
    """Find the occupied cells by their mixed-radix ids, in ascending id
    order, and dummy-encode one row per cell."""
    cats = _category_table(spec, categories)
    ids, size = np.zeros(len(cats), dtype=np.int64), 1
    for col, lk in zip(cats.T, spec.levels):
        if size * lk > 2**62:  # renumber the combinations so far: at most n
            ids, size = np.unique(ids, return_inverse=True)[1], len(cats)
        ids, size = ids * lk + col, size * lk
    if size > len(cats):  # more combinations than rows: renumber the occupied ones
        ids, size = np.unique(ids, return_inverse=True)[1], len(cats)
    counts = np.bincount(ids, minlength=size)
    inverse = (np.cumsum(counts > 0) - 1)[ids]  # occupied cells below each id
    counts = counts[counts > 0]
    last = np.empty(len(counts), dtype=np.intp)
    last[inverse] = np.arange(len(cats))  # every row of a cell holds the same categories
    rows = cats[last]
    bundle = encode_dummy(spec, rows)
    return Cells(rows, counts, inverse, bundle.design_star, bundle.column_map)


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    level_counts: tuple


def validate_dataset(spec: CategoricalSpec, ds: ObservedDataset,
                     names=None, labels=None) -> ValidationReport:
    """Report-only sanity checks: categories in range, every level present
    (an absent level makes the design singular) and enough rows.  Messages
    name covariate k by names[k] (default w1..wK), and an absent level also
    by its label where ``labels`` (column name -> labels in level order, as
    in labels.json) has one."""
    names = names or [f"w{j + 1}" for j in range(spec.n_covariates)]
    labels = labels or {}
    errors = []
    counts = []
    for j, lk in enumerate(spec.levels):
        col = ds.w[:, j]
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
    if ds.n < spec.n_params + 1:
        errors.append(f"need at least {spec.n_params + 1} rows to fit {spec.n_params} "
                      f"parameters, got {ds.n}")
    return ValidationReport(errors=tuple(errors), level_counts=tuple(counts))

