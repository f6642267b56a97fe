"""Categorical covariate layout and dummy (indicator) design matrices.

Each of the K covariates has L_k categories labelled 0..L_k-1.  The highest
label L_k-1 is the reference category: it gets no indicator column and its
effect is absorbed by the intercept.  Columns are ordered covariate-major,
level-minor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientRows, OutOfRangeCategory, ValidationError


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
    """Response y plus observed categories w."""

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
    for j, lk in enumerate(spec.levels):
        bad = np.nonzero((cats[:, j] < 0) | (cats[:, j] >= lk))[0]
        if bad.size:
            i = int(bad[0])
            raise OutOfRangeCategory(i, j, int(cats[i, j]))
    return cats


def encode_dummy(spec: CategoricalSpec, categories: np.ndarray) -> DesignBundle:
    """Dummy-encode an n x K integer category matrix.

    For covariate k, levels 0..L_k-2 each get one 0/1 column; the last level
    is the reference and encodes to all zeros.  ``design_star`` prepends an
    all-ones intercept column.
    """
    cats = _category_table(spec, categories)
    n = len(cats)
    design = np.zeros((n, spec.n_slopes))
    column_map = {}
    col = 0
    for j, lk in enumerate(spec.levels):
        for level in range(lk - 1):
            design[:, col] = cats[:, j] == level
            column_map[(j, level)] = col
            col += 1
    design_star = np.hstack([np.ones((n, 1)), design])
    return DesignBundle(design=design, design_star=design_star, column_map=column_map)


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
    rows = np.empty((len(counts), cats.shape[1]), dtype=int)
    rows[inverse] = cats  # every row of a cell holds the same categories
    bundle = encode_dummy(spec, rows)
    return Cells(rows, counts, inverse, bundle.design_star, bundle.column_map)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    warnings: tuple[str, ...]
    errors: tuple[str, ...]
    level_counts: tuple


def validate_dataset(spec: CategoricalSpec, ds: ObservedDataset,
                     names=None) -> ValidationReport:
    """Report-only sanity checks: level coverage and degrees of freedom.
    Messages name covariate k by names[k] (default w1..wK)."""
    names = names or [f"w{j + 1}" for j in range(spec.n_covariates)]
    warnings = []
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
        cnt = np.bincount(col[in_range], minlength=lk)
        counts.append(tuple(int(c) for c in cnt))
        for level in range(lk):
            if cnt[level] == 0:
                warnings.append(f"RankRisk(k={j}, level={level})")
    if ds.n < spec.n_params + 1:
        errors.append("InsufficientRows")
    return ValidationReport(
        ok=not errors,
        warnings=tuple(warnings),
        errors=tuple(errors),
        level_counts=tuple(counts),
    )


def require_fit_ready(spec: CategoricalSpec, ds: ObservedDataset) -> None:
    """Raise when the dataset cannot support a fit at all."""
    if ds.n < spec.n_params + 1:
        raise InsufficientRows(
            f"need at least {spec.n_params + 1} rows to fit {spec.n_params} "
            f"parameters, got {ds.n}"
        )
    bad = np.nonzero(~np.isfinite(ds.y))[0]
    if bad.size:
        raise ValidationError(f"y is not finite at row {int(bad[0])}: {ds.y[bad[0]]}")
