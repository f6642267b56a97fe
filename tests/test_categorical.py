import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscorr.categorical import (
    Cells,
    CategoricalSpec,
    ObservedDataset,
    ValidationReport,
    encode_cells,
    encode_dummy,
    validate_dataset,
)
from miscorr.errors import OutOfRangeCategory, RankDeficient, ValidationError
from miscorr.estimators import fit_corrected
from miscorr.misclass import scenario_theta


def test_spec_dimensions():
    spec = CategoricalSpec((2, 3, 4))
    assert spec.n_covariates == 3
    assert spec.n_slopes == 1 + 2 + 3
    assert spec.n_params == 7


def test_spec_rejects_degenerate_levels():
    with pytest.raises(ValueError):
        CategoricalSpec((1,))
    with pytest.raises(ValueError):
        CategoricalSpec(())


def test_reference_category_encodes_to_zeros():
    bundle = encode_dummy(CategoricalSpec((3,)), np.array([[2]]))
    assert bundle.design.tolist() == [[0.0, 0.0]]


def test_single_covariate_rows():
    bundle = encode_dummy(CategoricalSpec((3,)), np.array([[0], [2], [1]]))
    assert bundle.design.tolist() == [[1, 0], [0, 0], [0, 1]]


def test_covariate_major_concatenation():
    bundle = encode_dummy(CategoricalSpec((2, 3)), np.array([[1, 0]]))
    assert bundle.design.tolist() == [[0, 1, 0]]
    assert bundle.design_star.tolist() == [[1, 0, 1, 0]]


def test_each_encoding_pickles_and_copies():
    spec, w = CategoricalSpec((2, 3)), np.array([[0, 2], [1, 0], [0, 2]])
    for encode in (encode_dummy, encode_cells):
        encoded = encode(spec, w)
        for clone in (pickle.loads(pickle.dumps(encoded)), copy.deepcopy(encoded)):
            np.testing.assert_array_equal(clone.design_star, encoded.design_star, strict=True)


def test_a_specs_layout_is_built_once_and_read_only():
    spec, w = CategoricalSpec((2, 3)), np.array([[0, 2], [1, 0], [0, 2]])
    layout = cov, lev, pairs = spec.layout
    assert spec.layout is layout and pairs == ((0, 0), (1, 0), (1, 1))
    assert cov.tolist() == [0, 1, 1] and lev.tolist() == [0, 0, 1]
    for array in (cov, lev):
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.layout = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        del spec.layout
    encode_cells(spec, w)
    assert spec.layout is layout
    for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):  # with its layout
        assert clone == spec and clone.layout[2] == pairs


@pytest.mark.parametrize("order", ["C", "F"])
def test_encode_dummy_is_the_per_level_loop_in_c_order(order):
    levels = (2, 4, 3)
    cats = np.asarray(np.random.default_rng(9).integers(0, levels, (50, 3)), order=order)
    columns, pairs = [], []
    for j, lk in enumerate(levels):
        for level in range(lk - 1):
            pairs.append((j, level))
            columns.append((cats[:, j] == level).astype(float))
    spec = CategoricalSpec(levels)
    bundle = encode_dummy(spec, cats)
    np.testing.assert_array_equal(bundle.design, np.column_stack(columns))
    np.testing.assert_array_equal(bundle.design_star[:, 1:], bundle.design)
    assert bundle.design_star[:, 0].tolist() == [1.0] * 50
    assert spec.layout[2] == tuple(pairs)
    assert bundle.design.flags.c_contiguous


def test_out_of_range_category():
    with pytest.raises(OutOfRangeCategory) as exc:
        encode_dummy(CategoricalSpec((3,)), np.array([[0], [3]]))
    assert exc.value.row == 1
    assert exc.value.value == 3


@given(
    st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_encoding_is_injective_per_row(levels, seed):
    spec = CategoricalSpec(tuple(levels))
    rng = np.random.default_rng(seed)
    cats = np.column_stack([rng.integers(0, lk, size=30) for lk in levels])
    rows = encode_dummy(spec, cats).design
    seen = {}
    for i in range(30):
        key = tuple(rows[i])
        if key in seen:
            assert (cats[i] == cats[seen[key]]).all()
        seen[key] = i
    assert rows.shape[1] == spec.n_slopes
    # each covariate block contributes 0 or 1 per row
    off = 0
    for lk in levels:
        block = rows[:, off : off + lk - 1].sum(axis=1)
        assert set(block.tolist()) <= {0.0, 1.0}
        off += lk - 1


def test_design_star_column_count():
    spec = CategoricalSpec((4, 2, 3))
    bundle = encode_dummy(spec, np.zeros((5, 3), dtype=int))
    assert bundle.design_star.shape[1] == 1 + spec.n_slopes


def test_validate_ok():
    spec = CategoricalSpec((2, 3))
    rng = np.random.default_rng(0)
    w = np.column_stack([rng.integers(0, 2, 100), rng.integers(0, 3, 100)])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(100), w=w))
    assert report.errors == ()


def test_validate_flags_missing_level():
    spec = CategoricalSpec((2, 3))
    w = np.array([[0, 0], [1, 1], [0, 0], [1, 1], [0, 1], [1, 0]])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(6), w=w))
    assert report.errors == ("column w2: level 2 never occurs",)


def test_validate_names_the_row_column_and_value_of_an_out_of_range_category():
    spec = CategoricalSpec((2, 3))
    w = np.array([[0, 0], [1, 1], [0, 5], [1, -1], [0, 2]])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(5), w=w))
    assert report.errors == ("OutOfRangeCategory: data row 3, column w2: 5 is not in 0..2",)


def test_validate_names_columns_by_the_given_names():
    spec = CategoricalSpec((2,))
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(3), w=[[0], [5], [1]]), ["region"])
    assert report.errors == ("OutOfRangeCategory: data row 2, column region: 5 is not in 0..1",)


@pytest.mark.parametrize(
    "levels, rows",
    [((3,), 300), ((4, 2, 3), 300), ((2,) * 70, 300), ((5, 5, 5), 40), ((2,) * 61, 40)],
    ids=[f"levels{i}" for i in range(5)],
)
def test_encode_cells_groups_equal_rows_into_one_cell(levels, rows):
    # 2^70 combinations overflow a 64-bit mixed-radix id, so the ids are
    # renumbered on the way; 5^3 and 2^61 combinations outnumber 40 rows, so
    # they are renumbered before counting (2^61 counters would not fit in
    # memory); the cells must be the same either way
    spec = CategoricalSpec(levels)
    rng = np.random.default_rng(len(levels))
    w = np.column_stack([rng.integers(0, lk, rows) for lk in levels])
    w[1] = w[0]
    w[1, 0] = (w[0, 0] + 1) % levels[0]  # with 70 binary digits its id wraps onto row 0's
    w[rows // 2:] = w[:rows // 2]  # every combination occurs at least twice
    cells = encode_cells(spec, w)
    # cells in ascending mixed-radix id order: the rows of np.unique(axis=0)
    distinct, counts = np.unique(w, axis=0, return_counts=True)
    np.testing.assert_array_equal(cells.categories, distinct)
    np.testing.assert_array_equal(cells.counts, counts)
    np.testing.assert_array_equal(cells.categories[cells.inverse], w)
    np.testing.assert_array_equal(cells.counts, np.bincount(cells.inverse))
    bundle = encode_dummy(spec, cells.categories)
    np.testing.assert_array_equal(cells.design_star, bundle.design_star)


def test_encode_cells_reports_the_row_of_an_out_of_range_category():
    with pytest.raises(OutOfRangeCategory) as exc:
        encode_cells(CategoricalSpec((2, 3)), np.array([[0, 0], [1, 1], [0, 3], [1, 3]]))
    assert (exc.value.row, exc.value.covariate, exc.value.value) == (2, 1, 3)


def test_a_nested_list_is_a_table_of_rows_and_a_list_of_arrays_its_columns():
    spec = CategoricalSpec((2, 3))
    rows = [[0, 2], [1, 0]]
    assert encode_cells(spec, rows).categories.tolist() == rows
    assert encode_cells(spec, [np.array([0, 1]), np.array([2, 0])]).categories.tolist() == rows
    assert encode_dummy(spec, rows).design.tolist() == [[1, 0, 0], [0, 1, 0]]
    assert validate_dataset(spec, rows).level_counts == ((1, 1), (1, 0, 1))


def test_validate_flags_insufficient_rows():
    spec = CategoricalSpec((2, 3))  # M = 4
    w = np.array([[0, 0], [1, 1], [0, 2]])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(3), w=w))
    assert report.errors == ("need at least 5 rows to fit 4 parameters, got 3",)
    thetas = [scenario_theta("low", lk) for lk in spec.levels]
    ps = [np.full(lk, 1.0 / lk) for lk in spec.levels]
    with pytest.raises(RankDeficient, match="need more than 4 rows, got 3"):
        fit_corrected(spec, ObservedDataset(y=np.zeros(3), w=w), thetas, ps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observed_dataset_refuses_a_y_that_is_not_finite(bad):
    y = np.array([1.0, 2.0, bad, 4.0, bad])
    with pytest.raises(ValidationError, match=f"^y is not finite at row 2: {bad}$"):
        ObservedDataset(y=y, w=np.zeros((5, 1), dtype=int))


@pytest.mark.parametrize("build, message", [
    (lambda: ObservedDataset(y=np.zeros(3), w=np.zeros(4, dtype=int)), "y and w row counts differ"),
    (lambda: encode_cells(CategoricalSpec((2, 3)), np.zeros((4, 1), dtype=int)),
     "expected 2 covariates, got 1"),
    (lambda: encode_cells(CategoricalSpec((2, 3)), [np.zeros(3, dtype=int),
                                                    np.zeros(4, dtype=int)]),
     "the category columns differ in length"),
], ids=["rows_differ", "covariates_missing", "columns_differ"])
def test_categories_of_the_wrong_shape_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# The row-by-row encoder and validator that encode_cells and validate_dataset
# replaced, kept as the reference they must equal bit for bit.
def _reference_category_table(spec, categories):
    cats = np.asarray(categories, dtype=int)
    if cats.ndim == 1:
        cats = cats[:, None]
    if cats.shape[1] != spec.n_covariates:
        raise ValueError(f"expected {spec.n_covariates} covariates, got {cats.shape[1]}")
    bad = (cats < 0) | (cats >= np.array(spec.levels))
    if bad.any():
        j, i = map(int, np.argwhere(bad.T)[0])
        raise OutOfRangeCategory(i, j, int(cats[i, j]))
    return cats


def _reference_encode_cells(spec, categories):
    cats = _reference_category_table(spec, categories)
    ids, size = np.zeros(len(cats), dtype=np.int64), 1
    for col, lk in zip(cats.T, spec.levels):
        if size * lk > 2**62:
            ids, size = np.unique(ids, return_inverse=True)[1], len(cats)
        ids, size = ids * lk + col, size * lk
    if size > len(cats):
        ids, size = np.unique(ids, return_inverse=True)[1], len(cats)
    counts = np.bincount(ids, minlength=size)
    inverse = (np.cumsum(counts > 0) - 1)[ids]
    counts = counts[counts > 0]
    last = np.empty(len(counts), dtype=np.intp)
    last[inverse] = np.arange(len(cats))
    rows = cats[last]
    bundle = encode_dummy(spec, rows)
    return Cells(rows, counts, inverse, bundle.design_star)


def _reference_validate_dataset(spec, ds, names=None, labels=None):
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


def _random_category_tables(count, seed):
    """Tables of K = 1..10 covariates: some of 8 to 10 covariates with 256 to
    400 levels each, whose combinations outnumber 2**62; some rows repeated;
    some levels absent; some categories out of range (below 0 or from L_k
    up) in one or several columns; some with fewer rows than parameters,
    down to none."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        wide = rng.random() < 0.2
        k = int(rng.integers(8, 11) if wide else rng.integers(1, 11))
        levels = [int(rng.integers(256, 401) if wide else rng.choice([2, 3, 4, 7]))
                  for _ in range(k)]
        spec = CategoricalSpec(tuple(levels))
        n = int(rng.integers(0, min(spec.n_params + 2, 60)) if rng.random() < 0.2 else
                rng.integers(1, 60 if wide else 300))
        drawn = [lk if rng.random() < 0.7 else int(rng.integers(1, lk + 1)) for lk in levels]
        w = np.column_stack([rng.integers(0, d, n) for d in drawn]).reshape(n, k)
        if n > 1 and rng.random() < 0.5:
            w[n // 2:] = w[: n - n // 2]
        for j in range(k):
            if n and rng.random() < 0.07:
                rows = rng.integers(0, n, int(rng.integers(1, 4)))
                w[rows, j] = rng.choice([-3, -1, levels[j], levels[j] + 2], len(rows))
        yield spec, w


def _assert_same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert (new.dtype, new.shape) == (old.dtype, old.shape)
    assert new.tobytes() == old.tobytes()


def test_cells_and_validation_equal_the_row_by_row_reference_bit_for_bit():
    seen = {"out_of_range": 0, "absent_level": 0, "few_rows": 0, "renumbered": 0, "over_2_62": 0}
    for case, (spec, w) in enumerate(_random_category_tables(400, seed=25)):
        n = len(w)
        try:
            expected = _reference_encode_cells(spec, w)
        except OutOfRangeCategory as exc:
            expected = exc
        names = [f"c{j}" for j in range(spec.n_covariates)] if case % 2 else None
        labels = {"c0": ["zero", "one"], "w1": ["a", "b", "c"]} if case % 3 else None
        report = _reference_validate_dataset(spec, ObservedDataset(y=np.zeros(n), w=w),
                                             names, labels)
        for categories in (w, list(w.T)):  # a table, or its columns as the CLI reads them
            got = validate_dataset(spec, categories, names, labels)
            assert (got.errors, got.level_counts) == (report.errors, report.level_counts)
            if isinstance(expected, OutOfRangeCategory):
                with pytest.raises(OutOfRangeCategory) as exc:
                    encode_cells(spec, categories)
                assert (exc.value.row, exc.value.covariate, exc.value.value, str(exc.value)) == (
                    expected.row, expected.covariate, expected.value, str(expected))
                assert got.cells is None
                continue
            for cells in (encode_cells(spec, categories), got.cells):
                for name in ("categories", "counts", "inverse", "design_star"):
                    _assert_same_bits(getattr(cells, name), getattr(expected, name))
        got = validate_dataset(spec, ObservedDataset(y=np.zeros(n), w=w), names, labels)
        assert (got.errors, got.level_counts) == (report.errors, report.level_counts)
        seen["out_of_range"] += isinstance(expected, OutOfRangeCategory)
        seen["absent_level"] += any("never occurs" in e for e in report.errors)
        seen["few_rows"] += n <= spec.n_params
        seen["renumbered"] += np.prod(spec.levels, dtype=float) > n
        seen["over_2_62"] += np.prod(spec.levels, dtype=float) > 2**62
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("negative", [False, True], ids=["in_range", "negative"])
@pytest.mark.parametrize(
    "levels, rows",
    [((4,) * 10, 200),  # 4^10 combinations outnumber the rows: np.unique numbers them
     ((2,) * 62, 300),  # 2^62 combinations, the most an id numbers without renumbering
     ((2,) * 61 + (3,), 300),  # 3 * 2^61: renumbered before the last covariate
     ((400,) * 7 + (3,), 60)],  # 3 * 400^7, past 2^62 by a few percent
    ids=["unique", "at_2_62", "past_2_62", "near_2_62"],
)
def test_encode_cells_of_a_table_equals_the_row_by_row_reference(levels, rows, negative):
    spec = CategoricalSpec(levels)
    grid = math.prod(levels)  # a Python int: an int64 product of these levels can wrap
    assert grid > rows and (grid > 2**62) == (levels[-1] == 3)
    rng = np.random.default_rng(rows)
    w = np.column_stack([rng.integers(0, lk, rows) for lk in levels])
    w[rows // 2:] = w[: rows - rows // 2]
    if negative:  # covariate 1 is reported, at its first bad row, before covariate 4's
        w[[7, 9], 1] = -2, levels[1]
        w[3, 4] = -1
    try:
        expected = _reference_encode_cells(spec, w)
    except OutOfRangeCategory as exc:
        with pytest.raises(OutOfRangeCategory) as got:
            encode_cells(spec, w)
        assert (got.value.row, got.value.covariate, got.value.value, str(got.value)) == (
            exc.row, exc.covariate, exc.value, str(exc)) == (7, 1, -2, str(exc))
        return
    assert not negative
    cells = encode_cells(spec, w)
    for name in ("categories", "counts", "inverse", "design_star"):
        _assert_same_bits(getattr(cells, name), getattr(expected, name))
