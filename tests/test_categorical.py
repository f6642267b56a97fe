import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miscorr.categorical import (
    CategoricalSpec,
    ObservedDataset,
    encode_cells,
    encode_dummy,
    require_fit_ready,
    validate_dataset,
)
from miscorr.errors import InsufficientRows, OutOfRangeCategory


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


def test_column_map_layout():
    bundle = encode_dummy(CategoricalSpec((2, 3)), np.array([[0, 0]]))
    assert bundle.column_map == {(0, 0): 0, (1, 0): 1, (1, 1): 2}


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
    assert report.ok
    assert report.warnings == ()


def test_validate_flags_missing_level():
    spec = CategoricalSpec((2, 3))
    w = np.array([[0, 0], [1, 1], [0, 0], [1, 1], [0, 1], [1, 0]])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(6), w=w))
    assert "RankRisk(k=1, level=2)" in report.warnings


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
    assert cells.column_map == bundle.column_map


def test_encode_cells_reports_the_row_of_an_out_of_range_category():
    with pytest.raises(OutOfRangeCategory) as exc:
        encode_cells(CategoricalSpec((2, 3)), np.array([[0, 0], [1, 1], [0, 3], [1, 3]]))
    assert (exc.value.row, exc.value.covariate, exc.value.value) == (2, 1, 3)


def test_validate_flags_insufficient_rows():
    spec = CategoricalSpec((2, 3))  # M = 4
    w = np.array([[0, 0], [1, 1], [0, 2]])
    report = validate_dataset(spec, ObservedDataset(y=np.zeros(3), w=w))
    assert "InsufficientRows" in report.errors
    with pytest.raises(InsufficientRows):
        require_fit_ready(spec, ObservedDataset(y=np.zeros(3), w=w))
