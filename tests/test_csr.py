"""CSRMatrix against scipy.sparse, which serves as the oracle here only.

Random float32 matrices with empty rows: a row gather, the column-mask
densify and the scores must equal scipy's, bit for bit, and checked()
must refuse every malformed structure.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from fedtrace.csr import CSRMatrix
from fedtrace.errors import InvalidInput


def _oracle(seed: int, n_rows: int = 300, n_cols: int = 160) -> csr_matrix:
    """A canonical float32 scipy matrix, about 5% nonzero, with whole rows empty."""
    rng = np.random.default_rng(seed)
    x = (rng.random((n_rows, n_cols)) < 0.05) * rng.lognormal(0.0, 3.0, (n_rows, n_cols))
    x[rng.random(n_rows) < 0.2] = 0.0
    x[-1] = 0.0
    return csr_matrix(x.astype(np.float32))


def _ours(m: csr_matrix) -> CSRMatrix:
    return CSRMatrix.checked(m.data, m.indices, m.indptr, m.shape)


def _same(ours: CSRMatrix, theirs: csr_matrix) -> None:
    assert ours.shape == theirs.shape
    assert ours.indptr.dtype == theirs.indptr.dtype
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
    assert ours.data.dtype == np.float32 and ours.indices.dtype == np.int32


@pytest.mark.parametrize("seed", range(4))
def test_arrays_and_dense_equal_scipys(seed):
    m = _oracle(seed)
    ours = _ours(m)
    _same(ours, m)
    assert ours.data.size == m.nnz
    dense = ours.toarray()
    assert dense.dtype == np.float32 and dense.flags.c_contiguous
    assert dense.tobytes() == m.toarray().tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_row_gather_equals_scipys(seed):
    m = _oracle(seed)
    rng = np.random.default_rng(100 + seed)
    empty = np.flatnonzero(np.diff(m.indptr) == 0)
    assert empty.size
    for rows in (rng.permutation(m.shape[0])[:120], rng.integers(0, m.shape[0], 200),
                 empty, np.arange(0), np.arange(m.shape[0])):
        got = _ours(m).take_rows(rows)
        want = m[rows]
        _same(got, want)
        assert got.toarray().tobytes() == want.toarray().tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_column_mask_densify_equals_scipys(seed):
    m = _oracle(seed)
    rng = np.random.default_rng(200 + seed)
    for mask in (np.sort(rng.choice(m.shape[1], 40, replace=False)),
                 np.arange(m.shape[1]), np.asarray([0, m.shape[1] - 1]), np.arange(0)):
        got = _ours(m).take_columns(mask)
        want = m[:, mask]
        _same(got, want)
        dense = got.toarray()
        assert dense.flags.c_contiguous
        assert dense.tobytes() == want.toarray().tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_scores_are_csr_matvecs_bits(seed):
    m = _oracle(seed, n_rows=2000, n_cols=300)
    rng = np.random.default_rng(300 + seed)
    w = rng.normal(0.0, 10.0, m.shape[1])
    ours = _ours(m)
    got = ours.dot(w)
    assert got.dtype == np.float64 and got.shape == (m.shape[0],)
    assert got.tobytes() == m.dot(w).tobytes()
    rows = rng.permutation(m.shape[0])[:500]
    mask = np.sort(rng.choice(m.shape[1], 149, replace=False))
    wm = rng.normal(0.0, 10.0, mask.size)
    # the round evaluator's form: test rows, then the feature set's columns
    got = ours.take_rows(rows).take_columns(mask).dot(wm)
    assert got.tobytes() == m[rows][:, mask].dot(wm).tobytes()


def test_an_empty_matrix_scores_and_densifies():
    ours = CSRMatrix.checked(np.empty(0, np.float32), np.empty(0, np.int32),
                             np.zeros(4, np.int64), (3, 5))
    assert ours.dot(np.ones(5)).tobytes() == np.zeros(3).tobytes()
    assert np.array_equal(ours.toarray(), np.zeros((3, 5), np.float32))
    assert ours.take_rows([2, 0]).data.size == 0


def _arrays():
    """A valid 3x4 matrix: row 0 holds columns 1 and 3, row 1 is empty, row 2 holds 0."""
    return {"data": np.asarray([2.0, 1.0, 5.0], dtype=np.float32),
            "indices": np.asarray([1, 3, 0], dtype=np.int32),
            "indptr": np.asarray([0, 2, 2, 3]), "shape": (3, 4)}


def test_the_valid_arrays_are_accepted():
    ours = CSRMatrix.checked(**_arrays())
    assert np.array_equal(ours.toarray(), [[0, 2, 0, 1], [0, 0, 0, 0], [5, 0, 0, 0]])


@pytest.mark.parametrize("name, value", [
    ("indptr", np.asarray([1, 2, 2, 3])),                       # does not start at 0
    ("indptr", np.asarray([0, 2, 1, 3])),                       # decreases
    ("indptr", np.asarray([0, 2, 2, 2])),                       # ends short of nnz
    ("indices", np.asarray([1, 3, -1])),                        # negative
    ("indices", np.asarray([1, 4, 0])),                         # past the last column
    ("indices", np.asarray([1, 2**32 + 3, 0], dtype=np.int64)),  # would wrap to 3 as int32
    ("indices", np.asarray([3, 3, 0])),                         # duplicate within a row
    ("indices", np.asarray([3, 1, 0])),                         # unsorted within a row
    ("indptr", np.asarray([0, 2, 3])),                          # one row too few
    ("data", np.asarray([2.0, 1.0], dtype=np.float32)),         # one value too few
    ("shape", (3, 4, 1)),                                       # not two sizes
    ("indices", np.asarray([1.0, 3.0, 0.0])),                   # not integers
])
def test_malformed_arrays_are_refused(name, value):
    arrays = _arrays()
    arrays[name] = value
    with pytest.raises(InvalidInput):
        CSRMatrix.checked(**arrays)


@pytest.mark.parametrize("mask", [[3, 1], [1, 1], [0, 4], [-1, 2]])
def test_a_mask_that_is_not_increasing_and_in_range_is_refused(mask):
    with pytest.raises(InvalidInput):
        CSRMatrix.checked(**_arrays()).take_columns(mask)


@pytest.mark.parametrize("rows", [[3], [-1], [[0]]])
def test_rows_out_of_range_are_refused(rows):
    with pytest.raises(InvalidInput):
        CSRMatrix.checked(**_arrays()).take_rows(rows)


def test_weights_of_the_wrong_length_are_refused():
    with pytest.raises(InvalidInput):
        CSRMatrix.checked(**_arrays()).dot(np.ones(3))
