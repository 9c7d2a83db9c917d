"""A float32 CSR matrix over int32 column indices, in numpy alone.

The corpus matrix (ScriptCorpus.X) is the three arrays that
features.npz stores: indptr, indices and data. Row i's nonzeros are
positions indptr[i]:indptr[i+1] of indices (their columns, strictly
increasing within the row) and data (their values). indptr is int32
when the shape and the nonzero count fit in int32, else int64, as
scipy's CSR type chooses for the same arrays, so features.npz keeps the
bytes it had when the corpus was a scipy matrix.

Every operation the program needs is a copy or one numpy reduction:

- take_rows(rows): the given rows in the given order;
- take_columns(mask): the columns mask lists (strictly increasing),
  renumbered 0..len(mask)-1, each row keeping its nonzeros' order;
- toarray(): the dense float32 matrix;
- dot(w): X @ w in float64, one np.bincount over the nonzeros. bincount
  adds each row's products in nonzero order, one at a time, as scipy's
  csr_matvec does, so the scores are the same bits.

The constructor trusts its arrays' structure (the program builds them
canonical); checked() validates arrays read from a file first.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

_INT32_MAX = np.iinfo(np.int32).max


def _shape(shape) -> tuple[int, int]:
    shape = tuple(int(v) for v in shape)
    if len(shape) != 2 or min(shape) < 0:
        raise InvalidInput(f"a matrix shape is two non-negative sizes: {shape}")
    return shape


class CSRMatrix:
    """Compressed sparse rows: float32 data over int32 column indices."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.shape = _shape(shape)
        self.data = np.asarray(data, dtype=np.float32)
        self.indices = np.asarray(indices, dtype=np.int32)
        fits = max(*self.shape, self.data.size) <= _INT32_MAX
        self.indptr = np.asarray(indptr, dtype=np.int32 if fits else np.int64)

    @classmethod
    def checked(cls, data, indices, indptr, shape) -> "CSRMatrix":
        """The matrix the arrays describe; InvalidInput unless they are canonical CSR.

        indptr must start at 0, never decrease and end at the nonzero
        count; each row's indices must lie in [0, columns) and strictly
        increase. The raw index arrays are checked before any cast, so
        no out-of-range value wraps into range.
        """
        n_rows, n_cols = _shape(shape)
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if indptr.dtype.kind not in "iu" or indices.dtype.kind not in "iu":
            raise InvalidInput("indptr and indices must be integer arrays")
        if indptr.shape != (n_rows + 1,):
            raise InvalidInput(f"indptr has {indptr.size} entries for {n_rows} rows")
        if indices.ndim != 1 or np.shape(data) != indices.shape:
            raise InvalidInput(f"data and indices disagree: {np.shape(data)} "
                               f"and {indices.shape}")
        nnz = indices.size
        if indptr[0] != 0:
            raise InvalidInput(f"indptr starts at {indptr[0]}, not 0")
        if (indptr[1:] < indptr[:-1]).any():
            raise InvalidInput("indptr decreases")
        if indptr[-1] != nnz:
            raise InvalidInput(f"indptr ends at {indptr[-1]} but there are {nnz} nonzeros")
        if nnz and (indices.min() < 0 or indices.max() >= n_cols):
            raise InvalidInput(f"column indices outside [0, {n_cols})")
        row_start = np.zeros(nnz, dtype=bool)
        row_start[indptr[:-1][indptr[:-1] < nnz]] = True
        if not ((indices[1:] > indices[:-1]) | row_start[1:]).all():
            raise InvalidInput("column indices must strictly increase within each row")
        return cls(data, indices, indptr, (n_rows, n_cols))

    def _row_of_nonzeros(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def take_rows(self, rows) -> "CSRMatrix":
        """The rows listed, in that order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1:
            raise InvalidInput("row indices must be a 1-d array")
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise InvalidInput(f"row indices outside [0, {self.shape[0]})")
        starts = self.indptr[rows].astype(np.int64)
        counts = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return CSRMatrix(np.take(self.data, at), np.take(self.indices, at), indptr,
                         (rows.size, self.shape[1]))

    def take_columns(self, mask) -> "CSRMatrix":
        """The columns mask lists, which must strictly increase, as columns 0..len(mask)-1."""
        mask = np.asarray(mask, dtype=np.intp)
        if mask.ndim != 1 or (mask[1:] <= mask[:-1]).any():
            raise InvalidInput("a column mask is a strictly increasing 1-d array")
        if mask.size and (mask[0] < 0 or mask[-1] >= self.shape[1]):
            raise InvalidInput(f"column mask indexes outside [0, {self.shape[1]})")
        position = np.full(self.shape[1], -1, dtype=np.int32)
        position[mask] = np.arange(mask.size, dtype=np.int32)
        column = np.take(position, self.indices)
        kept = np.flatnonzero(column >= 0)
        # the new indptr[i]: how many kept nonzeros lie before row i's first one
        return CSRMatrix(np.take(self.data, kept), np.take(column, kept),
                         np.searchsorted(kept, self.indptr), (self.shape[0], mask.size))

    def toarray(self) -> np.ndarray:
        """The dense C-order float32 matrix."""
        out = np.zeros(self.shape, dtype=np.float32)
        out[self._row_of_nonzeros(), self.indices] = self.data
        return out

    def dot(self, weights) -> np.ndarray:
        """X @ weights in float64: each row's products summed in nonzero order."""
        weights = np.asarray(weights)
        if weights.shape != (self.shape[1],):
            raise InvalidInput(f"weights have shape {weights.shape}, "
                               f"the matrix has {self.shape[1]} columns")
        return np.bincount(self._row_of_nonzeros(),
                           weights=self.data * np.take(weights, self.indices),
                           minlength=self.shape[0])
