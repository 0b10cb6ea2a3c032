"""Canonical compressed-sparse-column matrices on SciPy's own kernels.

``CscMatrix`` is the package's one sparse-matrix type: the incidence
matrices of a ``NetworkModel``, the constraint matrix of every
``LinearProgram`` and the L and U factors SuperLU hands back.  A matrix is
frozen and always canonical: int32 ``indptr`` and ``indices``, float64
``data``, and the row indices of each column strictly increasing, so no
entry is stored twice.  Explicit zeros may be stored.

Each array and product comes from the compiled kernel that
``scipy.sparse`` calls for the same operation, in the same order, so it
keeps SciPy's bits: ``from_triplets`` is ``csc_matrix((values, (rows,
cols)), shape)``, ``from_dense`` is ``csc_matrix(array)``, ``T`` is the
transpose's ``tocsc()`` and ``A @ x`` is ``A``'s 1-D product.  The kernels
live in the private module ``scipy.sparse._sparsetools``, present with
these signatures in the SciPy releases ``scipy_ext.SCIPY_PIN`` admits.
``scipy_ext.load_extension`` loads it without ``scipy.sparse``'s
``__init__``, which clones NumPy's namespace for SciPy's array-API layer
and takes about 170 ms.  Only this module calls it.

The kernels index their arrays without bounds checks, so a malformed input
could crash the process.  Every constructor therefore checks its input and
raises ValueError before any kernel sees it, and every matrix keeps its
arrays read-only.
"""
from __future__ import annotations

import operator

import numpy as np

from .scipy_ext import load_extension

_sparsetools = load_extension("scipy.sparse._sparsetools")

# the largest dimension or entry count int32 indices can address
_INDEX_MAX = int(np.iinfo(np.int32).max)
# dtype kinds accepted for indices and for values
_INTEGER, _REAL = "iu", "biuf"


def _vector(a, name: str, kinds: str) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, not {a.ndim}-D")
    if a.dtype.kind not in kinds:
        raise ValueError(f"{name} has dtype {a.dtype}, not an "
                         f"{'integer' if kinds == _INTEGER else 'real'} dtype")
    if a.size > _INDEX_MAX:
        raise ValueError(f"{name} has more than {_INDEX_MAX} entries")
    return a


def _check_shape(shape) -> tuple[int, int]:
    try:
        m, n = (operator.index(d) for d in shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"shape {shape!r} is not two integers") from exc
    if not (0 <= m <= _INDEX_MAX and 0 <= n <= _INDEX_MAX):
        raise ValueError(f"shape {shape!r} is outside [0, {_INDEX_MAX}]")
    return m, n


def _check_range(index: np.ndarray, bound: int, name: str):
    if index.size and (index.min() < 0 or index.max() >= bound):
        raise ValueError(f"{name} index outside [0, {bound})")


def _init(A: "CscMatrix", shape, indptr, indices, data) -> "CscMatrix":
    """``A`` set to canonical arrays, which it takes over read-only."""
    for arr in (indptr, indices, data):
        arr.flags.writeable = False
    for name, value in zip(CscMatrix.__slots__, (shape, indptr, indices, data)):
        object.__setattr__(A, name, value)
    return A


def _frozen(shape, indptr, indices, data) -> "CscMatrix":
    return _init(object.__new__(CscMatrix), shape, indptr, indices, data)


def _canonical(shape, indptr, indices, data):
    """Checked CSC arrays that this module owns, sorted and summed in place
    as SciPy's ``sum_duplicates`` does when they are not canonical: rows
    sorted within each column by ``csr_sort_indices``, then repeats summed
    in that order by ``csr_sum_duplicates``."""
    m, n = shape
    if not _sparsetools.csr_has_canonical_format(n, indptr, indices):
        if not _sparsetools.csr_has_sorted_indices(n, indptr, indices):
            _sparsetools.csr_sort_indices(n, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n, m, indptr, indices, data)
        nnz = indptr[-1]
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return indptr, indices, data


def _compress(shape, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> "CscMatrix":
    """The checked triplets bucketed into columns by ``coo_tocsr``, each
    column's entries in their input order, then made canonical."""
    m, n = shape
    nnz = len(values)
    indptr, indices = np.empty(n + 1, dtype=np.int32), np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    _sparsetools.coo_tocsr(n, m, nnz, cols.astype(np.int32), rows.astype(np.int32),
                           np.ascontiguousarray(values, dtype=np.float64), indptr, indices, data)
    return _frozen(shape, *_canonical(shape, indptr, indices, data))


class CscMatrix:
    """A frozen m x n sparse matrix in canonical CSC form.

    Column j's row indices are ``indices[indptr[j]:indptr[j + 1]]``, strictly
    increasing, and its values the same slice of ``data``.
    ``CscMatrix((data, indices, indptr), shape)`` takes the arrays in the
    order of SciPy's ``csc_array`` constructor, which is how SuperLU builds
    its factors.  It checks them and copies them; rows out of order or
    repeated within a column are sorted and summed as SciPy's
    ``sum_duplicates`` does, and entries past ``indptr[-1]`` are dropped.
    Malformed input (an index out of range, a decreasing ``indptr``, lengths
    that disagree, a non-integer index or a non-real value) raises
    ValueError.
    """

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, arrays, shape):
        data, indices, indptr = arrays
        m, n = _check_shape(shape)
        data = _vector(data, "data", _REAL)
        indices = _vector(indices, "indices", _INTEGER)
        indptr = _vector(indptr, "indptr", _INTEGER)
        if len(indptr) != n + 1 or indptr[0] != 0:
            raise ValueError(f"indptr must hold {n + 1} offsets starting at 0")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr decreases")
        nnz = indptr[-1]
        if not len(indices) == len(data) >= nnz:
            raise ValueError(f"indptr ends at {nnz}, but indices and data hold "
                             f"{len(indices)} and {len(data)} entries")
        # entries past indptr[-1] are spare storage, dropped as SciPy drops them
        indices, data = indices[:nnz], data[:nnz]
        _check_range(indices, m, "row")
        _init(self, (m, n), *_canonical((m, n), indptr.astype(np.int32),
                                        indices.astype(np.int32), data.astype(np.float64)))

    @classmethod
    def from_triplets(cls, rows, cols, values, shape) -> "CscMatrix":
        """The matrix with entry values[k] at (rows[k], cols[k]), as
        ``csc_matrix((values, (rows, cols)), shape)`` builds it: repeated
        positions are summed and explicit zeros kept."""
        shape = _check_shape(shape)
        rows, cols = _vector(rows, "rows", _INTEGER), _vector(cols, "cols", _INTEGER)
        values = _vector(values, "values", _REAL)
        if not len(rows) == len(cols) == len(values):
            raise ValueError(f"{len(rows)} rows, {len(cols)} cols and "
                             f"{len(values)} values disagree")
        _check_range(rows, shape[0], "row")
        _check_range(cols, shape[1], "column")
        return _compress(shape, rows, cols, values)

    @classmethod
    def from_dense(cls, array) -> "CscMatrix":
        """The nonzero entries of a 2-D array, as ``csc_matrix(array)``
        stores them: zeros are dropped."""
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"a dense matrix must be 2-D, not {array.ndim}-D")
        if array.dtype.kind not in _REAL:
            raise ValueError(f"dense matrix has dtype {array.dtype}, not a real dtype")
        shape = _check_shape(array.shape)
        rows, cols = array.nonzero()
        if len(rows) > _INDEX_MAX:
            raise ValueError(f"more than {_INDEX_MAX} nonzero entries")
        return _compress(shape, rows, cols, array[rows, cols])

    def __setattr__(self, name, value):
        raise AttributeError(f"CscMatrix is frozen; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"CscMatrix is frozen; cannot delete {name}")

    def __reduce__(self):
        return CscMatrix, ((self.data, self.indices, self.indptr), self.shape)

    @property
    def nnz(self) -> int:
        """The number of stored entries, explicit zeros included."""
        return len(self.data)

    @property
    def T(self) -> "CscMatrix":
        """The transpose, computed afresh by ``csr_tocsc``: this matrix's
        CSC arrays are its transpose's CSR arrays."""
        m, n = self.shape
        indptr, indices = np.empty(m + 1, dtype=np.int32), np.empty(self.nnz, dtype=np.int32)
        data = np.empty(self.nnz)
        _sparsetools.csr_tocsc(n, m, self.indptr, self.indices, self.data,
                               indptr, indices, data)
        return _frozen((n, m), indptr, indices, data)

    def select_rows(self, keep) -> "CscMatrix":
        """The rows where the boolean mask ``keep`` is True, in order."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.shape[0],):
            raise ValueError(f"keep must be a boolean mask of {self.shape[0]} rows")
        kept = keep[self.indices]
        # count[k]: the kept entries among the first k
        count = np.zeros(self.nnz + 1, dtype=np.int32)
        np.cumsum(kept, out=count[1:])
        new_row = np.cumsum(keep, dtype=np.int32) - 1
        return _frozen((int(np.count_nonzero(keep)), self.shape[1]), count[self.indptr],
                       new_row[self.indices[kept]], self.data[kept])

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored entries, column by column."""
        cols = np.repeat(np.arange(self.shape[1], dtype=np.int32), np.diff(self.indptr))
        return self.indices, cols, self.data

    def __matmul__(self, x) -> np.ndarray:
        """A x for a real vector x, by ``csc_matvec``: each entry of the
        product sums its row's terms in column order, starting from 0."""
        x = np.asarray(x)
        m, n = self.shape
        if x.shape != (n,) or x.dtype.kind not in _REAL:
            raise ValueError(f"a {m} x {n} CscMatrix multiplies a real vector of "
                             f"{n} entries, not a {x.dtype} array of shape {x.shape}")
        y = np.zeros(m)
        _sparsetools.csc_matvec(m, n, self.indptr, self.indices, self.data,
                                np.ascontiguousarray(x, dtype=np.float64), y)
        return y
