"""CscMatrix against SciPy's sparse matrices as the oracle: every array it
builds and every product it computes has SciPy's bits and dtypes, and every
malformed input raises ValueError before any compiled kernel sees it."""
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import to_scipy
from sccopt import csc, hydraulics, lp
from sccopt.csc import CscMatrix

# values with explicit zeros of both signs, and magnitudes far enough apart
# that the order in which repeated entries are summed shows in the bits
VALUES = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(-1e6, 1e6, allow_subnormal=False),
                   st.floats(-1e-6, 1e-6, allow_subnormal=False))


def assert_same_csc(ours: CscMatrix, ref):
    """The arrays of ``ours`` and of SciPy's CSC matrix ``ref`` are equal bit
    for bit, dtypes included, and ours are int32, int32 and float64."""
    assert ours.shape == ref.shape and ours.nnz == ref.nnz
    for name, dtype in (("indptr", np.int32), ("indices", np.int32), ("data", np.float64)):
        a, b = getattr(ours, name), getattr(ref, name)
        assert a.dtype == b.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def triplets(draw, max_dim=7, max_entries=40):
    """(rows, cols, values, shape) with repeated positions and stored zeros."""
    m, n = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max_entries)) if m and n else 0
    rows = draw(arrays(np.int64, k, elements=st.integers(0, max(m - 1, 0))))
    cols = draw(arrays(np.int64, k, elements=st.integers(0, max(n - 1, 0))))
    return rows, cols, draw(arrays(float, k, elements=VALUES)), (m, n)


@st.composite
def matrices(draw):
    """A CscMatrix from triplets and SciPy's csc_matrix of the same triplets."""
    rows, cols, values, shape = draw(triplets())
    return (CscMatrix.from_triplets(rows, cols, values, shape),
            sp.csc_matrix((values, (rows, cols)), shape=shape))


class TestMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(triplets())
    def test_from_triplets(self, entries):
        rows, cols, values, shape = entries
        ours = CscMatrix.from_triplets(rows, cols, values, shape)
        assert_same_csc(ours, sp.csc_matrix((values, (rows, cols)), shape=shape))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7).flatmap(
        lambda m: st.integers(0, 7).flatmap(lambda n: arrays(float, (m, n), elements=VALUES))))
    def test_from_dense_drops_zeros(self, dense):
        ours = CscMatrix.from_dense(dense)
        assert_same_csc(ours, sp.csc_matrix(dense))
        assert np.all(ours.data != 0)

    @settings(max_examples=200, deadline=None)
    @given(triplets())
    def test_constructor_sorts_and_sums_as_scipy_does(self, entries):
        # the triplets bucketed by column in their input order, so rows may
        # be unsorted and repeated within a column
        rows, cols, values, (m, n) = entries
        order = np.argsort(cols, kind="stable")
        indptr = np.searchsorted(cols[order], np.arange(n + 1))
        indices, data = rows[order], values[order]
        ref = sp.csc_matrix((data.copy(), indices.copy(), indptr.copy()), shape=(m, n))
        ref.sum_duplicates()
        assert_same_csc(CscMatrix((data, indices, indptr), (m, n)), ref)

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_transpose(self, pair):
        ours, ref = pair
        assert_same_csc(ours.T, ref.T.tocsc())
        assert_same_csc(ours.T.T, ref)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.data())
    def test_select_rows(self, pair, data):
        ours, ref = pair
        keep = data.draw(arrays(bool, ours.shape[0]))
        assert_same_csc(ours.select_rows(keep), ref[keep])

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.data())
    def test_product(self, pair, data):
        ours, ref = pair
        x = data.draw(arrays(float, ours.shape[1], elements=VALUES))
        assert (ours @ x).tobytes() == (ref @ x).tobytes()
        ints = data.draw(arrays(np.int64, ours.shape[1], elements=st.integers(-9, 9)))
        assert (ours @ ints).tobytes() == (ref @ ints).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(matrices())
    def test_triplets_rebuild_the_matrix(self, pair):
        ours, _ = pair
        assert_same_csc(CscMatrix.from_triplets(*ours.triplets(), ours.shape), to_scipy(ours))

    def test_strided_and_byte_swapped_input(self):
        # the kernels get native, contiguous copies
        rows, cols = np.array([2, 9, 0, 9, 2, 9, 1])[::2], np.array([1, 0, 1, 1])
        values = np.array([1.5, 0.0, -2.0, 0.25], dtype=">f8")
        ref = sp.csc_matrix((values.astype(float), (rows, cols)), shape=(3, 2))
        assert_same_csc(CscMatrix.from_triplets(rows, cols, values, (3, 2)), ref)
        A = CscMatrix((values[::-1], rows[::-1], np.array([0, 1, 4], dtype=">i8")), (3, 2))
        ref = sp.csc_matrix((values[::-1].astype(float), rows[::-1], [0, 1, 4]), shape=(3, 2))
        ref.sum_duplicates()
        assert_same_csc(A, ref)
        x = np.array([1.0, 9.0, 3.0, 9.0])[::2]
        assert (A @ x).tobytes() == (ref @ x).tobytes()

    def test_superlu_factors_are_canonical_csc_matrices(self):
        # SuperLU hands back L and U with unsorted rows; the constructor
        # sorts them, and they keep splu's entries
        A = (sp.random(50, 50, density=0.05, random_state=1, format="csc")
             + 3.0 * sp.identity(50, format="csc")).tocsc()
        lu = hydraulics._factor(50, A.data, A.indices, A.indptr)
        ref = spla.splu(A)
        for ours, factor in ((lu.L, ref.L), (lu.U, ref.U)):
            assert isinstance(ours, CscMatrix)
            factor = factor.copy()
            factor.sum_duplicates()
            assert_same_csc(ours, factor)


class TestFrozen:
    def test_attributes_and_arrays_cannot_change(self):
        A = CscMatrix.from_dense(np.eye(3))
        with pytest.raises(AttributeError):
            A.data = np.zeros(3)
        with pytest.raises(AttributeError):
            del A.shape
        for arr in (A.indptr, A.indices, A.data):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_constructor_drops_spare_storage(self):
        # as SuperLU leaves it after the last column's entries
        A = CscMatrix((np.arange(4.0), np.array([1, 0, 0, 9]), np.array([0, 2, 3])), (2, 2))
        assert_same_csc(A, sp.csc_matrix(([1.0, 0.0, 2.0], [0, 1, 0], [0, 2, 3]), shape=(2, 2)))

    def test_constructor_copies_its_input(self):
        data, indices, indptr = np.ones(2), np.array([0, 1]), np.array([0, 1, 2])
        A = CscMatrix((data, indices, indptr), (2, 2))
        data[0] = 5.0
        assert A.data.tolist() == [1.0, 1.0]

    def test_pickles(self):
        A = CscMatrix.from_triplets([0, 2, 2], [1, 0, 0], [1.0, 2.0, 0.5], (3, 2))
        assert_same_csc(pickle.loads(pickle.dumps(A)), to_scipy(A))


class NoKernel:
    """Stands in for the sparsetools module: any kernel call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"malformed input reached the {name} kernel")


GOOD = dict(data=np.ones(3), indices=np.array([0, 2, 1], dtype=np.int32),
            indptr=np.array([0, 2, 3], dtype=np.int32), shape=(3, 2))


def construct(**changes):
    args = {**GOOD, **changes}
    return CscMatrix((args["data"], args["indices"], args["indptr"]), args["shape"])


class TestMalformedInput:
    """Each raises ValueError, with the kernels swapped for a stand-in that
    fails on any call."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        A = CscMatrix.from_triplets([0, 1], [0, 1], [1.0, 2.0], (2, 2))
        monkeypatch.setattr(csc, "_sparsetools", NoKernel())
        return A

    @pytest.mark.parametrize("changes", [
        pytest.param(dict(indices=np.array([0, 3, 1])), id="row-out-of-range"),
        pytest.param(dict(indices=np.array([0, -1, 1])), id="negative-row"),
        pytest.param(dict(indptr=np.array([0, 3, 2])), id="decreasing-indptr"),
        pytest.param(dict(indptr=np.array([1, 2, 3])), id="indptr-not-from-0"),
        pytest.param(dict(indptr=np.array([0, 2, 3, 3])), id="indptr-too-long"),
        pytest.param(dict(indptr=np.array([0, 2, 4])), id="indptr-past-the-entries"),
        pytest.param(dict(data=np.ones(2)), id="data-too-short"),
        pytest.param(dict(data=np.ones(4)), id="data-too-long"),
        pytest.param(dict(indices=np.array([0.0, 2.0, 1.0])), id="float-indices"),
        pytest.param(dict(indptr=np.array([0.0, 2.0, 3.0])), id="float-indptr"),
        pytest.param(dict(data=np.ones(3, dtype=complex)), id="complex-data"),
        pytest.param(dict(data=np.array(["a", "b", "c"])), id="text-data"),
        pytest.param(dict(indices=np.array([[0, 2, 1]])), id="2-D-indices"),
        pytest.param(dict(shape=(3, -2)), id="negative-dimension"),
        pytest.param(dict(shape=(3.0, 2)), id="float-dimension"),
        pytest.param(dict(shape=(3, 2, 1)), id="three-dimensions"),
        pytest.param(dict(shape=(3, 2**31)), id="beyond-int32"),
    ])
    def test_constructor(self, changes):
        with pytest.raises(ValueError):
            construct(**changes)

    @pytest.mark.parametrize("rows, cols, values, shape", [
        ([0, 3], [0, 1], [1.0, 2.0], (3, 2)),                   # row out of range
        ([0, 1], [0, 2], [1.0, 2.0], (3, 2)),                   # column out of range
        ([0, -1], [0, 1], [1.0, 2.0], (3, 2)),                  # negative row
        ([0, 1], [0], [1.0, 2.0], (3, 2)),                      # lengths disagree
        ([0, 1], [0, 1], [1.0], (3, 2)),
        ([0.0, 1.0], [0, 1], [1.0, 2.0], (3, 2)),               # float rows
        ([0, 1], [0, 1], [1j, 2.0], (3, 2)),                    # complex values
        ([[0, 1]], [[0, 1]], [[1.0, 2.0]], (3, 2)),             # 2-D
        ([0, 1], [0, 1], [1.0, 2.0], (-1, 2)),                  # negative dimension
    ])
    def test_from_triplets(self, rows, cols, values, shape):
        with pytest.raises(ValueError):
            CscMatrix.from_triplets(np.array(rows), np.array(cols), np.array(values), shape)

    @pytest.mark.parametrize("dense", [np.ones((2, 2, 2)), np.ones(3), np.ones((2, 2), complex),
                                       np.array([[None, 1]], dtype=object)])
    def test_from_dense(self, dense):
        with pytest.raises(ValueError):
            CscMatrix.from_dense(dense)

    @pytest.mark.parametrize("x", [np.ones(3), np.ones(1), np.ones((2, 1)), np.ones(2, complex),
                                   np.array(["a", "b"])])
    def test_product(self, no_kernel, x):
        with pytest.raises(ValueError):
            no_kernel @ x

    @pytest.mark.parametrize("keep", [np.ones(3, bool), np.ones(1, bool), np.ones(2, int),
                                      np.ones((2, 1), bool)])
    def test_select_rows(self, no_kernel, keep):
        with pytest.raises(ValueError):
            no_kernel.select_rows(keep)

    def test_lp_takes_only_a_csc_matrix(self):
        # a SciPy matrix, however well formed, never reaches HiGHS
        with pytest.raises(TypeError, match="not a CscMatrix"):
            lp.LinearProgram(np.ones(2), sp.csc_matrix(np.ones((1, 2))), [0.0], [1.0],
                             np.zeros(2), np.ones(2))
