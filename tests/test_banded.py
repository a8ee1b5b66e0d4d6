"""The numpy banded kernels against dense arithmetic on their `.mat`,
and against the same kernels on diagonals padded to n entries.

Random sizes (including sizes smaller than the band), random offsets in
-5..5 and random row spans per diagonal (empty, one entry or longer), so
that diagonals reaching only the edge rows are exercised as in the
one-sided stencils.
"""

import inspect
import re
import tracemalloc

import numpy as np
import pytest

from pdmph import diff_matrix, make_grid
from pdmph.grid import OperatorMatrix
from pdmph.operators import build_eta_tilde, build_h_prime

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RTOL = 1e-13


@st.composite
def banded(draw, n=None, dtype=complex):
    n = draw(st.integers(1, 24)) if n is None else n
    offsets = draw(st.lists(st.integers(-5, 5), unique=True, max_size=11).map(sorted))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spans, values = [], []
    for o in offsets:
        first, end = max(0, -o), min(n, n - o)
        lo = hi = 0
        if first < end and draw(st.integers(0, 7)):
            lo = draw(st.integers(first, end - 1))
            hi = draw(st.sampled_from([lo + 1, draw(st.integers(lo + 1, end))]))
        spans.append((lo, hi))
        values.append(rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo))
    data = np.concatenate([np.zeros(0, complex)] + values)
    return OperatorMatrix(n, offsets, spans, data if dtype is complex else data.real.copy())


def close(got, want, scale):
    """Entrywise agreement to RTOL of the magnitudes that entered the sums."""
    bound = RTOL * max(np.abs(scale).max(initial=0.0), 1e-300)
    return np.abs(got - want).max(initial=0.0) <= bound


@st.composite
def banded_pair(draw):
    A = draw(banded())
    return A, draw(banded(A.n))


@settings(max_examples=150, deadline=None)
@given(banded(), st.integers(0, 2**32 - 1))
def test_vector_block_and_adjoint_products(A, seed):
    rng = np.random.default_rng(seed)
    M = A.mat
    v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    X = rng.standard_normal((A.n, 3))
    assert close(A @ v, M @ v, np.abs(M) @ np.abs(v))
    assert close(A @ X, M @ X, np.abs(M) @ np.abs(X))
    assert close(A.H @ v, M.conj().T @ v, np.abs(M).T @ np.abs(v))
    assert np.array_equal(A.H.mat, M.conj().T)
    assert close(A @ v.real, M @ v.real, np.abs(M) @ np.abs(v.real))


@settings(max_examples=150, deadline=None)
@given(banded_pair(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                         allow_infinity=False), st.integers(0, 2**32 - 1))
def test_product_difference_and_scalar_multiple(pair, c, seed):
    # products and differences of operators exist only as actions on a vector
    A, B = pair
    MA, MB = A.mat, B.mat
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    assert close(A @ (B @ v), MA @ (MB @ v), np.abs(MA) @ (np.abs(MB) @ np.abs(v)))
    assert close(A.H @ (B @ v), MA.conj().T @ (MB @ v),
                 np.abs(MA).T @ (np.abs(MB) @ np.abs(v)))
    assert close(A @ v - B @ v, (MA - MB) @ v, (np.abs(MA) + np.abs(MB)) @ np.abs(v))
    assert close((c * A).mat, c * MA, abs(c) * np.abs(MA))
    assert close((A * c).mat, MA * c, abs(c) * np.abs(MA))


def test_operands_that_cannot_be_applied_are_rejected():
    # only a vector of n entries or an n x k block: a wrong length, a
    # scalar or another operator is refused with the operand's shape
    D = diff_matrix(make_grid(-1.0, 1.0, 41), 1)
    for operand, shape in ((np.ones(50), "(50,)"), (np.ones((50, 3)), "(50, 3)"),
                           (2.0, "()"), (D, "(41, 41)")):
        with pytest.raises(ValueError, match=re.escape(f"of shape {shape}")):
            D @ operand
    assert (D @ np.ones(41)).shape == (41,) and (D @ np.ones((41, 3))).shape == (41, 3)


def test_operators_are_applied_never_combined():
    # no banded product, difference or distance, and one metric construction
    for name in ("_times", "__sub__", "distance"):
        assert not hasattr(OperatorMatrix, name), name
    assert list(inspect.signature(build_eta_tilde).parameters) == ["coeffs", "bundle", "grid"]


def test_entries_outside_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        OperatorMatrix(5, [2], [(0, 5)], np.ones(5))
    with pytest.raises(ValueError):
        OperatorMatrix(5, [1, 0], [(0, 4), (0, 5)], np.zeros(9))


def test_one_operator_class():
    # the stored matrix is the operator: no wrapper, no grid, no second name
    import pdmph.grid
    assert not hasattr(pdmph.grid, "Banded")
    g = make_grid(-1.0, 1.0, 41)
    D = diff_matrix(g, 1)
    assert type(D) is OperatorMatrix and D is diff_matrix(g, 1)
    assert not hasattr(D, "form") and not hasattr(D, "grid")
    assert OperatorMatrix.__matmul__ is OperatorMatrix.apply


def test_stencil_edge_diagonals_cover_only_edge_rows():
    # the one-sided closures reach offsets 3..5 in two rows per edge only,
    # and products touch those diagonals over those rows
    for order, reach in ((1, 4), (2, 5)):
        D = diff_matrix(make_grid(-1.0, 1.0, 101), order)
        assert D.offsets == tuple(range(-reach, reach + 1))
        for o, (lo, hi) in zip(D.offsets, D.spans):
            assert hi - lo <= 2 if abs(o) > 2 else hi - lo >= 101 - 4


# ---------------------------------------------------------------------------
# compact diagonals against diagonals padded to n entries
# ---------------------------------------------------------------------------

def padded(A):
    """The diagonals of A row-aligned and padded to n entries: P[k, i] = A[i, i + o_k]."""
    P = np.zeros((len(A.offsets), A.n), A.data.dtype)
    for k, ((lo, hi), d) in enumerate(zip(A.spans, A.diagonals)):
        P[k, lo:hi] = d
    return P


def shifted(x, s):
    """y[i] = x[i + s], zero where i + s falls outside x."""
    y = np.zeros_like(x)
    n = len(x)
    if s >= 0:
        y[:max(n - s, 0)] = x[s:]
    else:
        y[-s:] = x[:max(n + s, 0)]
    return y


def padded_matmul(A, v):
    P = padded(A)
    dtype = np.result_type(P, v)
    v = v.astype(dtype, copy=False)
    y = np.zeros(v.shape, dtype)
    for o, (lo, hi), d in zip(A.offsets, A.spans, P):
        if lo < hi:
            y[lo:hi] += (d[lo:hi] if v.ndim == 1 else d[lo:hi, None]) * v[lo + o:hi + o]
    return y


def same(a, b):
    """Bitwise equal, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_padded(A, ref):
    """A's diagonals equal the padded reference {offset: diagonal} over every stored row."""
    P = padded(A)
    return (sorted(ref) == list(A.offsets)
            and all(same(P[k, lo:hi], ref[o][lo:hi])
                    for k, (o, (lo, hi)) in enumerate(zip(A.offsets, A.spans))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([complex, float]).flatmap(lambda dtype: banded(dtype=dtype)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_compact_products_match_padded_diagonals(A, seed, real):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n) + (0 if real else 1j) * rng.standard_normal(A.n)
    X = rng.standard_normal((A.n, 3))
    # wider than one run of columns (blocks of 35 and 35)
    W = rng.standard_normal((A.n, 70)) + (0 if real else 1j) * rng.standard_normal((A.n, 70))
    assert same(A @ v, padded_matmul(A, v))
    assert same(A @ X, padded_matmul(A, X))
    assert same(A @ W, padded_matmul(A, W))
    assert same(A.H @ v, padded_matmul(A.H, v))
    x = rng.standard_normal(A.n)
    want = [shifted(x, o)[lo:hi] for o, (lo, hi) in zip(A.offsets, A.spans)]
    assert same(A.column_values(x), np.concatenate([np.zeros(0)] + want))
    assert same(A.row_values(x), np.concatenate([np.zeros(0)] + [x[lo:hi] for lo, hi in A.spans]))
    # the adjoint: conjugates of the same diagonals, spans shifted by the offset
    H = A.H
    assert H.offsets == tuple(-o for o in A.offsets[::-1])
    P = padded(A)
    assert same_padded(H, {-o: np.conj(shifted(d, -o)) for o, d in zip(A.offsets, P)})
    dense = np.zeros((A.n, A.n), A.data.dtype)
    for o, (lo, hi), d in zip(A.offsets, A.spans, P):
        rows = np.arange(lo, hi)
        dense[rows, rows + o] = d[lo:hi]
    assert same(A.mat, dense)


@settings(max_examples=200, deadline=None)
@given(banded_pair(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                         allow_infinity=False), st.integers(0, 2**32 - 1))
def test_compact_pair_operations_match_padded_diagonals(pair, c, seed):
    # a pair is combined only by applying one after the other, as in D~^ (D~ v)
    A, B = pair
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    assert same(A @ (B @ v), padded_matmul(A, padded_matmul(B, v)))
    assert same(A.H @ (B @ v), padded_matmul(A.H, padded_matmul(B, v)))
    for scaled in (c * A, A * c):
        assert scaled.spans == A.spans
        assert same_padded(scaled, dict(zip(A.offsets, c * padded(A))))


def test_empty_and_one_entry_diagonals():
    # offsets -1, 0, 2 with an empty, a one-entry and a two-entry diagonal
    A = OperatorMatrix(4, [-1, 0, 2], [(0, 0), (3, 4), (0, 2)], np.array([5.0, 1.0, 2.0]))
    assert [len(d) for d in A.diagonals] == [0, 1, 2]
    M = np.zeros((4, 4))
    M[3, 3], M[0, 2], M[1, 3] = 5.0, 1.0, 2.0
    assert same(A.mat, M)
    v = np.arange(1.0, 5.0)
    assert same(A @ v, M @ v)
    assert same(A.H.mat, M.T)
    assert A.H.spans == [(2, 4), (3, 4), (0, 0)]
    assert same(A.column_values(v), np.array([4.0, 3.0, 4.0]))
    assert same((2.0 * A).mat, 2.0 * M)
    empty = OperatorMatrix.from_parts(4, [])
    assert same(empty @ v, np.zeros(4)) and empty.mat.shape == (4, 4)
    assert same(empty.H.data, np.zeros(0))
    one = OperatorMatrix(1, [0], [(0, 1)], np.array([3.0 + 1j]))
    assert same(one @ np.array([2.0]), np.array([6.0 + 2j]))
    assert same(one.H.data, np.array([3.0 - 1j]))


@pytest.mark.parametrize("n", [101, 1001])
def test_stored_entries_cover_the_spans_only(n):
    # padded to n entries these would hold 9n (d1) and 11n (d2 and H') entries
    from pdmph import GeneratingSpec, MassProfile, SystemBuilder
    g = make_grid(-2.0, 10.0, n)
    assert diff_matrix(g, 1).data.size <= 5 * n
    assert diff_matrix(g, 2).data.size <= 5 * n + 4
    ds = SystemBuilder("family", MassProfile.rational(), -2.0, 10.0,
                       GeneratingSpec("morse")).dressed(n)
    assert build_h_prime(ds.V, ds.a, ds.ap, ds.bundle, g).data.size <= 5 * n + 4


def test_block_product_working_set():
    # a block product is formed in runs of columns, so its temporaries span
    # about 33 of the 501 columns: measured 1.13 n x n complex arrays, the
    # result included (2.03 with a full n x n product per diagonal)
    D = diff_matrix(make_grid(-3.0, 4.0, 501), 2)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((501, 501)) + 1j * rng.standard_normal((501, 501))
    tracemalloc.start()
    try:
        D @ V
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * 501 ** 2


@st.composite
def parts_of(draw, dtype):
    """n and a list of (offset, first row, values) parts: overlapping, at the
    first and last rows, empty and one entry long, real or complex."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(0, 12))):
        o = draw(st.integers(-(n - 1), n - 1))
        first, end = max(0, -o), min(n, n - o)
        lo = draw(st.sampled_from([first, end - 1, draw(st.integers(first, end - 1))]))
        size = draw(st.sampled_from([0, 1, end - lo, draw(st.integers(0, end - lo))]))
        d = rng.standard_normal(size)
        parts.append((o, lo, d + 1j * rng.standard_normal(size) if dtype is complex else d))
    return n, parts


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([float, complex]).flatmap(
    lambda dtype: st.tuples(st.just(dtype), parts_of(dtype))))
def test_from_parts_is_the_dense_sum_in_part_order(case):
    dtype, (n, parts) = case
    A = OperatorMatrix.from_parts(n, parts, dtype)
    M = np.zeros((n, n), dtype)
    for o, lo, d in parts:
        rows = np.arange(lo, lo + len(d))
        M[rows, rows + o] += d
    assert A.mat.dtype == dtype and A.mat.tobytes() == M.tobytes()
    assert list(A.offsets) == sorted({o for o, _, _ in parts})
    for o, span in zip(A.offsets, A.spans):
        covered = [(lo, lo + len(d)) for p, lo, d in parts if p == o and len(d)]
        assert span == ((min(lo for lo, _ in covered), max(hi for _, hi in covered))
                        if covered else (0, 0))
    assert A.data.size == sum(hi - lo for lo, hi in A.spans)
