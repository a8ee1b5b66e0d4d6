"""The numpy banded kernels against dense arithmetic on their `.toarray()`,
and against the same kernels on diagonals padded to n entries.

Random sizes (including sizes smaller than the band), random offsets in
-5..5 and random row spans per diagonal (empty, one entry or longer), so
that diagonals reaching only the edge rows are exercised as in the
one-sided stencils.
"""

import tracemalloc

import numpy as np
import pytest

from pdmph import diff_matrix, make_grid
from pdmph.grid import Banded
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
    return Banded(n, offsets, spans, data if dtype is complex else data.real.copy())


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
    M = A.toarray()
    v = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    X = rng.standard_normal((A.n, 3))
    assert close(A @ v, M @ v, np.abs(M) @ np.abs(v))
    assert close(A @ X, M @ X, np.abs(M) @ np.abs(X))
    assert close(A.H @ v, M.conj().T @ v, np.abs(M).T @ np.abs(v))
    assert np.array_equal(A.H.toarray(), M.conj().T)
    assert close(A @ v.real, M @ v.real, np.abs(M) @ np.abs(v.real))


@settings(max_examples=150, deadline=None)
@given(banded_pair(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                         allow_infinity=False))
def test_product_difference_and_scalar_multiple(pair, c):
    A, B = pair
    MA, MB = A.toarray(), B.toarray()
    assert close((A @ B).toarray(), MA @ MB, np.abs(MA) @ np.abs(MB))
    assert close((A.H @ B).toarray(), MA.conj().T @ MB, np.abs(MA).T @ np.abs(MB))
    assert close((A - B).toarray(), MA - MB, np.abs(MA) + np.abs(MB))
    assert A.distance(B) == np.abs(MA - MB).max()
    assert close((c * A).toarray(), c * MA, abs(c) * np.abs(MA))
    assert close((A * c).toarray(), MA * c, abs(c) * np.abs(MA))


def test_entries_outside_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        Banded(5, [2], [(0, 5)], np.ones(5))
    with pytest.raises(ValueError):
        Banded(5, [1, 0], [(0, 4), (0, 5)], np.zeros(9))


def test_stencil_edge_diagonals_cover_only_edge_rows():
    # the one-sided closures reach offsets 3..5 in two rows per edge only,
    # and products touch those diagonals over those rows
    for order, reach in ((1, 4), (2, 5)):
        D = diff_matrix(make_grid(-1.0, 1.0, 101), order).form
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


def padded_times(A, B):
    """offset -> padded diagonal of A B, each entry summed in column order from zero."""
    out = {}
    for a, (lo_a, hi_a), da in zip(A.offsets, A.spans, padded(A)):
        for b, (lo_b, hi_b), db in zip(B.offsets, B.spans, padded(B)):
            lo, hi = max(lo_a, lo_b - a), min(hi_a, hi_b - a)
            if lo_a < hi_a and lo_b < hi_b and lo < hi:
                d = out.setdefault(a + b, np.zeros(A.n, np.result_type(A.data, B.data)))
                d[lo:hi] += da[lo:hi] * db[lo + a:hi + a]
    return out


def padded_sub(A, B):
    """offset -> padded diagonal of A - B."""
    mine, theirs = dict(zip(A.offsets, padded(A))), dict(zip(B.offsets, padded(B)))
    zero = np.zeros(A.n)
    return {o: mine.get(o, zero) - theirs.get(o, zero) for o in mine.keys() | theirs.keys()}


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
    assert same(A.toarray(), dense)


@settings(max_examples=200, deadline=None)
@given(banded_pair(), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                         allow_infinity=False))
def test_compact_pair_operations_match_padded_diagonals(pair, c):
    A, B = pair
    assert same_padded(A @ B, padded_times(A, B))
    assert same_padded(A.H @ B, padded_times(A.H, B))
    D = A - B
    assert same_padded(D, padded_sub(A, B))
    assert D.distance(Banded.zeros(A.n, [], [])) == A.distance(B)
    assert A.distance(B) == max([np.abs(d).max(initial=0.0) for d in padded_sub(A, B).values()],
                                default=0.0)
    for scaled in (c * A, A * c):
        assert scaled.spans == A.spans
        assert same_padded(scaled, dict(zip(A.offsets, c * padded(A))))


def test_empty_and_one_entry_diagonals():
    # offsets -1, 0, 2 with an empty, a one-entry and a two-entry diagonal
    A = Banded(4, [-1, 0, 2], [(0, 0), (3, 4), (0, 2)], np.array([5.0, 1.0, 2.0]))
    assert [len(d) for d in A.diagonals] == [0, 1, 2]
    M = np.zeros((4, 4))
    M[3, 3], M[0, 2], M[1, 3] = 5.0, 1.0, 2.0
    assert same(A.toarray(), M)
    v = np.arange(1.0, 5.0)
    assert same(A @ v, M @ v)
    assert same(A.H.toarray(), M.T)
    assert A.H.spans == [(2, 4), (3, 4), (0, 0)]
    assert same(A.column_values(v), np.array([4.0, 3.0, 4.0]))
    assert same((A @ A).toarray(), M @ M)
    assert (A @ A).offsets == (0, 2) and (A @ A).spans == [(3, 4), (1, 2)]
    assert (A - A).distance(A) == 5.0
    assert same((2.0 * A).toarray(), 2.0 * M)
    empty = Banded.zeros(4, [], [])
    assert same(empty @ v, np.zeros(4)) and empty.toarray().shape == (4, 4)
    assert A.distance(empty) == 5.0 and same(empty.H.data, np.zeros(0))
    one = Banded(1, [0], [(0, 1)], np.array([3.0 + 1j]))
    assert same((one @ one).toarray(), np.array([[(3.0 + 1j) ** 2]]))
    assert same(one.H.data, np.array([3.0 - 1j]))


@pytest.mark.parametrize("n", [101, 1001])
def test_stored_entries_cover_the_spans_only(n):
    # padded to n entries these would hold 9n (d1), 11n (d2 and H') and
    # 13n (the product metric) entries
    from pdmph import GeneratingSpec, MassProfile, SystemBuilder
    from pdmph.verify import _coefficients
    g = make_grid(-2.0, 10.0, n)
    assert diff_matrix(g, 1).form.data.size <= 5 * n
    assert diff_matrix(g, 2).form.data.size <= 5 * n + 4
    ds = SystemBuilder("family", MassProfile.rational(), -2.0, 10.0,
                       GeneratingSpec("morse")).dressed(n)
    assert build_h_prime(ds.V, ds.a, ds.ap, ds.bundle, g).form.data.size <= 5 * n + 4
    eta = build_eta_tilde(_coefficients(ds), ds.bundle, g, mode="product", phi=ds.phi, a=ds.a)
    assert eta.form.data.size <= 9 * n


def test_block_product_working_set():
    # a block product is formed in runs of columns, so its temporaries span
    # about 33 of the 501 columns: measured 1.13 n x n complex arrays, the
    # result included (2.03 with a full n x n product per diagonal)
    D = diff_matrix(make_grid(-3.0, 4.0, 501), 2).form
    rng = np.random.default_rng(0)
    V = rng.standard_normal((501, 501)) + 1j * rng.standard_normal((501, 501))
    tracemalloc.start()
    try:
        D @ V
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * 501 ** 2
