"""The numpy banded kernels against dense arithmetic on their `.toarray()`.

Random sizes (including sizes smaller than the band), random offsets in
-5..5 and random nonzero row spans per diagonal, so that diagonals reaching
only the edge rows are exercised as in the one-sided stencils.
"""

import numpy as np
import pytest

from pdmph import diff_matrix, make_grid
from pdmph.grid import Banded, Permuted

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

RTOL = 1e-13


@st.composite
def banded(draw, n=None):
    n = draw(st.integers(1, 24)) if n is None else n
    offsets = draw(st.lists(st.integers(-5, 5), unique=True, max_size=11).map(sorted))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.zeros((len(offsets), n), complex)
    for k, o in enumerate(offsets):
        first, end = max(0, -o), min(n, n - o)
        if first < end:
            lo = draw(st.integers(first, end - 1))
            hi = draw(st.integers(lo + 1, end))
            data[k, lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    return Banded(offsets, data)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_permuted_against_dense(n, seed):
    rng = np.random.default_rng(seed)
    P = Permuted(rng.permutation(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
    Q = Permuted(rng.permutation(n), rng.standard_normal(n))
    MP, MQ = P.toarray(), Q.toarray()
    v = rng.standard_normal(n)
    assert close(P @ v, MP @ v, np.abs(MP) @ np.abs(v))
    assert close((P @ Q).toarray(), MP @ MQ, np.abs(MP) @ np.abs(MQ))
    assert np.array_equal(P.H.toarray(), MP.conj().T)
    assert P.distance(Q) == np.abs(MP - MQ).max()


def test_entries_outside_the_matrix_are_rejected():
    with pytest.raises(ValueError):
        Banded([2], np.ones((1, 5)))
    with pytest.raises(ValueError):
        Banded([1, 0], np.zeros((2, 5)))
    with pytest.raises(ValueError):
        Permuted([0, 0, 2], np.ones(3))


def test_stencil_edge_diagonals_cover_only_edge_rows():
    # the one-sided closures reach offsets 3..5 in two rows per edge only,
    # and products touch those diagonals over those rows
    for order, reach in ((1, 4), (2, 5)):
        D = diff_matrix(make_grid(-1.0, 1.0, 101), order).form
        assert D.offsets == tuple(range(-reach, reach + 1))
        for o, (lo, hi) in zip(D.offsets, D.spans):
            assert hi - lo <= 2 if abs(o) > 2 else hi - lo >= 101 - 4
