import math

import numpy as np
import pytest

from pdmph import InvalidDomainError, cumint, diff_matrix, make_grid, observed_order
from pdmph.grid import WEIGHTS


def test_make_grid_rejects_small_n():
    with pytest.raises(InvalidDomainError):
        make_grid(-1, 1, 5)


def test_make_grid_rejects_bad_ordering():
    with pytest.raises(InvalidDomainError):
        make_grid(2.0, -2.0, 101)


def test_grid_spacing_and_parity_flag():
    g = make_grid(-8, 8, 2001)
    assert g.h == pytest.approx(0.008, abs=0)
    assert g.parity_capable
    assert g.x[g.index_nearest(0.0)] == 0.0

    g2 = make_grid(0.05, 12, 1200)
    assert not g2.parity_capable


def test_parity_grid_exactly_antisymmetric():
    g = make_grid(-7.5, 7.5, 401)
    assert np.all(g.x + g.x[::-1] == 0.0)


def test_grid_uniformity():
    g = make_grid(-3.0, 5.0, 257)
    assert np.abs(np.diff(g.x) - g.h).max() < 1e-14


def test_diff_matrix_constant_is_zero():
    g = make_grid(-4, 4, 101)
    D1 = diff_matrix(g, 1)
    assert np.abs(D1 @ np.ones(g.n)).max() < 1e-12


def test_diff_matrix_cubic_exact():
    # the 5-point stencils differentiate polynomials up to degree 4 exactly,
    # so x^3 reproduces 3x^2 to rounding on the whole grid
    g = make_grid(-8, 8, 201)
    D1 = diff_matrix(g, 1)
    err = np.abs(D1 @ g.x**3 - 3 * g.x**2).max()
    assert err < 1e-10


@pytest.mark.parametrize("order,fn,dfn", [
    (1, np.sin, np.cos),
    (2, np.sin, lambda x: -np.sin(x)),
])
def test_diff_matrix_fourth_order_on_sin(order, fn, dfn):
    errs = []
    for n in (201, 401, 801):
        g = make_grid(-8, 8, n)
        D = diff_matrix(g, order)
        w = g.interior_mask(4)
        errs.append(np.abs((D @ fn(g.x) - dfn(g.x)))[w].max())
    # halving h must cut the interior error by at least 12 (4th order ~ 16)
    assert errs[0] / errs[1] > 12
    assert errs[1] / errs[2] > 12


def test_cumulative_integral_zero():
    g = make_grid(-5, 5, 101)
    F = cumint(np.zeros(g.n), g, 50)
    assert np.all(F == 0.0)


def test_cumulative_integral_arctan():
    g = make_grid(-8, 8, 2001)
    F = cumint(1.0 / (1.0 + g.x**2), g, g.index_nearest(0.0))
    assert abs(F[g.index_nearest(1.0)] - np.arctan(1.0)) < 1e-9


def test_cumulative_integral_polynomial_exact():
    g = make_grid(-8, 8, 2001)
    F = cumint(g.x.copy(), g, g.index_nearest(0.0))
    assert np.abs(F - g.x**2 / 2).max() < 1e-12


def test_cumulative_integral_anchor():
    g = make_grid(0.0, 6.0, 301)
    F = cumint(np.cos(g.x), g, 100)
    assert F[100] == 0.0
    assert abs(F[200] - (np.sin(g.x[200]) - np.sin(g.x[100]))) < 1e-10


def test_quadrature_differentiation_roundtrip():
    # d/dx applied to the antiderivative returns the integrand at order >= 3.5
    errs, hs = [], []
    for n in (201, 401, 801):
        g = make_grid(-6, 6, n)
        y = np.exp(-g.x**2 / 4) * np.sin(g.x)
        F = cumint(y, g, g.n // 2)
        D1 = diff_matrix(g, 1)
        w = g.interior_mask(8)
        errs.append(np.abs((D1 @ F - y))[w].max())
        hs.append(g.h)
    order = observed_order(hs, errs)
    assert order is not None and order >= 3.5


def test_observed_order_floor_exclusion():
    hs = [0.04, 0.02, 0.01]
    rs = [1e-5, 6.25e-7, 5e-13]           # last level saturates at a floor
    floors = [1e-13, 1e-13, 1e-12]
    order = observed_order(hs, rs, floors)
    assert order == pytest.approx(4.0, abs=0.1)
    assert observed_order(hs, [1e-14, 1e-14, 1e-14], [1e-13, 1e-13, 1e-13]) is None


def test_interior_mask_with_margin():
    g = make_grid(0.0, 10.0, 101)
    m = g.interior_mask(4, xmargin=1.0)
    assert not m[:10].any() and not m[-10:].any()
    assert m.sum() > 0


# ---------------------------------------------------------------------------
# the exact weight table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [1, 2])
def test_stencil_rows_solve_their_moment_equations(order):
    # sum_k w_k (o + k)^j = 12 order! [j = order], in integers, for every
    # power below the row length
    assert len(WEIGHTS[order]) == 5
    for o, w in WEIGHTS[order].items():
        assert len(w) == (5 if o == -2 else 4 + order), o
        for j in range(len(w)):
            moment = sum(k * (o + i) ** j for i, k in enumerate(w))
            assert moment == 12 * math.factorial(order) * (j == order), (o, j)


def test_quadrature_rows_solve_their_moment_equations():
    # the integral of x^j over [0, 1] is 1/(j + 1): 1440 sum_k w_k (o + k)^j / 1440
    assert sorted(WEIGHTS["quad"]) == [-4, -3, -2, -1, 0]
    for o, w in WEIGHTS["quad"].items():
        for j in range(6):
            assert sum(k * (o + i) ** j for i, k in enumerate(w)) * (j + 1) == 1440, (o, j)


def test_weight_rows_mirror():
    # reflection x -> -x maps a stencil row on offsets o..o+L-1 to the row on
    # -(o+L-1)..-o, reversed, times (-1)^order (rows n-2, n-1 mirror rows 1,
    # 0, the central row itself); an interval [0, 1] maps to itself about 1/2
    for order in (1, 2):
        for o, w in WEIGHTS[order].items():
            mirror = WEIGHTS[order][-(o + len(w) - 1)]
            assert mirror == tuple((-1) ** order * k for k in reversed(w)), (order, o)
    for o, w in WEIGHTS["quad"].items():
        assert WEIGHTS["quad"][-4 - o] == tuple(reversed(w)), o


def _interior_rows(order, n=41):
    g = make_grid(-2.0, 10.0, n)
    return diff_matrix(g, order).mat[2:n - 2], g


def test_central_first_derivative_row_is_exactly_antisymmetric():
    M, g = _interior_rows(1)
    i = np.arange(2, g.n - 2)
    assert np.all(M[i - 2, i] == 0.0)
    for k in (1, 2):
        assert np.array_equal(M[i - 2, i + k], -M[i - 2, i - k]), k


def test_first_derivative_main_diagonal_is_zero_in_the_interior():
    g = make_grid(-2.0, 10.0, 4001)
    D = diff_matrix(g, 1)
    k = D.offsets.index(0)
    lo, _ = D.spans[k]
    assert np.all(D.diagonals[k][2 - lo:g.n - 2 - lo] == 0.0)


def test_central_second_derivative_row_is_exactly_symmetric():
    M, g = _interior_rows(2)
    i = np.arange(2, g.n - 2)
    for k in (1, 2):
        assert np.array_equal(M[i - 2, i + k], M[i - 2, i - k]), k


def test_interior_quadrature_row_is_exactly_symmetric():
    w = np.array(WEIGHTS["quad"][-2]) / 1440.0
    assert np.array_equal(w, w[::-1])
