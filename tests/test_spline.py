"""The not-a-knot cubic spline that interpolates mass, g and gauge tables,
and the intertwining defect of systems built from such tables."""

import numpy as np
import pytest

from pdmph import GeneratingSpec, IOFormatError, MassProfile, SystemBuilder
import pdmph.grid as grid_module
from pdmph.grid import Spline
from pdmph.verify import _identity

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def tables(draw, min_rows=2):
    """(xs, ys, x): a table with spacings within a factor 10 of each other and
    evaluation points at the nodes, at both ends and inside."""
    n = draw(st.integers(min_rows, 60))
    start = draw(st.floats(-10.0, 10.0))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    xs = start + np.concatenate(([0.0], np.cumsum(gaps)))
    ys = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    ys *= 10.0 ** draw(st.integers(-3, 3))
    inside = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)))
    x = np.concatenate((xs, [xs[0], xs[-1]], xs[0] + inside * (xs[-1] - xs[0])))
    return xs, ys, np.clip(x, xs[0], xs[-1])


@settings(max_examples=200, deadline=None)
@given(tables())
def test_matches_reference_cubic_spline(table):
    interpolate = pytest.importorskip("scipy.interpolate")
    xs, ys, x = table
    got = Spline(xs, ys)(x)
    want = interpolate.CubicSpline(xs, ys)(x)
    assert np.abs(got - want).max() <= 1e-14 * max(np.abs(ys).max(), 1e-300)


@pytest.mark.parametrize("n", range(2, 12))
def test_constant_table_is_exact(n):
    # the hermitian-limit preset's g is a constant spline: no rounding allowed
    xs = np.linspace(-3.0, 5.0, n) ** 3
    x = np.linspace(xs[0], xs[-1], 1001)
    for c in (1.3, -0.7, 1e-12, 4.0 / 3.0):
        assert np.array_equal(Spline(xs, np.full(n, c))(x), np.full(x.shape, c))


@settings(max_examples=100, deadline=None)
@given(tables(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_reproduces_polynomials(table, coeffs):
    # not-a-knot: any cubic through four or more nodes is the spline itself;
    # three nodes reproduce a parabola and two a line
    xs, _, x = table
    coeffs = coeffs[:min(len(xs), 4)]
    centre = 0.5 * (xs[0] + xs[-1])
    p = np.polynomial.Polynomial(coeffs, domain=[xs[0] - centre, xs[-1] - centre],
                                 window=[-1.0, 1.0])
    got = Spline(xs, p(xs - centre))(x)
    want = p(x - centre)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("xs, ys", [
    ([0.0], [1.0]),
    ([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0, 2.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0, 1.0, np.nan, 3.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.0, 1.0, 2.0, 3.0], [1.0, np.inf, 1.0, 1.0]),
    ([0.0, 1.0, 2.0], [1.0, 1.0]),
])
def test_rejects_bad_tables(xs, ys):
    with pytest.raises(IOFormatError):
        Spline(xs, ys)([0.5])


def _smooth(amplitudes, phases, x):
    """A smooth positive function exp(sum_k a_k sin(k x / 3 + p_k))."""
    return np.exp(sum(a * np.sin((k + 1) * x / 3.0 + p)
                      for k, (a, p) in enumerate(zip(amplitudes, phases))))


modes = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)
phases = st.lists(st.floats(0.0, 2.0 * np.pi), min_size=3, max_size=3)


@settings(max_examples=50, deadline=None)
@given(st.integers(1001, 2001), modes, phases, modes, phases,
       st.sampled_from([-1.0, 1.0]), st.floats(0.5, 2.0))
def test_table_route_intertwining_vanishes(rows, am, pm, ag, pg, sign, scale):
    # a custom-table system (table mass, table g) is built consistently, so
    # its intertwining defect is truncation falling at 4th order until it
    # reaches the rounding floor (constant tables sit at the floor
    # throughout).  The table spacing is at most half the finest grid
    # spacing: the spline is only C2, and the jumps of its third derivative
    # at the knots, which grow with the spacing, do not refine away; with
    # coarser tables they show (order 3.5 at 650 rows, no convergence at 201)
    xs = np.linspace(-5.0, 5.0, rows)
    spec = GeneratingSpec("custom-table", g_table=(xs, sign * scale * _smooth(ag, pg, xs)))
    builder = SystemBuilder(MassProfile.from_table(xs, 0.5 * _smooth(am, pm, xs)),
                            -4.0, 4.0, spec=spec)
    (result,) = _identity("intertwining", builder, [101, 201, 401])
    assert result.notes["defect_regime"] == "vanishing"
    above_floor = [lv.residual > 20.0 * lv.floor for lv in result.levels]
    assert above_floor == sorted(above_floor, reverse=True)
    assert result.observed_order is None or result.observed_order >= 3.5


def _table_builder(rows=2201):
    xs = np.linspace(-9.0, 13.0, rows)
    ms = 0.5 * _smooth([0.3, -0.1, 0.05], [0.2, 1.0, 2.0], xs)
    gs = _smooth([0.2, 0.1, -0.1], [0.5, 1.5, 0.3], xs)
    gauge = ("table", xs, 0.3 * np.sin(0.4 * xs))
    spec = GeneratingSpec("custom-table", g_table=(xs, gs), gauge_a=gauge)
    return SystemBuilder(MassProfile.from_table(xs, ms), -8.0, 12.0, spec=spec)


def test_each_table_is_solved_once_across_levels(monkeypatch):
    calls = []
    solve = grid_module._tridiagonal_solve
    monkeypatch.setattr(grid_module, "_tridiagonal_solve",
                        lambda *args: calls.append(len(args[1])) or solve(*args))
    builder = _table_builder()
    for n in (201, 401, 801):
        builder.dressed(n)
    assert calls == [2201, 2201, 2201]   # mass, g and gauge tables, once each


def test_kept_splines_match_a_fresh_solve():
    builder = _table_builder()
    spec, (xs, ms) = builder.spec, builder.profile.table
    for n in (801, 201, 401, 801):
        ds = builder.dressed(n)
        x = ds.grid.x
        for got, ys in ((ds.bundle.m, ms), (ds.g, spec.g_table[1]), (ds.a, spec.gauge_a[2])):
            assert got.tobytes() == Spline(xs, ys)(x).tobytes()
