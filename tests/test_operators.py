import numpy as np
import pytest

from pdmph import (CoefficientSet, ConfigError, GeneratingSpec, InvalidDomainError,
                   MassProfile, SystemBuilder, build_d, build_d_tilde,
                   build_d_tilde_dagger, build_eta_tilde, build_h_prime,
                   build_h_prime_dagger, default_probes, make_family,
                   make_grid, observed_order, run_suite)
from pdmph.grid import WEIGHTS, cumint, diff_matrix
from pdmph.operators import _dirichlet_stencil, build_eta_tilde_block, build_h_prime_block
from pdmph.verify import _identity


def free_setup(n=401, domain=(-8.0, 8.0)):
    g = make_grid(*domain, n)
    b = MassProfile.constant().sample(g)
    z = np.zeros(g.n)
    return g, b, z


def dressed(family="morse", alpha=1.0, profile=None, domain=(-2.0, 10.0), n=801, **kw):
    profile = profile or MassProfile.constant()
    return make_family(GeneratingSpec(family, alpha=alpha, **kw), profile,
                       make_grid(*domain, n))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def test_free_d_is_derivative():
    # constant U, so D~ = U d/dx - i a and D~^ = -U d/dx + i a
    g, b, z = free_setup()
    a = 0.5 * np.cos(g.x)
    d = build_d_tilde(z + 0j, a, b, g)
    dd = build_d_tilde_dagger(z + 0j, a, b, g)
    v = np.sin(g.x)
    w = g.interior_mask(4)
    # 4th-order truncation at h = 0.04 is ~8.5e-8
    assert np.abs((d.mat @ v - (b.U * np.cos(g.x) - 1j * a * v)))[w].max() < 5e-7
    assert np.abs((dd.mat @ v + (b.U * np.cos(g.x) - 1j * a * v)))[w].max() < 5e-7


def test_d_tilde_shift_is_exact():
    ds = dressed()
    dmat = build_d(ds.phi, ds.bundle, ds.grid)
    dt = build_d_tilde(ds.phi, ds.g, ds.bundle, ds.grid)  # a = g convention
    diff = dt.mat - dmat.mat
    assert np.abs(diff - np.diag(-1j * ds.g)).max() == 0.0


def test_d_annihilates_analytic_state():
    # phi = -1/(2x) + i x annihilates sqrt(x) exp(-i x^2/2) analytically
    g = make_grid(0.1, 10.0, 2001)
    b = MassProfile.constant().sample(g)
    phi = -1.0 / (2.0 * g.x) + 1j * g.x
    psi = np.sqrt(g.x) * np.exp(-0.5j * g.x**2)
    d = build_d(phi, b, g)
    w = g.interior_mask(8)
    res = np.abs((d.mat @ psi))[w].max() / np.abs(psi[w]).max()
    assert res < 1e-5


def test_adjoint_route_matches_conjugate_transpose_on_window():
    # the differential-expression adjoint and the matrix conjugate transpose
    # must agree on smooth probe actions at the stencil order
    errs, hs = [], []
    for n in (201, 401, 801):
        ds = dressed(n=n, profile=MassProfile.rational(), domain=(-4.0, 4.0),
                     gauge_a=("scaled-g", 0.5))
        d = build_d_tilde(ds.phi, ds.a, ds.bundle, ds.grid)
        dd = build_d_tilde_dagger(ds.phi, ds.a, ds.bundle, ds.grid)
        w = ds.grid.interior_mask(8, xmargin=8 * 8.0 / 200)
        worst = 0.0
        for v in default_probes(ds.grid):
            worst = max(worst, np.abs(((dd.mat - d.mat.conj().T) @ v))[w].max())
        errs.append(worst)
        hs.append(ds.grid.h)
    assert observed_order(hs, errs) >= 3.5


# ---------------------------------------------------------------------------
# coefficient set
# ---------------------------------------------------------------------------

def test_coefficient_values_harmonic():
    ds = dressed("harmonic3d", domain=(0.1, 10.0), n=991)
    c = CoefficientSet.build(ds.f, ds.fp, ds.g, ds.gp, ds.a, ds.ap, ds.bundle)
    i2 = ds.grid.index_nearest(2.0)
    i1 = ds.grid.index_nearest(1.0)
    assert c.K[i2] == pytest.approx(2.0j, abs=1e-12)
    assert c.L[i1] == pytest.approx(0.75 - 1.0j, abs=1e-12)


def test_adjoint_coefficients_for_real_gauge():
    ds = dressed("scarf2", gauge_a=("scaled-g", 1.0), domain=(-8.0, 8.0))
    c = CoefficientSet.build(ds.f, ds.fp, ds.g, ds.gp, ds.a, ds.ap, ds.bundle)
    # the formal adjoint's own coefficients, built from conj(a), coincide
    # with the direct ones for a real gauge
    U, Up, ac = ds.bundle.U, ds.bundle.Up, np.conj(ds.a + 0j)
    M2 = U * Up - 1j * U * ac
    N2 = 1j * (Up * ac + U * ds.ap) + ac * ac
    assert np.abs(M2 - c.M1).max() == 0.0
    assert np.abs(N2 - c.N1).max() == 0.0
    # and N1 is genuinely complex, so conjugation would NOT reproduce N2
    assert np.abs(N2 - np.conj(c.N1)).max() > 1e-3


def test_k_formula():
    ds = dressed("morse", gauge_a=("scaled-g", 0.5))
    c = CoefficientSet.build(ds.f, ds.fp, ds.g, ds.gp, ds.a, ds.ap, ds.bundle)
    b = ds.bundle
    ref = b.U * b.Up + 1j * b.U * (ds.g - ds.a)
    assert np.abs(c.K - ref).max() == 0.0


# ---------------------------------------------------------------------------
# metric operator
# ---------------------------------------------------------------------------

def test_free_eta_is_minus_second_derivative():
    g, b, z = free_setup()
    c = CoefficientSet.build(z, z, z, z, z, z, b)
    eta = build_eta_tilde(c, b, g)
    dt = build_d_tilde(z + 0j, z, b, g)
    dtd = build_d_tilde_dagger(z + 0j, z, b, g)
    v = np.sin(g.x)
    w = g.interior_mask(8)
    assert np.abs((eta.mat @ v - np.sin(g.x)))[w].max() < 1e-6
    # the dual construction, applied as the composition D~^ (D~ v)
    assert np.abs((dtd @ (dt @ v) - np.sin(g.x)))[w].max() < 1e-6


def test_free_particle_identities_exact():
    # with phi = 0, U = 1: eta = H' = H'^ entrywise, so the intertwining
    # defect is exactly zero, boundary rows included
    g, b, z = free_setup(n=201)
    c = CoefficientSet.build(z, z, z, z, z, z, b)
    eta = build_eta_tilde(c, b, g)
    hp = build_h_prime(np.zeros(g.n, complex), z, z, b, g)
    hpd = build_h_prime_dagger(np.zeros(g.n, complex), z, z, b, g)
    assert np.abs(eta.mat - hp.mat).max() == 0.0
    assert np.abs(hp.mat - hpd.mat).max() == 0.0
    delta = eta.mat @ hp.mat - hpd.mat @ eta.mat
    assert np.abs(delta).max() == 0.0


def test_hermitian_limit_adjoint_is_entrywise_equal():
    # a = 0 and V real: the adjoint Hamiltonian matrix equals H' entrywise
    g = make_grid(-4.0, 4.0, 401)
    xs = np.array([-5.0, -4.0, 4.0, 5.0])
    ds = make_family(GeneratingSpec("custom-table", g_table=(xs, np.full(4, 1.0))),
                     MassProfile.rational(), g)
    hp = build_h_prime(ds.V, ds.a, ds.ap, ds.bundle, g)
    hpd = build_h_prime_dagger(ds.V, ds.a, ds.ap, ds.bundle, g)
    # spline-sampled constant g leaves only eps-level imaginary residue in V
    assert np.abs(hp.mat - hpd.mat).max() < 1e-12


# ---------------------------------------------------------------------------
# parity metric
# ---------------------------------------------------------------------------

def parity_builder(domain=(-6.0, 6.0), profile=None, gauge=("zero",)):
    return SystemBuilder(profile or MassProfile.constant(), *domain,
                         spec=GeneratingSpec("scarf2", gauge_a=gauge))


def test_parity_needs_symmetric_grid():
    with pytest.raises(InvalidDomainError):
        _identity("parity-eta", parity_builder((0.1, 6.0)), [301])
    with pytest.raises(InvalidDomainError):
        _identity("parity-eta", parity_builder(), [300])


def test_suite_refuses_parity_eta_on_an_asymmetric_grid():
    # no silent skip: a library caller gets the config's refusal, before any
    # check runs (the check itself refuses a direct caller, above)
    for domain, ns in (((0.1, 6.0), [101, 201, 401]), ((-6.0, 6.0), [100, 201, 401])):
        with pytest.raises(ConfigError, match="parity-eta needs a grid symmetric about 0"):
            run_suite(parity_builder(domain), ["eq25", "parity-eta"], ns)


def test_eta_parity_trivial_gauge_is_parity():
    (r,) = _identity("parity-eta", parity_builder(), [301])
    assert r.residuals == [0.0]
    assert r.verdict == "pass"


def test_eta_parity_hermitian_for_even_gauge():
    (r,) = _identity("parity-eta", parity_builder((-8.0, 8.0), MassProfile.rational(),
                                                  ("scaled-g", 1.0)), [801])
    assert r.residuals[0] < 1e-12
    assert r.verdict == "pass"


def test_eta_parity_broken_by_odd_gauge():
    xs = np.linspace(-9.0, 9.0, 181)
    (r,) = _identity("parity-eta", parity_builder((-8.0, 8.0), gauge=("table", xs, xs)), [801])
    assert r.residuals[0] > 0.1   # an odd gauge violates evenness
    assert r.verdict == "fail"


# ---------------------------------------------------------------------------
# antilinear similarity
# ---------------------------------------------------------------------------

def test_tau_residual_exact_for_zero_phase():
    # with a = 0 the conjugated matrix equals the adjoint matrix entrywise,
    # for any complex potential
    ds = dressed("scarf2", domain=(-8.0, 8.0))
    hp = build_h_prime(ds.V, ds.a, ds.ap, ds.bundle, ds.grid)
    hpd = build_h_prime_dagger(ds.V, ds.a, ds.ap, ds.bundle, ds.grid)
    assert np.abs(np.conj(hp.mat) - hpd.mat).max() == 0.0
    b = SystemBuilder(MassProfile.constant(), -8.0, 8.0,
                      spec=GeneratingSpec("scarf2"))
    assert _identity("tau", b, [201, 401, 801])[0].residuals == [0.0, 0.0, 0.0]


def test_tau_residual_converges_for_gauged_system():
    b = SystemBuilder(MassProfile.constant(), -2.0, 10.0,
                      spec=GeneratingSpec("morse", gauge_a=("scaled-g", 1.0)))
    assert _identity("tau", b, [201, 401, 801])[0].observed_order >= 3.5


def test_tau_phase_definition():
    ds = dressed("morse", gauge_a=("scaled-g", 1.0))
    ref = -2.0 * cumint(ds.a / ds.bundle.U, ds.grid, ds.anchor)
    assert np.abs(ds.tau_phase - ref).max() == 0.0


# ---------------------------------------------------------------------------
# Dirichlet blocks
# ---------------------------------------------------------------------------

def test_dirichlet_block_symmetric():
    g = make_grid(-6, 6, 301)
    D2 = _dirichlet_stencil(g, 2).mat
    assert np.abs(D2 - D2.T).max() == 0.0


def test_dirichlet_block_derivative_orders():
    with pytest.raises(InvalidDomainError):
        _dirichlet_stencil(make_grid(-6, 6, 301), 3).mat


# ---------------------------------------------------------------------------
# every builder against the dense written sum of its formula
# ---------------------------------------------------------------------------

def _dense_stencil(grid, order):
    """diff_matrix written out: central rows, then each edge row's one-sided
    weights, every weight rounded as (k / 12.0) / h**order."""
    n, w = grid.n, WEIGHTS[order]
    nb = len(w[0])
    D = np.zeros((n, n))
    for i in range(n):
        c0 = 0 if i < 2 else n - nb if i >= n - 2 else i - 2
        key = c0 - i if i < 2 or i >= n - 2 else -2
        D[i, c0:c0 + len(w[key])] = np.array(w[key]) / 12.0 / grid.h**order
    return D


def _dense_dirichlet(grid, order):
    """The interior-block stencil written out, with its two odd images."""
    m = grid.n - 2
    c = np.array(WEIGHTS[order][-2]) / (12.0 * grid.h if order == 1 else 12.0 * grid.h * grid.h)
    D = sum(np.diag(np.full(m - abs(o), ck), o) for o, ck in zip(range(-2, 3), c))
    D[0, 0] -= c[0]
    D[m - 1, m - 1] -= c[4]
    return D


def _written(terms, diagonal_terms):
    """sum_j s_j (c_j D_j) left to right, then each diagonal term, densely."""
    M = sum(s * (c[:, None] * D) for s, c, D in terms)
    for t in diagonal_terms:
        M = M + np.diag(t)
    return M


@pytest.mark.parametrize("system", ["morse/rational", "free/constant"])
def test_every_builder_is_the_dense_written_sum(system):
    if system == "free/constant":
        inp = SystemBuilder(MassProfile.constant(), -8.0, 8.0).inputs(101)
    else:
        inp = make_family(GeneratingSpec("morse", gauge_a=("scaled-g", 0.5)),
                          MassProfile.rational(), make_grid(-2.0, 10.0, 101))
        assert np.abs(inp.a).max() > 0.0
    g, b, U, V, a = inp.grid, inp.bundle, inp.bundle.U, inp.V, inp.a
    c = CoefficientSet.build(inp.f, inp.fp, inp.g, inp.gp, a, inp.ap, b)
    D1, D2 = _dense_stencil(g, 1), _dense_stencil(g, 2)
    s = slice(1, g.n - 1)
    B1, B2 = _dense_dirichlet(g, 1), _dense_dirichlet(g, 2)
    cases = [
        (diff_matrix(g, 1), D1), (diff_matrix(g, 2), D2),
        (build_d(inp.phi, b, g), _written([(1.0, U, D1)], [inp.phi])),
        (build_d_tilde(inp.phi, a, b, g), _written([(1.0, U, D1)], [inp.phi, -1j * a])),
        (build_d_tilde_dagger(inp.phi, a, b, g),
         _written([(-1.0, U, D1)], [-b.Up, np.conj(inp.phi), 1j * np.conj(a)])),
        (build_eta_tilde(c, b, g), _written([(-1.0, U**2, D2), (-2.0, c.K, D1)], [c.L])),
        (build_h_prime(V, a, inp.ap, b, g),
         _written([(-1.0, U**2, D2), (-2.0, c.M1, D1)], [c.N1, V])),
        (build_h_prime_dagger(V, a, inp.ap, b, g),
         _written([(-1.0, U**2, D2), (-2.0, c.M1, D1)], [c.N1, np.conj(V)])),
        (build_h_prime_block(V, a, inp.ap, b, g),
         _written([(-1.0, U[s]**2, B2), (-2.0, c.M1[s], B1)], [c.N1[s], V[s]])),
        (build_eta_tilde_block(c, b, g),
         _written([(-1.0, U[s]**2, B2), (-2.0, c.K[s], B1)], [c.L[s]])),
    ]
    for k, (op, dense) in enumerate(cases):
        assert np.array_equal(op.mat, dense), k
        assert np.array_equal(op.H.mat, dense.conj().T), k
