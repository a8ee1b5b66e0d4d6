import dataclasses
import functools
import json
import tracemalloc
import weakref

import numpy as np
import pytest

import pdmph.verify as verify_module

from pdmph import (CATALOG, FAMILIES, BudgetExceededError, GeneratingSpec,
                   MassProfile, SystemBuilder, apply_corruption, build_d,
                   build_d_tilde, build_h_prime_block, diff_matrix, eigendecompose,
                   make_grid, residual_eq28, run_suite)
from pdmph.cli import main
from pdmph.errors import ConfigError, InvalidDomainError
from pdmph.operators import OperatorMatrix
from pdmph.pipeline import assemble_potential
from pdmph.verify import CHECKS, Check, CheckLevel, _identity, _spectral, detuned

NS = [301, 501, 1001]
NS_FINE = [501, 1001, 2001]


def builder(family="morse", profile=None, domain=(-2.0, 10.0), **kw):
    return SystemBuilder(profile or MassProfile.constant(),
                         domain[0], domain[1],
                         spec=GeneratingSpec(family, **kw))


def eig_row(b, key, eig_levels):
    """The one result of eig-level row `key` at `eig_levels`, through its driver."""
    (result,) = _spectral(key, b, eig_levels)
    return result


def hermitian_builder(c=1.3, domain=(-2.0, 10.0), profile=None):
    xs = np.array([domain[0] - 1, domain[0], domain[1], domain[1] + 1])
    return SystemBuilder(profile or MassProfile.constant(),
                         domain[0], domain[1],
                         spec=GeneratingSpec("custom-table", g_table=(xs, np.full(4, c))))


# ---------------------------------------------------------------------------
# coefficient-matching checks and negative controls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family,domain", [("morse", (-2.0, 10.0)),
                                           ("scarf2", (-8.0, 8.0))])
def test_eq25_eq26_pass(family, domain):
    b = builder(family, domain=domain)
    (r25,), (r26,) = _identity("eq25", b, NS), _identity("eq26", b, NS)
    for r in (r25, r26):
        assert r.verdict == "pass"
        assert r.observed_order is None or r.observed_order >= 3.5


def test_eq25_hermitian_limit_exact():
    (r,) = _identity("eq25", hermitian_builder(), NS)
    assert r.verdict == "pass"
    assert r.residuals[-1] < 1e-13


def test_eq25_negative_control():
    b = builder("scarf2", domain=(-8.0, 8.0))
    b.corruption = ("v-imag-flip", 0.0)
    (r,) = _identity("eq25", b, NS)
    assert r.verdict == "fail"
    assert r.residuals[-1] >= 1e-2


def test_eq26_negative_control():
    b = builder("scarf2", domain=(-8.0, 8.0))
    b.corruption = ("v-add-linear", 0.1)
    (r,) = _identity("eq26", b, NS)
    assert r.verdict == "fail"
    assert r.residuals[-1] >= 1e-2


def test_corruption_unknown_target():
    b = builder()
    b.corruption = ("nope", 0.1)
    with pytest.raises(InvalidDomainError):
        b.dressed(301)


# ---------------------------------------------------------------------------
# zeroth-order balance
# ---------------------------------------------------------------------------

def test_eq28_constant_g_is_zero():
    inp = hermitian_builder().dressed(801)
    r = residual_eq28(inp)
    assert r["max_printed"] < 1e-10 * max(1.0, np.abs(inp.f).max())


def test_eq28_harmonic_frozen_value():
    # constant mass, g = x, f = -1/(2x): surviving printed terms evaluate to
    # alpha (1 - x)/x^3, i.e. -0.125 at x = 2 (direct substitution oracle)
    b = builder("harmonic3d", domain=(0.1, 10.0))
    inp = b.dressed(1981)  # node exactly at x = 2
    r = residual_eq28(inp)
    i2 = inp.grid.index_nearest(2.0)
    assert inp.grid.x[i2] == pytest.approx(2.0, abs=1e-12)
    assert r["printed"][i2] == pytest.approx(-0.125, abs=1e-4)
    # the corrected variant vanishes identically for pipeline systems (away
    # from the left edge, where triple finite differencing of 1/x dominates)
    assert abs(r["corrected"][i2]) < 1e-8


def test_eq28_sensitive_to_f():
    b = builder("harmonic3d", domain=(0.1, 10.0))
    ds = b.dressed(801)
    base = residual_eq28(ds)
    pert = residual_eq28(apply_corruption(ds, "f-perturb", 0.1))
    w = base["window"]
    assert np.abs(base["printed"][w] - pert["printed"][w]).max() > 1e-3


# ---------------------------------------------------------------------------
# intertwining defect
# ---------------------------------------------------------------------------

def test_intertwining_pipeline_defect_vanishes():
    (r,) = _identity("intertwining", builder(), NS)
    assert r.verdict == "pass"
    assert r.notes["defect_regime"] == "vanishing"
    assert r.notes["residual_decay_ratio"] > 10


def test_intertwining_hermitian_limit():
    (r,) = _identity("intertwining", hermitian_builder(), NS)
    assert r.verdict == "pass"
    assert r.notes["defect_regime"] == "vanishing"


def test_intertwining_detuned_constant_f():
    # constant detuned f: genuine multiplication-operator defect whose symbol
    # matches the sampled zeroth-order balance with constant i (both forms
    # coincide when f' = 0)
    (r,) = _identity("intertwining", builder(), NS_FINE, detune=0.7)
    assert r.verdict == "pass"
    assert r.notes["defect_regime"] == "genuine"
    assert r.notes["probe_symbol_deviation_rel"][-1] <= 1e-6
    c = complex(*r.notes["c_printed"][-1])
    assert abs(c - 1j) < 1e-5
    assert r.notes["c_printed_stability"] <= 1e-3
    cc = complex(*r.notes["c_corrected"][-1])
    assert abs(cc - c) < 1e-12


def test_intertwining_detuned_zero_f():
    # f = 0 over an exponential g leaves a genuine defect (the surviving
    # zeroth-order terms reduce to the third derivative of g)
    (r,) = _identity("intertwining", builder(), NS_FINE, detune=0.0)
    assert r.verdict == "pass"
    assert r.notes["defect_regime"] == "genuine"


def test_intertwining_detuned_zero_f_linear_g_is_exact():
    # over the linear-g family the same detune has identically zero symbol,
    # so the defect still vanishes
    (r,) = _identity("intertwining", builder("harmonic3d", domain=(0.25, 10.0)), NS,
                     detune=0.0)
    assert r.verdict == "pass"
    assert r.notes["defect_regime"] == "vanishing"


def test_intertwining_nonconstant_detune_exposes_printed_term():
    # with f f' != 0 the corrected zeroth-order form still fits the measured
    # symbol with constant i while the printed form does not fit at all: the
    # two differ exactly by the first term carrying g' instead of g
    (r,) = _identity("intertwining", builder("harmonic3d", domain=(0.25, 10.0)), NS,
                     detune=lambda x: 0.4 + 0.05 * x)
    assert r.notes["defect_regime"] == "genuine"
    cc = complex(*r.notes["c_corrected"][-1])
    fit_c = r.notes["fit_residual_corrected"][-1]
    fit_p = r.notes["fit_residual_printed"][-1]
    assert abs(cc - 1j) < 1e-4
    assert fit_c < 1e-4
    assert fit_p > 100 * fit_c


def test_intertwining_free_particle_exact():
    b = SystemBuilder(MassProfile.constant(), -8.0, 8.0)
    (r,) = _identity("intertwining", b, NS)
    assert r.verdict == "pass"
    assert all(v == 0.0 for v in r.residuals)


@pytest.mark.parametrize("detune", [None, 0.7])
def test_intertwining_extra_is_a_few_numbers_per_level(detune):
    # each level's extra is its zeroth-order analysis alone: numbers, and no
    # mean symbol, mask or level input outlives its level (the builder keeps
    # its stored level, so the driver is fed copies)
    b, refs = builder(), []

    def levels():
        for n in NS:
            inp = (dataclasses.replace(b.inputs(n)) if detune is None
                   else detuned(b.dressed(n), detune))
            refs.append(weakref.ref(inp))
            yield inp
    _, extras = verify_module._refine("intertwining", levels(), verify_module._xmargin(b, NS))
    assert [ref() is None for ref in refs] == [True] * len(NS)
    for extra in extras:
        assert list(extra) == ["symbol_scale", "probe_symbol_deviation_rel", "c_printed",
                               "fit_residual_printed", "c_corrected", "fit_residual_corrected"]
        assert all(type(v) in (float, complex) for v in extra.values())


def test_detune_is_recorded_as_the_first_note():
    b = builder()
    for detune, recorded in ((lambda x: 0.4 + 0.05 * x, "callable"), (0.3, 0.3), (None, None)):
        (r,) = _identity("intertwining", b, NS, detune=detune)
        assert list(r.notes)[:4] == ["detune", "symbol_scale", "probe_symbol_deviation_rel",
                                     "c_printed"]
        assert r.notes["detune"] == recorded


def test_a_row_that_reads_no_detune_refuses_one(monkeypatch):
    evaluated = []
    monkeypatch.setattr(verify_module, "_refine", lambda *a, **kw: evaluated.append(a))
    with pytest.raises(ConfigError, match="detune: not read by check 'eq25'"):
        _identity("eq25", builder(), NS, detune=0.3)
    assert evaluated == []


def _stacked_symbol_summary(syms):
    """The symbol analysis over all probes at once, as an (8, n) array."""
    arr = np.array(syms)
    filled = ~np.isnan(arr)
    cnt = filled.sum(axis=0)
    have = cnt > 0
    S = np.full(arr.shape[1], np.nan + 0j)
    S[have] = np.nansum(np.where(filled, arr, 0.0), axis=0)[have] / cnt[have]
    symbol_scale = np.abs(S[have]).max() if have.any() else 0.0
    dev = 0.0
    for i in range(len(syms)):
        for j in range(i + 1, len(syms)):
            both = ~np.isnan(syms[i]) & ~np.isnan(syms[j])
            if both.any():
                dev = max(dev, float(np.abs(syms[i][both] - syms[j][both]).max()))
    return S, have, dev, float(symbol_scale)


@pytest.mark.parametrize("mass,detune,regime", [("rational", None, "vanishing"),
                                               ("rational", 0.3, "vanishing"),
                                               ("constant", 0.3, "genuine")])
def test_streamed_symbol_summary_matches_stacked_formula(monkeypatch, mass, detune, regime):
    # morse at the default levels, in both regimes (a rational mass keeps
    # the detuned defect under its rounding floor): the per-level summary
    # is bit for bit the one of the stacked symbols
    seen = []
    summary = verify_module._symbol_summary

    def spy(syms):
        seen.append((_stacked_symbol_summary(syms), summary(syms)))
        return seen[-1][1]

    monkeypatch.setattr(verify_module, "_symbol_summary", spy)
    (r,) = _identity("intertwining", builder(profile=getattr(MassProfile, mass)()),
                     [1001, 2001, 4001], detune=detune)
    assert r.notes["defect_regime"] == regime
    assert len(seen) == 3
    for (S0, have0, dev0, _), (S, have, dev) in seen:
        assert S.tobytes() == S0.tobytes()
        assert np.array_equal(have, have0)
        assert dev == dev0
    assert r.notes["symbol_scale"] == [scale for (*_, scale), _ in seen[-2:]]
    assert r.notes["probe_symbol_deviation_rel"] == [
        dev / max(scale, 1e-300) for (_, _, dev, scale), _ in seen[-2:]]


def test_symbol_summary_adds_from_zero():
    # the stacked sum starts from +0, so a node where every probe gives -0
    # sums to +0; probes undefined at a node leave NaN there
    syms = [np.array([-0.0 - 0.0j, np.nan, 1.0]), np.array([-0.0 - 0.0j, np.nan, 3.0])]
    S, have, dev = verify_module._symbol_summary(syms)
    S0, have0, dev0, _ = _stacked_symbol_summary(syms)
    assert S.tobytes() == S0.tobytes() and list(have) == [True, False, True]
    assert dev == dev0 == 2.0


# ---------------------------------------------------------------------------
# the refinement driver
# ---------------------------------------------------------------------------

def _bits(levels):
    return [(lv.n, lv.h.hex(), float(lv.residual).hex(), float(lv.floor).hex())
            for lv in levels]


def _check_levels(b, key, **options):
    return [r.levels for r in _identity(key, b, NS, **options)]


REFINE_ROWS = [k for k, row in CHECKS.items() if row.levels == "refine"]


@pytest.mark.parametrize("key,kind", [(k, "family") for k in REFINE_ROWS]
                         + [(k, "free") for k in REFINE_ROWS if not CHECKS[k].dressed])
def test_refine_evaluates_the_level_inputs_it_is_fed(key, kind):
    # fed the builder's levels, the driver gives each check's levels bit for
    # bit (a row with `pick` reports that level only: eq28 its finest,
    # parity-eta, on a grid symmetric about 0, its coarsest)
    if key == "parity-eta":
        b = builder("scarf2", domain=(-8.0, 8.0), gauge_a=("scaled-g", 1.0))
        inputs = [b.dressed(n) for n in NS]
    elif kind == "family":
        b = builder("morse", gauge_a=("scaled-g", 1.0))
        inputs = [b.dressed(n) for n in NS]
    else:
        b = SystemBuilder(MassProfile.rational(), -4.0, 4.0)
        inputs = [b.inputs(n) for n in NS]
    got, _ = verify_module._refine(key, inputs, verify_module._xmargin(b, NS))
    want = _check_levels(b, key)
    pick = CHECKS[key].pick or slice(None)
    assert len(got) == len(want) == len(CHECKS[key].results)
    assert [_bits(g[pick]) for g in got] == [_bits(w) for w in want]


def test_refine_on_detuned_copies_is_the_detuned_intertwining_row():
    b = builder()
    (got,), _ = verify_module._refine("intertwining", [detuned(b.dressed(n), 0.3) for n in NS],
                                      verify_module._xmargin(b, NS))
    (want,) = _check_levels(b, "intertwining", detune=0.3)
    assert _bits(got) == _bits(want)


# ---------------------------------------------------------------------------
# ground state, gauge, tau
# ---------------------------------------------------------------------------

def test_groundstate_small_levels():
    r1, r2 = _identity("groundstate", builder(), NS)
    assert r1.observed_order >= 3.5 and r2.observed_order >= 3.5
    assert r1.residuals[-1] < 1e-4 and r2.residuals[-1] < 1e-3


def test_groundstate_printed_state_does_not_annihilate():
    # the printed-ground-state finding feeds the catalog's printed state
    # through the annihilation residual at the two coarsest levels
    _, _, findings = run_suite(builder("morse", domain=(-2.0, 10.0)), [], NS)
    finding, = [f for f in findings if f["id"] == "printed-ground-state"]
    res = finding["printed_state_residuals"]
    # O(1) residual that does not decay under refinement
    assert len(res) == 2 and res[-1] > 1e-1
    assert res[0] / res[-1] < 2.0


def test_gauge_equivalence_trivial_and_gauged():
    (r0,) = _identity("gauge", builder(), NS)
    assert r0.verdict == "pass" and r0.residuals[-1] == 0.0
    (rg,) = _identity("gauge", builder(gauge_a=("scaled-g", 1.0)), NS_FINE)
    assert rg.verdict == "pass" and rg.observed_order >= 3.5
    assert rg.notes["max_unit_modulus_defect"] < 1e-12


def test_gauge_identity_holds_for_arbitrary_smooth_state():
    # operator-level identity: D~(Lambda v) = Lambda (D v) for any smooth v
    ds = builder("morse", gauge_a=("scaled-g", 1.0)).dressed(801)
    d = build_d(ds.phi, ds.bundle, ds.grid)
    dt = build_d_tilde(ds.phi, ds.a, ds.bundle, ds.grid)
    v = np.exp(-((ds.grid.x - 3.0) / 2.0) ** 2) * (1.0 + 0.3 * np.sin(ds.grid.x))
    w = ds.grid.interior_mask(8)
    res = np.abs((dt.mat @ (ds.Lambda * v) - ds.Lambda * (d.mat @ v)))[w].max()
    assert res < 1e-6


def test_tau_check_passes():
    (r0,) = _identity("tau", builder(), NS)
    assert r0.verdict == "pass" and r0.residuals[-1] == 0.0
    (rg,) = _identity("tau", builder(gauge_a=("scaled-g", 1.0)), NS)
    assert rg.observed_order >= 3.5


# ---------------------------------------------------------------------------
# metric checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile,domain", [
    (MassProfile.constant(), (-2.0, 10.0)),
    (MassProfile.rational(), (-4.0, 4.0)),
])
def test_eta_hermiticity_and_dual(profile, domain):
    b = builder("morse", profile=profile, domain=domain)
    rh, rd = _identity("eta-hermiticity", b, NS)
    assert rh.verdict == "pass"
    assert rd.verdict == "pass"


def test_parity_eta_check():
    b = builder("scarf2", domain=(-8.0, 8.0), gauge_a=("scaled-g", 1.0))
    (r,) = _identity("parity-eta", b, [801])
    assert r.verdict == "pass"
    # its window is every node, whatever the margin
    assert verify_module._parity(b.dressed(801), 4.0)[1].all()


# ---------------------------------------------------------------------------
# spectral checks
# ---------------------------------------------------------------------------

def test_box_spectrum_oracle():
    # Hermitian limit: E_k = (k pi / L)^2 - c^2 + delta
    c, delta, L = 1.3, 0.25, 12.0
    xs = np.array([-3.0, -2.0, 10.0, 11.0])
    b = SystemBuilder(MassProfile.constant(), -2.0, 10.0,
                      spec=GeneratingSpec("custom-table", delta=delta,
                                          g_table=(xs, np.full(4, c))))
    inp = b.inputs(1001)
    sp = eigendecompose(build_h_prime_block(inp.V, inp.a, inp.ap, inp.bundle, inp.grid),
                        inp.grid)
    assert sp.solver == "eigh"
    k = np.arange(1, 11)
    exact = (k * np.pi / L) ** 2 - c**2 + delta
    got = np.sort(sp.eigenvalues.real)[:10]
    assert np.abs((got - exact) / exact).max() < 1e-6


def test_eigendecompose_budget():
    g = make_grid(-1, 1, 5001)
    fake = OperatorMatrix.from_parts(4999, [])
    with pytest.raises(BudgetExceededError):
        eigendecompose(fake, g)


@pytest.mark.parametrize("family,mass", [(f, k) for f in ("free",) + FAMILIES
                                         for k in ("constant", "rational")])
def test_block_hermiticity_scale_and_realness_from_diagonals(family, mass):
    # eigendecompose reads the scale and the realness from the stored
    # diagonals instead of the dense block; every entry off the diagonals is
    # zero, so the values must be exactly the dense ones
    profile = getattr(MassProfile, mass)()
    if family == "free":
        b = SystemBuilder(profile, -8.0, 8.0)
    else:
        b = builder(family, profile=profile, domain=CATALOG[family][1])
    inp = b.inputs(101)
    A = build_h_prime_block(inp.V, inp.a, inp.ap, inp.bundle, inp.grid)
    M = A.mat
    assert np.abs(A.data).max() == np.abs(M).max()
    assert A.data.imag.any() == (np.abs(M.imag).max() != 0.0)


def _peak_in_units(run, m):
    """Peak memory traced while `run()` runs, in complex m x m arrays."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16.0 * m * m)


@pytest.mark.parametrize("family,profile,solver", [("morse", "rational", "eig"),
                                                   ("free", "constant", "eigh")])
def test_spectral_working_set(family, profile, solver):
    # the dense block, the solver's output and the residual of the
    # backward-error test (formed after the block is freed; measured 3.05
    # and 3.06); then eq29, reading the cached eigenvectors: the metric
    # action, formed once and conjugated in place for it, and G (measured
    # 2.05 and 2.06; 3.04 with a conjugated copy of the eigenvectors and
    # m x m pairing arrays), with the reductions over G and C V in blocks.
    # The real eigenvectors of the eigh route are made complex once (3.50
    # and 3.05 with numpy casting them again for each product)
    profile = getattr(MassProfile, profile)()
    if family == "free":
        b = SystemBuilder(profile, -3.0, 4.0)
    else:
        b = builder(family, profile=profile, domain=(-3.0, 4.0))
    b.inputs(501)   # the dressed system is built before the traced solve
    assert _peak_in_units(lambda: b.spectral(501), 499) <= 3.25
    assert b.spectral(501).solver == solver
    assert _peak_in_units(lambda: eig_row(b, "eq29", [501]), 499) <= 2.25


@pytest.mark.parametrize("family,profile,solver", [("morse", "rational", "eig"),
                                                   ("free", "constant", "eigh")])
def test_eq29_leaves_the_eigenvectors_unchanged(monkeypatch, family, profile, solver):
    # the builder caches each decomposition read-only, so no check writes the
    # eigenpairs another check reads, not even in place and back; spectrum
    # and eq29 leave the decomposition they read bit-identical
    solved, real = [], verify_module.eigendecompose

    def recording(block, grid):
        sp = real(block, grid)
        solved.append((sp, sp.eigenvalues.copy(), sp.eigenvectors.copy()))
        return sp

    monkeypatch.setattr(verify_module, "eigendecompose", recording)
    profile = getattr(MassProfile, profile)()
    if family == "free":
        b = SystemBuilder(profile, -3.0, 4.0)
    else:
        b = builder(family, profile=profile, domain=(-3.0, 4.0))
    eig_row(b, "spectrum", [301, 501])
    eig_row(b, "eq29", [501])
    sp, w, v = solved[-1]
    assert len(solved) == 2 and b.spectral(501) is sp and sp.solver == solver
    for stored, copied in ((sp.eigenvalues, w), (sp.eigenvectors, v)):
        assert not stored.flags.writeable
        assert stored.tobytes() == copied.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        b.spectral(501).eigenvectors[0, 0] = 0.0


def _spectral_checks(family, profile):
    """Spectrum at 301/501 and eq29 at 501 on [-3, 4], as exact reprs, and
    the number of subnormal parts of the eigenvectors at 501."""
    profile = getattr(MassProfile, profile)()
    if family == "free":
        b = SystemBuilder(profile, -3.0, 4.0)
    else:
        b = builder(family, profile=profile, domain=(-3.0, 4.0))
    results = [eig_row(b, "spectrum", [301, 501]).to_dict(),
               eig_row(b, "eq29", [501]).to_dict()]
    V = b.spectral(501).eigenvectors
    parts = np.concatenate([V.real.ravel(), V.imag.ravel()])
    return repr(results), int(np.count_nonzero((parts != 0)
                                               & (np.abs(parts) < np.finfo(float).tiny)))


@pytest.mark.parametrize("family,profile,subnormal", [("morse", "rational", True),
                                                      ("free", "constant", False)])
def test_flushing_subnormal_eigenvector_parts_changes_no_bit(monkeypatch, family, profile,
                                                            subnormal):
    # eigendecompose sets the eigenvectors' subnormal parts to 0; against the
    # unflushed route every spectrum and eq29 residual and note is the same
    # to the bit (morse/rational has over a thousand such parts at 501)
    flushed, none_left = _spectral_checks(family, profile)
    monkeypatch.setattr(verify_module, "_flush_subnormals", lambda v: None)
    unflushed, found = _spectral_checks(family, profile)
    assert none_left == 0 and (found > 1000 if subnormal else found == 0)
    assert flushed == unflushed


def test_eq29_applies_each_operator_to_the_eigenbasis_once(monkeypatch):
    # W eta V is formed once and read by the defect and by G: the metric
    # block, H' and H'^H together apply to 4m eigenbasis columns per call
    # (5m when the defect formed W eta V again)
    columns, real = [], OperatorMatrix.apply

    def counting(op, operand):
        columns.append(1 if np.ndim(operand) == 1 else np.shape(operand)[1])
        return real(op, operand)

    b = builder("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0))
    m = len(b.spectral(201).eigenvalues)
    monkeypatch.setattr(OperatorMatrix, "apply", counting)
    monkeypatch.setattr(OperatorMatrix, "__matmul__", counting)
    for calls in (1, 2):
        eig_row(b, "eq29", [201])
        assert sum(columns) == 4 * m * calls


@pytest.mark.parametrize("check,bound_mb", [
    pytest.param(functools.partial(_identity, "intertwining"), 3.0, id="intertwining-3.0"),
    pytest.param(functools.partial(_identity, "tau"), 2.0, id="check_tau-2.0"),
    pytest.param(functools.partial(_identity, "eta-hermiticity"), 2.5, id="check_eta-2.5")])
def test_probe_check_working_set(check, bound_mb):
    # morse/rational at 1001/2001/4001, with the dressed systems and the
    # stencils made first, so that the traced peak is the check's own
    # working set: measured 2.53, 1.69 and 2.14 MB (4.07, 3.93 and 3.89 MB
    # with every diagonal padded to n entries and all eight probe symbols
    # of every level kept to the end; 2.58 for intertwining with each
    # level's mean symbol, mask and input kept to the end)
    ns = [1001, 2001, 4001]
    b = builder(profile=MassProfile.rational())
    for n in ns:
        b.dressed(n)
        for order in (1, 2):
            diff_matrix(b.grid(n), order)
    tracemalloc.start()
    try:
        check(b, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_default_suite_memory_ceiling():
    # every default check on morse/rational at 5001/10001/20001 from a fresh
    # builder, dressing included: measured 22.8 MiB, 1.20 kB per finest-level
    # point; an operator that kept a dense or duplicate copy would exceed it
    from pdmph.report import CONFIG_DEFAULTS
    b = builder(profile=MassProfile.rational())
    tracemalloc.start()
    try:
        run_suite(b, CONFIG_DEFAULTS["checks"], [5001, 10001, 20001])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20


def test_spectrum_holds_no_coarse_eigenvectors_in_the_fine_solve(monkeypatch):
    # when each solve starts, no earlier solve's eigenvectors are alive: the
    # builder's one slot drops them and the spectrum check keeps no reference
    solved, alive_at_start, real = [], [], verify_module.eigendecompose

    def watching(block, grid):
        alive_at_start.append([ref() is not None for ref in solved])
        sp = real(block, grid)
        solved.append(weakref.ref(sp.eigenvectors))
        return sp

    monkeypatch.setattr(verify_module, "eigendecompose", watching)
    b = builder("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0))
    eig_row(b, "spectrum", [101, 201])
    assert alive_at_start == [[], [False]]
    assert b.spectral(201).eigenvectors.shape == (199, 199) and len(solved) == 2


def test_run_suite_leaves_no_decomposition(monkeypatch):
    solved, real = [], verify_module.eigendecompose
    monkeypatch.setattr(verify_module, "eigendecompose",
                        lambda block, grid: solved.append(real(block, grid)) or solved[-1])
    b = builder("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0))
    _, spectral, _ = run_suite(b, ["spectrum", "eq29"], NS, eig_levels=[101, 201])
    assert spectral["total"] == 199
    refs = [weakref.ref(sp.eigenvectors) for sp in solved]
    solved.clear()
    assert [ref() is None for ref in refs] == [True, True]


def test_eq29_free_particle_exact_regime():
    b = SystemBuilder(MassProfile.constant(), -8.0, 8.0)
    r = eig_row(b, "eq29", [801])
    sp = b.spectral(801)
    assert r.verdict == "pass"
    assert r.notes["exact_regime"]
    assert r.notes["violation_i_rel"] == 0.0
    assert r.notes["violation_ii_rel"] < 1e-12
    assert sp.counts["real"] == len(sp.eigenvalues)


def test_eq29_hermitian_limit_reported_only():
    # wall truncation breaks the eigenvector-level intertwining for a
    # nonvanishing constant g, so the Gram structure is defect-limited and
    # the check reports rather than asserts
    r = eig_row(hermitian_builder(domain=(-8.0, 8.0)), "eq29", [801])
    assert r.verdict == "reported-only"
    assert not r.notes["exact_regime"]
    assert r.notes["defect_on_eigenvectors"] > 1e-8
    assert r.notes["defect_scaled_tolerance"] > 1e-8


def test_eq29_family_reported_only():
    r = eig_row(builder("scarf2", domain=(-8.0, 8.0)), "eq29", [801])
    assert r.verdict == "reported-only"


def test_spectrum_stability_counts():
    b = hermitian_builder(domain=(-8.0, 8.0))
    r = eig_row(b, "spectrum", [301, 501])
    assert r.verdict == "pass"
    counts = r.notes["counts"]
    assert all(abs(counts[0][k] - counts[1][k]) <= 2 for k in counts[0])


def test_scarf2_zero_eigenvalue_isolated():
    # alpha = 0.8 leaves the zero-energy state isolated (at alpha = 0.5 a
    # second series member coincides with it and the near-degenerate pair
    # splits under discretization)
    b = builder("scarf2", alpha=0.8, domain=(-25.0, 25.0))
    inp = b.inputs(1201)
    sp = eigendecompose(build_h_prime_block(inp.V, inp.a, inp.ap, inp.bundle, inp.grid),
                        inp.grid)
    E = sp.eigenvalues
    assert np.abs(E[np.argmin(np.abs(E))]) < 1e-4
    below = E[E.real < 0.8**2 / 4]
    assert np.abs(below.imag).max() < 1e-4
    # the predicted second bound series member sits at -0.2
    assert np.abs(E - (-0.2)).min() < 1e-4


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

def test_run_suite_vocabulary():
    with pytest.raises(InvalidDomainError):
        run_suite(builder(), ["nope"], NS)


def test_run_suite_findings():
    results, spectral, findings = run_suite(
        builder(profile=MassProfile.rational(), domain=(-3.0, 4.0)),
        ["eq25", "eq28"], NS)
    ids = [f["id"] for f in findings]
    assert "mass-gradient-term-form" in ids
    assert "printed-ground-state" in ids
    mg = next(f for f in findings if f["id"] == "mass-gradient-term-form")
    assert mg["max_abs_difference"] > 0.1


@pytest.fixture
def family_builds(monkeypatch):
    """Grid sizes of the make_family calls that SystemBuilder makes."""
    calls = []
    real = verify_module.make_family

    def counting(*args, **kwargs):
        calls.append(args[2].n)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_module, "make_family", counting)
    return calls


def test_dressed_built_once_per_level_and_read_only(family_builds):
    calls = family_builds
    b = builder("scarf2", domain=(-8.0, 8.0))
    first, second = b.dressed(301), b.dressed(301)
    assert calls == [301]
    for name in ("V", "f", "xi", "tau_phase"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    with pytest.raises(ValueError):
        first.V[0] = 0.0
    with pytest.raises(ValueError):
        first.bundle.U[0] = 1.0
    # a corruption is a copy: the stored level keeps its V
    assert not np.array_equal(apply_corruption(first, "v-imag-flip").V, second.V)
    assert np.array_equal(b.dressed(301).V, second.V)
    assert calls == [301]
    run_suite(b, ["eq25", "eq26", "groundstate", "gauge", "tau"], NS)
    assert sorted(calls) == NS


@pytest.mark.parametrize("free", [False, True])
def test_a_handed_out_level_is_frozen(free):
    b = SystemBuilder(MassProfile.constant(), -8.0, 8.0) if free else builder()
    level = b.inputs(301)
    with pytest.raises(dataclasses.FrozenInstanceError):
        level.V = level.V.conj()


def _level_bytes(level):
    return {name: value.tobytes() for part in (level, level.bundle)
            for name, value in vars(part).items() if isinstance(value, np.ndarray)}


def test_derived_levels_leave_the_stored_level_bit_identical():
    # each variant of a level is a copy: corrupting, detuning and feeding the
    # printed ground state change neither the handed-out level nor the store
    b = builder(profile=MassProfile.rational(), domain=(-3.0, 4.0))
    ns = [201, 401, 801]
    stored = [b.dressed(n) for n in ns[:2]]
    before = [_level_bytes(level) for level in stored]
    level = stored[0]
    variants = [apply_corruption(level, target, 0.5)
                for target in verify_module.CORRUPTION_TARGETS]
    variants += [detuned(level, 0.3), detuned(level, lambda x: 0.4 + 0.05 * x)]
    findings = verify_module._standing_findings(b, ns)
    assert [f["id"] for f in findings] == ["mass-gradient-term-form", "printed-ground-state"]
    assert all(_level_bytes(v) != before[0] for v in variants)
    assert [_level_bytes(level) for level in stored] == before
    assert all(b.dressed(n) is level for n, level in zip(ns, stored))


def test_free_suite_samples_the_mass_once_per_distinct_level(monkeypatch):
    profile = MassProfile.rational()
    sampled, sample = [], profile.sample
    monkeypatch.setattr(profile, "sample", lambda grid: sampled.append(grid.n) or sample(grid))
    run_suite(SystemBuilder(profile, -8.0, 8.0),
              ["eq28", "intertwining", "eta-hermiticity", "spectrum", "eq29"],
              [101, 201, 401], eig_levels=[251, 501])
    assert sorted(sampled) == [101, 201, 251, 401, 501]


def test_corrupted_builder_fails_on_every_call():
    # v-imag-flip undone by a second application would pass eq25: the
    # corrupted system is cached once, never corrupted again
    b = builder("scarf2", domain=(-8.0, 8.0))
    (clean,) = _identity("eq25", b, NS)
    b.corruption = ("v-imag-flip", 0.0)
    for _ in range(2):
        (r,) = _identity("eq25", b, NS)
        assert r.verdict == "fail" and r.residuals[-1] >= 1e-2
    b.corruption = None
    assert _identity("eq25", b, NS)[0].residuals == clean.residuals


def _failing_eig(mat):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


def test_judge_is_the_only_place_a_verdict_is_set(monkeypatch):
    # a judge that stamps each result it judges: every result of every
    # CHECKS row, the detuned intertwining and a failed eigensolve carry the
    # stamp, so each went through verify.judge and nothing set its verdict after
    real = verify_module.judge

    def stamping(result):
        real(result).verdict = "stamped"
        return result
    monkeypatch.setattr(verify_module, "judge", stamping)
    ns, eig = [101, 201, 401], [101, 201]
    b = builder("scarf2", domain=(-8.0, 8.0), gauge_a=("scaled-g", 1.0))
    results = run_suite(b, list(CHECKS), ns, eig_levels=eig)[0]
    results += run_suite(b, ["intertwining"], ns, detune=0.3)[0]
    monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    failed = run_suite(builder(profile=MassProfile.rational(), domain=(-3.0, 4.0)),
                       ["spectrum", "eq29"], ns, eig_levels=eig)[0]
    assert [r.name for r in results] == [
        name for row in CHECKS.values() for name, _ in row.results] + ["intertwining"]
    assert ["error" in r.notes for r in failed] == [True, True]
    assert [r.verdict for r in results + failed] == ["stamped"] * (len(results) + 2)


def test_run_suite_order_of_checks_changes_nothing():
    # results come back in CHECKS order, with the same bits and verdicts,
    # whatever the order of the requested checks
    b = builder("scarf2", domain=(-8.0, 8.0), gauge_a=("scaled-g", 1.0))
    names = list(CHECKS)
    runs = []
    for k in range(len(names)):
        results, _, _ = run_suite(b, names[k:] + names[:k], [101, 201, 401],
                                  eig_levels=[101, 201])
        runs.append([(r.name, r.verdict, np.array(r.residuals).tobytes()) for r in results])
    assert [name for name, _, _ in runs[0]] == [
        name for key in CHECKS for name, _ in CHECKS[key].results]
    assert all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------------------
# operator inputs: the detuned control and the free preset, against the
# formulas of the OperatorInputs class they replace
# ---------------------------------------------------------------------------

def _reference_detuned(ds, f0):
    """(f, fp, V, phi) as OperatorInputs.detuned built them."""
    if callable(f0):
        f = np.asarray(f0(ds.grid.x), dtype=float)
        fp = diff_matrix(ds.grid, 1) @ f
    else:
        f = np.full(ds.grid.n, float(f0))
        fp = np.zeros(ds.grid.n)
    V = assemble_potential(f, fp, ds.g, ds.gp, ds.bundle, ds.spec.delta)
    return f, fp, V, f + 1j * ds.g


@pytest.mark.parametrize("make", [
    lambda: builder(profile=MassProfile.rational(), domain=(-3.0, 4.0)), hermitian_builder],
    ids=["morse-rational", "hermitian-limit"])
@pytest.mark.parametrize("f0", [0.7, lambda x: 0.4 + 0.05 * x], ids=["constant", "callable"])
def test_detuned_matches_operator_inputs_detuned(make, f0):
    b = make()
    cached = b.dressed(401)
    f_cached, V_cached = cached.f.tobytes(), cached.V.tobytes()
    want = _reference_detuned(cached, f0)
    got = detuned(b.dressed(401), f0)
    for name, w in zip(("f", "fp", "V", "phi"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    again = b.dressed(401)
    assert again.f.tobytes() == f_cached and again.V.tobytes() == V_cached


def test_free_input_matches_operator_inputs_free():
    profile = MassProfile.rational()
    inp = SystemBuilder(profile, -8.0, 8.0).inputs(301)
    grid = make_grid(-8.0, 8.0, 301)
    z = np.zeros(grid.n)
    want = {"f": z, "fp": z, "g": z, "gp": z, "a": z, "ap": z,
            "V": np.zeros(grid.n, complex), "phi": z + 1j * z}
    for name, w in want.items():
        g = getattr(inp, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    assert (inp.grid.xmin, inp.grid.xmax, inp.grid.n, inp.grid.h) == (
        grid.xmin, grid.xmax, grid.n, grid.h)
    assert inp.grid.x.tobytes() == grid.x.tobytes()
    for name, w in vars(profile.sample(grid)).items():
        g = getattr(inp.bundle, name)
        if name == "grid":
            assert g.x.tobytes() == w.x.tobytes()
        elif isinstance(w, np.ndarray):
            assert g.tobytes() == w.tobytes(), name
        else:
            assert g == w, name


def test_detuned_intertwining_leaves_the_cached_system_alone():
    b = builder()
    _identity("intertwining", b, NS, detune=0.7)
    fresh = builder()
    for key in ("eq25", "eq26"):
        assert _identity(key, b, NS)[0].residuals == _identity(key, fresh, NS)[0].residuals


def test_eq29_reuses_the_spectrum_decomposition(monkeypatch):
    # spectrum takes the two finest eig levels and eq29 the finest, whose
    # decomposition spectrum solved last
    sizes = []
    real = verify_module.eigendecompose

    def counting(block, *args, **kwargs):
        sizes.append(block.shape[0])
        return real(block, *args, **kwargs)

    b = builder("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0))
    alone = eig_row(b, "eq29", [201])
    monkeypatch.setattr(verify_module, "eigendecompose", counting)
    for eig_levels, solved in (([101, 201], [99, 199]), ([101, 151, 201], [149, 199])):
        sizes.clear()
        results, _, _ = run_suite(b, ["spectrum", "eq29"], NS, eig_levels=eig_levels)
        assert sizes == solved
        assert [[lv.n for lv in r.levels] for r in results] == [eig_levels[-2:], [201]]
        assert results[-1].to_dict() == alone.to_dict()


def test_a_row_added_to_checks_is_run_judged_and_reported(monkeypatch, tmp_path):
    # one registry: an eig-level row added to CHECKS, and nothing else, is
    # run on the spectrum check's finest decomposition, judged and reported
    # in row order; its residual is the count of eigenpairs off one per
    # interior node
    def eigenpairs(sp, inp):
        return CheckLevel(sp.grid.n, sp.grid.h, abs(len(sp.eigenvalues) - inp.grid.n + 2),
                          0.0), None

    sizes, real = [], verify_module.eigendecompose
    monkeypatch.setattr(verify_module, "eigendecompose",
                        lambda block, grid: sizes.append(block.shape[0]) or real(block, grid))
    monkeypatch.setitem(CHECKS, "eigenpairs", Check(
        (("eigenpairs", "one eigenpair per interior node"),), eigenpairs, dressed=False,
        options=(), levels="eig_levels", pick=slice(-1, None), rule="bound"))
    (tmp_path / "c.json").write_text('{"eig_levels": [101, 201]}')
    out = tmp_path / "r.json"
    assert main(["verify", "--family", "morse", "--mass", "rational", "--xmin", "-3",
                 "--xmax", "4", "--refine", "101,201,401", "--checks", "eigenpairs,eq25,spectrum",
                 "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert [(c["name"], c["verdict"]) for c in payload["checks"]] == [
        ("eq25", "pass"), ("spectrum", "pass"), ("eigenpairs", "pass")]
    assert payload["summary"]["pass"] == 3 and payload["spectral"]["total"] == 199
    assert sizes == [99, 199]


def test_run_suite_default_eig_levels_are_the_config_default(monkeypatch):
    # one default for the library and the config: at refine 201/401/801 the
    # spectrum check compares n = 501 with n = 1001, never a level with itself
    from pdmph.report import CONFIG_DEFAULTS
    assert CONFIG_DEFAULTS["eig_levels"] == list(verify_module.EIG_LEVELS) == [501, 1001]
    sizes, real = [], verify_module.eigendecompose
    monkeypatch.setattr(verify_module, "eigendecompose",
                        lambda block, grid: sizes.append(grid.n) or real(block, grid))
    free = SystemBuilder(MassProfile.constant(), -8.0, 8.0)
    results, _, _ = run_suite(free, ["spectrum"], [201, 401, 801])
    assert sizes == [501, 1001]
    assert [lv.n for lv in results[0].levels] == [501, 1001]


def test_run_suite_refuses_levels_the_config_refuses():
    # the library applies the config's level rules: no eig level for eq29, an
    # eig level below a grid's 9 points, and a coarsest refine level that
    # leaves no check window
    free = SystemBuilder(MassProfile.constant(), -3.0, 4.0)
    with pytest.raises(ConfigError, match="eig_levels, which is empty"):
        run_suite(free, ["eq29"], [101, 201, 401], eig_levels=[])
    with pytest.raises(ConfigError, match="eig level 7: a grid needs at least 9 points"):
        run_suite(free, ["eq29"], [101, 201, 401], eig_levels=[7, 101])
    with pytest.raises(ConfigError, match="coarsest refine level 9"):
        run_suite(free, ["eq28"], [9, 17, 33])


@pytest.mark.parametrize("checks,eig_levels,match", [
    (["eq25", "parity-eta"], [501, 1001], "parity-eta needs a grid symmetric about 0"),
    (["eq25", "spectrum"], [501], "spectrum check compares two distinct eig_levels")],
    ids=["parity-eta", "spectrum"])
def test_run_suite_refuses_a_bad_request_before_any_check_runs(monkeypatch, checks,
                                                               eig_levels, match):
    # scarf2 on [-8, 7] has no grid symmetric about 0 for parity-eta, and one
    # eig level is none for spectrum to compare with: both requests are
    # refused before eq25 evaluates a level
    evaluated, real = [], verify_module._refine
    monkeypatch.setattr(verify_module, "_refine",
                        lambda key, *a, **kw: evaluated.append(key) or real(key, *a, **kw))
    b = builder("scarf2", domain=(-8.0, 7.0))
    with pytest.raises(ConfigError, match=match):
        run_suite(b, checks, [201, 401, 801], eig_levels=eig_levels)
    assert evaluated == []


@pytest.mark.parametrize("levels", [[201], [201, 201]])
def test_spectrum_needs_two_distinct_levels(levels):
    free = SystemBuilder(MassProfile.constant(), -8.0, 8.0)
    with pytest.raises(ConfigError, match="spectrum check compares two distinct eig_levels"):
        run_suite(free, ["spectrum"], [101, 201, 401], eig_levels=levels)
