import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmph import (CATALOG, FAMILIES, DomainViolationError, DressedSystem,
                   GeneratingFunctionZeroError, GeneratingSpec, MassProfile,
                   ProfileBundle, assemble_potential, diff_matrix, effective_potential,
                   make_family, make_grid, printed_potential, printed_vmu, to_csv)
from pdmph import pipeline
from pdmph.pipeline import (CSV_COLUMNS, _check_nonvanishing, _decide as decide,
                            _write_columns, ground_state)


# Two independent routes to the companion function, kept here as oracles:
# make_family computes f inline, and their pointwise agreement is a
# standing self-test.

def compute_f(g, bundle, gp=None):
    """Companion function in mass-integral form: -g'/(2 mu' g) - mu''/(2 mu'^2)."""
    g = np.asarray(g, dtype=float)
    _check_nonvanishing(g)
    if gp is None:
        gp = diff_matrix(bundle.grid, 1) @ g
    return -gp / (2.0 * bundle.mup * g) - bundle.mupp / (2.0 * bundle.mup**2)


def compute_f_eq33(g, bundle, gp=None):
    """Companion function in kinetic-weight form: (U' g - U g') / (2 g).

    Algebraically identical to compute_f since mu' = 1/U.
    """
    g = np.asarray(g, dtype=float)
    _check_nonvanishing(g)
    if gp is None:
        gp = diff_matrix(bundle.grid, 1) @ g
    return (bundle.Up * g - bundle.U * gp) / (2.0 * g)


def dressed(family, alpha=1.0, profile=None, domain=None, n=801, **kw):
    profile = profile or MassProfile.constant()
    domain = domain or CATALOG[family][1]
    return make_family(GeneratingSpec(family, alpha=alpha, **kw), profile,
                       make_grid(*domain, n))


# ---------------------------------------------------------------------------
# companion function
# ---------------------------------------------------------------------------

def test_compute_f_harmonic_constant_mass():
    g = make_grid(0.1, 10, 991)          # node exactly at x = 2
    b = MassProfile.constant().sample(g)
    f = compute_f(1.0 * b.mu, b, gp=np.ones(g.n))
    i2 = g.index_nearest(2.0)
    assert g.x[i2] == pytest.approx(2.0, abs=1e-12)
    assert f[i2] == pytest.approx(-0.25, abs=1e-12)


def test_compute_f_morse_constant_mass():
    g = make_grid(-2, 10, 801)
    b = MassProfile.constant().sample(g)
    gv = np.exp(-2.0 * b.mu)
    f = compute_f(gv, b, gp=-2.0 * gv)
    assert np.abs(f - 1.0).max() < 1e-12


def test_compute_f_harmonic_rational_mass():
    g = make_grid(0.1, 10, 991)          # node exactly at x = 1
    b = MassProfile.rational().sample(g)
    f = compute_f(1.0 * b.mu, b, gp=1.0 * b.mup)
    i1 = g.index_nearest(1.0)
    assert f[i1] == pytest.approx(-2.0 / np.pi + 1.0, abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("profile", [MassProfile.constant(), MassProfile.rational()])
def test_f_two_forms_agree(family, profile):
    ds = dressed(family, profile=profile,
                 domain=(0.25, 8.0) if CATALOG[family][2] else (-4.0, 4.0))
    b = ds.bundle
    f33 = compute_f_eq33(ds.g, b, gp=ds.gp)
    assert np.abs(f33 - ds.f).max() < 1e-12


def test_constant_g_gives_f_half_uprime():
    g = make_grid(-4, 4, 801)
    b = MassProfile.rational().sample(g)
    c = np.full(g.n, 0.7)
    f = compute_f_eq33(c, b, gp=np.zeros(g.n))
    assert np.abs(f - b.Up / 2.0).max() < 1e-12


def test_vanishing_g_rejected():
    g = make_grid(-4, 4, 801)
    b = MassProfile.constant().sample(g)
    with pytest.raises(GeneratingFunctionZeroError):
        compute_f(g.x.copy(), b)  # crosses zero


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_assemble_potential_morse_at_origin():
    ds = dressed("morse", alpha=2.0, domain=(-1.0, 11.0), n=1201)
    i0 = ds.grid.index_nearest(0.0)
    assert ds.V[i0] == pytest.approx(4.0j, abs=1e-12)


def test_assemble_potential_harmonic():
    ds = dressed("harmonic3d", alpha=1.0, domain=(0.1, 10.0), n=991)
    i1 = ds.grid.index_nearest(1.0)
    assert ds.V[i1] == pytest.approx(-1.25 - 2.0j, abs=1e-12)


def test_constant_g_hermitian_limit():
    g = make_grid(-4, 4, 801)
    xs = np.array([-5.0, -4.0, 4.0, 5.0])
    ds = make_family(GeneratingSpec("custom-table", g_table=(xs, np.full(4, 1.3))),
                     MassProfile.constant(), g)
    # the table-sampled constant g carries eps-level derivative noise only
    assert np.abs(ds.V.imag).max() < 1e-12
    # psi has constant phase in the Hermitian limit up to the gauge
    ph = np.angle(ds.psi * np.exp(1j * 1.3 * (g.x - g.x[ds.anchor])))
    assert np.abs(ph).max() < 1e-12


def test_imaginary_part_law():
    for family in FAMILIES:
        ds = dressed(family, domain=(0.3, 8.0) if CATALOG[family][2] else (-4.0, 4.0))
        assert np.abs(ds.V.imag + 2.0 * ds.bundle.U * ds.gp).max() < 1e-10


def test_effective_potential_constant_mass_has_zero_mass_term():
    ds = dressed("scarf2")
    assert np.abs(ds.V_mu).max() == 0.0


def test_effective_potential_scarf_closed_form():
    ds = dressed("scarf2", alpha=1.5, domain=(-8.0, 8.0))
    al, mu = 1.5, ds.bundle.mu
    s, t = 1.0 / np.cosh(al * mu), np.tanh(al * mu)
    ref = -(1.0 + 0.75 * al**2) * s**2 + 2j * al * s * t + al**2 / 4.0
    assert np.abs(ds.V_eff - ref).max() < 1e-10


def test_closure_v_equals_veff_minus_vmu():
    for profile in (MassProfile.constant(), MassProfile.rational()):
        ds = dressed("morse", profile=profile, domain=(-3.0, 4.0))
        w = ds.grid.interior_mask(8)
        assert np.abs((ds.V - (ds.V_eff - ds.V_mu)))[w].max() < 1e-10


def test_closure_convergence_rational():
    # independent evaluation of both routes converges at the stencil order
    # when the companion derivative comes from finite differences
    from pdmph import diff_matrix
    errs, hs = [], []
    for n in (201, 401, 801):
        g = make_grid(-3, 4, n)
        b = MassProfile.rational().sample(g)
        gv = np.exp(-b.mu)
        D1 = diff_matrix(g, 1)
        gp, gpp = D1 @ gv, D1 @ (D1 @ gv)
        f = compute_f(gv, b, gp=gp)
        fp = D1 @ f
        V = assemble_potential(f, fp, gv, gp, b)
        Veff, Vmu = effective_potential(gv, gp, gpp, b)
        w = g.interior_mask(8, xmargin=8 * 7.0 / 200)
        errs.append(np.abs((V - (Veff - Vmu)))[w].max())
        hs.append(g.h)
    from pdmph import observed_order
    assert errs[-1] < 1e-6
    assert observed_order(hs, errs) >= 3.5


def test_printed_vmu_differs_for_position_dependent_mass():
    ds = dressed("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0))
    assert np.abs(ds.V_mu - printed_vmu(ds.bundle)).max() > 0.1
    cs = dressed("morse")
    assert np.abs(cs.V_mu - printed_vmu(cs.bundle)).max() == 0.0


# ---------------------------------------------------------------------------
# printed catalog potentials
# ---------------------------------------------------------------------------

# each profile with its domain for families that need mu > 0, and for the others
PROFILE_DOMAINS = [(MassProfile.constant(), (0.25, 10.0), (-6.0, 6.0)),
                   (MassProfile.rational(), (0.25, 5.0), (-4.0, 4.0))]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("profile,domain_pos,domain_sym", PROFILE_DOMAINS)
def test_printed_potential_reproduced(family, profile, domain_pos, domain_sym):
    dom = domain_pos if CATALOG[family][2] else domain_sym
    ds = dressed(family, alpha=1.0, profile=profile, domain=dom)
    w = ds.grid.interior_mask(8)
    printed = printed_potential(family, 1.0, ds.bundle.mu)
    rel = (np.abs(ds.V_eff - printed) / (1.0 + np.abs(printed)))[w].max()
    assert rel < 1e-12


def test_printed_potential_unknown_family():
    from pdmph.errors import InvalidDomainError
    with pytest.raises(InvalidDomainError):
        printed_potential("nope", 1.0, np.ones(4))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("profile,domain_pos,domain_sym", PROFILE_DOMAINS)
def test_make_family_evaluates_no_printed_form(family, profile, domain_pos, domain_sym,
                                               monkeypatch):
    # the printed forms are findings a report computes, not part of the construction
    def refuse(*args):
        raise AssertionError("make_family evaluated a printed form")
    for name in ("printed_potential", "printed_vmu", "printed_state"):
        monkeypatch.setattr(pipeline, name, refuse)
    dom = domain_pos if CATALOG[family][2] else domain_sym
    ds = dressed(family, profile=profile, domain=dom, n=201)
    assert np.all(np.isfinite(ds.V))


def test_dressed_system_holds_no_printed_form():
    names = {f.name for f in dataclasses.fields(DressedSystem)}
    assert not {n for n in names if "printed" in n or n == "analytic"}, names


def test_a_stored_level_holds_each_quantity_once():
    # Lambda, tau's phase and the parity phase are formed from one gauge
    # phase, the energy is spec.delta, and the zero gauge is one array
    names = {f.name for f in dataclasses.fields(DressedSystem)}
    assert "gauge_phase" in names and not names & {"Lambda", "tau_phase", "energy"}, names
    bundle_names = {f.name for f in dataclasses.fields(ProfileBundle)}
    assert not bundle_names & {"Upp", "kind"}, bundle_names
    ds = dressed("morse", n=201)
    assert ds.a is ds.ap and not ds.a.any()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("gauge", [("zero",), ("scaled-g", 0.5)], ids=["zero", "scaled-g"])
@pytest.mark.parametrize("profile,domain_pos,domain_sym", PROFILE_DOMAINS)
def test_make_family_integrates_the_gauge_once(family, gauge, profile, domain_pos, domain_sym,
                                               monkeypatch):
    # an analytic mass needs three integrals, f/U and g/U for psi and a/U for
    # the gauge phase; tau and the parity metric read the stored phase
    calls, real = [], pipeline.cumint
    monkeypatch.setattr(pipeline, "cumint", lambda *args: calls.append(args) or real(*args))
    dom = domain_pos if CATALOG[family][2] else domain_sym
    dressed(family, profile=profile, domain=dom, n=201, gauge_a=gauge)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# ground states and gauge
# ---------------------------------------------------------------------------

def test_ground_state_trivial_gauge():
    ds = dressed("morse")
    assert np.abs(ds.gauge_phase).max() == 0.0
    assert np.abs(ds.xi - ds.psi).max() == 0.0


def test_ground_state_harmonic_amplitude_and_phase():
    # amplitude grows like sqrt(x) and the phase is -(x^2 - x0^2)/2 for the
    # constant-mass harmonic family at alpha = 1
    g = make_grid(0.1, 10.0, 991)
    b = MassProfile.constant().sample(g)
    anchor = g.index_nearest(1.0)
    x0 = g.x[anchor]
    psi, xi, R = ground_state(-1.0 / (2.0 * g.x), g.x.copy(), np.zeros(g.n), b, anchor)
    i4 = g.index_nearest(4.0)
    assert abs(psi[i4] / psi[anchor]) == pytest.approx(np.sqrt(g.x[i4] / x0), rel=1e-9)
    phase = np.unwrap(np.angle(psi))
    assert phase[i4] - phase[anchor] == pytest.approx(-(g.x[i4]**2 - x0**2) / 2, abs=1e-8)


@pytest.mark.parametrize("family", FAMILIES)
def test_ground_state_amplitude_oracle(family):
    # |psi| equals sqrt(g mu') up to one constant; verified against the
    # quadrature route for every family on both profiles
    for profile in (MassProfile.constant(), MassProfile.rational()):
        dom = (0.3, 6.0) if CATALOG[family][2] else (-3.0, 3.0)
        ds = dressed(family, profile=profile, domain=dom)
        ref = np.sqrt(ds.g * ds.bundle.mup)
        ref = ref / ref[ds.anchor]
        assert np.abs(np.abs(ds.psi) - ref).max() < 1e-8


def test_unit_modulus_gauge():
    ds = dressed("scarf2", gauge_a=("scaled-g", 0.7))
    lam = np.exp(1j * ds.gauge_phase)
    assert np.abs(np.abs(lam) - 1.0).max() < 1e-12
    assert np.abs(ds.xi - lam * ds.psi).max() == 0.0


def test_phi_definition():
    ds = dressed("morse")
    assert np.abs(ds.phi - (ds.f + 1j * ds.g)).max() == 0.0


def test_real_fields_carry_no_imaginary_part():
    ds = dressed("scarf2", profile=MassProfile.rational(), gauge_a=("scaled-g", 0.5))
    b = ds.bundle
    for arr in (b.m, b.U, b.mu, ds.g, ds.f, ds.a, ds.gauge_phase):
        assert not np.iscomplexobj(arr)
    for arr in (ds.V, ds.V_eff, ds.psi, ds.xi):
        assert np.iscomplexobj(arr)


# ---------------------------------------------------------------------------
# family construction errors
# ---------------------------------------------------------------------------

def test_family_domain_violation():
    with pytest.raises(DomainViolationError):
        dressed("gen-poschl-teller", domain=(-2.0, 2.0), n=401)
    with pytest.raises(DomainViolationError):
        dressed("harmonic3d", domain=(-8.0, 8.0), n=401)


def test_alpha_must_be_positive():
    from pdmph.errors import InvalidDomainError
    with pytest.raises(InvalidDomainError):
        GeneratingSpec("morse", alpha=-1.0)


def test_custom_table_family():
    xs = np.linspace(-5, 5, 3001)
    spec = GeneratingSpec("custom-table", g_table=(xs, np.exp(-xs)))
    ds = make_family(spec, MassProfile.constant(), make_grid(-4, 4, 801))
    ref = dressed("morse", domain=(-4.0, 4.0))
    w = ds.grid.interior_mask(8)
    assert np.abs((ds.V - ref.V))[w].max() < 1e-5
    from pdmph.errors import InvalidDomainError
    with pytest.raises(InvalidDomainError):
        printed_potential(spec.family, spec.alpha, ds.bundle.mu)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_export_columns_and_roundtrip(tmp_path):
    ds = dressed("morse", alpha=2.0, domain=(-1.0, 11.0), n=601)
    path = tmp_path / "morse.csv"
    to_csv(ds, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (601, 16)
    assert np.abs(data[:, 0] - ds.grid.x).max() == 0.0
    assert np.abs(data[:, 8] - ds.V.imag).max() == 0.0


def test_csv_bytes_match_per_cell_writer(tmp_path):
    # the writer must give the bytes of the per-cell f-string writer
    import hashlib
    ds = dressed("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0), n=101)
    b = ds.bundle
    cols = (ds.grid.x, b.m, b.U, b.mu, ds.g, ds.f, ds.a,
            ds.V.real, ds.V.imag, ds.V_eff.real, ds.V_eff.imag, ds.V_mu,
            ds.psi.real, ds.psi.imag, ds.xi.real, ds.xi.imag)
    old = tmp_path / "old.csv"
    with open(old, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(ds.grid.n):
            fh.write(",".join(f"{c[i]:.16e}" for c in cols) + "\n")
    new = tmp_path / "new.csv"
    to_csv(ds, new)
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (old, new)]
    assert digest[0] == digest[1]


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 1364, 1365, 1366, 2049, 2731])
def test_csv_blocks_match_per_cell_writer(tmp_path, rows):
    # three columns are formatted in blocks of CSV_BLOCK // 3 = 1365 rows; the
    # bytes must be those of one row at a time, on both sides of every block edge
    rng = np.random.default_rng(rows)
    cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
            for _ in range(3)]
    path = tmp_path / "blocks.csv"
    _write_columns(path, ("a", "b", "c"), cols)
    want = "a,b,c\n" + "".join(",".join(f"{c[i]:.16e}" for c in cols) + "\n"
                               for i in range(rows))
    assert path.read_text() == want


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    # the whole table as Python floats would be ~10 MB at n = 20001
    ds = dressed("morse", profile=MassProfile.rational(), domain=(-3.0, 4.0), n=20001)
    tracemalloc.start()
    try:
        to_csv(ds, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_csv_writer_special_values(tmp_path):
    values = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0,
              np.nan, np.inf, -np.inf]
    values += [2.0 ** i for i in range(-1074, 1024)]
    for d in range(-323, 309):   # powers of ten and their 1..3-ulp neighbours
        for toward in (0.0, np.inf):
            v = float(f"1e{d}")
            for _ in range(4):
                values.append(v)
                v = float(np.nextafter(v, toward))
    # odd multiples of 2**-23 .. 2**-26, 45 of them exact decimal ties at 17
    # digits (2**-25 = 2.98023223876953125e-08 has 18)
    values += [(2 * j + 1) * 2.0 ** -s for j in range(40) for s in (23, 24, 25, 26)]
    # values that round up into the next decade
    values += [99999999999999999.0, 9.99999999999999995e16, 9.9999999999999999e-93,
               9.99999999999999999e22, 0.99999999999999999]
    values += [1e100, 1e-100, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.array(values + [-v for v in values])
    path = tmp_path / "special.csv"
    _write_columns(path, ("v", "w"), (values, values[::-1]))
    want = "v,w\n" + "".join(f"{a:.16e},{b:.16e}\n" for a, b in zip(values, values[::-1]))
    assert path.read_text() == want


def template_csv(names, columns):
    """The row-template writer the numpy formatter replaced, kept as its oracle."""
    row = ",".join(["%.16e"] * len(columns)) + "\n"
    values = zip(*(np.asarray(c).tolist() for c in columns))
    return ",".join(names) + "\n" + "".join(row % v for v in values)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(st.tuples(*[st.floats()] * k),
                                                    max_size=40)))
def test_csv_writer_matches_python_formatter(tmp_path_factory, rows):
    # st.floats() draws nan, infinities, subnormals and signed zeros
    columns = np.array(rows).T if rows else [[]]
    names = [f"c{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    _write_columns(path, names, columns)
    assert path.read_text() == template_csv(names, columns)


@pytest.mark.parametrize("mass", ["constant", "rational"])
@pytest.mark.parametrize("family", FAMILIES)
def test_csv_values_are_decided_in_numpy(tmp_path, monkeypatch, family, mass):
    # Python's formatter is the exception: at most 0.1% of a generate table
    # may leave numpy undecided, so an exact writer that quietly fell back
    # for every value would fail here
    ds = dressed(family, profile=getattr(MassProfile, mass)(), n=20001)
    seen = []

    def counting(x):
        decision = decide(x)
        seen.append((x.size, int(np.count_nonzero(~decision[2]))))
        return decision

    monkeypatch.setattr(pipeline, "_decide", counting)
    to_csv(ds, tmp_path / "t.csv")
    values, undecided = map(sum, zip(*seen))
    assert values == len(CSV_COLUMNS) * 20001
    assert undecided <= 1e-3 * values
