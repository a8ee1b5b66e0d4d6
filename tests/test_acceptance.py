"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are fixed here; nothing is deferred to later calibration.

Grids per family and mass profile are sized so that (a) every family's
singular points stay outside the domain, (b) the state's local oscillation
is resolved at n = 4001, and (c) rational-mass cases do not let the
U^2/h^2 roundoff amplification at the domain edges mask 4th-order
convergence.  Residuals in refinement studies are measured over a fixed
coordinate window (8 coarse spacings inside each edge).
"""

import time

import numpy as np
import pytest

from pdmph import (FAMILIES, GeneratingSpec, MassProfile, SystemBuilder,
                   build_h_prime_block, eigendecompose, make_family, make_grid,
                   printed_potential)
from pdmph.cli import main
from pdmph.report import payload_bytes
from pdmph.verify import PROBES, _identity, _spectral

# family -> {profile kind -> domain}
DOMAINS = {
    "harmonic3d": {"constant": (0.15, 10.0), "rational": (0.15, 4.0)},
    "morse": {"constant": (-2.0, 10.0), "rational": (-3.0, 4.0)},
    "scarf2": {"constant": (-8.0, 8.0), "rational": (-5.0, 5.0)},
    "gen-poschl-teller": {"constant": (0.25, 12.0), "rational": (0.25, 5.0)},
    "poschl-teller": {"constant": (0.25, 12.0), "rational": (0.25, 5.0)},
}
PROFILES = {"constant": MassProfile.constant, "rational": MassProfile.rational}
NS = [1001, 2001, 4001]
NS_OPERATOR = [501, 1001, 2001]

RESULTS = []


def record(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print("\n" + line)
    assert ok, line


def sys_builder(family, kind, alpha=1.0, **kw):
    dom = DOMAINS[family][kind]
    return SystemBuilder(PROFILES[kind](), dom[0], dom[1],
                         spec=GeneratingSpec(family, alpha=alpha, **kw))


def hermitian_builder(c=1.3, domain=(-2.0, 10.0), delta=0.0):
    xs = np.array([domain[0] - 1, domain[0], domain[1], domain[1] + 1])
    return SystemBuilder(MassProfile.constant(), domain[0], domain[1],
                         spec=GeneratingSpec("custom-table", delta=delta,
                                             g_table=(xs, np.full(4, c))))


def level_ok(result, threshold=1e-6, min_order=3.5):
    """Finest residual below threshold and the order observable-and-4th-order
    or legitimately unobservable (at the rounding floor)."""
    if result.residuals[-1] > threshold:
        return False
    return result.observed_order is None or result.observed_order >= min_order


# ---------------------------------------------------------------------------

def test_criterion_01_printed_potential_reproduction():
    worst, slowest = 0.0, 0.0
    cases = 0
    for family in FAMILIES:
        for kind in ("constant", "rational"):
            for alpha in (0.5, 1.0, 2.0):
                xmin, xmax = DOMAINS[family][kind]
                if family in ("gen-poschl-teller", "poschl-teller") and kind == "constant":
                    # keep the exponentially decaying g above the
                    # nonvanishing guard for every alpha
                    xmax = xmin + (xmax - xmin) / alpha
                t0 = time.perf_counter()
                ds = make_family(GeneratingSpec(family, alpha=alpha),
                                 PROFILES[kind](),
                                 make_grid(xmin, xmax, 2001))
                printed = printed_potential(family, alpha, ds.bundle.mu)
                w = ds.grid.interior_mask(8)
                rel = (np.abs(ds.V_eff - printed) / (1.0 + np.abs(printed)))[w].max()
                worst = max(worst, rel)
                slowest = max(slowest, time.perf_counter() - t0)
                cases += 1
    record("01 printed-potential-reproduction",
           worst <= 1e-10 and slowest < 1.0,
           f"{cases} cases, worst rel delta {worst:.2e}, slowest {slowest:.2f} s")


@pytest.fixture(scope="module")
def groundstate_studies():
    out = {}
    for family in FAMILIES:
        for kind in ("constant", "rational"):
            t0 = time.perf_counter()
            r_ann, r_eig = _identity("groundstate", sys_builder(family, kind), NS)
            out[(family, kind)] = (r_ann, r_eig, time.perf_counter() - t0)
    return out


def test_criterion_02_groundstate_annihilation(groundstate_studies):
    ok, detail = True, []
    slowest = 0.0
    for (family, kind), (r_ann, _, dt) in groundstate_studies.items():
        good = level_ok(r_ann)
        ok &= good
        slowest = max(slowest, dt)
        o = "floor" if r_ann.observed_order is None else f"{r_ann.observed_order:.2f}"
        detail.append(f"{family}/{kind}: {r_ann.residuals[-1]:.1e} ord {o}")
    record("02 groundstate-annihilation", ok and slowest < 5.0,
           f"worst-case time {slowest:.1f} s; " + "; ".join(detail))


def test_criterion_03_eigen_residual(groundstate_studies):
    ok, detail = True, []
    for (family, kind), (_, r_eig, _) in groundstate_studies.items():
        good = level_ok(r_eig)
        ok &= good
        o = "floor" if r_eig.observed_order is None else f"{r_eig.observed_order:.2f}"
        detail.append(f"{family}/{kind}: {r_eig.residuals[-1]:.1e} ord {o}")
    record("03 eigen-residual", ok, "; ".join(detail))


def test_criterion_04_eta_dual_construction():
    cases = [("morse", "constant", ("zero",)),
             ("harmonic3d", "constant", ("zero",)),
             ("scarf2", "rational", ("scaled-g", 1.0))]
    ok, detail = True, []
    for family, kind, gauge in cases:
        t0 = time.perf_counter()
        rh, rd = _identity("eta-hermiticity", sys_builder(family, kind, gauge_a=gauge),
                           NS_OPERATOR)
        dt = time.perf_counter() - t0
        ok &= level_ok(rh) and level_ok(rd) and dt < 10.0
        detail.append(f"{family}/{kind}: dual {rd.residuals[-1]:.1e}, "
                      f"herm {rh.residuals[-1]:.1e}, {dt:.1f} s")
    record("04 eta-dual-construction", ok, "; ".join(detail))


def test_criterion_05_coefficient_matching_laws():
    ok, detail = True, []
    for family in FAMILIES:
        for kind in ("constant", "rational"):
            b = sys_builder(family, kind)
            (r25,), (r26,) = _identity("eq25", b, NS), _identity("eq26", b, NS)
            ok &= r25.verdict == "pass" and r26.verdict == "pass"
            if r25.verdict != "pass" or r26.verdict != "pass":
                detail.append(f"{family}/{kind} FAILED")
    # negative controls: corrupted inputs must fail with residual >= 1e-2
    bneg = sys_builder("scarf2", "constant")
    bneg.corruption = ("v-imag-flip", 0.0)
    (n25,) = _identity("eq25", bneg, NS_OPERATOR)
    bneg2 = sys_builder("scarf2", "constant")
    bneg2.corruption = ("v-add-linear", 0.1)
    (n26,) = _identity("eq26", bneg2, NS_OPERATOR)
    controls = (n25.verdict == "fail" and n25.residuals[-1] >= 1e-2
                and n26.verdict == "fail" and n26.residuals[-1] >= 1e-2)
    ok &= controls
    record("05 coefficient-matching-laws", ok,
           "; ".join(detail) if detail else
           f"10 cases pass; negative controls {n25.residuals[-1]:.2e} / "
           f"{n26.residuals[-1]:.2e} both fail")


def test_criterion_06_intertwining_defect_structure():
    ok = True
    detail = []
    # genuine defect: constant detuned companion over two distinct g shapes,
    # >= 8 probes, symbol proportional to the sampled zeroth-order balance
    assert PROBES >= 8
    for family in ("morse", "scarf2"):
        t0 = time.perf_counter()
        (r,) = _identity("intertwining", sys_builder(family, "constant"), NS_OPERATOR,
                         detune=0.7)
        dt = time.perf_counter() - t0
        c = complex(*r.notes["c_printed"][-1])
        good = (r.verdict == "pass"
                and r.notes["defect_regime"] == "genuine"
                and r.notes["probe_symbol_deviation_rel"][-1] <= 1e-6
                and r.notes["c_printed_stability"] <= 1e-3
                and dt < 20.0)
        ok &= good
        detail.append(f"{family}+detune: dev {r.notes['probe_symbol_deviation_rel'][-1]:.1e}, "
                      f"c = {c.real:+.2e}{c.imag:+.6f}i, "
                      f"stab {r.notes['c_printed_stability']:.1e}, {dt:.1f} s")
    # Hermitian limit: defect converges to zero
    (rh,) = _identity("intertwining", hermitian_builder(), NS_OPERATOR)
    ok &= rh.verdict == "pass" and rh.notes["defect_regime"] == "vanishing"
    detail.append(f"hermitian limit: residuals -> {rh.residuals[-1]:.1e} (vanishing)")
    # consistently built systems: the defect vanishes as well (the companion
    # function solves the zeroth-order balance identically)
    (rp,) = _identity("intertwining", sys_builder("harmonic3d", "constant"), NS_OPERATOR)
    ok &= rp.verdict == "pass" and rp.notes["defect_regime"] == "vanishing"
    detail.append(f"pipeline: {rp.residuals[-1]:.1e} (vanishing)")
    record("06 intertwining-defect-structure", ok, "; ".join(detail))


def test_criterion_07_box_spectrum_oracle():
    c, delta = 1.3, 0.25
    L = 12.0
    t0 = time.perf_counter()
    b = hermitian_builder(c=c, domain=(-2.0, 10.0), delta=delta)
    inp = b.inputs(2001)
    sp = eigendecompose(build_h_prime_block(inp.V, inp.a, inp.ap,
                                            inp.bundle, inp.grid), inp.grid)
    dt = time.perf_counter() - t0
    k = np.arange(1, 11)
    exact = (k * np.pi / L) ** 2 - c**2 + delta
    got = np.sort(sp.eigenvalues.real)[:10]
    rel = np.abs((got - exact) / exact).max()
    record("07 box-spectrum-oracle", rel <= 1e-6 and dt < 60.0,
           f"k<=10 worst rel {rel:.2e}, solver {sp.solver}, {dt:.1f} s")


def test_criterion_08_eta_gram_structure():
    ok = True
    detail = []
    # exact regime: measured defect < 1e-8 must imply the Gram structure
    (r_free,) = _spectral("eq29", SystemBuilder(MassProfile.constant(), -8.0, 8.0),
                          [1001])
    exact_ok = (r_free.notes["exact_regime"]
                and r_free.verdict == "pass"
                and max(r_free.notes["violation_i_rel"],
                        r_free.notes["violation_ii_rel"]) <= 1e-6)
    ok &= exact_ok
    detail.append(f"free: defect {r_free.notes['defect_on_eigenvectors']:.1e}, "
                  f"offstruct {r_free.notes['violation_ii_rel']:.1e}")
    # defect-bearing configurations are emitted reported-only with
    # defect-scaled tolerances (wall truncation breaks the eigenvector-level
    # intertwining even in the Hermitian limit for nonvanishing g)
    for name, b in (("hermitian", hermitian_builder(domain=(-8.0, 8.0))),
                    ("scarf2", sys_builder("scarf2", "constant"))):
        (r,) = _spectral("eq29", b, [801])
        good = (r.verdict == "reported-only"
                and not r.notes["exact_regime"]
                and r.notes["defect_scaled_tolerance"] >= 1e-8)
        ok &= good
        detail.append(f"{name}: defect {r.notes['defect_on_eigenvectors']:.1e} "
                      f"-> reported-only, tol {r.notes['defect_scaled_tolerance']:.1e}")
    record("08 eta-gram-structure", ok, "; ".join(detail))


def test_criterion_09_gauge_and_tau():
    ok, detail = True, []
    for family, kind in (("morse", "constant"), ("scarf2", "rational")):
        for gauge in (("zero",), ("scaled-g", 1.0)):
            b = sys_builder(family, kind, gauge_a=gauge)
            (rg,), (rt,) = _identity("gauge", b, NS), _identity("tau", b, NS)
            ok &= level_ok(rg) and level_ok(rt)
            tag = "a=0" if gauge[0] == "zero" else "a=g"
            og = "exact" if rg.residuals[-1] == 0.0 else (
                "floor" if rg.observed_order is None else f"{rg.observed_order:.2f}")
            ot = "exact" if rt.residuals[-1] == 0.0 else (
                "floor" if rt.observed_order is None else f"{rt.observed_order:.2f}")
            detail.append(f"{family}/{kind} {tag}: gauge {og}, tau {ot}")
    record("09 gauge-and-tau-similarity", ok, "; ".join(detail))


def test_criterion_10_deterministic_reports(tmp_path):
    out = tmp_path / "rep.json"
    argv = ["verify", "--family", "morse", "--refine", "301,501,1001",
            "--checks", "eq25,eq26,eta-hermiticity,intertwining,eq28",
            "--out", str(out)]
    assert main(argv) == 0
    b1 = payload_bytes(out)
    assert main(argv) == 0
    b2 = payload_bytes(out)
    record("10 deterministic-reports", b1 == b2,
           f"payload {len(b1)} bytes, byte-identical across runs")


def test_zz_summary(tmp_path_factory):
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
    # durable copy for runs whose stdout is captured
    out = tmp_path_factory.getbasetemp().parent / "pdmph_acceptance.txt"
    try:
        out.write_text("\n".join(RESULTS) + "\n")
        print(f"acceptance lines written to {out}")
    except OSError:
        pass
