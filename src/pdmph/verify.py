"""Quantitative verification suite.

Every check measures a residual of one operator identity on the interior
window, at several grid resolutions, and reports

  * the residual per level together with a conservative roundoff ceiling,
  * the observed convergence order (least-squares slope of log residual vs
    log h, excluding floor-dominated levels),
  * a deterministic verdict: pass, fail, or reported-only, set by `judge`
    alone from the recorded numbers, by the rule the check's row names.

A check is its per-level function plus one `CHECKS` row that declares its
result names and laws; `run_suite` and the check vocabulary read the row.
`_identity` refines an identity's pointwise residual of one level's input
(see `_refine`), and `_spectral` feeds a spectral check's function each eig
level's decomposition; both drivers go coarsest first.

Residuals in a refinement study are always measured over one fixed
coordinate window derived from the coarsest level (index pad plus
8 h_coarse from each edge); index-based windows would creep toward the
domain edges under refinement and corrupt the observed orders.

A residual may legitimately sit below its rounding floor at every level
(for very smooth systems the truncation error underruns machine noise);
order fits are then unobservable and the check passes on the threshold
alone, with the floor recorded.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import BudgetExceededError, ConfigError, EigensolverError, InvalidDomainError
from .grid import (EPS, MIN_POINTS, STENCIL_ABS_D1, FLOOR_SAFETY, Grid, amplification,
                   blocks, cumint, diff_matrix, fd_floor, make_grid, observed_order)
from .operators import (PROBES, CoefficientSet, OperatorMatrix, build_d,
                        build_d_tilde, build_d_tilde_dagger, build_eta_tilde,
                        build_eta_tilde_block, build_h_prime, build_h_prime_block,
                        build_h_prime_dagger, default_probes, tau_similarity_actions)
from .pipeline import (CATALOG, DressedSystem, GeneratingSpec,
                       assemble_potential, make_family, _write_columns)
from .profiles import MassProfile, ProfileBundle

PAD = 8                 # index pad for identity-check windows
EIG_BUDGET = 4001
EIG_LEVELS = (501, 1001)   # default eigensolve levels (the spectrum check compares two)

# The verdict thresholds: part of the measurement protocol, not of a run's
# configuration; verify payloads record them (and PROBES) under `conventions`.
TOLERANCES = {
    "residual": 1e-6,          # finest-level residual for pass verdicts
    "order_min": 3.5,
    "symbol_dev_rel": 1e-6,    # probe-to-probe symbol agreement
    "c_stability": 1e-3,       # defect/zeroth-order constant across finest grids
    "exact_regime_defect": 1e-8,
    "gram_rel": 1e-6,
    "eig_backward": 1e-10,     # backward-error contract of every eigensolve
    "eig_rel": 1e-6,           # relative imaginary part below which an eigenvalue is real
    "parity_hermiticity": 1e-12,
}


@dataclass
class CheckLevel:
    n: int
    h: float
    residual: float
    floor: float


@dataclass
class CheckResult:
    """Outcome of one named check across grid resolutions."""

    name: str
    law: str
    levels: list
    observed_order: float = None
    threshold: float = None
    verdict: str = None          # set by `judge`
    notes: dict = field(default_factory=dict)

    @property
    def residuals(self):
        return [lv.residual for lv in self.levels]

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# verdicts: a rule maps a result's levels (coarsest first) and measured notes
# to (verdict, threshold, observed order, the notes with those it derives,
# placed as payloads carry them)
# ---------------------------------------------------------------------------

def _by_order(levels, notes, threshold=TOLERANCES["residual"]):
    """Pass when the finest residual is within `threshold` and the observed
    order, where the levels show one, is at least order_min."""
    rs, fls = [lv.residual for lv in levels], [lv.floor for lv in levels]
    order = observed_order([lv.h for lv in levels], rs, fls)
    ok = rs[-1] <= threshold and (order is None or order >= TOLERANCES["order_min"])
    if ok and order is None:
        why = ("residuals at or below the rounding floor" if all(
            r <= 10.0 * f for r, f in zip(rs, fls)) else "fewer than two floor-free levels")
        notes = {"order": f"unobservable: {why}", **notes}
    return "pass" if ok else "fail", threshold, order, notes


def _intertwined(levels, notes):
    """A genuine multiplication-operator defect is h-independent: over 10x
    its finest floor and falling less than 2x over the levels.  It passes
    when the probes agree on one symbol, fitted by the printed form with a
    stable constant.  Any other residual is judged by order, within
    max(residual, 20 x finest floor)."""
    tol, last = TOLERANCES, levels[-1]
    ratio = float(levels[0].residual / max(last.residual, 1e-300))
    genuine = last.residual > 10.0 * last.floor and ratio < 2.0
    notes = {**notes, "defect_regime": "genuine" if genuine else "vanishing",
             "residual_decay_ratio": ratio}
    if not genuine:
        verdict, threshold, order, derived = _by_order(
            levels, {}, max(tol["residual"], 20.0 * last.floor))
        return verdict, threshold, order, {**notes, **derived}
    ok = (notes["probe_symbol_deviation_rel"][-1] <= tol["symbol_dev_rel"]
          and notes.get("c_printed_stability", 1.0) <= tol["c_stability"]
          and notes["fit_residual_printed"][-1] <= 10.0 * tol["c_stability"])
    return "pass" if ok else "fail", tol["symbol_dev_rel"], None, notes


def _gram(levels, notes):
    """Below exact_regime_defect of eigenvector defect the Gram violations must
    be within gram_rel; above it they are reported only, against 10x the
    defect over the smallest constrained pairing gap."""
    tol, defect = TOLERANCES, notes["defect_on_eigenvectors"]
    exact = defect < tol["exact_regime_defect"]
    scaled = max(tol["exact_regime_defect"],
                 10.0 * defect / max(notes["min_constrained_gap"], 1e-300))
    # each derived note follows the measured one it is derived from
    after = {"defect_on_eigenvectors": {"exact_regime": exact},
             "min_constrained_gap": {"defect_scaled_tolerance": scaled}}
    placed = {}
    for key, value in notes.items():
        placed[key] = value
        placed.update(after.get(key, {}))
    placed["order"] = "not applicable to Gram structure"
    if not exact:
        return "reported-only", scaled, None, placed
    ok = levels[-1].residual <= tol["gram_rel"]
    return "pass" if ok else "fail", tol["gram_rel"], None, placed


def _counts_stable(levels, notes, bound=TOLERANCES["eig_backward"]):
    """Pass when every eigensolve meets the backward-error contract and the
    window's pairing counts move by at most 2 per class between the levels."""
    coarse, fine = notes["counts"]
    ok = (all(abs(coarse[k] - fine[k]) <= 2 for k in coarse)
          and all(lv.residual <= bound for lv in levels))
    return ("pass" if ok else "fail", bound, None,
            {**notes, "order": "not applicable to spectral bookkeeping"})


def _bounded(levels, notes, bound=TOLERANCES["parity_hermiticity"]):
    """Pass when the residual is within a fixed bound."""
    return "pass" if levels[-1].residual <= bound else "fail", bound, None, notes


# the rules the CHECKS rows name; a failed eigensolve fails explicitly, never
# silently, and never aborts the rest of the suite
RULES = {"order": _by_order, "intertwining": _intertwined, "gram": _gram,
         "counts": _counts_stable, "bound": _bounded,
         "reported": lambda levels, notes: ("reported-only", None, None, notes),
         "solver-failure": lambda levels, notes: ("fail", None, None, notes)}
# the notes the rules derive
JUDGED_NOTES = ("order", "defect_regime", "residual_decay_ratio", "exact_regime",
                "defect_scaled_tolerance")


def judge(result: CheckResult):
    """Set the verdict, threshold, observed order and derived notes of `result`
    by the rule of its CHECKS row ("solver-failure" for a result with an
    `error` note), from its levels and measured notes alone."""
    rule = "solver-failure" if "error" in result.notes else next(
        row.rule for row in CHECKS.values() if result.name in dict(row.results))
    result.verdict, result.threshold, result.observed_order, result.notes = RULES[rule](
        result.levels, result.notes)
    return result


@dataclass(frozen=True)
class FreeLevel:
    """A level of the free preset: the sampled mass, every coefficient function zero."""

    grid: Grid
    bundle: ProfileBundle
    f: np.ndarray
    fp: np.ndarray
    g: np.ndarray
    gp: np.ndarray
    a: np.ndarray
    ap: np.ndarray
    V: np.ndarray
    phi: np.ndarray


@dataclass
class SystemBuilder:
    """Builds one configured system at any resolution (for refinement studies):
    a family from its generating `spec`, or the free preset (`spec` None).

    `inputs` is the one level store: each level (and corruption) is built
    once, kept frozen with read-only arrays and handed out as is; a variant
    of a level is a `dataclasses.replace` copy (see `detuned`).  `spectral` keeps
    one eigendecomposition, the last one solved, under the same key, with
    read-only eigenvalues and eigenvectors: every spectral check only reads it.
    """

    profile: MassProfile
    xmin: float
    xmax: float
    spec: GeneratingSpec = None
    corruption: tuple = None       # (target, amount) or None
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spectral: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grid(self, n):
        return make_grid(self.xmin, self.xmax, n)

    def dressed(self, n) -> DressedSystem:
        if self.spec is None:
            raise InvalidDomainError("the free preset has no dressed system")
        return self.inputs(n)

    def inputs(self, n):
        """Operator-check input at n: the dressed system of a family, or for
        the free preset the sampled mass with every coefficient function zero."""
        key = (n, self.corruption)
        if key not in self._levels:
            grid = self.grid(n)
            if self.spec is None:
                z, zc = np.zeros(grid.n), np.zeros(grid.n, complex)
                inp = FreeLevel(grid, self.profile.sample(grid), z, z, z, z, z, z, zc, zc)
            else:
                inp = make_family(self.spec, self.profile, grid)
                if self.corruption is not None:
                    inp = apply_corruption(inp, *self.corruption)
            for part in (inp, inp.bundle, inp.grid):
                for value in vars(part).values():
                    if isinstance(value, np.ndarray):
                        value.flags.writeable = False
            self._levels[key] = inp
        return self._levels[key]

    def spectral(self, n) -> SpectralResult:
        """Eigendecomposition of the Dirichlet block at n, from a one-slot
        cache: the decomposition held is dropped before a new one is solved."""
        key = (n, self.corruption)
        if key not in self._spectral:
            self._spectral.clear()
            inp = self.inputs(n)
            sp = eigendecompose(
                build_h_prime_block(inp.V, inp.a, inp.ap, inp.bundle, inp.grid), inp.grid)
            sp.eigenvalues.flags.writeable = sp.eigenvectors.flags.writeable = False
            self._spectral[key] = sp
        return self._spectral[key]


def _coefficients(inp):
    """Metric and Hamiltonian coefficients of an operator-check input."""
    return CoefficientSet.build(inp.f, inp.fp, inp.g, inp.gp, inp.a, inp.ap, inp.bundle)


def detuned(ds: DressedSystem, f0):
    """A copy of `ds` whose f does not solve the first-order balance.

    f0 is a constant or a callable of the coordinate array; the potential
    is re-assembled from the detuned f so that all balances except the
    zeroth-order one still hold, which isolates a genuine
    multiplication-operator defect.
    """
    if callable(f0):
        f = np.asarray(f0(ds.grid.x), dtype=float)
        fp = diff_matrix(ds.grid, 1) @ f
    else:
        f, fp = np.full(ds.grid.n, float(f0)), np.zeros(ds.grid.n)
    return replace(ds, f=f, fp=fp,
                   V=assemble_potential(f, fp, ds.g, ds.gp, ds.bundle, ds.spec.delta))


CORRUPTION_TARGETS = ("v-imag-flip", "v-add-linear", "f-perturb")
CORRUPTION_AMOUNT = 0.1        # the amount of a corruption that names none


def apply_corruption(ds: DressedSystem, target, amount=CORRUPTION_AMOUNT):
    """A deliberately damaged copy of a dressed system (negative-control fixtures)."""
    if target == "v-imag-flip":
        return replace(ds, V=ds.V.real - 1j * ds.V.imag)
    if target == "v-add-linear":
        return replace(ds, V=ds.V + amount * ds.grid.x)
    if target == "f-perturb":
        return replace(ds, f=ds.f * (1.0 + amount))
    raise InvalidDomainError(f"unknown corruption target {target!r}")


def _window(grid: Grid, xmargin):
    return grid.interior_mask(PAD, xmargin)


def _xmargin(domain, ns):   # domain: a builder or a grid
    return PAD * (domain.xmax - domain.xmin) / (min(ns) - 1)


def _refine(key, inputs, xmargin, trace_dir=None):
    """The refinement driver: evaluate the identity of row `key` of CHECKS
    on each level input, coarsest first, and trace the last to `trace_dir`.

    The row's `residual(inp, xmargin)` is the identity's pointwise-residual
    function of one level's input, which the caller chooses (it may feed
    changed copies).  It returns (grid, window, outputs, extra) with one
    (|residual| at every node, scale, floor) triple per check output; the
    level residual is the window maximum over the scale, at the grid's n
    and h.  Returns one CheckLevel list per output and the per-level extras.
    """
    rows, extras = [], []
    for inp in inputs:
        grid, w, outputs, extra = CHECKS[key].residual(inp, xmargin)
        rows.append([CheckLevel(grid.n, grid.h, res[w].max() / scale, floor)
                     for res, scale, floor in outputs])
        extras.append(extra)
    _write_trace(trace_dir, key, grid, outputs)
    return [list(levels) for levels in zip(*rows)], extras


def _write_trace(trace_dir, key, grid, outputs):
    """Write one level of row `key` as `<trace_dir>/<key>.csv`, if trace_dir is set.

    Columns: x, then each result's pointwise residual over its scale, whose
    maximum over the check window is the level's reported residual.
    """
    if not trace_dir:
        return
    os.makedirs(trace_dir, exist_ok=True)
    _write_columns(os.path.join(trace_dir, f"{key}.csv"),
                   ("x",) + tuple(name for name, _ in CHECKS[key].results),
                   [grid.x] + [res / scale for res, scale, _ in outputs])


def _judged(row, per_result, notes):
    """The results of `row`, one per CheckLevel list, each with `notes`, judged."""
    return tuple(judge(CheckResult(name, law, levels, notes=dict(notes)))
                 for (name, law), levels in zip(row.results, per_result))


def _identity(key, builder: SystemBuilder, ns, detune=None, trace_dir=None):
    """Refine row `key` of CHECKS over the builder's levels `ns` its `pick`
    takes, in the window of all; judge each result.

    With `detune`, which only a row whose options name it reads, each level
    is the builder's dressed system detuned (see `detuned`), and such a row
    records `detune` as its first note ("callable" for a callable).  The
    row's `notes` reduces the levels' extras to the other notes.  Returns
    the results, in the row's order.
    """
    row = CHECKS[key]
    if detune is not None and "detune" not in row.options:
        raise ConfigError(f"detune: not read by check {key!r}")
    level = builder.dressed if row.dressed else builder.inputs
    picked = sorted(set(ns))[row.pick or slice(None)]
    inputs = (map(level, picked) if detune is None
              else (detuned(builder.dressed(n), detune) for n in picked))
    per_result, extras = _refine(key, inputs, _xmargin(builder, ns), trace_dir)
    notes = row.notes(extras)
    if "detune" in row.options:
        notes = {"detune": "callable" if callable(detune) else detune, **notes}
    return _judged(row, per_result, notes)


def _spectral(key, builder: SystemBuilder, eig_levels):
    """Evaluate the one result of row `key` of CHECKS at the eig levels its
    `pick` takes, coarsest first, with `residual(builder.spectral(n),
    builder.inputs(n))`, and judge it.  That returns the level's CheckLevel
    and an extra of numbers and O(m) arrays, never an m x m one: no level
    keeps the decomposition `builder.spectral` drops before its next solve."""
    row = CHECKS[key]
    levels, extras = zip(*(row.residual(builder.spectral(n), builder.inputs(n))
                           for n in sorted(set(eig_levels))[row.pick or slice(None)]))
    return _judged(row, [list(levels)], row.notes(extras))


def _largest(extras):
    """Each note of the levels' extras (dicts or None) at its largest."""
    return {k: max(extra[k] for extra in extras) for k in extras[0] or ()}


# ---------------------------------------------------------------------------
# coefficient-matching checks
# ---------------------------------------------------------------------------

def _eq25(ds, xm):
    """Potential-conjugation balance: V - conj(V) + 4i U g' must vanish.

    g' is taken by finite differences, independently of the analytic
    derivative used to assemble V, so the residual converges at the stencil
    order rather than cancelling identically.
    """
    grid, U = ds.grid, ds.bundle.U
    w = _window(grid, xm)
    gp_fd = diff_matrix(grid, 1) @ ds.g
    res = np.abs(ds.V - np.conj(ds.V) + 4j * U * gp_fd)
    scale = max(1.0, np.abs(ds.V[w]).max())
    floor = fd_floor(grid.h, c1max=4.0 * np.abs(U[w]).max()) / scale
    return grid, w, [(res, scale, floor)], None


def _eq26(ds, xm):
    """Potential-gradient balance:
    conj(V)' = 2 f f' - 2 g g' - (U f)'' + 2i (U g')', all derivatives FD."""
    grid, U = ds.grid, ds.bundle.U
    w = _window(grid, xm)
    D1 = diff_matrix(grid, 1)
    lhs = D1 @ np.conj(ds.V)
    rhs = (2.0 * ds.f * (D1 @ ds.f) - 2.0 * ds.g * (D1 @ ds.g)
           - D1 @ (D1 @ (U * ds.f)) + 2j * (D1 @ (U * (D1 @ ds.g))))
    scale = max(1.0, np.abs(lhs[w]).max())
    floor = fd_floor(grid.h, c2max=np.abs(U[w]).max(),
                     c1max=1.0 + np.abs(ds.V[w]).max()) / scale
    return grid, w, [(np.abs(lhs - rhs), scale, floor)], None


def residual_eq28(inputs, xmargin=0.0):
    """Zeroth-order balance, evaluated term by term exactly as printed.

    Returns the sampled 12-term expression (finite differences throughout)
    together with the single-term-corrected variant in which the first
    term carries g instead of g'.  Reported, never pass/fail: the measured
    intertwining defect is the arbiter of which expression is structural.
    """
    grid = inputs.grid
    D1 = diff_matrix(grid, 1)
    U = inputs.bundle.U
    f, g = inputs.f, inputs.g
    Up, Upp, Uppp = D1 @ U, D1 @ (D1 @ U), D1 @ (D1 @ (D1 @ U))
    fp, fpp = D1 @ f, D1 @ (D1 @ f)
    gp, gpp, gppp = D1 @ g, D1 @ (D1 @ g), D1 @ (D1 @ (D1 @ g))
    common = (-4.0 * U * f**2 * gp + 4.0 * U**2 * fp * gp + 4.0 * U * Up * fp * g
              + 4.0 * U * Up * f * gp + 2.0 * U**2 * fpp * g + 3.0 * U**2 * Up * gpp
              + 2.0 * U * Upp * f * g - U**2 * Upp * gp - 2.0 * U * Up * Upp * g
              + U**3 * gppp - U**2 * Uppp * g)
    printed = common - 4.0 * U * f * fp * gp
    corrected = common - 4.0 * U * f * fp * g
    w = _window(grid, xmargin)
    return {"printed": printed, "corrected": corrected, "window": w,
            "max_printed": float(np.abs(printed[w]).max()),
            "max_corrected": float(np.abs(corrected[w]).max())}


def _eq28(inp, xm):
    r = residual_eq28(inp, xm)
    return inp.grid, r["window"], [(np.abs(r["printed"]), 1.0, 0.0)], {
        k: r[k] for k in ("max_printed", "max_corrected")}


# ---------------------------------------------------------------------------
# ground state, gauge, antilinear similarity
# ---------------------------------------------------------------------------

def _groundstate(ds, xm):
    """Annihilation and eigen-residuals of the constructed ground state:
    max |D~ xi| / max |xi| and max |(H' - delta) xi| / max |xi| over the window."""
    grid, b, xi = ds.grid, ds.bundle, ds.xi
    dt = build_d_tilde(ds.phi, ds.a, b, grid)
    hp = build_h_prime(ds.V, ds.a, ds.ap, b, grid)
    w = _window(grid, xm)
    nrm = np.abs(xi[w]).max()
    amax = nrm and np.abs(xi).max() / nrm
    fl_ann = fd_floor(grid.h, c1max=np.abs(b.U[w]).max(),
                      c0max=np.abs(ds.phi[w]).max(), amp=amax)
    fl_eig = fd_floor(grid.h, c2max=np.abs(b.U[w]**2).max(),
                      c1max=2.0 * np.abs(_coefficients(ds).M1[w]).max(),
                      c0max=np.abs(ds.V[w]).max(), amp=amax)
    return grid, w, [(np.abs(dt @ xi), nrm, fl_ann),
                     (np.abs(hp @ xi - ds.energy * xi), nrm, fl_eig)], None


def _gauge(ds, xm):
    """Gauge identity: D~(Lambda psi) = Lambda (D psi), measured on the window,
    with the largest | |Lambda| - 1 | as a note."""
    grid, b = ds.grid, ds.bundle
    d = build_d(ds.phi, b, grid)
    dt = build_d_tilde(ds.phi, ds.a, b, grid)
    lhs = dt @ (ds.Lambda * ds.psi)
    rhs = ds.Lambda * (d @ ds.psi)
    w = _window(grid, xm)
    nrm = np.abs((ds.Lambda * ds.psi)[w]).max()
    amax = np.abs(ds.psi).max() / nrm
    floor = fd_floor(grid.h, c1max=2.0 * np.abs(b.U[w]).max(),
                     c0max=np.abs(ds.phi[w]).max() + np.abs(ds.a[w]).max(),
                     amp=amax)
    unit_mod = float(np.abs(np.abs(ds.Lambda) - 1.0).max())
    return grid, w, [(np.abs(lhs - rhs), nrm, floor)], {"max_unit_modulus_defect": unit_mod}


def _tau(ds, xm):
    """Antilinear similarity between H' and its adjoint through the tau phase."""
    grid, b = ds.grid, ds.bundle
    hp = build_h_prime(ds.V, ds.a, ds.ap, b, grid)
    hpd = build_h_prime_dagger(ds.V, ds.a, ds.ap, b, grid)
    res, act = tau_similarity_actions(hp, hpd, ds.tau_phase, default_probes(grid))
    w = _window(grid, xm)
    floor = FLOOR_SAFETY * EPS * (
        1.0 + np.abs(ds.tau_phase[w]).max()) * (
        1.0 + STENCIL_ABS_D1 * 2.0 * np.abs(_coefficients(ds).M1[w]).max()
        / (grid.h * max(1.0, np.abs(ds.V[w]).max())))
    return grid, w, [(res, max(act[w].max(), 1e-300), floor)], None


# ---------------------------------------------------------------------------
# metric operator checks
# ---------------------------------------------------------------------------

def _eta(inp, xm):
    """Metric Hermiticity and the dual construction, by probe actions.

    Both residuals are relative to the metric action scale.  Entrywise
    matrix comparisons are meaningless here: the conjugate transpose of a
    discretized operator differs entrywise from the discretization of the
    formal adjoint at O(1/h) while their actions on smooth vectors agree at
    the stencil order.
    """
    grid, b = inp.grid, inp.bundle
    coeffs = _coefficients(inp)
    eta = build_eta_tilde(coeffs, b, grid)
    etaH = eta.H
    dt = build_d_tilde(inp.phi, inp.a, b, grid)
    dtd = build_d_tilde_dagger(inp.phi, inp.a, b, grid)
    w = _window(grid, xm)
    r_h = r_d = act = 0.0
    for v in default_probes(grid):
        ev = eta @ v
        act = np.maximum(act, np.abs(ev))
        r_h = np.maximum(r_h, np.abs(ev - etaH @ v))
        r_d = np.maximum(r_d, np.abs(ev - dtd @ (dt @ v)))
    scale = max(act[w].max(), 1e-300)
    fl = fd_floor(grid.h, c2max=np.abs(b.U[w]**2).max(),
                  c1max=2.0 * np.abs(coeffs.K[w]).max(),
                  c0max=np.abs(coeffs.L[w]).max()) / scale
    return grid, w, [(r_h, scale, fl), (r_d, scale, fl)], None


def _parity(ds, xm):
    """Hermiticity of the parity metric diag(e) P on a grid symmetric about 0.

    With P the index reversal and e = exp(2i int a/U) anchored at the center
    node, row i holds e[i] in column n-1-i and the adjoint holds
    conj(e[n-1-i]) there, so the defect is read from e at every node.  It is
    Hermitian exactly when the gauge function and U are even.
    """
    grid = ds.grid
    if not grid.parity_capable:
        raise InvalidDomainError(
            "parity operator needs xmin = -xmax and odd n (a node exactly at 0)")
    e = np.exp(1j * (2.0 * cumint(ds.a / ds.bundle.U, grid, grid.index_nearest(0.0))))
    return grid, np.ones(grid.n, bool), [(np.abs(e - np.conj(e)[::-1]), 1.0, 64.0 * EPS)], None


# ---------------------------------------------------------------------------
# intertwining defect
# ---------------------------------------------------------------------------

def _symbol_summary(syms):
    """Reduce the per-probe symbols (Delta v)/v of one level to (S, have, dev).

    S is the mean symbol over the probes defined at each node (NaN where
    none is), `have` marks the nodes where some probe is, and dev is the
    largest disagreement between two probes at a node where both are.  The
    running sums add the probes in turn from zero, in the order of numpy's
    axis-0 sum over the stacked symbols, so S has the same bits.
    """
    n = len(syms[0])
    total = np.zeros(n, complex)
    cnt = np.zeros(n, int)
    filled = [~np.isnan(sym) for sym in syms]
    for sym, f in zip(syms, filled):
        total += np.where(f, sym, 0.0)
        cnt += f
    have = cnt > 0
    S = np.full(n, np.nan + 0j)
    S[have] = total[have] / cnt[have]
    dev = 0.0
    for i in range(len(syms)):
        for j in range(i + 1, len(syms)):
            both = filled[i] & filled[j]
            if both.any():
                dev = max(dev, float(np.abs(syms[i][both] - syms[j][both]).max()))
    return S, have, dev


def _intertwining(inp, xm):
    """Defect of the metric intertwining relation, with zeroth-order analysis.

    The defect Delta = eta H' - H'^ eta is applied to smooth probes; the
    residual is max |Delta v| relative to the action scale max |eta (H' v)|
    on the window.  The extra is the level's zeroth-order analysis: the
    pointwise ratios (Delta v)/v are compared across probes, and their mean
    symbol is fitted against the sampled zeroth-order balance in both
    printed and corrected forms; if the probes agree, the defect is a pure
    multiplication operator and the fitted constants describe it.  Only
    these numbers outlive the level.

    Consistently constructed systems have an identically vanishing defect,
    so the residual only converges toward the rounding floor; a detuned
    level input (see `detuned`) makes it genuinely nonzero.
    """
    grid, b = inp.grid, inp.bundle
    coeffs = _coefficients(inp)
    eta = build_eta_tilde(coeffs, b, grid)
    hp = build_h_prime(inp.V, inp.a, inp.ap, b, grid)
    hpd = build_h_prime_dagger(inp.V, inp.a, inp.ap, b, grid)
    w = _window(grid, xm)
    res = act = hv_max = ev_max = 0.0
    syms = []
    for v in default_probes(grid):
        hv = hp @ v
        ev = eta @ v
        ehv = eta @ hv
        dv = ehv - hpd @ ev
        res = np.maximum(res, np.abs(dv))
        act = np.maximum(act, np.abs(ehv))
        hv_max = max(hv_max, np.abs(hv[w]).max())
        ev_max = max(ev_max, np.abs(ev[w]).max())
        m = w & (np.abs(v) >= 0.3 * np.abs(v[w]).max())
        sym = np.full(grid.n, np.nan + 0j)
        sym[m] = dv[m] / v[m]
        syms.append(sym)
    del eta, hp, hpd, hv, ev, ehv, dv
    S, have, dev = _symbol_summary(syms)
    del syms
    symbol_scale = float(np.abs(S[have]).max()) if have.any() else 0.0
    zeroth = {"symbol_scale": symbol_scale,
              "probe_symbol_deviation_rel": dev / max(symbol_scale, 1e-300)}
    r28 = residual_eq28(inp, 0.0)
    for form in ("printed", "corrected"):
        R = r28[form]
        mfit = have & (np.abs(R) >= 0.05 * np.abs(R[w]).max())
        if mfit.any() and np.abs(R[mfit]).max() > 0:
            c = complex(np.sum(S[mfit] * R[mfit]) / np.sum(R[mfit] ** 2))
            fit = float(np.abs(S[mfit] - c * R[mfit]).max() / max(symbol_scale, 1e-300))
        else:
            c, fit = 0j, float("nan")
        zeroth[f"c_{form}"], zeroth[f"fit_residual_{form}"] = c, fit
    scale = max(act[w].max(), 1e-300)
    # roundoff model: noise of the inner matvec (amplification times its
    # input) is rough, so the outer stencil re-amplifies it fully
    u2 = np.abs(b.U[w]**2).max()
    a_eta = amplification(grid.h, u2, np.abs(2.0 * coeffs.K[w]).max(), np.abs(coeffs.L[w]).max())
    a_h = amplification(grid.h, u2, np.abs(2.0 * coeffs.M1[w]).max(),
                        np.abs((coeffs.N1 + inp.V)[w]).max())
    floor = FLOOR_SAFETY * EPS * (a_eta * a_h + a_eta * hv_max + a_h * ev_max) / scale
    return grid, w, [(res, scale, floor)], zeroth


def _zeroth_order_notes(extras):
    """The zeroth-order analysis of the two finest levels, with the relative
    change of each form's fitted constant between them."""
    last = extras[-2:]
    notes = {k: [x[k] for x in last] for k in ("symbol_scale", "probe_symbol_deviation_rel")}
    for form in ("printed", "corrected"):
        cs = [x[f"c_{form}"] for x in last]
        notes[f"c_{form}"] = [[c.real, c.imag] for c in cs]
        notes[f"fit_residual_{form}"] = [x[f"fit_residual_{form}"] for x in last]
        if len(cs) == 2 and abs(cs[1]) > 0:
            notes[f"c_{form}_stability"] = abs(cs[0] - cs[1]) / abs(cs[1])
    return notes


# ---------------------------------------------------------------------------
# spectral checks
# ---------------------------------------------------------------------------

@dataclass
class SpectralResult:
    """Dense eigendecomposition of the interior-block Hamiltonian, each
    eigenvalue labelled once when built: real, paired or unpaired."""

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    backward_error: float = 0.0
    solver: str = "eig"
    pairing: list = field(init=False)
    counts: dict = field(init=False)

    def __post_init__(self):
        tol_rel = TOLERANCES["eig_rel"]
        E = self.eigenvalues
        labels = np.empty(len(E), dtype=object)
        scale = np.maximum(1.0, np.abs(E))
        is_real = np.abs(E.imag) <= tol_rel * scale
        labels[is_real] = "real"
        idx = np.where(~is_real)[0]
        for i in idx:
            d = np.abs(E - np.conj(E[i]))
            d[i] = np.inf
            labels[i] = "paired" if d.min() <= tol_rel * scale[i] else "unpaired"
        self.pairing = list(labels)
        self.counts = _pairing_counts(self.pairing, E.real)


def _pairing_counts(pairing, real, cap=np.inf):
    """Pairing counts of the eigenvalues whose real part is at most `cap`."""
    labels = np.array(pairing, dtype=object)[real <= cap]
    return {k: int(np.sum(labels == k)) for k in ("real", "paired", "unpaired")}


def _flush_subnormals(v):
    """Set the real and imaginary parts of `v` below the smallest normal
    float to 0, in place: products with subnormal operands run several times
    slower, and no number a check reports resolves parts that small."""
    for part in (v.real, v.imag):
        part[np.abs(part) < np.finfo(float).tiny] = 0.0


def eigendecompose(block: OperatorMatrix, grid: Grid) -> SpectralResult:
    """All eigenpairs of the Dirichlet block of `grid`, with a backward-error contract.

    Hermitian blocks (within rounding) go through the symmetric solver,
    which also guarantees exactly real eigenvalues; everything else through
    the general dense solver.  Solver failures and contract violations
    surface as explicit errors.  The scale and the realness test read the
    stored diagonals (exact: every other entry of the block is zero); the
    block is densified only after the budget check, and Hermiticity is
    tested on that dense copy.  During the solve the working set is about four
    complex m x m arrays (16 m^2 bytes each): the dense block, the solver's
    copy of it, its eigenvector buffer and the returned eigenvectors.  The
    backward-error residual is formed after the block is freed, so after
    the solve no step holds more than three, the eigenvectors included.
    The real eigenvectors of a real symmetric block are made complex once,
    the cast numpy would otherwise repeat in every product with them, and on
    either route their subnormal parts are set to 0 (`_flush_subnormals`).
    Either route returns the eigenvalues sorted by real part.
    """
    if grid.n > EIG_BUDGET:
        raise BudgetExceededError(
            f"dense eigensolve at n = {grid.n} exceeds the budget ({EIG_BUDGET} grid points)")
    m = block.shape[0]
    scale = np.abs(block.data).max()
    mat = block.mat
    hermitian = np.abs(mat - mat.conj().T).max() <= 1e-12 * scale
    hfro = np.linalg.norm(mat, "fro")
    try:
        if hermitian:
            if not block.data.imag.any():
                w, v = np.linalg.eigh(mat.real)
                v = v.astype(complex)
            else:
                w, v = np.linalg.eigh(mat)
            w = w.astype(complex)
            solver = "eigh"
        else:
            w, v = np.linalg.eig(mat)
            order = np.argsort(w.real, kind="stable")
            w, v = w[order], v[:, order]
            solver = "eig"
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise EigensolverError("eigensolver returned non-finite eigenvalues")
    _flush_subnormals(v)
    r = mat @ v
    del mat
    r -= v * w[None, :]
    resid = np.linalg.norm(r, "fro") / (hfro * np.sqrt(m))
    if resid > TOLERANCES["eig_backward"]:
        raise EigensolverError(f"eigensolver backward error {resid:.3e} exceeds "
                               f"contract {TOLERANCES['eig_backward']:.1e}")
    return SpectralResult(grid, w, v, float(resid), solver)


def _spectrum(sp, inp):
    """One eig level of the spectrum bookkeeping: its backward error, and the
    eigenvalues' real parts, pairing labels, solver and the cap of the window
    the level resolves with sub-percent dispersion (phase per step <= 0.8 rad)."""
    re, h = sp.eigenvalues.real, sp.grid.h
    return CheckLevel(sp.grid.n, h, sp.backward_error, EPS), {
        "real": re, "pairing": sp.pairing, "solver": sp.solver, "cap": re.min() + 0.64 / h**2}


def _spectrum_notes(extras):
    """The pairing counts of each level inside the coarser level's window,
    where they may shift by at most 2 per class near the truncation edge."""
    cap = extras[0]["cap"]
    return {"window_cap": float(cap),
            "counts": [_pairing_counts(x["pairing"], x["real"], cap) for x in extras],
            "solver": [x["solver"] for x in extras]}


def _eq29(sp, inp):
    """Spectral structure of the metric-weighted Gram matrix.

    G_jk = <v_j | w eta | v_k> over the computed eigenbasis.  The exact
    statement (vanishing norms for nonreal eigenvalues, orthogonality except
    between conjugate pairs) holds exactly as far as the intertwining holds
    *on the eigenvectors*, wall effects included, so the governing defect is
    measured as max_k |(H'^H W eta - W eta H') v_k| relative to the metric
    action on v_k, which selects the `gram` rule's regime.

    The decomposition comes from `SystemBuilder.spectral`, so one the
    spectrum check solved at n is not repeated; its arrays are only read.
    The metric action W eta V is formed once: the defect reads it first, then it
    is conjugated in place for G, so with the eigenvectors the working set
    peaks at three complex m x m arrays (the eigenvectors, the metric action
    and G); the reductions over G, the pairing gaps and the defect run in
    blocks of rows or columns.
    """
    grid, b = inp.grid, inp.bundle
    coeffs = _coefficients(inp)
    hb = build_h_prime_block(inp.V, inp.a, inp.ap, b, grid)
    eb = build_eta_tilde_block(coeffs, b, grid)
    V = sp.eigenvectors
    E = sp.eigenvalues
    m = len(E)
    hbH, weta = hb.H, grid.h * eb
    etaV = weta @ V
    # defect C v = H'^H (W eta v) - W eta (H' v) of the weighted intertwining
    # on the eigenvectors, per run of columns; the exact identity (conj(E_j) -
    # E_k) G_jk = v_j^H C v_k makes |C v_k|/gscale bound relative Gram violations
    num = np.concatenate([np.linalg.norm(hbH @ etaV[:, c] - weta @ (hb @ V[:, c]), axis=0)
                          for c in blocks(m)])
    # G = V^H (W eta V) = conj(V^T conj(W eta V)); sign flips are exact
    np.conjugate(etaV, out=etaV)
    G = V.T @ etaV
    del etaV
    np.conjugate(G, out=G)

    scale_e = np.maximum(1.0, np.abs(E))
    nonreal = np.array(sp.pairing) != "real"
    gd = np.abs(np.diag(G))
    gscale = float(np.median(gd)) or 1.0
    # per run of rows j: Hermiticity of G, |G_jk|, and for property (ii) the
    # off-structure entries, whose pairing gap |conj(E_j) - E_k| exceeds the
    # tolerance (j != k), with their largest |G_jk| and smallest gap
    herm, gmax, viol, gaps = [], [], [], []
    for r in blocks(m):
        absg = np.abs(G[r])
        herm.append(np.abs(G[r] - G[:, r].conj().T).max())
        gmax.append(absg.max())
        conj_gap = np.abs(E[r].conj()[:, None] - E[None, :])
        offstruct = conj_gap > TOLERANCES["eig_rel"] * scale_e[None, :]
        np.fill_diagonal(offstruct[:, r], False)
        if offstruct.any():
            viol.append((absg[offstruct] / gscale).max())
            gaps.append(conj_gap[offstruct].min())
    del G
    gram_herm = float(max(herm) / max(max(gmax), 1e-300))
    defect = float(np.max(num / (gscale * scale_e)))

    # property (i): nonreal eigenvalues have vanishing metric norm
    viol_i = float((gd[nonreal] / gscale).max()) if nonreal.any() else 0.0
    # property (ii): off-structure entries vanish unless conjugate-paired
    viol_ii = float(max(viol)) if viol else 0.0
    gap = float(min(gaps)) if gaps else 1.0
    return CheckLevel(grid.n, grid.h, max(viol_i, viol_ii), EPS), {
        "defect_on_eigenvectors": defect,
        "gram_scale": gscale,
        "violation_i_rel": viol_i,
        "violation_ii_rel": viol_ii,
        "min_constrained_gap": gap,
        "gram_hermiticity_rel": gram_herm,
        "counts": sp.counts,
        "solver": sp.solver,
    }


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A check declared once: one (name, law) pair per result in payload
    order, its per-level function, whether it needs a dressed system, the
    run options it reads, the levels its driver takes ("refine": `_identity`;
    "eig_levels": `_spectral`), the slice of their sorted distinct values it
    evaluates (`pick`; None: all, and an identity row's window comes from
    all), the function that reduces its per-level extras to its notes, and
    the `RULES` entry that judges its results."""

    results: tuple
    residual: object
    dressed: bool = True
    options: tuple = ("trace_dir",)
    levels: str = "refine"
    pick: slice = None
    notes: object = _largest
    rule: str = "order"


# every check, in canonical payload order
CHECKS = {
    "eq25": Check((("eq25", "conjugation balance"),), _eq25),
    "eq26": Check((("eq26", "gradient balance"),), _eq26),
    "eq28": Check((("eq28", "zeroth-order balance (sampled)"),), _eq28,
                  dressed=False, pick=slice(-1, None), rule="reported"),
    "intertwining": Check((("intertwining", "metric intertwining"),), _intertwining,
                          dressed=False, options=("detune", "trace_dir"),
                          notes=_zeroth_order_notes, rule="intertwining"),
    "groundstate": Check((("groundstate", "first-order annihilation"),
                          ("groundstate-eigen", "eigen-residual")), _groundstate),
    "gauge": Check((("gauge", "gauge equivalence"),), _gauge),
    "tau": Check((("tau", "antilinear similarity"),), _tau),
    "eta-hermiticity": Check((("eta-hermiticity", "metric Hermiticity"),
                              ("eta-dual", "metric dual construction")), _eta, dressed=False),
    "parity-eta": Check((("parity-eta", "parity metric Hermiticity"),), _parity,
                        pick=slice(0, 1), rule="bound"),
    "spectrum": Check((("spectrum", "dense spectrum bookkeeping"),), _spectrum, dressed=False,
                      options=(), levels="eig_levels", pick=slice(-2, None),
                      notes=_spectrum_notes, rule="counts"),
    "eq29": Check((("eq29", "metric Gram structure"),), _eq29, dressed=False,
                  options=(), levels="eig_levels", pick=slice(-1, None), rule="gram"),
}


def validate_levels(checks, ns, eig_levels, xmin, xmax):
    """Refuse, before any system is built, ascending levels on [xmin, xmax]
    that the known `checks` cannot run on: a refine level whose check window
    (`_window` of its grid, as the checks take it) is empty; if a check
    reads eig_levels, none, one below a grid's MIN_POINTS or one over the
    budget; for spectrum, fewer than two distinct eig levels; and for
    parity-eta, a coarsest grid that is not symmetric about 0 (`_parity`)."""
    if "spectrum" in checks and len(set(eig_levels)) < 2:
        raise ConfigError(f"the spectrum check compares two distinct eig_levels, "
                          f"got {eig_levels}")
    if ns[0] < 2 * PAD + 1:
        raise ConfigError(f"coarsest refine level {ns[0]}: a check window "
                          f"needs at least {2 * PAD + 1} points")
    if any(CHECKS[k].levels == "eig_levels" for k in checks):
        if not eig_levels:
            raise ConfigError(f"checks {checks} read eig_levels, which is empty")
        if eig_levels[0] < MIN_POINTS:
            raise ConfigError(f"eig level {eig_levels[0]}: a grid needs at least "
                              f"{MIN_POINTS} points")
        if eig_levels[-1] > EIG_BUDGET:
            raise BudgetExceededError(f"dense eigensolve at n = {eig_levels[-1]} "
                                      f"(eig_levels) exceeds the budget ({EIG_BUDGET} grid points)")
    grids = [make_grid(xmin, xmax, n) for n in ns]
    empty = [g.n for g in grids if not _window(g, _xmargin(grids[0], ns)).any()]
    if empty:
        raise ConfigError(f"refine levels {empty}: no node in the check window ({PAD} "
                          f"points and {PAD} steps of level {ns[0]} in from each edge)")
    if "parity-eta" in checks and not grids[0].parity_capable:
        raise ConfigError("parity-eta needs a grid symmetric about 0: xmin = -xmax "
                          "and an odd coarsest refine level")


def run_suite(builder: SystemBuilder, checks, ns, eig_levels=EIG_LEVELS, detune=None,
              trace_dir=None):
    """Run the requested checks; returns (results, spectral summary, findings).
    Levels the checks cannot run on are refused first (`validate_levels`).

    With `trace_dir`, each check with a pointwise residual writes its
    finest level there as it runs (see `_write_trace`).

    Checks run one after another and results come back in the canonical
    check order whatever the order of the levels, so report payloads are
    deterministic.  The spectral summary describes the decomposition at the
    finest eig level, if one was solved; the builder keeps none afterwards.
    """
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise InvalidDomainError(f"unknown checks: {sorted(unknown)}")
    ns, eig_levels = sorted(ns), sorted(eig_levels)
    validate_levels(checks, ns, eig_levels, builder.xmin, builder.xmax)
    given = {"refine": ns, "eig_levels": eig_levels, "detune": detune,
             "trace_dir": trace_dir}
    drivers = {"refine": _identity, "eig_levels": _spectral}
    results = []
    for key, row in CHECKS.items():
        if key not in checks or (row.dressed and builder.spec is None):
            continue
        options = {k: given[k] for k in row.options}
        try:
            results += drivers[row.levels](key, builder, given[row.levels], **options)
        except EigensolverError as exc:
            results.append(judge(CheckResult(key, "dense eigendecomposition", [],
                                             notes={"error": str(exc)})))

    findings = _standing_findings(builder, ns)
    finest = builder._spectral.pop((max(eig_levels, default=None), builder.corruption), None)
    builder._spectral.clear()
    return results, spectral_payload(finest) if finest else None, findings


def spectral_payload(sp: SpectralResult):
    """The report's spectral summary: counts, and the 64 eigenvalues of lowest real part."""
    E = sp.eigenvalues[:64]   # eigendecompose sorts them by real part
    return {
        "solver": sp.solver,
        "backward_error": sp.backward_error,
        "counts": sp.counts,
        "eigenvalues_re": [float(e.real) for e in E],
        "eigenvalues_im": [float(e.imag) for e in E],
        "listed": int(len(E)),
        "total": int(len(sp.eigenvalues)),
    }


def _standing_findings(builder: SystemBuilder, ns):
    """Structured notes on printed-form discrepancies, measured per run."""
    if builder.spec is None:
        return []
    ds = builder.dressed(ns[0])
    findings = [{
        "id": "mass-gradient-term-form",
        "detail": ("sampled mass-gradient term uses the closure-consistent form "
                   "(5 mu''^2 - 2 mu' mu''')/(4 mu'^4); the catalog-printed form "
                   "mu'''/mu'^3 - (5/4) mu''^2/mu'^4 differs on this grid by"),
        "max_abs_difference": float(np.abs(ds.V_mu - ds.printed_vmu).max()),
    }]
    if ds.analytic and ds.spec.family in CATALOG:
        printed = (replace(lv, xi=printed_state(lv)) for lv in map(builder.dressed, ns[:2]))
        (annihilation, _), _ = _refine("groundstate", printed, _xmargin(builder, ns))
        findings.append({
            "id": "printed-ground-state",
            "detail": ("catalog-printed wavefunction fed through the first-order "
                       "annihilation check; the quadrature-built state is the one "
                       "that annihilates (see groundstate check)"),
            "printed_state_residuals": [lv.residual for lv in annihilation],
        })
    return findings


def printed_state(ds: DressedSystem):
    """The catalog's printed ground-state expression for the family of `ds`,
    on its grid and normalized at its anchor (reported-only)."""
    b = ds.bundle
    mu, U, alpha, family = b.mu, b.U, ds.spec.alpha, ds.spec.family
    if family == "harmonic3d":
        s = np.sqrt(mu) / U * np.exp(-0.5j * alpha * mu**2)
    elif family == "morse":
        s = np.exp(-0.5 * alpha * mu) / U * np.exp((2j / alpha) * np.exp(-alpha * mu))
    elif family == "scarf2":
        s = (1.0 / (U * np.sqrt(np.cosh(alpha * mu)))
             * np.exp(-(1j / alpha) * np.arctan(np.tanh(0.5 * alpha * mu))))
    elif family == "gen-poschl-teller":
        s = (1.0 / (U * np.sqrt(np.sinh(alpha * mu)))
             * np.tanh(0.5 * alpha * mu) ** (-2j / alpha))
    elif family == "poschl-teller":
        s = (1.0 / (U * np.sqrt(np.sinh(2.0 * alpha * mu)))
             * np.tanh(alpha * mu) ** (-2j / alpha))
    else:
        raise InvalidDomainError(f"no printed state for family {family!r}")
    return s / s[ds.anchor]
