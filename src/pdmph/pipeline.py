"""Generating-function pipeline.

A real nonvanishing generating function g fixes everything else:

    f      = (U' g - U g') / (2 g)                  (companion function)
    V      = f^2 - g^2 - (U f)' - 2i U g' + delta   (complex potential)
    V_eff  = delta - g^2 - g'^2/(4 g^2 mu'^2) + g''/(2 g mu'^2)
             - g' mu'' / (2 g mu'^3) - 2i g'/mu'    (mass-free shape)
    xi     ~ exp[- int f/U - i int (g - a)/U]       (ground state, energy delta)

with the gauge pair psi = xi at a = 0 and xi = Lambda psi,
Lambda = exp[i int a/U].  The five catalog families sample g as a function
of the mass integral mu, so one shape serves every mass profile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DomainViolationError, GeneratingFunctionZeroError,
                     IOFormatError, InvalidDomainError)
from .grid import Grid, Spline, cumint, diff_matrix
from .profiles import MassProfile, ProfileBundle

G_ZERO_TOL = 1e-12

FAMILIES = ("harmonic3d", "morse", "scarf2", "gen-poschl-teller", "poschl-teller")

#: family name -> (g(mu) formula, default domain, needs mu > 0)
CATALOG = {
    "harmonic3d":        ("alpha*mu",                 (0.15, 10.0), True),
    "morse":             ("exp(-alpha*mu)",           (-2.0, 10.0), False),
    "scarf2":            ("sech(alpha*mu)",           (-8.0, 8.0),  False),
    "gen-poschl-teller": ("cosech(alpha*mu)",         (0.25, 12.0), True),
    "poschl-teller":     ("sech(alpha*mu)*cosech(alpha*mu)", (0.25, 12.0), True),
}


@dataclass(frozen=True)
class GeneratingSpec:
    """Which g to use, with the family parameter, energy offset and gauge.

    gauge_a is one of ("zero",), ("scaled-g", c) for a = c*g, or
    ("table", xs, values).  Only real gauges are representable: the
    third-derivative balance of the intertwining relation forces the
    momentum-shift function to be real, so no imaginary part is admitted
    anywhere in the construction.
    """

    family: str
    alpha: float = 1.0
    delta: float = 0.0
    gauge_a: tuple = ("zero",)
    g_table: tuple = None  # (xs, values) for family == "custom-table"

    def __post_init__(self):
        if self.family not in FAMILIES and self.family != "custom-table":
            raise InvalidDomainError(f"unknown family {self.family!r}")
        if self.family != "custom-table" and not self.alpha > 0:
            raise InvalidDomainError(f"family parameter alpha must be > 0, got {self.alpha}")
        if self.family == "custom-table" and self.g_table is None:
            raise InvalidDomainError("custom-table family needs g_table samples")

    # each table's spline is solved on first use and kept for every grid
    @functools.cached_property
    def g_spline(self):
        return Spline(*self.g_table)

    @functools.cached_property
    def gauge_spline(self):
        return Spline(*self.gauge_a[1:])


@dataclass(frozen=True)
class DressedSystem:
    """Everything derived from one (g, a, delta, profile) choice on a grid.

    Derivative arrays of g are closed-form for catalog families (chain rule
    through mu) and finite-difference for custom tables; `analytic` records
    which.  `printed_reference` carries the catalog's closed-form effective
    potential for cross-checking, None for custom tables.
    """

    grid: Grid
    bundle: ProfileBundle
    spec: GeneratingSpec
    g: np.ndarray
    gp: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    a: np.ndarray
    ap: np.ndarray
    V: np.ndarray
    V_eff: np.ndarray
    V_mu: np.ndarray
    psi: np.ndarray
    xi: np.ndarray
    Lambda: np.ndarray
    tau_phase: np.ndarray
    energy: complex
    anchor: int
    printed_vmu: np.ndarray
    analytic: bool = True
    printed_reference: np.ndarray = None

    @property
    def phi(self):
        return self.f + 1j * self.g


def _check_nonvanishing(g):
    if np.any(np.abs(g) < G_ZERO_TOL) or not np.all(np.isfinite(g)):
        raise GeneratingFunctionZeroError(
            "generating function vanishes (or is singular) on the grid")


def _g_chain(family, alpha, mu):
    """g and its first two mu-derivatives for a catalog family."""
    if family == "harmonic3d":
        G = alpha * mu
        G1 = np.full_like(mu, alpha)
        G2 = np.zeros_like(mu)
    elif family == "morse":
        G = np.exp(-alpha * mu)
        G1, G2 = -alpha * G, alpha**2 * G
    elif family == "scarf2":
        s = 1.0 / np.cosh(alpha * mu)
        t = np.tanh(alpha * mu)
        G = s
        G1 = -alpha * s * t
        G2 = alpha**2 * s * (1.0 - 2.0 * s**2)
    elif family == "gen-poschl-teller":
        sh = np.sinh(alpha * mu)
        c = 1.0 / sh
        k = np.cosh(alpha * mu) / sh
        G = c
        G1 = -alpha * c * k
        G2 = alpha**2 * c * (1.0 + 2.0 * c**2)
    elif family == "poschl-teller":
        sh = np.sinh(2.0 * alpha * mu)
        c = 1.0 / sh
        k = np.cosh(2.0 * alpha * mu) / sh
        G = 2.0 * c
        G1 = -4.0 * alpha * c * k
        G2 = 8.0 * alpha**2 * c * (1.0 + 2.0 * c**2)
    else:
        raise InvalidDomainError(f"no closed-form chain for family {family!r}")
    return G, G1, G2


def assemble_potential(f, fp, g, gp, bundle: ProfileBundle, delta=0.0):
    """Complex potential V = f^2 - g^2 - (U f)' - 2i U g' + delta."""
    return (f**2 - g**2 - (bundle.Up * f + bundle.U * fp)
            - 2j * bundle.U * gp + delta)


def effective_potential(g, gp, gpp, bundle: ProfileBundle, delta=0.0):
    """Mass-free potential shape and the mass-gradient term.

    Returns (V_eff, V_mu) with V = V_eff - V_mu.  V_mu is the term removed
    when the problem is mapped onto the mass-integral coordinate,

        V_mu = (5 mu''^2 - 2 mu' mu''') / (4 mu'^4),

    which is the unique expression closing V = V_eff - V_mu against
    :func:`assemble_potential`; it vanishes for constant mass.
    """
    _check_nonvanishing(g)
    mup, mupp, muppp = bundle.mup, bundle.mupp, bundle.muppp
    V_eff = (delta - g**2 - gp**2 / (4.0 * g**2 * mup**2)
             + gpp / (2.0 * g * mup**2) - gp * mupp / (2.0 * g * mup**3)
             - 2j * gp / mup)
    V_mu = (5.0 * mupp**2 - 2.0 * mup * muppp) / (4.0 * mup**4)
    return V_eff, V_mu


def printed_vmu(bundle: ProfileBundle):
    """Mass-gradient term in its catalog-printed form, mu'''/mu'^3 - (5/4) mu''^2/mu'^4.

    Kept for reporting only: it does not close V = V_eff - V_mu for
    position-dependent mass (the two forms agree only when mu'' = mu''' = 0)
    and every report carries the measured discrepancy.
    """
    return bundle.muppp / bundle.mup**3 - 1.25 * bundle.mupp**2 / bundle.mup**4


def printed_potential(family, alpha, mu):
    """Catalog closed-form effective potentials as functions of the mass integral."""
    if family == "harmonic3d":
        return -alpha**2 * mu**2 - 1.0 / (4.0 * mu**2) - 2j * alpha
    if family == "morse":
        e = np.exp(-alpha * mu)
        return -e**2 + 2j * alpha * e + alpha**2 / 4.0
    if family == "scarf2":
        s = 1.0 / np.cosh(alpha * mu)
        t = np.tanh(alpha * mu)
        return -(1.0 + 0.75 * alpha**2) * s**2 + 2j * alpha * s * t + alpha**2 / 4.0
    if family == "gen-poschl-teller":
        sh = np.sinh(alpha * mu)
        c = 1.0 / sh
        k = np.cosh(alpha * mu) / sh
        return -(1.0 - 0.75 * alpha**2) * c**2 + 2j * alpha * c * k + alpha**2 / 4.0
    if family == "poschl-teller":
        c = 1.0 / np.sinh(alpha * mu)
        s = 1.0 / np.cosh(alpha * mu)
        return ((0.75 * alpha**2 - 1.0 + 2j * alpha) * c**2
                - (0.75 * alpha**2 - 1.0 - 2j * alpha) * s**2 + alpha**2)
    raise InvalidDomainError(f"no printed form for family {family!r}")


def ground_state(f, g, a, bundle: ProfileBundle, anchor=None):
    """Ground-state pair (psi, xi, Lambda) from cumulative quadrature.

    psi = exp[- int f/U - i int g/U] solves the ungauged first-order
    annihilation condition; Lambda = exp[i int a/U] is the unit-modulus
    gauge factor and xi = Lambda psi.  All integrals share one anchor node
    where the state is normalized to exactly 1.
    """
    grid = bundle.grid
    if anchor is None:
        anchor = grid.index_nearest(0.0)
    U = bundle.U
    P = cumint(f / U, grid, anchor)
    Q = cumint(g / U, grid, anchor)
    R = cumint(a / U, grid, anchor)
    psi = np.exp(-P - 1j * Q)
    Lambda = np.exp(1j * R)
    xi = Lambda * psi
    return psi, xi, Lambda


def _gauge_arrays(spec: GeneratingSpec, grid: Grid, g, gp):
    mode = spec.gauge_a[0]
    if mode == "zero":
        return np.zeros(grid.n), np.zeros(grid.n)
    if mode == "scaled-g":
        c = float(spec.gauge_a[1])
        return c * g, c * gp
    if mode == "table":
        xs = np.asarray(spec.gauge_a[1], dtype=float)
        if grid.x[0] < xs[0] or grid.x[-1] > xs[-1]:
            raise InvalidDomainError("gauge table does not cover the grid")
        a = spec.gauge_spline(grid.x)
        return a, diff_matrix(grid, 1) @ a
    raise InvalidDomainError(f"unknown gauge mode {spec.gauge_a[0]!r}")


def load_xy_table(path, what):
    """Read a two-column CSV table (x, y) with strictly increasing x.

    Returns (xs, ys).  `what` names the table in error messages; every
    failure to read or validate it raises IOFormatError.
    """
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError, TypeError) as exc:
        raise IOFormatError(f"could not read {what} table {path}: {exc}") from None
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise IOFormatError(f"{what} table {path} must have two columns and at least two rows")
    if not np.all(np.isfinite(data)):
        raise IOFormatError(f"{what} table {path} contains non-finite values")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise IOFormatError(f"{what} table {path}: x column must be strictly increasing")
    return data[:, 0], data[:, 1]


def make_family(spec: GeneratingSpec, profile: MassProfile, grid: Grid) -> DressedSystem:
    """Build the full dressed system for one family/profile/grid choice."""
    bundle = profile.sample(grid)
    mu = bundle.mu

    if spec.family == "custom-table":
        xs = spec.g_table[0]
        if grid.x[0] < xs[0] or grid.x[-1] > xs[-1]:
            raise InvalidDomainError("generating-function table does not cover the grid")
        g = spec.g_spline(grid.x)
        _check_nonvanishing(g)
        D1 = diff_matrix(grid, 1)
        gp = D1 @ g
        gpp = D1 @ gp
        analytic = False
        reference = None
    else:
        _, _, needs_positive_mu = CATALOG[spec.family]
        if needs_positive_mu and np.any(mu <= 0):
            raise DomainViolationError(
                f"family {spec.family!r} needs mu > 0 on the whole grid "
                f"(min mu = {mu.min():.6g}); move xmin to the right of the zero of mu")
        with np.errstate(over="raise", divide="raise"):
            try:
                G, G1, G2 = _g_chain(spec.family, spec.alpha, mu)
            except FloatingPointError:
                raise DomainViolationError(
                    f"family {spec.family!r} hits a singularity on this grid") from None
        g = G
        gp = G1 * bundle.mup
        gpp = G2 * bundle.mup**2 + G1 * bundle.mupp
        analytic = True
        reference = printed_potential(spec.family, spec.alpha, mu)
    _check_nonvanishing(g)

    mup, mupp, muppp = bundle.mup, bundle.mupp, bundle.muppp
    f = -gp / (2.0 * mup * g) - mupp / (2.0 * mup**2)
    if analytic:
        G1 = gp / mup
        G2 = (gpp - G1 * mupp) / mup**2
        fp = (-mup * (G2 / (2.0 * g) - G1**2 / (2.0 * g**2))
              - muppp / (2.0 * mup**2) + mupp**2 / mup**3)
    else:
        fp = diff_matrix(grid, 1) @ f

    a, ap = _gauge_arrays(spec, grid, g, gp)

    V = assemble_potential(f, fp, g, gp, bundle, spec.delta)
    V_eff, V_mu = effective_potential(g, gp, gpp, bundle, spec.delta)

    anchor = grid.index_nearest(0.0)
    psi, xi, Lambda = ground_state(f, g, a, bundle, anchor)
    tau_phase = -2.0 * cumint(a / bundle.U, grid, anchor)

    return DressedSystem(
        grid=grid, bundle=bundle, spec=spec,
        g=g, gp=gp, f=f, fp=fp, a=a, ap=ap,
        V=V, V_eff=V_eff, V_mu=V_mu, psi=psi, xi=xi, Lambda=Lambda,
        tau_phase=tau_phase, energy=complex(spec.delta), anchor=anchor,
        printed_vmu=printed_vmu(bundle), analytic=analytic, printed_reference=reference)


def catalog_rows(family=None):
    """Rows for the catalog listing: name, g form, default domain, constraints."""
    names = [family] if family else list(FAMILIES)
    rows = []
    for name in names:
        if name not in CATALOG:
            raise InvalidDomainError(f"unknown family {name!r}")
        formula, domain, positive = CATALOG[name]
        rows.append({
            "family": name,
            "g": formula,
            "default_domain": list(domain),
            "alpha": "alpha > 0",
            "constraint": "mu > 0 on grid" if positive else "none",
        })
    return rows


CSV_COLUMNS = ("x", "m", "U", "mu", "g", "f", "a", "V_re", "V_im",
               "Veff_re", "Veff_im", "Vmu", "psi_re", "psi_im", "xi_re", "xi_im")


CSV_BLOCK = 4096   # values formatted at a time, in whole rows

_E_MIN = -1073    # frexp exponent of the smallest subnormal, 2**-1074
_D_MIN = -324     # decimal exponent of the smallest subnormal
_SPLIT = 134217729.0   # 2**27 + 1, Veltkamp's splitter for doubles
_TIE_MARGIN = 1e-6     # a scaled value this close to a rounding tie is undecided


@functools.cache
def _words():
    """Four-byte pieces of formatted values, as uint32 lookup tables.

    A value with its separator is six words: head (sign or NUL, leading
    digit, '.', digit), three groups of four digits, tail (three digits,
    'e') and exponent (sign, two digits, ',' or newline).  The NUL of a
    positive value is dropped when the block is written.
    """
    def table(parts):
        return np.frombuffer(b"".join(parts), np.uint32)
    head = table(b"%c%d.%d" % (sign, t // 10, t % 10) for sign in b"\0-" for t in range(100))
    digits = table(b"%04d" % i for i in range(10000))
    tail = table(b"%03de" % i for i in range(1000))
    exponent = table(b"%c%02d%c" % (b"-+"[d >= 0], abs(d) % 100, sep)
                     for d in range(_D_MIN, 309) for sep in b",\n")
    return head, digits, tail, exponent


class _Scales:
    """Decimal scales per binary exponent, built the first time one is seen.

    For the exponent e of x = m 2**e (m in [1/2, 1)) take k with
    2**(e-1) 10**k in [1e16, 1e17), so that y = m 2**e 10**k lies in
    [1e16, 2e17).  Values with m below `cut` have y < 1e17 - 1/2 and take
    the row of S = 2**e 10**k (17 digits round(y), decimal exponent 16 - k);
    the others round into the next decade and take the row of S / 10.  Each
    scale is a double-double hi + lo (hi correctly rounded, lo the correctly
    rounded rest), with hi also split into Veltkamp halves for Dekker's
    product.
    """

    def __init__(self):
        n = 1024 - _E_MIN + 1
        self.known = np.zeros(n, bool)
        self.cut = np.zeros(n)
        self.hi, self.hi1, self.hi2, self.lo = np.zeros((4, 2 * n))
        self.exp10 = np.zeros(2 * n, np.int64)

    def rows(self, m, e):
        """hi, its halves, lo and the decimal exponent for each m 2**e."""
        j = e - _E_MIN
        known = self.known[j]
        if not known.all():
            for e_new in np.unique(e[~known]).tolist():
                self._build(e_new)
        row = 2 * j + (m >= np.take(self.cut, j))
        return [np.take(t, row) for t in (self.hi, self.hi1, self.hi2, self.lo, self.exp10)]

    def _build(self, e):
        k = 16 - int((e - 1) * 0.30102999566398120 // 1)   # checked below
        while True:   # S = 2**e 10**k = num / den, and 2**(e-1) 10**k = num / (2 den)
            num = (1 << max(e, 0)) * 10 ** max(k, 0)
            den = (1 << max(-e, 0)) * 10 ** max(-k, 0)
            if num < 2 * 10 ** 16 * den:
                k += 1
            elif num >= 2 * 10 ** 17 * den:
                k -= 1
            else:
                break
        j = e - _E_MIN
        for d in (0, 1):   # S, then S / 10
            scaled_den = den * 10 ** d
            hi = num / scaled_den
            hn, hd = hi.as_integer_ratio()
            t = hi * _SPLIT
            hi1 = t - (t - hi)
            r = 2 * j + d
            self.hi[r], self.hi1[r], self.hi2[r] = hi, hi1, hi - hi1
            self.lo[r] = (num * hd - hn * scaled_den) / (scaled_den * hd)
            self.exp10[r] = 16 - k + d
        # the smallest double m with m num / den >= 1e17 - 1/2
        cut = (2 * 10 ** 17 - 1) * den / (2 * num)
        cn, cd = cut.as_integer_ratio()
        if 2 * cn * num < (2 * 10 ** 17 - 1) * den * cd:
            cut = float(np.nextafter(cut, np.inf))
        self.cut[j] = cut
        self.known[j] = True


_scales = functools.cache(_Scales)


def _decide(x):
    """17 significant digits and decimal exponent of each x, as numpy decides them.

    Returns (q, exp10, decided): where decided, '%.16e' % x has the digits
    of the int64 q (0 for a zero) and the two-digit exponent exp10.  A
    finite x is scaled to y = |x| 10**k as a double-double p + c, with
    Dekker's exact product since numpy has no fused multiply-add; p is an
    integer, so q = p + round(c).  Undecided are values within _TIE_MARGIN
    of a rounding tie (exact decimal ties among them, which Python rounds
    half to even), three-digit exponents and non-finite x.
    """
    finite = np.isfinite(x)
    a = np.abs(x) if finite.all() else np.where(finite, np.abs(x), 1.0)
    m, e = np.frexp(a)
    hi, hi1, hi2, lo, exp10 = _scales().rows(m, e)
    t = m * _SPLIT
    m1 = t - (t - m)
    m2 = m - m1
    p = m * hi   # >= 1e16 - 1/20 > 2**53, an integer
    c = ((m1 * hi1 - p) + m1 * hi2 + m2 * hi1) + m2 * hi2 + m * lo
    r = np.rint(c)
    q = p.astype(np.int64) + r.astype(np.int64)
    exp10 = np.where(a == 0.0, 0, exp10)
    decided = (np.abs(c - r) < 0.5 - _TIE_MARGIN) & finite & (np.abs(exp10) < 100)
    return q, exp10, decided


def _format_block(x, newline):
    """The bytes of '%.16e' % v and then ',' or (where newline) '\\n', for each v of x."""
    q, exp10, decided = _decide(x)
    head, digits, tail, exponent = _words()
    words = np.empty((x.size, 6), np.uint32)
    top = q // 10 ** 15   # 100 for an undecided value just below a tie at 1e17
    words[:, 0] = np.take(head, top + 100 * np.signbit(x), mode="clip")
    q -= top * 10 ** 15
    for col, scale in enumerate((10 ** 11, 10 ** 7, 10 ** 3), start=1):
        group = q // scale
        words[:, col] = np.take(digits, group)
        q -= group * scale
    words[:, 4] = np.take(tail, q)
    words[:, 5] = np.take(exponent, 2 * (exp10 - _D_MIN) + newline)
    pieces, start = [], 0
    for i in np.flatnonzero(~decided).tolist():
        pieces += [words[start:i].tobytes(), b"%.16e%c" % (x[i], b",\n"[newline[i]])]
        start = i + 1
    pieces.append(words[start:].tobytes())
    return b"".join(pieces).replace(b"\0", b"")


def _write_columns(path, names, columns):
    """CSV of real columns: a header of names, then one row per sample.

    Each value is written with exactly the bytes of Python's '%.16e' % v
    (17 significant digits).  The digits are decided in numpy (_decide);
    Python's formatter writes only the values numpy leaves undecided
    (near-ties and three-digit exponents) and the non-finite ones.  Rows
    are formatted in blocks of about CSV_BLOCK values, so the memory in use
    does not grow with the number of samples.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = max(1, CSV_BLOCK // len(columns))
    newline = np.zeros((rows, len(columns)), np.intp)
    newline[:, -1] = 1
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for i in range(0, len(columns[0]), rows):
            block = np.stack([c[i:i + rows] for c in columns], axis=1)
            fh.write(_format_block(block.ravel(), newline[:len(block)].ravel()))


def to_csv(ds: DressedSystem, path):
    """Write the dressed system as CSV with a fixed column order, 17 significant digits."""
    b = ds.bundle
    _write_columns(path, CSV_COLUMNS,
                  (ds.grid.x, b.m, b.U, b.mu, ds.g, ds.f, ds.a,
                   ds.V.real, ds.V.imag, ds.V_eff.real, ds.V_eff.imag, ds.V_mu,
                   ds.psi.real, ds.psi.imag, ds.xi.real, ds.xi.imag))
