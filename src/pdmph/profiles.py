"""Mass profiles m(x) and the derived kinetic weight U and mass integral mu.

The kinetic operator is p U^2 p with U^2 = 1/(2m), so each profile must
supply U together with its first two derivatives, and the mass integral
mu(x) = int dx / U with derivatives up to third order.  The identities

    mu'  = 1/U,     mu'' = -U'/U^2,     mu''' = (2 U'^2 - U U'') / U^3

are exact consequences of the definition and are used to populate the
mu-derivatives from the U-derivatives, so that analytic profiles carry no
finite-difference noise into third-derivative quantities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import IOFormatError, InvalidDomainError, NonpositiveMassError
from .grid import Grid, Spline, cumint, diff_matrix


@dataclass(frozen=True)
class ProfileBundle:
    """All profile-derived samples needed downstream, on one grid."""

    grid: Grid
    m: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    Up: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    mup: np.ndarray = field(repr=False)
    mupp: np.ndarray = field(repr=False)
    muppp: np.ndarray = field(repr=False)
    mu_anchor: str = ""


class MassProfile:
    """A positive mass profile of kind constant, rational or table.

    constant  m(x) = scale/2, so U = scale^(-1/2) and mu = sqrt(scale) x.
    rational  m(x) = beta / (2 (1 + x^2)^2), so U = (1 + x^2)/sqrt(beta)
              and mu = sqrt(beta) arctan x.
    table     m sampled from a two-column CSV (x, m) with strictly
              increasing x, interpolated onto the grid by a not-a-knot
              cubic spline; derivatives are taken by finite differences.

    The mass integral of the analytic kinds is the closed form anchored at
    the coordinate x = 0 (whether or not 0 lies inside the grid); table
    profiles are integrated numerically from the grid node nearest 0,
    clamped into the domain.  The anchor convention is recorded in the
    bundle and in every emitted report.
    """

    KINDS = ("constant", "rational", "table")

    def __init__(self, kind, scale=1.0, table=None):
        if kind not in self.KINDS:
            raise InvalidDomainError(f"unknown mass profile kind {kind!r}")
        if kind != "table" and not scale > 0:
            raise NonpositiveMassError(f"profile scale must be positive, got {scale}")
        self.kind = kind
        self.scale = float(scale)
        self.table = table

    @classmethod
    def constant(cls, scale=1.0):
        return cls("constant", scale)

    @classmethod
    def rational(cls, beta=1.0):
        return cls("rational", beta)

    @classmethod
    def from_table(cls, xs, ms):
        xs = np.asarray(xs, dtype=float)
        ms = np.asarray(ms, dtype=float)
        if xs.ndim != 1 or xs.shape != ms.shape or len(xs) < 4:
            raise IOFormatError("mass table needs two equal-length columns with >= 4 rows")
        if not np.all(np.diff(xs) > 0):
            raise IOFormatError("mass table x column must be strictly increasing")
        if not np.all(ms > 0):
            raise NonpositiveMassError("mass table contains nonpositive masses")
        return cls("table", table=(xs, ms))

    @functools.cached_property
    def spline(self):
        """The table's spline, solved on first use and kept for every grid."""
        return Spline(*self.table)

    def sample(self, grid: Grid) -> ProfileBundle:
        """Evaluate the profile and all derived fields on a grid."""
        x = grid.x
        if self.kind == "constant":
            c = self.scale
            m = np.full(grid.n, c / 2.0)
            U = np.full(grid.n, c ** -0.5)
            Up = np.zeros(grid.n)
            Upp = np.zeros(grid.n)
            mu = np.sqrt(c) * x
            anchor = "mu(0) = 0 (closed form)"
        elif self.kind == "rational":
            b = self.scale
            m = b / (2.0 * (1.0 + x**2) ** 2)
            U = (1.0 + x**2) / np.sqrt(b)
            Up = 2.0 * x / np.sqrt(b)
            Upp = np.full(grid.n, 2.0 / np.sqrt(b))
            mu = np.sqrt(b) * np.arctan(x)
            anchor = "mu(0) = 0 (closed form)"
        else:
            xs = self.table[0]
            if x[0] < xs[0] or x[-1] > xs[-1]:
                raise InvalidDomainError(
                    f"grid [{x[0]}, {x[-1]}] exceeds mass table range [{xs[0]}, {xs[-1]}]")
            m = self.spline(x)
            if not np.all(m > 0):
                raise NonpositiveMassError("interpolated table mass is nonpositive on the grid")
            U = 1.0 / np.sqrt(2.0 * m)
            D1 = diff_matrix(grid, 1)
            Up = D1 @ U
            Upp = D1 @ Up
            k = grid.index_nearest(0.0)
            mu = cumint(1.0 / U, grid, k)
            anchor = f"mu(x[{k}]) = 0, x[{k}] = {x[k]:.17g} (grid node nearest 0)"

        if not np.all(m > 0):
            raise NonpositiveMassError("mass profile is nonpositive on the grid")
        if not np.all(U > 0):
            raise NonpositiveMassError("kinetic weight U is nonpositive on the grid")
        mup = 1.0 / U
        mupp = -Up / U**2
        muppp = (2.0 * Up**2 - U * Upp) / U**3
        return ProfileBundle(grid, m, U, Up, mu, mup, mupp, muppp, mu_anchor=anchor)

