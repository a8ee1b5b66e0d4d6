"""Uniform grids, high-order finite differences and cumulative quadrature.

Everything downstream discretizes on a uniform grid with 4th-order-accurate
central stencils in the interior and one-sided closures in a narrow boundary
band.  Identity residuals are only ever measured on the interior window where
the central stencils apply.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDomainError

EPS = float(np.finfo(float).eps)

# absolute-coefficient sums of the interior stencils, used for roundoff floors
STENCIL_ABS_D1 = 18.0 / 12.0
STENCIL_ABS_D2 = 64.0 / 12.0
# safety factor calibrated against measured matvec roundoff
FLOOR_SAFETY = 32.0


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid; parity-capable when symmetric with a node at x = 0."""

    xmin: float
    xmax: float
    n: int
    h: float
    x: np.ndarray = field(repr=False)

    @property
    def parity_capable(self):
        return self.xmin == -self.xmax and self.n % 2 == 1

    def index_nearest(self, x0):
        return int(np.argmin(np.abs(self.x - x0)))

    def interior_mask(self, pad=4, xmargin=0.0):
        """Boolean mask of rows at index distance >= pad from each edge.

        `xmargin` additionally excludes a fixed coordinate band at both ends,
        so that residuals measured across a refinement family share one
        physical window (index-based windows creep toward the edges as the
        grid is refined and corrupt observed orders).
        """
        m = np.zeros(self.n, dtype=bool)
        m[pad:self.n - pad] = True
        if xmargin > 0.0:
            m &= (self.x >= self.xmin + xmargin) & (self.x <= self.xmax - xmargin)
        return m


@dataclass
class OperatorMatrix:
    """Sparse operator on a grid; `kind` names the operator it realizes.

    The operator is held as a `scipy.sparse.csr_array` (a dense array
    given to the constructor is converted), and application to a vector
    is a sparse product (`op @ v`).  `mat` is a dense view that allocates
    all n^2 entries: it serves matrix export, dense eigensolves and tests.
    """

    grid: Grid
    csr: object = field(repr=False)
    kind: str = ""

    def __post_init__(self):
        from scipy.sparse import csr_array
        self.csr = csr_array(self.csr)

    @property
    def mat(self):
        """Dense copy of the operator (n^2 entries)."""
        return self.csr.toarray()

    def apply(self, v):
        return self.csr @ v

    __matmul__ = apply


def make_grid(xmin, xmax, n) -> Grid:
    """Uniform grid with h = (xmax - xmin)/(n - 1).

    Parity-capable grids (xmin = -xmax, odd n) are built by mirroring the
    positive half so that x[i] = -x[n-1-i] holds bit-exactly; even sampled
    profiles are then exactly symmetric.
    """
    if not (xmax > xmin):
        raise InvalidDomainError(f"need xmax > xmin, got [{xmin}, {xmax}]")
    n = int(n)
    if n < 9:
        raise InvalidDomainError(f"need n >= 9 grid points, got {n}")
    h = (xmax - xmin) / (n - 1)
    if xmin == -xmax and n % 2 == 1:
        k = (n - 1) // 2
        pos = np.arange(1, k + 1) * h
        x = np.concatenate([-pos[::-1], [0.0], pos])
    else:
        x = xmin + np.arange(n) * h
    return Grid(float(xmin), float(xmax), n, h, x)


def _weights(offsets, order):
    """Stencil weights: sum_k w_k f(x + k h) = h^order f^(order)(x), max degree."""
    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    A = np.vander(offsets, m, increasing=True).T
    b = np.zeros(m)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


def _banded_csr(counts, indices, data, n):
    """Read-only n x n CSR matrix with counts[i] entries in row i."""
    from scipy.sparse import csr_array
    indptr = np.concatenate(([0], np.cumsum(counts)))
    S = csr_array((data, indices, indptr), shape=(n, n))
    for a in (S.data, S.indices, S.indptr):
        a.flags.writeable = False
    return S


def _build_stencil(grid: Grid, order: int):
    """The differentiation matrix of one order, as CSR.

    Both orders share one sparsity pattern: 5 entries per interior row and
    6 per edge row (the first-derivative closures store an explicit zero in
    the sixth place), so operators combining them are assembled entry by
    entry on the same positions.
    """
    n, h = grid.n, grid.h
    nb = 6 if order == 2 else 5
    near, far = np.zeros((2, 6)), np.zeros((2, 6))
    for i in (0, 1):
        near[i, :nb] = _weights(np.arange(nb) - i, order)
    for k, i in enumerate((n - 2, n - 1)):
        far[k, 6 - nb:] = _weights(np.arange(-nb + 1, 1) + (n - 1 - i), order)
    interior = np.tile(_weights(np.arange(-2, 3), order), n - 4)
    counts = np.full(n, 5)
    counts[[0, 1, -2, -1]] = 6
    cols = np.concatenate((np.tile(np.arange(6), 2),
                           (np.arange(2, n - 2)[:, None] + np.arange(-2, 3)).ravel(),
                           np.tile(np.arange(n - 6, n), 2)))
    data = np.concatenate((near.ravel(), interior, far.ravel())) / h**order
    return _banded_csr(counts, cols, data, n)


_STENCIL_CACHE_SIZE = 8
_stencils = OrderedDict()       # (xmin, xmax, n, order) -> read-only CSR
_stencil_lock = threading.Lock()


def diff_matrix(grid: Grid, order: int) -> OperatorMatrix:
    """Sparse differentiation matrix, 4th-order accurate.

    Interior rows carry the 5-point central stencil; the two rows nearest
    each edge use one-sided stencils of the same order (6 points for the
    second derivative).  Central-stencil accuracy holds on the interior
    window (pad 4).  Stencils are cached per (xmin, xmax, n, order), the
    least recently used dropped first; the cached arrays are read-only.
    """
    if order not in (1, 2):
        raise InvalidDomainError(f"derivative order must be 1 or 2, got {order}")
    key = (grid.xmin, grid.xmax, grid.n, order)
    with _stencil_lock:
        S = _stencils.pop(key, None)
        if S is None:
            S = _build_stencil(grid, order)
        _stencils[key] = S
        if len(_stencils) > _STENCIL_CACHE_SIZE:
            _stencils.popitem(last=False)
    return OperatorMatrix(grid, S, kind=f"derivative-{order}")


_quad_cache = {}


def _quad_weights(base_off):
    """Weights integrating the 6-point interpolant over one unit interval.

    The interior stencil (base_off = -2, nodes -2..3) is symmetric about the
    interval midpoint, so for even integrands on a parity-capable grid the
    per-interval increments mirror exactly and cumulative phases come out
    exactly antisymmetric.
    """
    if base_off not in _quad_cache:
        offs = np.arange(6.0) + base_off
        A = np.vander(offs, 6, increasing=True).T
        b = np.array([1.0 / (k + 1) for k in range(6)])
        _quad_cache[base_off] = np.linalg.solve(A, b)
    return _quad_cache[base_off]


def cumint(values, grid: Grid, anchor: int):
    """Antiderivative F of the sampled values with F(x[anchor]) = 0 and F' = values.

    Each interval is integrated with the degree-5 interpolatory rule on the
    six nearest nodes (clamped at the edges), so polynomials up to degree 5
    integrate exactly and smooth integrands converge at 6th order.
    """
    y = np.asarray(values)
    n, h = grid.n, grid.h
    if y.shape != (n,):
        raise InvalidDomainError(f"grid function has {y.shape} values for an n={n} grid")
    if not (0 <= anchor < n):
        raise InvalidDomainError(f"anchor index {anchor} outside grid of {n} points")
    inc = np.empty(n - 1, dtype=y.dtype if np.iscomplexobj(y) else float)
    # intervals i in [2, n-4] share the midpoint-symmetric weights; vectorize
    w = _quad_weights(-2)
    stack = sum(wk * y[k:k + n - 5] for k, wk in enumerate(w))
    inc[2:n - 3] = h * stack
    for i in (0, 1, n - 3, n - 2):
        base = min(max(i - 2, 0), n - 6)
        wb = _quad_weights(base - i)
        inc[i] = h * (wb @ y[base:base + 6])
    F = np.concatenate(([0.0], np.cumsum(inc)))
    return F - F[anchor]


def fd_floor(h, c2max=0.0, c1max=0.0, c0max=0.0, amp=1.0):
    """Conservative roundoff ceiling for one application of a discretized
    operator ``c2 d2 + c1 d1 + c0`` to a state of unit sup norm.

    Residuals measured below 10x this value sit in the rounding regime where
    convergence-order fits are meaningless; the verify layer records those
    levels as floor-dominated instead of fitting through them.
    """
    return FLOOR_SAFETY * EPS * amp * (
        STENCIL_ABS_D2 * c2max / h**2 + 2.0 * STENCIL_ABS_D1 * c1max / h + c0max + 1.0)


def observed_order(hs, residuals, floors=None):
    """Least-squares slope of log residual vs log h.

    Levels whose residual is within 10x of its estimated roundoff floor are
    excluded; with fewer than two usable levels the order is unobservable
    and None is returned.
    """
    hs = np.asarray(hs, dtype=float)
    rs = np.asarray(residuals, dtype=float)
    if floors is None:
        floors = np.zeros_like(rs)
    fl = np.asarray(floors, dtype=float)
    use = (rs > 10.0 * fl) & (rs > 0.0)
    if use.sum() < 2:
        return None
    return float(np.polyfit(np.log(hs[use]), np.log(rs[use]), 1)[0])
