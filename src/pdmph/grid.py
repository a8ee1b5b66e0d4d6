"""Uniform grids, high-order finite differences and cumulative quadrature.

Everything downstream discretizes on a uniform grid with 4th-order-accurate
central stencils in the interior and one-sided closures in a narrow boundary
band.  Identity residuals are only ever measured on the interior window where
the central stencils apply.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import IOFormatError, InvalidDomainError

EPS = float(np.finfo(float).eps)
MIN_POINTS = 9   # the fewest points a grid may have

# Every stencil and quadrature weight, exactly, as integers over a common
# denominator (Fornberg, Math. Comp. 51, 699 (1988)); each reader rounds a
# weight once, as k / 12.0 or k / 1440.0.  A row is keyed by the offset of
# its first node from the node it serves (stencils) or from the left node of
# the interval it integrates (quadrature).
#   1, 2: d/dx and d2/dx2 over 12, sum_k w_k f(x + (o + k) h) = 12 h^order
#         f^(order)(x) to 4th order: offset -2 is the central row, 0 and -1
#         rows 0 and 1, 2 - nb and 1 - nb rows n - 2 and n - 1 (nb points).
#   "quad": over 1440, h/1440 sum_k w_k f(x + (o + k) h) integrates the
#         degree-5 interpolant on the six nodes over [x, x + h]: offset -2
#         is the interior rule, the others the two intervals at each edge.
WEIGHTS = {
    1: {-2: (1, -8, 0, 8, -1),
        0: (-25, 48, -36, 16, -3), -1: (-3, -10, 18, -6, 1),
        -3: (-1, 6, -18, 10, 3), -4: (3, -16, 36, -48, 25)},
    2: {-2: (-1, 16, -30, 16, -1),
        0: (45, -154, 214, -156, 61, -10), -1: (10, -15, -4, 14, -6, 1),
        -4: (1, -6, 14, -4, -15, 10), -5: (-10, 61, -156, 214, -154, 45)},
    "quad": {-2: (11, -93, 802, 802, -93, 11),
             0: (475, 1427, -798, 482, -173, 27), -1: (-27, 637, 1022, -258, 77, -11),
             -3: (-11, 77, -258, 1022, 637, -27), -4: (27, -173, 482, -798, 1427, 475)},
}

# absolute-coefficient sums of the interior stencils, used for roundoff floors
STENCIL_ABS_D1 = sum(map(abs, WEIGHTS[1][-2])) / 12.0
STENCIL_ABS_D2 = sum(map(abs, WEIGHTS[2][-2])) / 12.0
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


# rows or columns per run of a dense block reduction or block product
BLOCK = 32


def blocks(m):
    """Slices covering 0..m in runs of BLOCK to 2 BLOCK - 1 (one run if m < 2 BLOCK).

    No run is one column wide unless m is: numpy sums a one-column reduction
    pairwise, not row by row as it sums a wider one, so the bits would change.
    """
    k = max(1, m // BLOCK)
    edges = [m * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class OperatorMatrix:
    """Banded n x n operator, stored by diagonals, each over its span only.

    Diagonal k has offset offsets[k] and covers the row range spans[k] =
    (lo, hi): A[i, i + offsets[k]] = diagonals[k][i - lo] for lo <= i < hi,
    and no other entry (an empty one has span (0, 0)).  Offsets ascend; the
    diagonals are consecutive views of one 1-D array, `data`.  Each layout
    is summed from its parts (`from_parts`), so the diagonals that only the
    edge rows reach store a few entries, not n.  `op @ v` (`apply`) applies
    it to a vector of n entries or an n x k block, never another operator;
    `mat` is a dense copy of all n^2 entries, for eigensolves and tests.

    The benchmark's span tracer (perfbench/tracer.py) wraps `apply` and its
    alias `__matmul__` on this class by name and reads `mat` of the operator
    builders' results, so those names stay.
    """

    def __init__(self, n, offsets, spans, data):
        self.n = n = int(n)
        self.offsets = tuple(int(o) for o in offsets)
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"diagonal offsets must ascend strictly, got {self.offsets}")
        self.spans = [(int(lo), int(hi)) if lo < hi else (0, 0) for lo, hi in spans]
        if len(self.spans) != len(self.offsets):
            raise ValueError("need one span per diagonal")
        for o, (lo, hi) in zip(self.offsets, self.spans):
            if lo < hi and (lo < max(0, -o) or hi > min(n, n - o)):
                raise ValueError(f"diagonal {o} reaches outside the matrix")
        self.data = np.asarray(data)
        ends = [0]
        for lo, hi in self.spans:
            ends.append(ends[-1] + hi - lo)
        if self.data.shape != (ends[-1],):
            raise ValueError(f"the spans hold {ends[-1]} entries, data has shape {self.data.shape}")
        self.diagonals = [self.data[a:b] for a, b in zip(ends, ends[1:])]
        # (offset, first row, end row, diagonal) of every nonempty diagonal
        self._diagonals = [(o, lo, hi, d) for o, (lo, hi), d
                           in zip(self.offsets, self.spans, self.diagonals) if lo < hi]

    @classmethod
    def from_parts(cls, n, parts, dtype=float):
        """The matrix summed from `parts`, each (offset, first row lo, values):
        values[j] adds to the entry of row lo + j on that offset's diagonal.

        Each diagonal spans the rows its parts cover ((0, 0) if every part is
        empty), and each entry is the sum of its parts in the order given,
        added to zero one after another.
        """
        spans = {}
        for o, lo, d in parts:
            first, end = spans.get(o, (n, 0))
            spans[o] = (min(first, lo), max(end, lo + len(d))) if len(d) else (first, end)
        offsets = sorted(spans)
        spans = [spans[o] for o in offsets]
        A = cls(n, offsets, spans, np.zeros(sum(max(hi - lo, 0) for lo, hi in spans), dtype))
        for o, lo, d in parts:
            k = offsets.index(o)
            A.diagonals[k][lo - A.spans[k][0]:][:len(d)] += d
        return A

    @property
    def shape(self):
        return (self.n, self.n)

    def apply(self, operand):
        """Product with a vector of n entries or an n x k block."""
        v = np.asarray(operand)
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            shape = getattr(operand, "shape", v.shape)
            raise ValueError(f"an n = {self.n} operator applies to vectors and n x k blocks, "
                             f"not to {type(operand).__name__} of shape {shape}")
        dtype = np.result_type(self.data, v)
        v = v.astype(dtype, copy=False)
        y = np.zeros(v.shape, dtype)
        if v.ndim == 1:
            for o, lo, hi, d in self._diagonals:
                y[lo:hi] += d * v[lo + o:hi + o]
            return y
        # an n x k block in runs of columns, so that no product spans all k
        for c in blocks(v.shape[1]):
            for o, lo, hi, d in self._diagonals:
                y[lo:hi, c] += d[:, None] * v[lo + o:hi + o, c]
        return y

    __matmul__ = apply

    def __mul__(self, scalar):
        return OperatorMatrix(self.n, self.offsets, self.spans, scalar * self.data)

    __rmul__ = __mul__

    @property
    def H(self):
        """Conjugate transpose: A^H[i, i - o] = conj(A[i - o, i]).

        Diagonal -o of A^H holds the conjugates of diagonal o in the same
        order, over the span shifted by o.
        """
        return OperatorMatrix.from_parts(
            self.n, [(-o, lo + o, np.conj(d)) for o, (lo, _), d
                     in zip(self.offsets, self.spans, self.diagonals)], self.data.dtype)

    @property
    def mat(self):
        """Dense copy of the operator (n^2 entries)."""
        M = np.zeros(self.shape, self.data.dtype)
        for o, lo, hi, d in self._diagonals:
            rows = np.arange(lo, hi)
            M[rows, rows + o] = d
        return M


def make_grid(xmin, xmax, n) -> Grid:
    """Uniform grid with h = (xmax - xmin)/(n - 1).

    Parity-capable grids (xmin = -xmax, odd n) are built by mirroring the
    positive half so that x[i] = -x[n-1-i] holds bit-exactly; even sampled
    profiles are then exactly symmetric.
    """
    if not (xmax > xmin):
        raise InvalidDomainError(f"need xmax > xmin, got [{xmin}, {xmax}]")
    n = int(n)
    if n < MIN_POINTS:
        raise InvalidDomainError(f"need n >= {MIN_POINTS} grid points, got {n}")
    h = (xmax - xmin) / (n - 1)
    if xmin == -xmax and n % 2 == 1:
        k = (n - 1) // 2
        pos = np.arange(1, k + 1) * h
        x = np.concatenate([-pos[::-1], [0.0], pos])
    else:
        x = xmin + np.arange(n) * h
    return Grid(float(xmin), float(xmax), n, h, x)


@functools.lru_cache(maxsize=8)
def _build_stencil(n: int, h: float, order: int) -> OperatorMatrix:
    """The differentiation matrix of one order, with read-only diagonals.

    Interior rows hold the 5-point central stencil on offsets -2..2; the
    two rows at each edge hold one-sided stencils of nb points (6 for the
    second derivative, 5 for the first), which reach offsets up to nb - 1,
    so the offsets beyond 2 hold two entries each.  Only n and h enter, so
    they (with the order) are the cache key.
    """
    weights = {o: np.array(row) / 12.0 / h**order for o, row in WEIGHTS[order].items()}
    nb = len(weights[0])
    parts = [(o, 2, np.full(n - 4, w)) for o, w in zip(range(-2, 3), weights[-2])]
    # each edge row i, its first weight in column c0
    for i, c0 in ((0, 0), (1, 0), (n - 2, n - nb), (n - 1, n - nb)):
        w = weights[c0 - i]
        parts += [(c0 + k - i, i, w[k:k + 1]) for k in range(nb)]
    A = OperatorMatrix.from_parts(n, parts)
    A.data.flags.writeable = False
    # the diagonals are views, made again so that they are read-only too
    return OperatorMatrix(n, A.offsets, A.spans, A.data)


def diff_matrix(grid: Grid, order: int) -> OperatorMatrix:
    """Differentiation matrix of order 1 or 2 (see `_build_stencil`), 4th-order
    accurate on the interior window (pad 4).  The 8 most recently used are
    cached per (n, h, order) and returned themselves, with read-only diagonals."""
    if order not in (1, 2):
        raise InvalidDomainError(f"derivative order must be 1 or 2, got {order}")
    return _build_stencil(grid.n, grid.h, order)


def cumint(values, grid: Grid, anchor: int):
    """Antiderivative F of the sampled values with F(x[anchor]) = 0 and F' = values.

    Each interval is integrated with the degree-5 interpolatory rule on the
    six nearest nodes (clamped at the edges; WEIGHTS["quad"]), so polynomials
    up to degree 5 integrate exactly and smooth integrands converge at 6th
    order.  The interior rule is exactly mirror-symmetric, but its terms sum
    in node order and the increments accumulate from the left, so for an
    even integrand on a parity-capable grid F - F[anchor] is antisymmetric
    only to rounding (2.9e-15 for sech x on [-8, 8] at n = 801).
    """
    y = np.asarray(values)
    n, h = grid.n, grid.h
    if y.shape != (n,):
        raise InvalidDomainError(f"grid function has {y.shape} values for an n={n} grid")
    if not (0 <= anchor < n):
        raise InvalidDomainError(f"anchor index {anchor} outside grid of {n} points")
    inc = np.empty(n - 1, dtype=y.dtype if np.iscomplexobj(y) else float)
    w = {o: np.array(row) / 1440.0 for o, row in WEIGHTS["quad"].items()}
    # intervals i in [2, n-4] share the interior rule; vectorize
    stack = sum(wk * y[k:k + n - 5] for k, wk in enumerate(w[-2]))
    inc[2:n - 3] = h * stack
    for i in (0, 1, n - 3, n - 2):
        base = min(max(i - 2, 0), n - 6)
        inc[i] = h * (w[base - i] @ y[base:base + 6])
    F = np.concatenate(([0.0], np.cumsum(inc)))
    return F - F[anchor]


def _tridiagonal_solve(dl, d, du, b):
    """Solve a tridiagonal system in place, as LAPACK dgtsv does for one right side.

    Gaussian elimination with partial pivoting: rows i and i+1 are
    interchanged when |d[i]| < |dl[i]|, which fills a second superdiagonal
    (kept in dl).  The arguments are lists of floats (sub-, main and
    superdiagonal, right-hand side); the solution is returned in b.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


class Spline:
    """The not-a-knot cubic spline through (xs, ys), solved once; call it at x.

    The end conditions make the third derivative continuous across the
    second and the second-to-last node (de Boor, *A Practical Guide to
    Splines*, ch. IV); two nodes give the line through them and three the
    parabola.  The node slopes solve one tridiagonal system with the rows
    and right-hand side of the standard `CubicSpline` formulation, by
    dgtsv's elimination, so tables of four or more rows interpolate to the
    same bits as there (three rows agree to rounding: that formulation
    solves their 3 x 3 system by a general LU).  Each interval's cubic
    c3 + c2 s + c1 s^2 + c0 s^3, s = x - xs[i], is summed in that order;
    points outside the nodes use the first or last interval's cubic.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        n = len(xs)
        if xs.ndim != 1 or ys.shape != xs.shape or n < 2:
            raise IOFormatError("a spline table needs two equal-length columns with >= 2 rows")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise IOFormatError("a spline table contains non-finite values")
        dx = np.diff(xs)
        if not np.all(dx > 0):
            raise IOFormatError("a spline table's x column must be strictly increasing")
        slope = np.diff(ys) / dx
        # interior rows i = 1..n-2: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
        dl = dx[1:].tolist() + [0.0]
        d = [0.0] + (2.0 * (dx[:-1] + dx[1:])).tolist() + [0.0]
        du = [0.0] + dx[:-1].tolist()
        b = [0.0] + (3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist() + [0.0]
        h, m = dx.tolist(), slope.tolist()
        if n == 2:
            d[0] = d[1] = 1.0
            b[0] = b[1] = m[0]
        elif n == 3:
            d[0], du[0], b[0] = 1.0, 1.0, 2.0 * m[0]
            dl[1], d[2], b[2] = 1.0, 1.0, 2.0 * m[1]
        else:
            w = float(xs[2] - xs[0])
            d[0], du[0] = h[1], w
            # h ** 2 rounds through pow, which is not always h * h
            b[0] = ((h[0] + 2.0 * w) * h[1] * m[0] + h[0] ** 2 * m[1]) / w
            w = float(xs[-1] - xs[-3])
            dl[-1], d[-1] = w, h[-2]
            b[-1] = (h[-1] ** 2 * m[-2] + (2.0 * w + h[-1]) * h[-2] * m[-1]) / w
        s = np.array(_tridiagonal_solve(dl, d, du, b))
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.xs, self.ys, self.s = xs, ys, s
        self.c0 = t / dx
        self.c1 = (slope - s[:-1]) / dx - t

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        z = x - self.xs[i]
        return self.ys[i] + self.s[i] * z + self.c1[i] * (z * z) + self.c0[i] * (z * z * z)


def amplification(h, c2max=0.0, c1max=0.0, c0max=0.0):
    """Bound on the factor by which ``c2 d2 + c1 d1 + c0`` (coefficient maxima
    given) magnifies the rounding noise of its input, plus one for the input."""
    return STENCIL_ABS_D2 * c2max / h**2 + 2.0 * STENCIL_ABS_D1 * c1max / h + c0max + 1.0


def fd_floor(h, c2max=0.0, c1max=0.0, c0max=0.0, amp=1.0):
    """Conservative roundoff ceiling for one application of a discretized
    operator ``c2 d2 + c1 d1 + c0`` to a state of unit sup norm.

    Residuals measured below 10x this value sit in the rounding regime where
    convergence-order fits are meaningless; the verify layer records those
    levels as floor-dominated instead of fitting through them.
    """
    return FLOOR_SAFETY * EPS * amp * amplification(h, c2max, c1max, c0max)


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
