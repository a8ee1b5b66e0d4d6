"""Banded realizations of the first- and second-order operators.

Conventions:
  D      = U d/dx + phi                 with phi = f + i g
  D~     = D - i a                      (gauge-shifted version, a real)
  D^     = -d/dx U + conj(phi)          (formal adjoint, built from its own
                                         differential expression, never by
                                         transposing a matrix)
  eta~   = -U^2 d2 - 2 K d1 + L         (metric; its dual construction is
                                         the composition D~^ (D~ v))
  H'     = -U^2 d2 - 2 M1 d1 + N1 + V
  H'^    = -U^2 d2 - 2 M1 d1 + N1 + conj(V)
           (a is real, so the adjoint's own first- and zeroth-order
           coefficients coincide with those of H')

Adjoint matrices built this way agree with conjugate transposes only on the
interior window and only when applied to smooth vectors; that agreement is
itself one of the verified identities, so the two routes are kept strictly
separate.

For eigenproblems the operators are assembled on the interior block
(Dirichlet walls) with an odd-reflection closure, which keeps real
symmetric problems exactly symmetric.  It is 4th-order accurate for
wall-vanishing modes only when the first-order coefficient M1 vanishes at
the walls (U' = 0 and a = 0 there, as for a constant mass in the zero
gauge): a Dirichlet mode then has psi'' = 0 at the wall, so its odd
extension is smooth.  Otherwise psi'' = -2 M1 psi' / U^2 there, and the
measured eigenvalue order is about 2 (2.0 for free/rational, 2.0-2.5 for
scarf2/rational).

Every operator is banded, so each is stored by diagonals (grid.OperatorMatrix),
each diagonal over its span of rows only, and assembled entry by entry from
the cached stencils: a row-scaled stencil plus diagonal terms added in a
fixed order, each entry rounded as in a dense assembly.  An assembled
second-order operator stores about 5n entries; the main diagonal, which
takes the diagonal terms, is the only one that spans all n rows.
Operators are only ever applied to vectors and blocks, never multiplied
with one another.  Only eigensolves take a dense copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDomainError
from .grid import WEIGHTS, Grid, OperatorMatrix, diff_matrix
from .profiles import ProfileBundle


def _hull(spans):
    """Smallest row range covering the nonempty spans; (0, 0) if there are none."""
    spans = [(lo, hi) for lo, hi in spans if lo < hi]
    return (min(lo for lo, _ in spans), max(hi for _, hi in spans)) if spans else (0, 0)


def _padded(span, d, hull):
    """Diagonal d, stored over `span`, over the rows of `hull` with zeros elsewhere."""
    if span == hull:
        return d
    (lo, hi), (first, end) = span, hull
    out = np.zeros(end - first, d.dtype)
    out[lo - first:hi - first] = d
    return out


def _row_scaled_sum(terms, diagonal_terms):
    """Banded matrix sum_j s_j (c_j D_j), then the diagonal terms added in turn.

    `terms` holds (s, c, D) with a scalar s, a row scaling c and an
    OperatorMatrix D.  Each output diagonal is built over the hull of its parts'
    spans only; the main diagonal spans every row when there are diagonal
    terms.  Every entry is rounded as in a dense assembly of the written
    sum (row-scaled matrices combined left to right, then one diagonal term
    after another), so each caller keeps the rounding of its own formula.
    """
    n = terms[0][2].n
    parts = {}
    for s, c, D in terms:
        for o, span, d in zip(D.offsets, D.spans, D.diagonals):
            parts.setdefault(o, []).append((s, c, span, d))
    offsets = sorted(parts)
    hulls = [_hull([span for *_, span, _ in parts[o]]) for o in offsets]
    k = offsets.index(0)
    spans = list(hulls)
    if diagonal_terms:
        spans[k] = (0, n)
    A = OperatorMatrix.zeros(n, offsets, spans, complex)
    for o, (first, _), (lo, hi), out in zip(offsets, A.spans, hulls, A.diagonals):
        seg = out[lo - first:hi - first]
        for j, (s, c, span, d) in enumerate(parts[o]):
            t = s * ((c[lo:hi] + 0j) * _padded(span, d, (lo, hi)))
            if j == 0:
                seg[...] = t
            else:
                seg += t
    for term in diagonal_terms:
        A.diagonals[k] += term
    return A


def _second_order(c2, c1, c0, D1, D2):
    """Banded matrix of -c2 d2 - 2 c1 d1 + c0 from derivative matrices D1 and D2.

    c0 is a sequence of diagonal terms.
    """
    return _row_scaled_sum([(-1.0, c2, D2), (-2.0, c1, D1)], c0)


def _first_order(U, sign, terms, grid):
    """Banded matrix of sign * U d/dx plus the diagonal terms, added in turn."""
    return _row_scaled_sum([(sign, U, diff_matrix(grid, 1))], terms)


def _gauge_coefficients(a, ap, U, Up):
    """M1 = U U' - i U a and N1 = i (U' a + U a') + a^2, elementwise."""
    A = a + 0j
    return U * Up - 1j * U * A, 1j * (Up * A + U * ap) + A * A


@dataclass
class CoefficientSet:
    """First/zeroth-order coefficients of the metric and of the Hamiltonian.

    The gauge is real, so the adjoint Hamiltonian has the same coefficients
    M1 and N1 as H' (its own expression, built from conj(a), reduces to
    them); the non-Hermiticity then lives entirely in the potential.
    """

    K: np.ndarray
    L: np.ndarray
    M1: np.ndarray
    N1: np.ndarray

    @classmethod
    def build(cls, f, fp, g, gp, a, ap, bundle: ProfileBundle):
        U, Up = bundle.U, bundle.Up
        G = g - a
        Gp = gp - ap
        K = U * Up + 1j * U * G
        L = (f**2 + G**2 - (Up * f + U * fp) - 1j * (Up * G + U * Gp))
        return cls(K, L, *_gauge_coefficients(a, ap, U, Up))


def build_d(phi, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """First-order operator U d/dx + phi."""
    return _first_order(bundle.U, 1.0, (phi,), grid)


def build_d_tilde(phi, a, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Gauge-shifted operator D - i a; the shift is exact at matrix level."""
    return _first_order(bundle.U, 1.0, (phi, -1j * a), grid)


def build_d_tilde_dagger(phi, a, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Adjoint of the gauge-shifted operator: D^ + i conj(a)."""
    return _first_order(bundle.U, -1.0, (-bundle.Up, np.conj(phi), 1j * np.conj(a)), grid)


def build_eta_tilde(coeffs: CoefficientSet, bundle: ProfileBundle,
                    grid: Grid) -> OperatorMatrix:
    """Metric operator -U^2 d2 - 2 K d1 + L, assembled from K and L.

    Its dual construction, the composition D~^ (D~ v), agrees with it on
    smooth vectors over the interior window at the stencil order; entrywise
    the composition has the wider stencil, so agreement is always measured
    through probe actions.
    """
    return _second_order(bundle.U**2, coeffs.K, (coeffs.L,),
                         diff_matrix(grid, 1), diff_matrix(grid, 2))


def build_h_prime(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Gauged Hamiltonian -U^2 d2 - 2 M1 d1 + N1 + V."""
    M1, N1 = _gauge_coefficients(a, ap, bundle.U, bundle.Up)
    return _second_order(bundle.U**2, M1, (N1, V), diff_matrix(grid, 1), diff_matrix(grid, 2))


def build_h_prime_dagger(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Adjoint Hamiltonian -U^2 d2 - 2 M1 d1 + N1 + conj(V) (the gauge is real)."""
    M1, N1 = _gauge_coefficients(a, ap, bundle.U, bundle.Up)
    return _second_order(bundle.U**2, M1, (N1, np.conj(V)),
                         diff_matrix(grid, 1), diff_matrix(grid, 2))


def _dirichlet_stencil(grid: Grid, order: int):
    """Interior-block derivative matrix (banded) with odd reflection through the walls.

    Both orders are pentadiagonal: the central rows of grid.WEIGHTS on
    offsets -2..2.  The closure keeps the pure second-derivative block
    exactly symmetric.  Eigenvalues converge at 4th order only when M1
    vanishes at the walls (see the module docstring); with U' != 0 there
    the observed order is about 2.
    """
    h, m = grid.h, grid.n - 2
    denominator = {1: 12.0 * h, 2: 12.0 * h * h}
    if order not in denominator:
        raise InvalidDomainError(f"derivative order must be 1 or 2, got {order}")
    c = np.array(WEIGHTS[order][-2]) / denominator[order]
    spans = [(max(0, -o), min(m, m - o)) for o in range(-2, 3)]
    diagonals = [np.full(hi - lo, ck) for (lo, hi), ck in zip(spans, c)]
    # odd images: node -1 mirrors interior node 0, node n mirrors node m-1
    diagonals[2][0] -= c[0]
    diagonals[2][m - 1] -= c[4]
    return OperatorMatrix(m, range(-2, 3), spans, np.concatenate(diagonals))


def build_h_prime_block(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Dirichlet interior-block Hamiltonian for dense eigendecomposition."""
    s = slice(1, grid.n - 1)
    M1, N1 = _gauge_coefficients(a[s], ap[s], bundle.U[s], bundle.Up[s])
    return _second_order(bundle.U[s]**2, M1, (N1, V[s]),
                         _dirichlet_stencil(grid, 1), _dirichlet_stencil(grid, 2))


def build_eta_tilde_block(coeffs: CoefficientSet, bundle: ProfileBundle,
                          grid: Grid) -> OperatorMatrix:
    """Dirichlet interior-block metric, for eta-weighted inner products."""
    s = slice(1, grid.n - 1)
    return _second_order(bundle.U[s]**2, coeffs.K[s], (coeffs.L[s],),
                         _dirichlet_stencil(grid, 1), _dirichlet_stencil(grid, 2))


PROBES = 8   # probe vectors of the probe-action checks (intertwining, tau, eta)


def default_probes(grid: Grid, count=PROBES):
    """`count` smooth probe vectors: low-frequency sine/cosine pairs."""
    s = (grid.x - grid.xmin) / (grid.xmax - grid.xmin)
    probes = []
    k = 1
    while len(probes) < count:
        probes.append(np.sin(2.0 * np.pi * k * s + 0.3 * k))
        probes.append(np.cos(2.0 * np.pi * k * s - 0.2 * k))
        k += 1
    return probes[:count]


def tau_similarity_actions(h_prime: OperatorMatrix, h_prime_dagger: OperatorMatrix,
                           tau_phase, vectors):
    """Pointwise maxima over the probe `vectors` of |image v - H'^ v| and of |H'^ v|.

    The antilinear map T e^{i alpha} conjugates matrix entries inside the
    phase sandwich, so the similarity image of H' is conj(E H' E^{-1}) with
    E = diag(e^{i alpha}), built on the diagonals of H'; for a vanishing
    phase the image and the adjoint matrix coincide entrywise and the first
    array is exactly zero.
    """
    E = np.exp(1j * tau_phase)
    image = OperatorMatrix(h_prime.n, h_prime.offsets, h_prime.spans,
                           np.conj(h_prime.row_values(E) * h_prime.data
                                   * h_prime.column_values(1.0 / E)))
    res = act = 0.0
    for v in vectors:
        hv = h_prime_dagger @ v
        res = np.maximum(res, np.abs(image @ v - hv))
        act = np.maximum(act, np.abs(hv))
    return res, act

