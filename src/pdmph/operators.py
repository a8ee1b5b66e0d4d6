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
each diagonal over its span of rows only, and summed by `from_parts` from one
part per stencil diagonal times its row scaling, then one per diagonal term:
each entry is the written sum in its written order.  An assembled
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


def _row_scaled_sum(terms, diagonal_terms):
    """Banded matrix sum_j s_j (c_j D_j), then the diagonal terms added in turn.

    `terms` holds (s, c, D) with a scalar s, a row scaling c and an
    OperatorMatrix D.  Each stored diagonal d of D over rows lo..hi is one
    part s (c[lo:hi] d) of `OperatorMatrix.from_parts`, and each diagonal
    term one part of the main diagonal, so every entry is the written sum
    rounded in its written order: row-scaled matrices left to right, then
    one diagonal term after another, as in a dense assembly.
    """
    parts = [(o, lo, s * (c[lo:hi] * d)) for s, c, D in terms
             for o, (lo, hi), d in zip(D.offsets, D.spans, D.diagonals)]
    return OperatorMatrix.from_parts(terms[0][2].n, parts + [(0, 0, t) for t in diagonal_terms],
                                     complex)


def _second_order(c2, c1, c0, grid, block=False):
    """Banded matrix of -c2 d2 - 2 c1 d1 + c0 (c0 a sequence of diagonal terms) on the
    grid, or with `block` on its Dirichlet interior block."""
    stencil = _dirichlet_stencil if block else diff_matrix
    return _row_scaled_sum([(-1.0, c2, stencil(grid, 2)), (-2.0, c1, stencil(grid, 1))], c0)


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
    return _second_order(bundle.U**2, coeffs.K, (coeffs.L,), grid)


def build_h_prime(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Gauged Hamiltonian -U^2 d2 - 2 M1 d1 + N1 + V."""
    M1, N1 = _gauge_coefficients(a, ap, bundle.U, bundle.Up)
    return _second_order(bundle.U**2, M1, (N1, V), grid)


def build_h_prime_dagger(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Adjoint Hamiltonian -U^2 d2 - 2 M1 d1 + N1 + conj(V): H' of conj(V), the gauge
    being real."""
    return build_h_prime(np.conj(V), a, ap, bundle, grid)


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
    # odd images: node -1 mirrors interior node 0, node n mirrors node m-1
    return OperatorMatrix.from_parts(m, [(o, max(0, -o), np.full(m - abs(o), ck))
                                         for o, ck in zip(range(-2, 3), c)]
                                     + [(0, 0, -c[:1]), (0, m - 1, -c[4:])])


def build_h_prime_block(V, a, ap, bundle: ProfileBundle, grid: Grid) -> OperatorMatrix:
    """Dirichlet interior-block Hamiltonian for dense eigendecomposition."""
    s = slice(1, grid.n - 1)
    M1, N1 = _gauge_coefficients(a[s], ap[s], bundle.U[s], bundle.Up[s])
    return _second_order(bundle.U[s]**2, M1, (N1, V[s]), grid, block=True)


def build_eta_tilde_block(coeffs: CoefficientSet, bundle: ProfileBundle,
                          grid: Grid) -> OperatorMatrix:
    """Dirichlet interior-block metric, for eta-weighted inner products."""
    s = slice(1, grid.n - 1)
    return _second_order(bundle.U[s]**2, coeffs.K[s], (coeffs.L[s],), grid, block=True)


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

