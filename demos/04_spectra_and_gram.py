"""Dense spectra and the metric-weighted Gram structure.

The Dirichlet interior-block Hamiltonian is diagonalized densely.  Three
regimes illustrate the Gram-matrix statement (nonreal eigenvalues carry
vanishing metric norm; eigenvectors are metric-orthogonal unless their
eigenvalues are conjugate):

 * free particle: the metric equals the Hamiltonian, the statement holds to
   rounding;
 * Hermitian limit with a nonvanishing constant g: wall truncation breaks
   the eigenvector-level intertwining, so the structure is defect-limited
   and reported with defect-scaled tolerances rather than asserted;
 * Scarf-type family: the complex potential supports a real bound spectrum
   including the zero-energy state the pipeline constructs.
"""

import numpy as np

from pdmph import GeneratingSpec, MassProfile, SystemBuilder, run_suite


def eq29(builder):
    """The Gram-structure check on the 801-point grid (the refine levels are
    the suite's, and eq29 reads none of them)."""
    (result,), _, _ = run_suite(builder, ["eq29"], [201, 401, 801], eig_levels=[801])
    return result


# free particle: exact regime
free = SystemBuilder(MassProfile.constant(), -8.0, 8.0)
r = eq29(free)
print("free particle:")
print(f"  eigenvector-level defect {r.notes['defect_on_eigenvectors']:.1e} "
      f"-> exact regime: {r.notes['exact_regime']}")
print(f"  off-structure Gram entries: {r.notes['violation_ii_rel']:.1e} relative")

# Hermitian limit, g = const: wall effects dominate the Gram structure
xs = np.array([-9.0, -8.0, 8.0, 9.0])
herm = SystemBuilder(MassProfile.constant(), -8.0, 8.0,
                     spec=GeneratingSpec("custom-table",
                                         g_table=(xs, np.full(4, 1.3))))
r = eq29(herm)
print("\nhermitian limit (g = 1.3):")
print(f"  eigenvector-level defect {r.notes['defect_on_eigenvectors']:.1e} "
      f"-> verdict {r.verdict}")
print(f"  measured off-structure magnitude {r.notes['violation_ii_rel']:.2e} "
      f"vs defect-scaled tolerance {r.notes['defect_scaled_tolerance']:.2e}")

# Scarf-type family: real bound spectrum with the constructed zero mode
scarf = SystemBuilder(MassProfile.constant(), -25.0, 25.0,
                      spec=GeneratingSpec("scarf2", alpha=0.8))
sp = scarf.spectral(1201)
E = sp.eigenvalues
below = np.sort_complex(E[E.real < 0.8**2 / 4])
print("\nscarf-type family (alpha = 0.8), discrete states below the threshold:")
for e in below:
    print(f"  E = {e.real:+.9f} {e.imag:+.1e} i")
print(f"  zero-energy state found within {np.abs(E[np.argmin(np.abs(E))]):.1e}")
print(f"  pairing counts: {sp.counts}")
