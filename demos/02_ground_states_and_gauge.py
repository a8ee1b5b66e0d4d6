"""Ground states from cumulative quadrature, their defining residuals, and
the unit-modulus gauge factor.

The state xi ~ exp[-int f/U - i int (g-a)/U] is annihilated by the
first-order operator D~ and is an eigenstate of the gauged Hamiltonian with
eigenvalue delta.  Both residuals are measured here under grid refinement;
they decrease at the 4th order of the stencils.  With a nonzero gauge
function a the state picks up the pure phase Lambda = exp[i int a/U] and the
two routes D~(Lambda psi) and Lambda (D psi) stay equal.
"""

import numpy as np

from pdmph import GeneratingSpec, MassProfile, SystemBuilder, run_suite

builder = SystemBuilder(MassProfile.rational(), -3.0, 4.0,
                        spec=GeneratingSpec("morse", alpha=1.0))

levels = [501, 1001, 2001]
(r_ann, r_eig), _, _ = run_suite(builder, ["groundstate"], levels)

print("first-order annihilation residuals (max |D~ xi| / max |xi|):")
for lv in r_ann.levels:
    print(f"  n = {lv.n:5d}   h = {lv.h:.4e}   residual = {lv.residual:.3e}"
          f"   rounding ceiling = {lv.floor:.1e}")
print(f"observed order: {r_ann.observed_order}")

print("\neigen-residuals (max |(H' - delta) xi| / max |xi|):")
for lv in r_eig.levels:
    print(f"  n = {lv.n:5d}   residual = {lv.residual:.3e}")
order = r_eig.observed_order
print("observed order:", "at rounding floor" if order is None else f"{order:.2f}")

# gauge the same system with a = g and watch the equivalence identity
gauged = SystemBuilder(MassProfile.rational(), -3.0, 4.0,
                       spec=GeneratingSpec("morse", alpha=1.0,
                                           gauge_a=("scaled-g", 1.0)))
(rg,), _, _ = run_suite(gauged, ["gauge"], levels)
print("\ngauge equivalence D~(Lambda psi) = Lambda (D psi), a = g:")
for lv in rg.levels:
    print(f"  n = {lv.n:5d}   residual = {lv.residual:.3e}")
print(f"observed order: {rg.observed_order:.2f}")
print(f"max | |Lambda| - 1 |: {rg.notes['max_unit_modulus_defect']:.2e}")

# the state amplitude satisfies |psi| = sqrt(g mu') up to one constant
ds = builder.dressed(1001)
ref = np.sqrt(ds.g * ds.bundle.mup)
ref /= ref[ds.anchor]
print(f"\namplitude law |psi| = sqrt(g mu'): max deviation "
      f"{np.abs(np.abs(ds.psi) - ref).max():.2e}")
