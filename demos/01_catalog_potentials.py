"""Build every catalog family and compare the pipeline's effective potential
against its closed form.

The five families sample the generating function g as a function of the mass
integral mu(x), so one potential shape serves every mass profile: the complex
potential V depends on the profile, while V_eff = V + V_mu is the mass-free
shape.  This script evaluates both on a constant and on a rational mass
profile and writes plot-ready CSV datasets.
"""

import numpy as np

from pdmph import (CATALOG, FAMILIES, GeneratingSpec, MassProfile, make_family,
                   make_grid, printed_potential, to_csv)

for kind, profile in (("constant", MassProfile.constant()),
                      ("rational", MassProfile.rational())):
    print(f"\n=== {kind} mass profile ===")
    for family in FAMILIES:
        domain = CATALOG[family][1]
        grid = make_grid(*domain, 1201)
        ds = make_family(GeneratingSpec(family, alpha=1.0), profile, grid)

        # the pipeline's effective potential must coincide with the catalog's
        # closed form evaluated at the sampled mass integral
        w = grid.interior_mask(8)
        printed = printed_potential(family, 1.0, ds.bundle.mu)
        rel = (np.abs(ds.V_eff - printed) / (1.0 + np.abs(printed)))[w].max()

        # the complex potential differs from the effective one by the
        # mass-gradient term, which vanishes for constant mass
        closure = np.abs(ds.V - (ds.V_eff - ds.V_mu))[w].max()

        out = f"{family}_{kind}.csv"
        to_csv(ds, out)
        print(f"{family:18s} closed-form delta {rel:9.2e}   "
              f"V = V_eff - V_mu closure {closure:9.2e}   -> {out}")

print("""
Notes:
 * the closed-form deltas sit at rounding level because family derivatives
   are evaluated analytically through the mass-integral chain rule;
 * V_mu uses the closure-consistent form (5 mu''^2 - 2 mu' mu''')/(4 mu'^4);
   the generate/verify reports also record the alternative printed form and
   their measured difference.
""")
