"""pdmph: position-dependent-mass non-Hermitian Hamiltonians from generating
functions, with quantitative verification of their operator identities.

The package builds, on uniform grids with 4th-order finite differences:

  * mass profiles m(x), the kinetic weight U = (2m)^(-1/2) and the mass
    integral mu(x) with derivatives (``profiles``),
  * catalog and custom generating-function systems: companion function f,
    complex potential V, mass-free effective potential, ground-state pair
    (psi, xi) and the gauge phase of the unit-modulus gauge factor (``pipeline``),
  * banded (numpy-only) realizations of the first-order operators, the
    metric, the Hamiltonian and its adjoint and the antilinear similarity
    (``operators``),
  * residual checks with grid-refinement convergence orders, dense spectra
    and metric-weighted Gram structure (``verify``),
  * deterministic machine-readable reports and a CLI (``report``, ``cli``).
"""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, CheckFailureError, ConfigError,
                     DomainViolationError, EigensolverError,
                     GeneratingFunctionZeroError, IOFormatError,
                     InvalidDomainError, NonpositiveMassError, PdmphError)
from .grid import Grid, cumint, diff_matrix, make_grid, observed_order
from .profiles import MassProfile, ProfileBundle
from .pipeline import (CATALOG, FAMILIES, DressedSystem, GeneratingSpec, assemble_potential,
                       catalog_rows, effective_potential, ground_state, make_family,
                       printed_potential, printed_state, printed_vmu, to_csv)
from .operators import (CoefficientSet, OperatorMatrix, build_d, build_d_tilde,
                        build_d_tilde_dagger, build_eta_tilde,
                        build_eta_tilde_block, build_h_prime,
                        build_h_prime_block, build_h_prime_dagger, default_probes)
from .verify import (CheckResult, SpectralResult, SystemBuilder, apply_corruption,
                     eigendecompose, judge, residual_eq28, run_suite)
from .report import emit_json, payload_bytes, rejudge, resolve_config, write_report
