import numpy as np
import pytest

from pdmph import (InvalidDomainError, MassProfile, NonpositiveMassError,
                   diff_matrix, make_grid)
from pdmph.errors import IOFormatError


@pytest.fixture
def grid():
    return make_grid(-8, 8, 801)


def test_constant_profile(grid):
    b = MassProfile.constant().sample(grid)
    assert np.abs(b.U - 1.0).max() == 0.0
    assert np.abs(b.mu - grid.x).max() == 0.0
    assert np.all(b.mupp == 0.0) and np.all(b.muppp == 0.0)


def test_rational_profile_mass_integral(grid):
    b = MassProfile.rational().sample(grid)
    i1 = grid.index_nearest(1.0)
    assert b.mu[i1] == pytest.approx(0.7853982, abs=1e-7)
    # mu''(0) = -U'(0)/U(0)^2 = 0 since U' is odd
    i0 = grid.index_nearest(0.0)
    assert b.mupp[i0] == 0.0


@pytest.mark.parametrize("profile", [MassProfile.constant(2.0), MassProfile.rational(1.5)])
def test_profile_identities(grid, profile):
    b = profile.sample(grid)
    assert np.abs(b.U**2 * 2.0 * b.m - 1.0).max() < 1e-12
    assert np.abs(b.mup * b.U - 1.0).max() < 1e-12
    # mu'' and mu''' identities against FD differentiation of mu; the bounds
    # are the measured 4th-order truncation at h = 0.02 with ~3x headroom
    D1 = diff_matrix(grid, 1)
    w = grid.interior_mask(4)
    assert np.abs((D1 @ b.mu - b.mup))[w].max() < 5e-7
    assert np.abs((D1 @ b.mup - b.mupp))[w].max() < 2e-6
    assert np.abs((D1 @ b.mupp - b.muppp))[w].max() < 2e-5


@pytest.mark.parametrize("profile", [MassProfile.constant(), MassProfile.rational(2.0)])
def test_even_profiles_sample_symmetrically(grid, profile):
    b = profile.sample(grid)
    assert np.all(b.U == b.U[::-1])


def test_mass_positivity_rejected():
    with pytest.raises(NonpositiveMassError):
        MassProfile.constant(-1.0)
    with pytest.raises(NonpositiveMassError):
        MassProfile.from_table([0, 1, 2, 3], [1.0, 0.5, -0.1, 0.2])


def test_table_profile_against_rational(grid):
    # a dense table sampled from the rational profile must reproduce its
    # derived fields at discretization accuracy
    xs = np.linspace(-9, 9, 4001)
    ms = 1.0 / (2.0 * (1.0 + xs**2) ** 2)
    tb = MassProfile.from_table(xs, ms).sample(grid)
    rb = MassProfile.rational().sample(grid)
    w = grid.interior_mask(4)
    assert np.abs((tb.U - rb.U))[w].max() < 1e-7
    assert np.abs((tb.mu - rb.mu))[w].max() < 1e-6
    assert np.abs((tb.mupp - rb.mupp))[w].max() < 1e-4
    assert tb.mu_anchor.startswith("mu(x[")


def test_table_requires_increasing_and_coverage(grid):
    with pytest.raises(IOFormatError):
        MassProfile.from_table([0, 1, 1, 2], [1, 1, 1, 1])
    prof = MassProfile.from_table([-1, 0, 1, 2], [1, 1, 1, 1])
    with pytest.raises(InvalidDomainError):
        prof.sample(grid)


def test_table_mu_convergence():
    # numerically integrated mass integral converges to arctan at high order
    xs = np.linspace(-9, 9, 6001)
    ms = 1.0 / (2.0 * (1.0 + xs**2) ** 2)
    prof = MassProfile.from_table(xs, ms)
    errs, hs = [], []
    for n in (201, 401, 801):
        g = make_grid(-8, 8, n)
        b = prof.sample(g)
        errs.append(np.abs(b.mu - np.arctan(g.x)).max())
        hs.append(g.h)
    assert errs[-1] < 1e-8
