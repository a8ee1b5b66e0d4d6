"""The sparse operator route against the dense route it replaced.

* Every full-grid builder's dense view equals a local copy of the dense
  assembly (dense stencil, row scaling, diagonal terms) entry for entry;
  the dual metric, applied as the composition D~^ (D~ v), agrees with the
  dense product D~^ D~ on the probes to 1e-13 of |D~^| (|D~| |v|).
* Every check's per-level residuals and verdicts agree with those the
  dense route recorded in ``tests/data/dense_route_checks.json``: verdicts
  exactly, residuals within the level's reported floor (see
  UNMODELLED_FLOOR for eq28 and eq29).

The recording is made by running this file as a script against a checkout
of the dense route, from the repository root::

    PYTHONPATH=<dense checkout>/src python tests/test_sparse_route.py \\
        > tests/data/dense_route_checks.json
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from pdmph import (CATALOG, FAMILIES, CoefficientSet, GeneratingSpec,
                   MassProfile, SystemBuilder, build_d, build_d_tilde,
                   build_d_tilde_dagger, build_eta_tilde, build_eta_tilde_block,
                   build_h_prime, build_h_prime_block, build_h_prime_dagger,
                   cumint, default_probes, diff_matrix, make_family, make_grid, run_suite)
from pdmph import grid as grid_module
from pdmph.verify import CHECKS, _identity

RECORDING = os.path.join(os.path.dirname(__file__), "data", "dense_route_checks.json")
REFINE = [101, 201, 401]
EIG_LEVELS = [101, 201]


def _table_mass():
    xs = np.linspace(-3.0, 11.0, 57)
    return MassProfile.from_table(xs, 0.5 * np.exp(0.4 * np.tanh((xs - 2.0) / 1.5)))


CONFIGS = {f"{fam}/{kind}": (fam, kind) for fam in FAMILIES
           for kind in ("constant", "rational")}
CONFIGS["morse/table"] = ("morse", "table")


def _profile(kind):
    return {"constant": MassProfile.constant, "rational": MassProfile.rational,
            "table": _table_mass}[kind]()


def _builder(name):
    fam, kind = CONFIGS[name]
    return SystemBuilder(_profile(kind), *CATALOG[fam][1],
                         spec=GeneratingSpec(fam))


# ---------------------------------------------------------------------------
# the dense assembly, as it was
# ---------------------------------------------------------------------------

def exact_weights(offsets, order):
    """Stencil weights, sum_k w_k f(x + o_k h) = h^order f^(order)(x) at maximal
    degree, from their moment equations solved exactly, then rounded once."""
    m = len(offsets)
    A = [[Fraction(o) ** j for o in offsets] + [Fraction(math.factorial(order) * (j == order))]
         for j in range(m)]
    for c in range(m):   # Gauss-Jordan elimination in rationals
        p = next(r for r in range(c, m) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        A[c] = [a / A[c][c] for a in A[c]]
        for r in range(m):
            if r != c:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    return [float(row[m]) for row in A]


def dense_diff(grid, order):
    n, h = grid.n, grid.h
    nb = 6 if order == 2 else 5
    D = np.zeros((n, n))
    rows = np.arange(2, n - 2)
    for off, wv in zip(range(-2, 3), exact_weights(range(-2, 3), order)):
        D[rows, rows + off] = wv
    for i in (0, 1, n - 2, n - 1):
        offs = (np.arange(nb) - i) if i < 2 else (np.arange(-nb + 1, 1) + (n - 1 - i))
        D[i, i + offs] = exact_weights(offs.tolist(), order)
    return D / h**order


def dense_dirichlet(grid, order):
    h, m = grid.h, grid.n - 2
    c = (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h) if order == 1 else
         np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h))
    D = np.zeros((m, m))
    idx = np.arange(m)
    for k, off in enumerate(range(-2, 3)):
        j = idx + off
        ok = (j >= 0) & (j < m)
        D[idx[ok], j[ok]] += c[k]
    D[0, 0] -= c[0]
    D[m - 1, m - 1] -= c[4]
    return D


def dscale(diag, M):
    return diag[:, None] * M


def add_diagonal(mat, *terms):
    diag = mat.diagonal()
    for term in terms:
        diag = diag + term
    np.fill_diagonal(mat, diag)
    return mat


def second_order(c2, c1, c0, D1, D2):
    return add_diagonal(-dscale(c2 + 0j, D2) - 2.0 * dscale(c1, D1), *c0)


def dense_builders(ds):
    """Every operator of one dressed system, assembled densely."""
    grid, b, U = ds.grid, ds.bundle, ds.bundle.U
    D1, D2 = dense_diff(grid, 1), dense_diff(grid, 2)
    B1, B2 = dense_dirichlet(grid, 1), dense_dirichlet(grid, 2)
    c = CoefficientSet.build(ds.f, ds.fp, ds.g, ds.gp, ds.a, ds.ap, b)
    # the adjoint's own first- and zeroth-order coefficients, from conj(a)
    ac = np.conj(ds.a + 0j)
    M2 = U * b.Up - 1j * U * ac
    N2 = 1j * (b.Up * ac + U * ds.ap) + ac * ac
    s = slice(1, grid.n - 1)
    d = add_diagonal(dscale(U + 0j, D1), ds.phi)
    dd = add_diagonal(-dscale(U + 0j, D1), -b.Up, np.conj(ds.phi))
    ops = {
        "D": d,
        "D_tilde": add_diagonal(d.copy(), -1j * ds.a),
        "D_tilde_dagger": add_diagonal(dd.copy(), 1j * np.conj(ds.a)),
        "eta_tilde": second_order(U**2, c.K, (c.L,), D1, D2),
        "H_prime": second_order(U**2, c.M1, (c.N1, ds.V), D1, D2),
        "H_prime_dagger": second_order(U**2, M2, (N2, np.conj(ds.V)), D1, D2),
        "H_prime_block": second_order(U[s]**2, c.M1[s], (c.N1[s], ds.V[s]), B1, B2),
        "eta_tilde_block": second_order(U[s]**2, c.K[s], (c.L[s],), B1, B2),
    }
    return ops, c


def sparse_builders(ds, c):
    grid, b = ds.grid, ds.bundle
    return {
        "D": build_d(ds.phi, b, grid),
        "D_tilde": build_d_tilde(ds.phi, ds.a, b, grid),
        "D_tilde_dagger": build_d_tilde_dagger(ds.phi, ds.a, b, grid),
        "eta_tilde": build_eta_tilde(c, b, grid),
        "H_prime": build_h_prime(ds.V, ds.a, ds.ap, b, grid),
        "H_prime_dagger": build_h_prime_dagger(ds.V, ds.a, ds.ap, b, grid),
        "H_prime_block": build_h_prime_block(ds.V, ds.a, ds.ap, b, grid),
        "eta_tilde_block": build_eta_tilde_block(c, b, grid),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_builders_match_dense_assembly(name):
    fam, kind = CONFIGS[name]
    # a nonzero gauge exercises every gauge term of the first-order and
    # adjoint builders
    spec = GeneratingSpec(fam, gauge_a=("scaled-g", 0.5))
    ds = make_family(spec, _profile(kind), make_grid(*CATALOG[fam][1], 401))
    dense, c = dense_builders(ds)
    sparse = sparse_builders(ds, c)
    for key, op in sparse.items():
        assert np.array_equal(op.mat, dense[key]), key
    # the dual metric is applied as the composition D~^ (D~ v); the dense
    # product D~^ D~ sums each entry in another order
    dt, dtd = sparse["D_tilde"], sparse["D_tilde_dagger"]
    ref = dense["D_tilde_dagger"] @ dense["D_tilde"]
    for v in default_probes(ds.grid):
        bound = np.abs(dense["D_tilde_dagger"]) @ (np.abs(dense["D_tilde"]) @ np.abs(v))
        assert np.all(np.abs(dtd @ (dt @ v) - ref @ v) <= 1e-13 * bound)


def test_parity_eta_matches_dense_assembly():
    # the check reads the metric's phase array; the dense route assembled
    # E = exp(i phase) P and measured its Hermiticity defect entrywise, here
    # on the zero gauge, an even gauge and an odd gauge
    xs = np.linspace(-9.0, 9.0, 181)
    for family, gauge in (("scarf2", ("zero",)), ("scarf2", ("scaled-g", 0.5)),
                          ("morse", ("table", xs, np.sin(xs)))):
        b = SystemBuilder(MassProfile.rational(), -8.0, 8.0,
                          spec=GeneratingSpec(family, gauge_a=gauge))
        ds = b.dressed(401)
        g = ds.grid
        P = np.eye(g.n)[::-1]
        phase = 2.0 * cumint(ds.a / ds.bundle.U, g, g.index_nearest(0.0))
        E = np.exp(1j * phase)[:, None] * P
        (r,) = _identity("parity-eta", b, [401])
        assert r.residuals == [np.abs(E - E.conj().T).max()], gauge[0]
        assert r.verdict == ("fail" if gauge[0] == "table" else "pass")


def test_cached_stencils_are_read_only():
    g = make_grid(-1.0, 1.0, 41)
    D = diff_matrix(g, 1)
    with pytest.raises(ValueError):
        D.data[0] = 1.0
    assert np.array_equal(diff_matrix(g, 1).mat, dense_diff(g, 1))


def test_cached_stencil_diagonals_are_read_only():
    for order in (1, 2):
        D = diff_matrix(make_grid(-1.0, 1.0, 41), order)
        assert not D.data.flags.writeable
        for d in D.diagonals:
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[...] = 1.0


def test_stencil_cache_stays_bounded():
    # more grids than cache slots, visited twice in turn so every visit
    # misses: every stencil must still be the right one and the cache bounded
    slots = grid_module._build_stencil.cache_info().maxsize
    assert slots == 8
    grids = [make_grid(-1.0, 1.0, n) for n in range(41, 41 + 3 * slots)]
    for g in grids + grids:
        assert np.array_equal(diff_matrix(g, 2).mat, dense_diff(g, 2)), g.n
        assert grid_module._build_stencil.cache_info().currsize <= slots


# ---------------------------------------------------------------------------
# check residuals and verdicts against the recording
# ---------------------------------------------------------------------------

def collect():
    """Every check's verdict and per-level (n, residual, floor), per config."""
    out = {}
    for name in sorted(CONFIGS):
        b = _builder(name)
        # parity-eta runs on grids symmetric about 0 only
        checks = [c for c in CHECKS if c != "parity-eta" or b.grid(REFINE[0]).parity_capable]
        results, _, _ = run_suite(b, checks, REFINE, eig_levels=EIG_LEVELS)
        out[name] = {r.name: {"verdict": r.verdict,
                              "levels": [[lv.n, lv.residual, lv.floor] for lv in r.levels]}
                     for r in results}
    return out


# eq28's level carries floor 0 and eq29's the nominal EPS: neither models the
# rounding of its residual.  They are held to 1e-9 of max(|residual|, 1):
# morse/constant's printed eq28 balance cancels to 1.5e-7, below the
# rounding of its triple finite difference (the sparse route moves it by
# 2.9e-13), and eq29's Gram violations move by up to 5e-15 relative.
UNMODELLED_FLOOR = ("eq28", "eq29")


@pytest.fixture(scope="module")
def recorded():
    with open(RECORDING) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return collect()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_checks_match_dense_route(name, recorded, current):
    want, got = recorded[name], current[name]
    assert list(got) == list(want)
    for check, ref in want.items():
        assert got[check]["verdict"] == ref["verdict"], check
        assert len(got[check]["levels"]) == len(ref["levels"]), check
        for (n, r, fl), (n0, r0, fl0) in zip(got[check]["levels"], ref["levels"]):
            # floors scale with sampled operator actions, so they move by rounding too
            assert n == n0 and fl == pytest.approx(fl0, rel=1e-9, abs=0.0), check
            allowed = 1e-9 * max(abs(r0), 1.0) if check in UNMODELLED_FLOOR else fl0
            assert abs(r - r0) <= allowed, (check, n, r, r0, fl0)


def _scipy_modules_after(code, tmp_path):
    """Sorted scipy modules loaded by `code` in a fresh interpreter, run in tmp_path.

    `code` may call `run(argv)` (the CLI, exit code checked); it runs with
    src/ on the path and its output is the JSON list of scipy modules.
    """
    prelude = ("import json, sys\n"
               "from pdmph.cli import main\n"
               "def run(argv):\n"
               "    assert main(argv) in (0, 7), argv\n")
    report = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", prelude + code + "\n" + report], env=env,
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_runs_leave_scipy_unloaded(tmp_path):
    # the operators are numpy-only: importing scipy costs more than a
    # default verify's arithmetic
    (tmp_path / "eig.json").write_text(json.dumps({"eig_levels": [101, 201]}))
    code = ("import pdmph\n"
            "run(['verify', '--family', 'morse', '--mass', 'rational',\n"
            "     '--refine', '101,201,401', '--out', 'a.json'])\n"
            "run(['verify', '--family', 'morse', '--mass', 'rational', '--checks',\n"
            "     'spectrum,eq29', '--xmin', '-3', '--xmax', '4', '--refine', '101,201,401',\n"
            "     '--config', 'eig.json', '--out', 'b.json'])\n"
            "run(['generate', '--family', 'morse', '--mass', 'rational', '--n', '2001',\n"
            "     '--out', 'c.csv'])")
    assert _scipy_modules_after(code, tmp_path) == []


TABLE_RUNS = {
    "mass-table": ["--family", "morse", "--mass", "table:path=table.csv"],
    "custom-table": ["--family", "custom-table", "--g-table", "table.csv"],
    "gauge-table": ["--family", "morse", "--gauge", "table:path=table.csv"],
    "hermitian-limit": ["--family", "hermitian-limit", "--g-const", "1.3"],
}


@pytest.mark.parametrize("route", sorted(TABLE_RUNS))
def test_table_runs_leave_scipy_unloaded(route, tmp_path):
    # tables are interpolated by grid.Spline: a table input must not
    # bring in scipy, whose import costs more than a default verify
    xs = np.linspace(-9.0, 11.0, 57)
    np.savetxt(tmp_path / "table.csv", np.column_stack((xs, 0.5 + 0.1 * np.tanh(xs))),
               delimiter=",")
    argv = ["verify", *TABLE_RUNS[route], "--refine", "101,201,401", "--out", "a.json"]
    assert _scipy_modules_after(f"run({argv!r})", tmp_path) == []


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1))
