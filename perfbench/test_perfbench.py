"""Tests of the benchmark itself, on tiny grids (`--smoke`); about 20 s in all.

    python3 -m pytest perfbench -q

They are not part of the tier-1 suite (`testpaths = ["tests"]`).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers      # noqa: E402
import workloads   # noqa: E402
from tracer import Tracer   # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace, tmp_path):
    out = _bench("--smoke", "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in specs}
    machine = json.loads(lines[-3])["machine"]
    assert machine["seed"] == 5 and machine["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    ops = sum(len(plan) for plan in workloads.build(workload, 5, str(tmp_path), smoke=True))
    passes = result["attempted"] // ops
    # the free preset exits 3 in every sweep pass; nothing else fails
    assert result["failed"] == (passes if workload == "sweep-small" else 0)
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] != 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_on_default_verify():
    out = _bench("--smoke", "--workload", "verify-default", "--seed", "0", "--seconds", "1",
                 "--trace", "1")
    m = {k: v["value"] for k, v in json.loads(out.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert (m["grid.diff_matrix.calls"], m["grid.diff_matrix.distinct"]) == (72, 6)
    assert (m["pipeline.make_family.calls"], m["pipeline.make_family.distinct"]) == (26, 3)
    assert m["operators.matvec.calls"] > 0 and 0 < m["operators.fill_ratio"] < 1


def test_traced_sweep_reaches_every_layer():
    out = _bench("--smoke", "--workload", "sweep-small", "--seed", "1", "--seconds", "1",
                 "--trace", "1")
    lines = out.stdout.strip().splitlines()
    m = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    for name in ("grid.self_s", "profiles.sample.self_s", "pipeline.make_family.self_s",
                 "pipeline.to_csv.self_s", "operators.self_s", "verify.check_eq29.self_s",
                 "report.self_s", "cli.main.self_s"):
        assert m[name] > 0, name
    assert m["pipeline.to_csv.bytes"] > 0 and m["report.bytes"] > 0
    assert (m["verify.eigendecompose.eig_calls"], m["verify.eigendecompose.eigh_calls"]) == (3, 3)
    per_op = json.loads(lines[-2])["per_op_counts"]["morse/rational/spectrum"]
    assert (per_op["verify.eigendecompose.calls"], per_op["verify.eigendecompose.distinct"]) == (3, 2)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-default",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""


def test_self_time_excludes_children_and_bookkeeping():
    tr = Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap("grid.inner", inner)
    outer_t = tr.wrap("grid.outer", lambda x: inner_t(inner_t(x)))
    assert outer_t(1) == 3
    by_name = {}
    for sid, parent, name, _n, _op, t0, t1, dur, self_s, _c in tr.spans:
        by_name.setdefault(name, []).append((sid, parent, t1 - t0, dur, self_s))
    (oid, oparent, _, odur, oself), = by_name["grid.outer"]
    assert oparent is None
    children = by_name["grid.inner"]
    assert [c[1] for c in children] == [oid, oid]
    assert oself == pytest.approx(odur - sum(c[3] for c in children), abs=1e-12)
    assert all(c[3] <= c[2] for c in children)


def test_install_rebinds_every_import_site():
    code = """
import pdmph, pdmph.grid, pdmph.operators, pdmph.pipeline, pdmph.verify, pdmph.cli
from tracer import Tracer
Tracer().install()
assert pdmph.verify.build_h_prime is pdmph.operators.build_h_prime
assert pdmph.pipeline.diff_matrix is pdmph.grid.diff_matrix
assert pdmph.cli.run_suite is pdmph.verify.run_suite is pdmph.run_suite
for f in (pdmph.verify.build_h_prime, pdmph.pipeline.diff_matrix, pdmph.cli.run_suite,
          pdmph.grid.OperatorMatrix.apply, pdmph.grid.OperatorMatrix.__matmul__,
          pdmph.profiles.MassProfile.sample):
    assert hasattr(f, "__wrapped__"), f
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
