"""pdmph benchmark: times `pdmph` CLI runs in child processes, from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from `src/`.
With `--trace 0` it repeats the workload as many times as brings the
measured time closest to S seconds (at least once, judged by the first
repetition) and reports the end-to-end metrics as medians over them.  With
`--trace 1` it runs the workload once untraced and once traced, checks that
every output is byte-identical between the two, and reports the per-layer
metrics (see layers.py).  `--smoke` runs tiny grids in seconds, for the
benchmark's own tests; `--write-references` records the reference verdicts
in references.json.  Every child gets one BLAS thread.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  Before it come the machine block and then the raw per-pass
samples (`--trace 0`) or per-operation call counts (`--trace 1`).  An
operation fails when it exits with a code other than 0 or 7, writes no
parseable report or CSV, or its output differs from the reference (verdict
vector, CSV samples) or from the untraced run.  `correct` is false when an
output differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import workloads

BENCH_VERSION = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5          # imports timed before the passes, and again after them
RUN_LIMIT_S = 170.0
REFERENCE_LIMIT_S = 900.0
CSV_REL_TOL = 1e-9


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Bench:
    """One benchmark invocation in the checkout at `root`."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work                              # absolute, inside the checkout
        self.work_rel = os.path.relpath(work, root)   # as the program sees it
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PDMPH_NO_COLOR="1", TMPDIR=work, **{v: "1" for v in THREAD_VARS})
        self.log = os.path.join(work, "children.log")

    def spawn(self, argv):
        """Run one child to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        with open(self.log, "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if time.monotonic() >= self.deadline:
            raise BenchError("run exceeded its time limit")
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def setup_times(self):
        """Times for a fresh interpreter to import pdmph and exit."""
        argv = ["-c", "import pdmph"]
        code = self.spawn(argv)[0]          # untimed: fills the bytecode cache
        times = [self.spawn(argv)[1] for _ in range(SETUP_REPEATS)]
        if code != 0:
            raise BenchError("`import pdmph` failed; see the child log")
        return times

    def run_pass(self, plans, traced):
        """Run every plan in its own child.

        Returns per-op exit codes, the pass wall time, summed child CPU time,
        largest child RSS, each child's wall time and (traced) the spans.
        """
        codes, spans, child_walls = [], [], []
        cpu = rss = 0.0
        t0 = time.perf_counter()
        for i, plan in enumerate(plans):
            plan_path = os.path.join(self.work, f"plan{i}.json")
            result_path = os.path.join(self.work, f"result{i}.json")
            spans_path = os.path.join(self.work, f"spans{i}.json")
            with open(plan_path, "w") as fh:
                json.dump([op.argv for op in plan], fh)
            for p in (result_path, spans_path):
                if os.path.exists(p):
                    os.remove(p)
            argv = [os.path.join(HERE, "child.py"), plan_path, result_path]
            if traced:
                argv.append(spans_path)
            code, c_wall, c_cpu, c_rss = self.spawn(argv)
            child_walls.append(c_wall)
            cpu += c_cpu
            rss = max(rss, c_rss)
            try:
                with open(result_path) as fh:
                    got = json.load(fh)["codes"]
            except (OSError, ValueError, KeyError):
                got = None
            codes.extend(got if code == 0 and got and len(got) == len(plan) else [None] * len(plan))
            if traced and code == 0:
                offset = len(codes) - len(plan)
                with open(spans_path) as fh:
                    for s in json.load(fh)["spans"]:
                        s[4] += offset              # op index within the whole workload
                        spans.append(s)
        wall = time.perf_counter() - t0       # first child launch to last exit
        return codes, wall, cpu, rss, child_walls, spans


def csv_summary(path, rows):
    """Row count and a few sampled rows of a dataset CSV; raises ValueError if malformed."""
    from pdmph.pipeline import CSV_COLUMNS
    picks = {0, rows // 4, rows // 2, 3 * rows // 4, rows - 1}
    samples, count = {}, 0
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected header")
        for i, line in enumerate(fh):
            count += 1
            if i in picks:
                vals = [float(v) for v in line.split(",")]
                if len(vals) != len(CSV_COLUMNS):
                    raise ValueError(f"{path}: row {i} has {len(vals)} fields")
                samples[str(i)] = vals
    return {"rows": count, "samples": samples}


def _csv_matches(got, ref):
    if got["rows"] != ref["rows"] or got["samples"].keys() != ref["samples"].keys():
        return False
    return all(abs(g - r) <= CSV_REL_TOL * max(1.0, abs(r))
               for k in ref["samples"] for g, r in zip(got["samples"][k], ref["samples"][k]))


def observe(op, code):
    """(summary, fingerprint) of an op's output, or None if it produced none."""
    from pdmph.report import payload_bytes     # of the checkout being measured
    if code not in (0, 7):
        return None
    try:
        if op.kind == "verify":
            data = payload_bytes(op.out)
            checks = json.loads(data)["checks"]
            return [f"{c['name']}={c['verdict']}" for c in checks], hashlib.sha256(data).hexdigest()
        rows = int(op.argv[op.argv.index("--n") + 1])
        digest = hashlib.sha256()
        with open(op.out, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        return csv_summary(op.out, rows), digest.hexdigest()
    except (OSError, ValueError, KeyError):
        return None


def judge(op, seen, ref):
    """(ok, wrong) for one op: wrong means its output differs from the reference."""
    if seen is None:
        return False, False
    summary = seen[0]
    if ref is None:                      # no output at reference time: nothing to compare
        return True, False
    same = _csv_matches(summary, ref) if op.kind == "generate" else summary == ref
    return same, not same


def machine(seed, env):
    import numpy
    import scipy
    np_blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "seed": seed,
        "benchmark_version": BENCH_VERSION,
    }


def run(bench, args):
    mode = "smoke" if args.smoke else "full"
    with open(REFERENCES) as fh:
        refs = json.load(fh)[mode][args.workload]
    plans = workloads.build(args.workload, args.seed, bench.work_rel, args.smoke)
    ops = [op for plan in plans for op in plan]
    missing = [op.id for op in ops if op.id not in refs]
    if missing:
        raise BenchError(f"references.json has no {mode} reference for {missing}")
    attempted = failed = 0
    wrong = False

    def tally(codes, untraced=None):
        """Judge one pass; in the traced pass also compare with the untraced outputs."""
        nonlocal attempted, failed, wrong
        seen = []
        for i, (op, code) in enumerate(zip(ops, codes)):
            s = observe(op, code)
            ok, bad = judge(op, s, refs[op.id])
            if ok and untraced is not None and (untraced[i] is None or untraced[i][1] != s[1]):
                ok, bad = False, True
            attempted += 1
            failed += not ok
            wrong |= bad
            seen.append(s)
        return seen

    if args.trace:
        codes, wall_plain, *_ = bench.run_pass(plans, traced=False)
        plain = tally(codes)
        codes, wall_traced, *_, spans = bench.run_pass(plans, traced=True)
        tally(codes, untraced=plain)
        metrics = layers.per_layer(spans, wall_traced - wall_plain)
        per_op = {op.id: {k: int(v) for k, v in
                          layers.aggregate([s for s in spans if s[4] == i]).items()
                          if k.endswith((".calls", ".distinct")) and not re.search(r"\.n\d+\.", k)}
                  for i, op in enumerate(ops)}
        return wrong, attempted, failed, metrics, {"per_op_counts": per_op}

    setup = bench.setup_times()
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "child_wall_s": []}
    passes = None
    while passes is None or len(samples["wall_s"]) < passes:
        codes, wall, cpu, rss, child_walls, _ = bench.run_pass(plans, traced=False)
        tally(codes)
        for key, value in zip(samples, (wall, cpu, rss, child_walls)):
            samples[key].append(value)
        if passes is None:      # the pass count that brings the run closest to --seconds
            passes = max(1, round(args.seconds / wall))
    samples["setup_s"] = setup + bench.setup_times()
    metrics = {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "ops_per_s": ((attempted - failed) / sum(samples["wall_s"]), "1/s"),
        "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return wrong, attempted, failed, metrics, {"samples": samples}


def write_references(bench, smoke):
    """Record every op's verdict vector (or CSV samples) for the default seed into references.json."""
    mode = "smoke" if smoke else "full"
    section = {}
    for wl in workloads.WORKLOADS:
        plans = workloads.build(wl, 0, bench.work_rel, smoke, all_variants=True)
        codes = bench.run_pass(plans, traced=False)[0]
        section[wl] = {}
        for op, code in zip((op for plan in plans for op in plan), codes):
            seen = observe(op, code)
            section[wl][op.id] = seen and seen[0]
            print(f"{mode} {wl} {op.id}: exit {code}", file=sys.stderr)
    try:
        with open(REFERENCES) as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    refs[mode] = section
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_references and args.workload is None:
        ap.error("--workload is required")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pdmph", "cli.py")):
        print(f"error: {root} holds no pdmph source (src/pdmph); run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, str(os.getpid()))
    os.makedirs(work)
    limit = REFERENCE_LIMIT_S if args.write_references else RUN_LIMIT_S
    bench = Bench(root, work, time.monotonic() + limit)
    try:
        if args.write_references:
            write_references(bench, args.smoke)
            return 0
        wrong, attempted, failed, metrics, detail = run(bench, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    block = machine(args.seed, bench.env)
    block.update(workload=args.workload, trace=args.trace, smoke=args.smoke)
    print(json.dumps({"machine": block}))
    print(json.dumps(detail))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
