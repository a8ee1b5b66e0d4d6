"""Same-results differential: run a fixed set of pdmph invocations, compare two runs.

    python tools/samediff.py run SRC_DIR OUT_DIR
    python tools/samediff.py compare A_DIR B_DIR [--identical]
    python tools/samediff.py rejudge OUT_DIR

`run` imports pdmph from SRC_DIR/src (a checkout) and runs 68 CLI
invocations in this one process, through `pdmph.cli.main`, with OUT_DIR as
the working directory: every operation of both benchmark workloads
(`perfbench/workloads.py` of this checkout, seed 0, every sweep variant)
and eleven more (`EXTRAS`).  Every verify writes a trace directory next to
its report.  OUT_DIR/runs.json records each run's id, argv, exit code and
printed output.

`compare` exits 1 when the two runs disagree on what they measure:

  * a different set of runs, a changed exit code, a changed set of
    checks or levels, or a changed verdict;
  * a level residual r that moves by more than 0.01 x the level's floor,
    or, for a level whose floor is 0, by more than 1e-12 x max(|r|, 1);
  * a changed set of CSV columns, or a CSV value v that moves by more than
    the same rule allows: in a trace column, 0.01 x the floor of the finest
    level of that result in the run's report; in the `x` column, a generate
    column, or a trace column whose floor is 0, 1e-12 x max(|v|, 1).

Every other difference is printed without failing: notes, orders,
thresholds, the rest of the payload (`spectral` included), the largest
change of each CSV column that moves within the rule, and the printed
output.  Each run is also reported byte-identical or not: its report
payload (the report minus the timestamped sidecar), traces and CSVs.  With
`--identical`, any byte difference fails too; two runs of one checkout
must pass that, since reports promise byte identity across runs.

`rejudge` strips from every verify report of a `run` directory the fields
`pdmph.verify.judge` writes (each check's verdict, threshold, observed
order and derived notes) and the summary, re-derives them with
`pdmph.report.rejudge` of this checkout, and exits 1 if any payload's bytes
change: every verdict is a function of the numbers the payload records.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# residual gate: a move within this fraction of the level's floor is rounding
FLOOR_FRACTION = 0.01
# for a level whose floor is 0: relative move allowed, of max(|r|, 1)
ZERO_FLOOR_REL = 1e-12

EIG_CONFIG = "extra/eig_levels.json"
EIG3_CONFIG = "extra/eig_levels3.json"   # three eig levels: spectrum picks two, eq29 one
CORRUPT_CONFIG = "extra/corrupt.json"    # a corrupted f, under the detuned control too
# (id, argv without --out) of the runs beyond the benchmark workloads
EXTRAS = [
    ("eq29", ["verify", "--family", "morse", "--mass", "rational", "--checks", "eq29",
              "--xmin", "-3", "--xmax", "4"]),
    ("scarf2/parity", ["verify", "--family", "scarf2", "--refine", "201,401,801",
                       "--checks", "parity-eta,eq25,spectrum,eq29", "--config", EIG_CONFIG]),
    ("morse/rational/detune", ["verify", "--family", "morse", "--mass", "rational",
                               "--refine", "201,401,801", "--detune", "0.3"]),
    ("hermitian-limit/spectrum", ["verify", "--family", "hermitian-limit",
                                  "--checks", "spectrum,eq29", "--config", EIG_CONFIG]),
    ("free/rational", ["verify", "--family", "free", "--mass", "rational", "--refine",
                       "101,201,401", "--checks",
                       "spectrum,eq29,eq28,intertwining,eta-hermiticity"]),
    ("morse/scaled-g", ["verify", "--family", "morse", "--gauge", "scaled-g:scale=0.5"]),
    ("scarf2/scaled-g/fine", ["verify", "--family", "scarf2", "--gauge", "scaled-g:scale=0.5",
                              "--refine", "4001,8001,16001"]),
    ("defaults", ["verify"]),
    ("gen-poschl-teller/eta", ["verify", "--family", "gen-poschl-teller", "--checks",
                               "eta-hermiticity", "--refine", "101,201,401,801,1601,3201"]),
    ("morse/rational/three-eig-levels", ["verify", "--family", "morse", "--mass", "rational",
                                         "--checks", "spectrum,eq29", "--xmin", "-3",
                                         "--xmax", "4", "--config", EIG3_CONFIG]),
    ("scarf2/rational/corrupt-detune", ["verify", "--family", "scarf2", "--mass", "rational",
                                        "--refine", "201,401,801", "--config", CORRUPT_CONFIG,
                                        "--detune", "0.3"]),
]


def plan():
    """(id, argv) of every run, outputs relative to the working directory.

    Writes the input files the runs read (mass tables, eig-level configs).
    """
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    runs = []
    for w in workloads.WORKLOADS:
        os.makedirs(w, exist_ok=True)
        for child in workloads.build(w, 0, w, all_variants=True):
            runs += [(f"{w}/{op.id}", op.argv) for op in child]
    os.makedirs("extra", exist_ok=True)
    for path, config in ((EIG_CONFIG, {"eig_levels": [251, 501]}),
                         (EIG3_CONFIG, {"eig_levels": [201, 301, 501]}),
                         (CORRUPT_CONFIG, {"corruption": {"target": "f-perturb",
                                                          "amount": 0.001}})):
        with open(path, "w") as fh:
            json.dump(config, fh)
    runs += [(f"extra/{rid}", argv + ["--out", f"extra/op{k}.json"])
             for k, (rid, argv) in enumerate(EXTRAS)]
    return runs


def _import_cli(src):
    """pdmph.cli, imported from src/ of the checkout `src`."""
    sys.path.insert(0, os.path.join(src, "src"))
    import pdmph.cli
    where = os.path.realpath(os.path.join(src, "src")) + os.sep
    if not os.path.realpath(pdmph.cli.__file__).startswith(where):
        raise SystemExit(f"pdmph was imported from {pdmph.cli.__file__}, not from {where}")
    return pdmph.cli


def _out(argv):
    return argv[argv.index("--out") + 1]


def _trace_dir(argv):
    return os.path.splitext(_out(argv))[0] + ".trace"


def run(src, out, runs=None):
    """Run `runs` (default: `plan()`) from the checkout `src` inside `out`.

    Every verify gets a trace directory; returns the records of runs.json.
    """
    cli = _import_cli(os.path.abspath(src))
    os.makedirs(out, exist_ok=True)
    here = os.getcwd()
    os.chdir(out)
    try:
        records = []
        for rid, argv in (plan() if runs is None else runs):
            if argv[0] == "verify":
                argv = argv + ["--trace-dir", _trace_dir(argv)]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            records.append({"id": rid, "argv": argv, "code": code,
                            "printed": printed.getvalue()})
        with open("runs.json", "w") as fh:
            json.dump(records, fh, indent=1)
        return records
    finally:
        os.chdir(here)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _payload(path):
    """(raw payload text, parsed payload) of a report."""
    with open(path) as fh:
        text = fh.read()
    raw = text[len('{"payload":'):text.rindex(',"sidecar":')]
    return raw, json.loads(raw)


def _files(root, rec):
    """Relative paths of the files a run wrote: its report or CSV, and its traces."""
    out = _out(rec["argv"])
    found = [out] if os.path.isfile(os.path.join(root, out)) else []
    if rec["argv"][0] == "verify":
        tdir = _trace_dir(rec["argv"])
        if os.path.isdir(os.path.join(root, tdir)):
            found += [os.path.join(tdir, f) for f in sorted(os.listdir(os.path.join(root, tdir)))]
    return found


def _leaves(x, y, path, out):
    """Every (path, a, b) where the JSON values x and y differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        for k in sorted(set(x) | set(y), key=str):
            _leaves(x.get(k), y.get(k), f"{path}.{k}", out)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (u, v) in enumerate(zip(x, y)):
            _leaves(u, v, f"{path}[{i}]", out)
    elif x != y and not (isinstance(x, float) and isinstance(y, float)
                         and math.isnan(x) and math.isnan(y)):
        out.append((path, x, y))


def _residual_moved(a, b, floor):
    """The gate on one level residual: True when the move exceeds it."""
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (a, b)):
        return repr(a) != repr(b)
    allowed = FLOOR_FRACTION * floor if floor > 0 else ZERO_FLOOR_REL * max(abs(a), 1.0)
    return abs(a - b) > allowed


def _compare_reports(pa, pb, fails, infos):
    """Gate the verdicts and level residuals of two payloads; list the other differences."""
    ca = {c["name"]: c for c in pa["checks"]}
    cb = {c["name"]: c for c in pb["checks"]}
    if list(ca) != list(cb):
        fails.append(f"checks {list(ca)} -> {list(cb)}")
        return
    for name, x in ca.items():
        y = cb[name]
        if x["verdict"] != y["verdict"]:
            fails.append(f"{name}: verdict {x['verdict']} -> {y['verdict']}")
        la, lb = x["levels"], y["levels"]
        if [(lv["n"], lv["h"]) for lv in la] != [(lv["n"], lv["h"]) for lv in lb]:
            fails.append(f"{name}: levels {[lv['n'] for lv in la]} -> {[lv['n'] for lv in lb]}")
            continue
        for lv, mv in zip(la, lb):
            r, s, floor = lv["residual"], mv["residual"], lv["floor"]
            if r != s:
                scale = f"{abs(r - s) / floor:.3g} x floor" if floor > 0 else "floor 0"
                line = f"{name} n={lv['n']}: residual {r!r} -> {s!r} ({scale})"
                (fails if _residual_moved(r, s, floor) else infos).append(line)
        rest = []
        _leaves({k: v for k, v in x.items() if k not in ("levels", "verdict")},
                {k: v for k, v in y.items() if k not in ("levels", "verdict")}, name, rest)
        _leaves([lv["floor"] for lv in la], [lv["floor"] for lv in lb], f"{name}.floors", rest)
        infos += [f"{p}: {u!r} -> {v!r}" for p, u, v in rest]
    rest = []
    _leaves({k: v for k, v in pa.items() if k != "checks"},
            {k: v for k, v in pb.items() if k != "checks"}, "payload", rest)
    infos += [f"{p}: {u!r} -> {v!r}" for p, u, v in rest]


def _columns(path):
    """Header and numeric columns of a CSV with one header row."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _compare_csv(pa, pb, name, floors, fails, infos):
    """Gate each column of two CSVs; `floors` maps a trace column to its floor."""
    ha, da = _columns(pa)
    hb, db = _columns(pb)
    if ha != hb or da.shape != db.shape:
        fails.append(f"{name}: columns {ha} {da.shape} -> {hb} {db.shape}")
        return
    for k, col in enumerate(ha):
        a, b = da[:, k], db[:, k]
        if not np.array_equal(a, b, equal_nan=True):
            floor = floors.get(col, 0.0)
            allowed = (FLOOR_FRACTION * floor if floor > 0
                       else ZERO_FLOOR_REL * np.maximum(np.abs(a), 1.0))
            with np.errstate(invalid="ignore"):
                moved = ~((a == b) | (np.abs(a - b) <= allowed) | (np.isnan(a) & np.isnan(b)))
            (fails if moved.any() else infos).append(
                f"{name} column {col}: largest change {np.nanmax(np.abs(a - b)):.3g} "
                f"(largest value {np.nanmax(np.abs(a)):.3g})")


def _same_bytes(pa, pb):
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        return fa.read() == fb.read()


def compare(a, b, identical=False):
    """Print the differences between the runs in `a` and `b`; 1 if the gate fails, else 0."""
    with open(os.path.join(a, "runs.json")) as fh:
        ra = json.load(fh)
    with open(os.path.join(b, "runs.json")) as fh:
        rb = json.load(fh)
    if [r["id"] for r in ra] != [r["id"] for r in rb]:
        print("FAIL: the two directories hold different sets of runs")
        return 1
    failed = differing = 0
    for x, y in zip(ra, rb):
        fails, infos = [], []
        if x["code"] != y["code"]:
            fails.append(f"exit code {x['code']} -> {y['code']}")
        fa, fb = _files(a, x), _files(b, y)
        if fa != fb:
            fails.append(f"output files {fa} -> {fb}")
        same = fa == fb and x["printed"] == y["printed"]
        if x["printed"] != y["printed"]:
            infos.append("printed output differs")
        floors = {}   # of the run's results, at their finest level: its traces' gate
        for f in (f for f in fa if f in fb):
            pa, pb = os.path.join(a, f), os.path.join(b, f)
            if f.endswith(".json"):
                (raw_a, ja), (raw_b, jb) = _payload(pa), _payload(pb)
                floors = {c["name"]: c["levels"][-1]["floor"]
                          for c in ja.get("checks", []) if c["levels"]}
                same &= raw_a == raw_b
                if raw_a != raw_b:
                    _compare_reports(ja, jb, fails, infos)
            elif not _same_bytes(pa, pb):
                same = False
                _compare_csv(pa, pb, f, floors, fails, infos)
        failed += bool(fails) or (identical and not same)
        differing += not same
        if fails or infos or not same:
            print(f"{x['id']}: {'byte-identical' if same else 'differs'}")
            for line in fails:
                print(f"  FAIL {line}")
            for line in infos:
                print(f"  {line}")
    print(f"{len(ra)} runs: {len(ra) - differing} byte-identical, {differing} differ, "
          f"{failed} fail the gate{' (byte identity required)' if identical else ''}")
    if not failed and not differing:
        print("all equal")
    return 1 if failed else 0


def stripped(payload, judged_notes):
    """A verify payload without its summary and without each check's verdict,
    threshold, observed order and the notes named in `judged_notes`."""
    checks = []
    for check in payload["checks"]:
        check = {k: v for k, v in check.items()
                 if k not in ("verdict", "threshold", "observed_order")}
        check["notes"] = {k: v for k, v in check["notes"].items() if k not in judged_notes}
        checks.append(check)
    return {**{k: v for k, v in payload.items() if k != "summary"}, "checks": checks}


def rejudge(out):
    """Rejudge every verify report of the run directory `out` from its stripped
    payload; print each that changes; 1 if any does, else 0."""
    _import_cli(ROOT)
    from pdmph import report, verify
    with open(os.path.join(out, "runs.json")) as fh:
        records = json.load(fh)
    total = changed = 0
    for rec in records:
        for f in _files(out, rec):
            if not f.endswith(".json"):
                continue
            raw, payload = _payload(os.path.join(out, f))
            if "checks" not in payload:
                continue
            total += 1
            again = report.emit_json(report.rejudge(stripped(payload, verify.JUDGED_NOTES)))
            if again != raw:
                changed += 1
                print(f"{rec['id']}: {f} changes when rejudged")
    print(f"{total} reports rejudged, {changed} change")
    return 1 if changed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run every invocation from a checkout")
    r.add_argument("src", help="checkout whose src/ holds the pdmph to run")
    r.add_argument("out", help="directory for the outputs (the working directory)")
    c = sub.add_parser("compare", help="compare two run directories")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--identical", action="store_true",
                   help="also fail on any byte difference of payloads, traces or CSVs")
    j = sub.add_parser("rejudge", help="re-derive every verdict of a run directory's reports")
    j.add_argument("out", help="a directory written by `run`")
    args = p.parse_args(argv)
    if args.command == "rejudge":
        return rejudge(args.out)
    if args.command == "run":
        records = run(args.src, args.out)
        print(f"{len(records)} runs, exit codes {sorted({r['code'] for r in records})}")
        return 0
    return compare(args.a, args.b, args.identical)


if __name__ == "__main__":
    sys.exit(main())
