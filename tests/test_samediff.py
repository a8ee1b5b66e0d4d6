"""The same-results differential (tools/samediff.py) on three small runs."""

import importlib.util
import json
import os
import shutil

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("samediff",
                                               os.path.join(ROOT, "tools", "samediff.py"))
samediff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samediff)

REFINE = ["--refine", "101,201,401"]
RUNS = [
    ("morse/rational", ["verify", "--family", "morse", "--mass", "rational", *REFINE,
                        "--checks", "eq25,eta-hermiticity,intertwining", "--out", "op0.json"]),
    ("scarf2/scaled-g", ["verify", "--family", "scarf2", "--gauge", "scaled-g:scale=0.5",
                         *REFINE, "--checks", "eq25,tau", "--out", "op1.json"]),
    ("morse/generate", ["generate", "--family", "morse", "--n", "201", "--out", "op2.csv"]),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("samediff")
    corrupt = str(base / "corrupt.json")
    with open(corrupt, "w") as fh:
        json.dump({"corruption": {"target": "v-add-linear", "amount": 1e-3}}, fh)
    corrupted = [(rid, argv[:1] + ["--config", corrupt] + argv[1:]) for rid, argv in RUNS]
    for name, runs in (("a", RUNS), ("b", RUNS), ("c", corrupted)):
        samediff.run(ROOT, str(base / name), runs)
    return base


def test_two_runs_are_byte_identical(outputs, capsys):
    assert samediff.compare(str(outputs / "a"), str(outputs / "a")) == 0
    assert samediff.compare(str(outputs / "a"), str(outputs / "b"), identical=True) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all equal"


def test_a_corrupted_potential_fails_the_gate(outputs, capsys):
    assert samediff.compare(str(outputs / "a"), str(outputs / "c")) == 1
    out = capsys.readouterr().out
    assert "  FAIL exit code 0 -> 7\n" in out
    assert "  FAIL intertwining: verdict pass -> fail\n" in out
    assert "  FAIL tau n=401: residual" in out
    # a generate column, which has no floor, may move by 1e-12 of max(|v|, 1)
    generate = out[out.index("morse/generate: differs"):].splitlines()
    assert generate[1] == "  FAIL op2.csv column V_re: largest change 0.01 (largest value 54.3)"
    assert generate[2] == "3 runs: 0 byte-identical, 3 differ, 3 fail the gate"


def _moved_trace(outputs, name, floors):
    """A copy of run `a` in which one eq25 trace value of the first run moves
    by `floors` x the floor of eq25's finest level; the report is untouched."""
    moved = outputs / name
    shutil.copytree(outputs / "a", moved)
    with open(moved / "op0.json") as fh:
        checks = json.load(fh)["payload"]["checks"]
    floor, = [c["levels"][-1]["floor"] for c in checks if c["name"] == "eq25"]
    path = moved / "op0.trace" / "eq25.csv"
    lines = path.read_text().splitlines(keepends=True)
    x, value = lines[200].split(",")
    lines[200] = f"{x},{float(value) + floors * floor:.16e}\n"
    path.write_text("".join(lines))
    return moved


def test_a_trace_value_moves_by_the_floor_rule(outputs, capsys):
    # the level residual stays put: only the trace gate can see the move
    assert samediff.compare(str(outputs / "a"), str(_moved_trace(outputs, "near", 0.005))) == 0
    assert samediff.compare(str(outputs / "a"), str(_moved_trace(outputs, "far", 0.02))) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("  FAIL op0.trace/eq25.csv column eq25: largest change")
    assert out[-1] == "3 runs: 2 byte-identical, 1 differ, 1 fail the gate"


def test_every_report_rejudges_to_its_bytes(outputs, capsys):
    assert samediff.rejudge(str(outputs / "c")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2 reports rejudged, 0 change"


def _failing_eig(mat):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


def test_every_rule_round_trips(tmp_path, monkeypatch):
    # each report stripped of what verify.judge writes, and of its summary,
    # is restored byte for byte by report.rejudge
    from pdmph import cli, report, verify
    monkeypatch.chdir(tmp_path)
    (tmp_path / "eig.json").write_text('{"eig_levels": [101, 201]}')
    eig = ["--config", "eig.json"]
    runs = [["--family", "morse", "--mass", "rational",
             "--checks", "eq25,eq28,intertwining,groundstate,gauge"],
            ["--family", "morse", "--detune", "0.3", "--checks", "intertwining"],
            ["--family", "free", "--checks", "spectrum,eq29", *eig],
            ["--family", "scarf2", "--checks", "parity-eta,eq29", *eig],
            # the last run's eigensolves fail
            ["--family", "morse", "--mass", "rational", "--xmin", "-3", "--xmax", "4",
             "--checks", "eq25,spectrum", *eig]]
    payloads = []
    for k, argv in enumerate(runs):
        if k == len(runs) - 1:
            monkeypatch.setattr(np.linalg, "eig", _failing_eig)
        cli.main(["verify", *argv, "--refine", "101,201,401", "--out", f"r{k}.json"])
        raw, payload = samediff._payload(f"r{k}.json")
        bare = samediff.stripped(payload, verify.JUDGED_NOTES)
        assert "summary" not in bare and all("verdict" not in c for c in bare["checks"])
        assert report.emit_json(report.rejudge(bare)) == raw
        payloads.append(payload)
    checks = [c for p in payloads for c in p["checks"]]
    assert {c["verdict"] for c in checks} == {"pass", "fail", "reported-only"}
    assert {c["notes"].get("defect_regime") for c in checks} >= {"genuine", "vanishing"}
    assert {c["notes"].get("exact_regime") for c in checks} >= {True, False}
    assert {"spectrum", "parity-eta"} <= {c["name"] for c in checks}
    assert [c["name"] for c in checks if "error" in c["notes"]] == ["spectrum"]
    gauge, = [c for c in checks if c["name"] == "gauge"]
    assert list(gauge["notes"]) == ["order", "max_unit_modulus_defect"]
