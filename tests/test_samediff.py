"""The same-results differential (tools/samediff.py) on three small runs."""

import importlib.util
import json
import os

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
    # a CSV column that moves is reported, but fails nothing
    generate = out[out.index("morse/generate: differs"):].splitlines()
    assert generate[1] == "  op2.csv column V_re: largest change 0.01 (largest value 54.3)"
    assert generate[2] == "3 runs: 0 byte-identical, 3 differ, 2 fail the gate"
