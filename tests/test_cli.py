import itertools
import json

import numpy as np
import pytest

from pdmph.cli import main, make_parser
from pdmph.report import payload_bytes, resolve_config
from pdmph.errors import ConfigError
from pdmph.verify import TOLERANCES


def run(argv):
    return main(argv)


def test_catalog_lists_five_families(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.strip() and not l.startswith("family")]
    assert len(rows) == 5
    assert any("morse" in r and "exp(-alpha*mu)" in r for r in rows)


def test_catalog_single_family(capsys):
    assert run(["catalog", "list", "--family", "morse"]) == 0
    out = capsys.readouterr().out
    assert "morse" in out and "harmonic3d" not in out


def test_catalog_unknown_family_exits_nonzero(capsys):
    assert run(["catalog", "list", "--family", "unknown"]) == 3


def test_generate_morse_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = run(["generate", "--family", "morse", "--alpha", "2",
                "--xmin", "-1", "--xmax", "11", "--n", "1201", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    i0 = np.argmin(np.abs(data[:, 0]))
    assert data[i0, 0] == 0.0
    assert data[i0, 8] == pytest.approx(4.0, abs=1e-12)   # V_im = 2 alpha at mu = 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["printed_form_max_rel_delta"] < 1e-10


def test_generate_domain_violation_exit(capsys):
    code = run(["generate", "--family", "harmonic3d", "--xmin", "-8",
                "--xmax", "8", "--n", "201"])
    assert code == 6


def test_generate_rejects_presets(tmp_path):
    assert run(["generate", "--family", "free", "--xmin", "-1", "--xmax", "1",
                "--n", "101"]) == 2


def test_spectrum_budget_exceeded():
    assert run(["spectrum", "--family", "free", "--xmin", "-8", "--xmax", "8",
                "--n", "100000"]) == 8


def test_spectrum_free_particle(tmp_path, capsys):
    code = run(["spectrum", "--family", "free", "--xmin", "-8", "--xmax", "8",
                "--n", "301"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    E = payload["spectral"]["eigenvalues_re"]
    L = 16.0
    assert E[0] == pytest.approx((np.pi / L) ** 2, rel=1e-6)
    assert payload["spectral"]["counts"]["real"] == payload["spectral"]["total"]


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"family": "morse", "bogus": 1}))
    assert run(["verify", "--config", str(cfg)]) == 2


def test_config_strict_nested():
    with pytest.raises(ConfigError):
        resolve_config({"grid": {"xmin": 0, "xmax": 1, "points": 100}})
    with pytest.raises(ConfigError):
        resolve_config({"checks": ["eq25", "nope"]})
    with pytest.raises(ConfigError):
        resolve_config({"refine": [101, 201]})
    with pytest.raises(ConfigError):
        resolve_config({"mass.kind": "rational"})


def test_config_defaults_written_back():
    cfg = resolve_config({"family": "scarf2"})
    assert cfg["grid"]["xmin"] == -8.0
    assert cfg["checks"]
    # the thresholds are constants of the verify layer, not config values
    assert TOLERANCES["residual"] == 1e-6
    assert "tolerances" not in cfg


def _at(tree, key):
    for part in key.split("."):
        tree = tree[part]
    return tree


def test_settings_table_is_the_config(tmp_path):
    # one row per settable value, in the order a default verify payload echoes
    # them (`out` says where a run writes, so payloads leave it out)
    from pdmph.report import SETTINGS
    assert list(SETTINGS) == [
        "family", "alpha", "delta", "g_const", "g_table", "gauge.mode", "gauge.scale",
        "gauge.path", "mass.kind", "mass.scale", "mass.path", "grid.xmin", "grid.xmax",
        "grid.n", "refine", "eig_levels", "checks", "detune", "corruption", "out"]
    out = tmp_path / "rep.json"
    assert run(["verify", "--out", str(out)]) == 0
    echoed = []
    for key, value in json.loads(out.read_text())["payload"]["config"].items():
        echoed += [f"{key}.{leaf}" for leaf in value] if isinstance(value, dict) else [key]
    assert echoed == [k for k in SETTINGS if k != "out"]


# each flag with the value its run resolves it to
FLAG_RUNS = [
    (["verify", "--family", "scarf2", "--alpha", "0.5", "--delta", "0.25", "--gauge",
      "scaled-g:scale=0.75", "--mass", "rational:beta=2", "--xmin", "-5", "--xmax", "6",
      "--refine", "401,101,201", "--checks", "intertwining,eq25", "--detune", "0.3",
      "--out", "r.json"],
     {"family": "scarf2", "alpha": 0.5, "delta": 0.25, "gauge.mode": "scaled-g",
      "gauge.scale": 0.75, "mass.kind": "rational", "mass.scale": 2.0, "grid.xmin": -5.0,
      "grid.xmax": 6.0, "refine": [101, 201, 401], "checks": ["intertwining", "eq25"],
      "detune": 0.3, "out": "r.json"}),
    (["verify", "--family", "hermitian-limit", "--g-const", "1.5", "--refine", "101,201,401"],
     {"family": "hermitian-limit", "g_const": 1.5}),
    (["spectrum", "--family", "custom-table", "--g-table", "g.csv", "--gauge", "table:path=a.csv",
      "--mass", "table:path=m.csv", "--n", "301"],
     {"g_table": "g.csv", "gauge.mode": "table", "gauge.path": "a.csv", "mass.kind": "table",
      "mass.path": "m.csv", "grid.n": 301}),
]


def test_every_flag_reaches_the_payload():
    from pdmph.cli import _load_config
    from pdmph.report import SETTINGS, payload_config
    for argv, want in FLAG_RUNS:
        cfg = _load_config(make_parser().parse_args(argv))
        for key, value in want.items():
            assert _at(cfg if key == "out" else payload_config(cfg), key) == value, key
    assert {k for k, s in SETTINGS.items() if s.flag} <= set().union(*(w for _, w in FLAG_RUNS))


# one refusal of an unread value per kind of reader
@pytest.mark.parametrize("given,command,message", [
    ({"grid": {"n": 999}}, "verify", "grid.n: not read by command 'verify'"),
    ({"g_const": 2.0}, None, "g_const: not read by family 'morse'"),
    ({"mass": {"kind": "table", "path": "m.csv", "scale": 2.0}}, None,
     "mass.scale: not read by mass.kind 'table'"),
    ({"gauge": {"mode": "zero", "scale": 2.0}}, None, "gauge.scale: not read by gauge.mode 'zero'"),
    ({"checks": ["eq25"], "detune": 0.5}, None, "detune: not read by checks ['eq25']"),
], ids=["command", "family", "mass-kind", "gauge-mode", "check"])
def test_unread_value_names_its_reader(given, command, message):
    with pytest.raises(ConfigError) as err:
        resolve_config(given, command=command)
    assert str(err.value) == message


@pytest.mark.parametrize("bound,want", [(["--xmin", "-1"], [-1.0, 10.0]),
                                        (["--xmax", "9"], [-2.0, 9.0])], ids=["xmin", "xmax"])
def test_lone_grid_bound_keeps_the_other_default(tmp_path, bound, want):
    out = tmp_path / "rep.json"
    assert run(["verify", "--family", "morse", *bound, "--checks", "eq25",
                "--refine", "101,201,401", "--out", str(out)]) == 0
    grid = json.loads(out.read_text())["payload"]["config"]["grid"]
    assert [grid["xmin"], grid["xmax"]] == want


def test_verify_small_run_and_determinism(tmp_path):
    out = tmp_path / "rep.json"
    argv = ["verify", "--family", "morse", "--refine", "301,501,1001",
            "--checks", "eq25,eq26,eta-hermiticity,eq28", "--out", str(out)]
    assert run(argv) == 0
    first = payload_bytes(out)
    assert run(argv) == 0
    assert payload_bytes(out) == first
    doc = json.loads(out.read_text())
    assert set(doc) == {"payload", "sidecar"}
    assert "generated_at" in doc["sidecar"]
    payload = doc["payload"]
    assert payload["toolkit"]["name"] == "pdmph"
    assert payload["conventions"]["mu_anchor"] == "mu(0) = 0 (closed form)"
    names = [c["name"] for c in payload["checks"]]
    assert names == ["eq25", "eq26", "eq28", "eta-hermiticity", "eta-dual"]
    assert all(c["verdict"] in ("pass", "reported-only") for c in payload["checks"])


def test_verify_corrupted_fixture_fails(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "family": "scarf2",
        "refine": [301, 501, 1001],
        "checks": ["eq25"],
        "corruption": {"target": "v-imag-flip", "amount": 0.0},
        "out": str(tmp_path / "rep.json"),
    }))
    assert run(["verify", "--config", str(cfg)]) == 7
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["payload"]["checks"][0]["verdict"] == "fail"


def test_verify_jobs_flag_deterministic(tmp_path):
    # payloads do not echo --out, so two output paths give the same bytes
    base = ["verify", "--family", "morse", "--refine", "301,501,1001",
            "--checks", "eq25,eq26,eq28"]
    payloads = set()
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(base + ["--out", str(out)]) == 0
        payloads.add(payload_bytes(out))
    assert len(payloads) == 1
    assert "out" not in json.loads(payloads.pop())["config"]


def test_verify_gauge_flag(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--family", "scarf2", "--mass", "rational:beta=1",
                "--gauge", "scaled-g:scale=1.0", "--xmin", "-5", "--xmax", "5",
                "--refine", "301,501,1001", "--checks", "gauge,tau",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["config"]["gauge"]["mode"] == "scaled-g"
    assert all(c["verdict"] == "pass" for c in doc["payload"]["checks"])


def test_verify_mass_flag_rational(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--family", "morse", "--mass", "rational:beta=1",
                "--xmin", "-3", "--xmax", "4", "--refine", "301,501,1001",
                "--checks", "eq25,eq26", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["config"]["mass"]["kind"] == "rational"


def test_verify_hermitian_limit_preset(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--family", "hermitian-limit", "--g-const", "1.3",
                "--xmin", "-2", "--xmax", "10", "--refine", "301,501,1001",
                "--checks", "eq25,intertwining", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    checks = {c["name"]: c for c in doc["payload"]["checks"]}
    assert checks["eq25"]["verdict"] == "pass"
    assert checks["intertwining"]["notes"]["defect_regime"] == "vanishing"


def test_verify_free_preset_runs_operator_checks(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--family", "free", "--xmin", "-8", "--xmax", "8",
                "--refine", "301,501,1001", "--checks",
                "intertwining,eta-hermiticity,eq29", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    checks = {c["name"]: c for c in doc["payload"]["checks"]}
    assert checks["eq29"]["notes"]["exact_regime"] is True
    assert checks["intertwining"]["levels"][-1]["residual"] == 0.0


def test_mass_table_csv(tmp_path):
    mpath = tmp_path / "m.csv"
    xs = np.linspace(-5, 5, 2001)
    np.savetxt(mpath, np.column_stack([xs, 1.0 / (2.0 * (1.0 + xs**2) ** 2)]),
               delimiter=",")
    out = tmp_path / "sys.csv"
    code = run(["generate", "--family", "morse", "--mass", f"table:path={mpath}",
                "--xmin", "-3", "--xmax", "4", "--n", "401", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    # mu approximates arctan anchored at the grid node nearest 0, since the
    # table samples the rational mass
    i = np.argmin(np.abs(data[:, 0] - 1.0))
    k = np.argmin(np.abs(data[:, 0]))
    expected = np.arctan(data[i, 0]) - np.arctan(data[k, 0])
    assert data[i, 3] == pytest.approx(expected, abs=1e-8)


def test_gauge_table_mode(tmp_path):
    from pdmph import GeneratingSpec, MassProfile, make_family, make_grid
    g = make_grid(-4.0, 4.0, 401)
    xs = np.linspace(-5, 5, 2001)
    ref = make_family(GeneratingSpec("scarf2", gauge_a=("scaled-g", 0.5)),
                      MassProfile.constant(), g)
    tab = make_family(
        GeneratingSpec("scarf2", gauge_a=("table", xs, 0.5 / np.cosh(xs))),
        MassProfile.constant(), g)
    assert np.abs(tab.a - ref.a).max() < 1e-9
    assert np.abs(tab.xi - ref.xi).max() < 1e-8


def test_custom_g_table_flag(tmp_path):
    gpath = tmp_path / "g.csv"
    xs = np.linspace(-5, 5, 2001)
    np.savetxt(gpath, np.column_stack([xs, np.exp(-xs)]), delimiter=",")
    out = tmp_path / "sys.csv"
    code = run(["generate", "--family", "custom-table", "--g-table", str(gpath),
                "--xmin", "-4", "--xmax", "4", "--n", "401", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (401, 16)


@pytest.mark.parametrize("xs", [[-5.0, 5.0], [-5.0, 1.0, 5.0]], ids=["2-rows", "3-rows"])
def test_short_g_and_gauge_tables(tmp_path, xs):
    # two rows interpolate to the line through them, three to the parabola
    xs = np.array(xs)
    poly = np.polynomial.Polynomial([1.5, 0.1, 0.02][:len(xs)])
    np.savetxt(tmp_path / "t.csv", np.column_stack([xs, poly(xs)]), delimiter=",")
    out = tmp_path / "sys.csv"
    code = run(["generate", "--family", "custom-table", "--g-table", str(tmp_path / "t.csv"),
                "--gauge", f"table:path={tmp_path / 't.csv'}",
                "--xmin", "-4", "--xmax", "4", "--n", "401", "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    x, g, a = data[:, 0], data[:, 4], data[:, 6]
    assert np.abs(g - poly(x)).max() < 1e-14
    assert np.abs(a - poly(x)).max() < 1e-14


def test_trace_dir(tmp_path):
    out = tmp_path / "rep.json"
    tr = tmp_path / "traces"
    code = run(["verify", "--family", "morse", "--refine", "301,501,1001",
                "--checks", "eq25,eq28", "--out", str(out),
                "--trace-dir", str(tr)])
    assert code == 0
    data = np.loadtxt(tr / "eq25.csv", delimiter=",", skiprows=1)
    assert data.shape == (1001, 2)


def test_trace_dir_evaluates_no_level_twice(tmp_path, monkeypatch):
    # each check writes the finest level it evaluated itself, so a traced
    # run builds no more dressed systems than the same run without traces
    from pdmph.verify import CHECKS, SystemBuilder
    calls, real = [], SystemBuilder.dressed
    monkeypatch.setattr(SystemBuilder, "dressed", lambda self, n: calls.append(n) or real(self, n))
    traceable = [k for k, row in CHECKS.items() if row.residual is not None]
    argv = ["verify", "--family", "morse", "--mass", "rational", "--refine", "201,401,801",
            "--checks", ",".join(traceable)]
    counts, codes = [], []
    for name, extra in (("plain", []), ("traced", ["--trace-dir", str(tmp_path / "tr")])):
        calls.clear()
        codes.append(run(argv + extra + ["--out", str(tmp_path / f"{name}.json")]))
        counts.append(len(calls))
    assert codes[0] == codes[1] and counts[0] == counts[1] > 0
    assert payload_bytes(tmp_path / "plain.json") == payload_bytes(tmp_path / "traced.json")
    assert sorted(p.stem for p in (tmp_path / "tr").iterdir()) == sorted(traceable)


@pytest.mark.parametrize("option", [["--detune", "0.3"], ["--trace-dir", "traces"]])
def test_reused_parser_keeps_no_option(tmp_path, option):
    # the parser is built once per process: a run with an option must leave
    # the next run without it as a fresh call would run it
    base = ["verify", "--family", "morse", "--mass", "rational",
            "--refine", "101,201,401", "--checks", "intertwining"]
    make_parser.cache_clear()
    fresh = tmp_path / "fresh.json"
    want = run(base + ["--out", str(fresh)])
    assert make_parser() is make_parser()
    option = [str(tmp_path / o) if o == "traces" else o for o in option]
    run(base + option + ["--out", str(tmp_path / "with.json")])
    again = tmp_path / "again.json"
    assert run(base + ["--out", str(again)]) == want
    assert payload_bytes(again) == payload_bytes(fresh)
    if "--trace-dir" in option:
        assert [p.name for p in (tmp_path / "traces").iterdir()] == ["intertwining.csv"]
        (tmp_path / "traces" / "intertwining.csv").unlink()
        run(base + ["--out", str(again)])
        assert not any((tmp_path / "traces").iterdir())


def test_no_color_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PDMPH_NO_COLOR", "1")
    out = tmp_path / "rep.json"
    run(["verify", "--family", "morse", "--refine", "301,501,1001",
         "--checks", "eq25", "--out", str(out)])
    assert "\x1b[" not in capsys.readouterr().out


def test_refine_order_does_not_change_checks(tmp_path):
    # every ordering of the refine levels (default checks) and of the eig
    # levels (spectrum, eq29) gives the same payload bytes
    base = ["verify", "--family", "morse", "--mass", "rational"]
    runs = [(["--refine", ",".join(map(str, refine))], None)
            for refine in itertools.permutations((101, 201, 401))]
    runs += [(["--refine", "101,201,401", "--checks", "spectrum,eq29",
               "--xmin", "-3", "--xmax", "4"], {"eig_levels": levels})
             for levels in ([101, 201], [201, 101])]
    seen = {"refine": set(), "eig_levels": set()}
    for k, (argv, config) in enumerate(runs):
        if config is not None:
            (tmp_path / f"{k}.cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp_path / f"{k}.cfg.json")]
        out = tmp_path / f"{k}.json"
        code = run(base + argv + ["--out", str(out)])
        seen["refine" if config is None else "eig_levels"].add((code, payload_bytes(out)))
    assert [len(outcomes) for outcomes in seen.values()] == [1, 1]
    (_, payload), = seen["refine"]
    assert json.loads(payload)["config"]["refine"] == [101, 201, 401]


def test_verify_free_preset_default_checks(tmp_path):
    # checks that need a dressed system are skipped for the free preset
    out = tmp_path / "rep.json"
    assert run(["verify", "--family", "free", "--refine", "201,401,801",
                "--out", str(out)]) == 0
    names = [c["name"] for c in json.loads(out.read_text())["payload"]["checks"]]
    assert names == ["eq28", "intertwining", "eta-hermiticity", "eta-dual"]


@pytest.mark.parametrize("kind", ["mass", "g", "gauge"])
@pytest.mark.parametrize("content", [None, "0\n1\n2\n3\n4\n", "0,1\n2,1\n1,1\n3,1\n4,1\n"],
                         ids=["missing-file", "one-column", "non-increasing-x"])
def test_table_input_errors_exit_10(tmp_path, kind, content):
    path = tmp_path / "table.csv"
    if content is not None:
        path.write_text(content)
    flags = {"mass": ["--mass", f"table:path={path}"],
             "g": ["--family", "custom-table", "--g-table", str(path)],
             "gauge": ["--gauge", f"table:path={path}"]}[kind]
    assert run(["generate", *flags, "--xmin", "0.5", "--xmax", "3.5", "--n", "101",
                "--out", str(tmp_path / "out.csv")]) == 10


def _failing_eig(mat):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


# one case per row of the README exit-code table; each row's other tests
# live with the feature they exercise
@pytest.mark.parametrize("argv,config,code", [
    (["generate", "--family", "scarf2", "--n", "101"], None, 0),
    (["generate"], {"grid": {"n": "abc"}}, 2),
    (["verify"], {"jobs": 1}, 2),
    (["verify"], {"tolerances": {"neg_control": 0.01}}, 2),
    (["verify"], {"tolerances": {"residual": 1.0}}, 2),
    (["verify"], {"probes": 8}, 2),
    (["verify"], {"eig_levels": [501, 501]}, 2),
    (["verify", "--checks", "spectrum"], {"eig_levels": [501]}, 2),
    (["verify", "--family", "morse", "--mass", "rational", "--checks", "eq29", "--xmin", "-3",
      "--xmax", "4", "--refine", "101,201,401"], {"eig_levels": []}, 2),
    (["verify", "--family", "morse", "--checks", "eq25", "--refine", "15,31,61"], None, 2),
    (["verify", "--refine", "401,401,401"], None, 2),
    (["verify", "--checks", "eq25,eq25", "--refine", "101,201,401"], None, 2),
    (["verify", "--refine", "101,201,401"], {"checks": ["eq25", "eq25"]}, 2),
    (["verify", "--refine", "201,x,801"], None, 2),
    (["verify", "--mass", "constant:scale=heavy"], None, 2),
    (["verify", "--mass", "rational:bta=4", "--refine", "101,201,401"], None, 2),
    (["verify", "--mass", "constant:sclae=3", "--refine", "101,201,401"], None, 2),
    (["verify", "--gauge", "scaled-g:scal=0.5", "--refine", "101,201,401"], None, 2),
    (["verify", "--mass", "rational:beta=4,scale=9", "--refine", "101,201,401"], None, 2),
    (["verify", "--gauge", "scaled-g:scale=0.5,scale=2", "--refine", "101,201,401"], None, 2),
    (["generate", "--mass", "table:path=m.csv,scale=3", "--n", "201"], None, 2),
    (["generate", "--mass", "constant:path=m.csv", "--n", "201"], None, 2),
    (["generate", "--gauge", "zero:scale=2", "--n", "201"], None, 2),
    (["generate", "--gauge", "scaled-g:path=m.csv", "--n", "201"], None, 2),
    (["generate", "--mass", "table", "--n", "201"], None, 2),
    (["generate", "--gauge", "table", "--n", "201"], None, 2),
    (["generate", "--g-table", "m.csv", "--n", "201"], None, 2),
    (["generate", "--n", "201"], {"mass": {"kind": "rational", "path": "m.csv"}}, 2),
    (["generate", "--n", "201"], {"mass": {"kind": "table", "path": 5}}, 2),
    (["generate", "--n", "201"], {"gauge": {"mode": "table", "path": 5}}, 2),
    (["generate", "--n", "201"], {"family": "custom-table", "g_table": 5}, 2),
    (["verify", "--checks", "eq25", "--detune", "0.5"], None, 2),
    (["generate", "--family", "morse", "--n", "201", "--detune", "0.5"], None, 2),
    (["generate", "--family", "morse", "--n", "201"], {"detune": 0.5}, 2),
    (["spectrum", "--family", "morse", "--n", "201", "--detune", "0.5"], None, 2),
    (["spectrum", "--family", "morse", "--n", "201"], {"detune": 0.5}, 2),
    (["generate", "--n", "201", "--refine", "101,201,401"], None, 2),
    (["spectrum", "--n", "201"], {"refine": [101, 201, 401]}, 2),
    (["spectrum", "--n", "201", "--checks", "eq25"], None, 2),
    (["generate", "--n", "201"], {"checks": ["eq25"]}, 2),
    (["generate", "--n", "201"], {"eig_levels": [101, 201]}, 2),
    (["verify", "--family", "morse", "--refine", "101,201,401", "--checks", "eq25",
      "--n", "999"], None, 2),
    (["verify", "--refine", "101,201,401", "--checks", "eq25"], {"grid": {"n": 999}}, 2),
    (["verify", "--refine", "101,201,401", "--checks", "eq25"], {"eig_levels": [301, 401]}, 2),
    (["verify", "--family", "morse", "--checks", "parity-eta,eq25", "--refine", "101,201,401"],
     None, 2),
    (["verify", "--family", "scarf2", "--checks", "parity-eta", "--refine", "100,201,401"],
     None, 2),
    (["verify", "--family", "morse", "--g-const", "7"], None, 2),
    (["verify", "--family", "hermitian-limit", "--alpha", "7"], None, 2),
    (["verify"], {"family": "custom-table", "g_table": "g.csv", "alpha": 2.0}, 2),
    (["verify", "--family", "free", "--delta", "3"], None, 2),
    (["verify", "--family", "free", "--alpha", "3"], None, 2),
    (["verify", "--family", "free", "--gauge", "scaled-g:scale=2"], None, 2),
    (["verify"], {"family": "free", "corruption": {"target": "v-imag-flip"}}, 2),
    (["verify", "--family", "free", "--detune", "0.3", "--checks", "intertwining"], None, 2),
    (["verify", "--family", "free", "--checks", "eq25,groundstate", "--refine", "101,201,401"],
     None, 2),
    (["verify", "--family", "free", "--refine", "101,201,401"], {"checks": ["gauge", "eq28"]}, 2),
    (["verify"], {"mass": {"kind": "table", "path": "m.csv", "scale": 2.0}}, 2),
    (["verify"], {"gauge": {"mode": "zero", "scale": 2.0}}, 2),
    (["verify"], {"gauge": {"mode": "table", "path": "a.csv", "scale": 2.0}}, 2),
    (["verify"], {"corruption": {"amount": 0.1}}, 2),
    (["verify"], {"corruption": {"target": "v-imag-flp"}}, 2),
    (["verify", "--family", "morse", "--gauge", "scaled-g:scale=nan", "--checks", "eq25",
      "--refine", "101,201,401"], None, 2),
    (["verify", "--delta", "nan", "--checks", "eq25", "--refine", "101,201,401"], None, 2),
    (["verify", "--detune", "inf", "--checks", "intertwining", "--refine", "101,201,401"],
     None, 2),
    (["verify", "--checks", "eq25", "--refine", "101,201,401"], {"alpha": float("nan")}, 2),
    (["verify", "--family", "hermitian-limit", "--g-const", "nan", "--checks", "eq25",
      "--refine", "101,201,401"], None, 2),
    (["verify", "--checks", "eq25", "--refine", "101,201,401"], '{"mass": {"scale": 1e400}}', 2),
    (["verify", "--checks", "eq25", "--refine", "101,201,401"],
     {"grid": {"xmax": float("inf")}}, 2),
    (["generate", "--n", "5"], None, 3),
    (["generate", "--mass", "constant:scale=-1", "--n", "101"], None, 4),
    (["verify", "--family", "hermitian-limit", "--g-const", "0",
      "--refine", "101,201,401", "--checks", "eq25"], None, 5),
    (["generate", "--family", "morse", "--xmin", "-800", "--xmax", "10", "--n", "101"], None, 6),
    (["verify", "--refine", "101,201,401", "--checks", "eq25"],
     {"corruption": {"target": "v-imag-flip", "amount": 0.0}}, 7),
    (["spectrum", "--family", "free", "--xmin", "-8", "--xmax", "8", "--n", "4002"], None, 8),
    (["verify", "--family", "free", "--checks", "spectrum"], {"eig_levels": [201, 4003]}, 8),
    (["spectrum", "--family", "morse", "--mass", "rational", "--xmin", "-3", "--xmax", "4",
      "--n", "201"], "failing-eig", 9),
    (["verify", "--config", "missing.json"], None, 10),
    (["verify", "--refine", "101,201,401", "--checks", "eq25", "--trace-dir", "F"],
     "existing-file", 10),
    (["verify", "--refine", "101,201,401", "--checks", "eq25", "--out", "nodir/r.json"],
     None, 10),
    (["generate", "--n", "201", "--out", "nodir/x.csv"], None, 10),
    (["spectrum", "--n", "201", "--out", "nodir/s.json"], None, 10),
], ids=["0-success", "2-string-n", "2-removed-jobs-key",
        "2-removed-neg-control-key", "2-removed-tolerances-key", "2-removed-probes-key",
        "2-repeated-eig-level", "2-one-eig-level-for-spectrum", "2-no-eig-level-for-eq29",
        "2-coarsest-refine-level-without-window", "2-repeated-refine-level",
        "2-repeated-check-flag", "2-repeated-check-config", "2-refine-not-int",
        "2-mass-scale-not-number", "2-misspelt-mass-beta", "2-misspelt-mass-scale",
        "2-misspelt-gauge-scale", "2-mass-beta-and-scale", "2-repeated-gauge-parameter",
        "2-scale-on-mass-table", "2-path-on-constant-mass", "2-scale-on-zero-gauge",
        "2-path-on-scaled-g-gauge", "2-mass-table-without-path",
        "2-gauge-table-without-path", "2-g-table-on-catalog-family",
        "2-path-on-rational-mass-config", "2-mass-path-not-string",
        "2-gauge-path-not-string", "2-g-table-not-string", "2-detune-without-intertwining",
        "2-detune-flag-on-generate", "2-detune-config-on-generate",
        "2-detune-flag-on-spectrum", "2-detune-config-on-spectrum",
        "2-refine-flag-on-generate", "2-refine-config-on-spectrum",
        "2-checks-flag-on-spectrum", "2-checks-config-on-generate",
        "2-eig-levels-config-on-generate", "2-n-flag-on-verify", "2-n-config-on-verify",
        "2-eig-levels-without-spectral-check", "2-parity-eta-on-asymmetric-domain",
        "2-parity-eta-on-even-coarsest-level",
        "2-g-const-on-catalog-family", "2-alpha-on-hermitian-limit",
        "2-alpha-config-on-custom-table", "2-delta-on-free", "2-alpha-on-free",
        "2-gauge-on-free", "2-corruption-on-free",
        "2-detune-on-free", "2-dressed-check-flag-on-free", "2-dressed-check-config-on-free",
        "2-mass-scale-config-on-table",
        "2-gauge-scale-config-on-zero", "2-gauge-scale-config-on-table",
        "2-corruption-without-target",
        "2-unknown-corruption-target", "2-nan-gauge-scale-flag", "2-nan-delta-flag",
        "2-inf-detune-flag", "2-nan-alpha-config", "2-nan-g-const-flag",
        "2-overflowing-mass-scale-config", "2-infinite-xmax-config",
        "3-grid-too-small", "4-negative-mass",
        "5-vanishing-g", "6-singularity", "7-check-fails", "8-budget", "8-budget-eig-level",
        "9-eigensolver-fails", "10-unreadable-config", "10-trace-dir-is-a-file",
        "10-verify-out-in-missing-dir", "10-generate-out-in-missing-dir",
        "10-spectrum-out-in-missing-dir"])
def test_exit_codes(tmp_path, monkeypatch, capsys, argv, config, code):
    monkeypatch.chdir(tmp_path)
    if config == "failing-eig":
        monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    elif config == "existing-file":
        (tmp_path / "F").write_text("")
    elif config is not None:
        # a string is the config file's text (1e400 has no other JSON spelling)
        (tmp_path / "c.json").write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", "c.json"]
    if "--out" not in argv:
        argv = argv + ["--out", str(tmp_path / "out")]
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err
    if code == 2:
        assert not (tmp_path / "out").exists()


def test_max_points_is_the_largest_accepted_level():
    from pdmph.report import MAX_POINTS
    assert resolve_config(overrides={"refine": [1001, 2001, MAX_POINTS]})["refine"][-1] \
        == MAX_POINTS
    for key, value in (("refine", [1001, 2001, MAX_POINTS + 2]),
                       ("eig_levels", [501, MAX_POINTS + 2]), ("grid.n", MAX_POINTS + 2)):
        with pytest.raises(ConfigError, match="maximum"):
            resolve_config(overrides={key: value})


@pytest.mark.parametrize("argv,config", [
    (["verify", "--refine", "1001,2001,4000001"], None),
    (["verify", "--checks", "spectrum"], {"eig_levels": [501, 4000001]}),
    (["generate", "--n", "4000001"], None),
    (["spectrum", "--n", "4000001"], None),
], ids=["refine", "eig-levels", "generate-n", "spectrum-n"])
def test_mistyped_level_exits_2_before_building(tmp_path, monkeypatch, argv, config):
    from pdmph import pipeline, verify

    def never(*args, **kwargs):
        raise AssertionError("a system was built for a level above the maximum")
    monkeypatch.setattr(verify, "make_family", never)
    monkeypatch.setattr(pipeline, "make_family", never)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", "c.json"]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("checks", ["eq25,spectrum", "eq25,eq29"])
def test_over_budget_eig_level_exits_8_before_building(tmp_path, monkeypatch, checks):
    from pdmph import pipeline, verify

    def never(*args, **kwargs):
        raise AssertionError("a system was built for a run whose eig level is over budget")
    monkeypatch.setattr(verify, "make_family", never)
    monkeypatch.setattr(pipeline, "make_family", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps({"eig_levels": [201, 4003]}))
    assert run(["verify", "--family", "morse", "--mass", "rational", "--checks", checks,
                "--trace-dir", "T", "--config", "c.json", "--out", "out.json"]) == 8
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "T").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--refine", "101,201,401", "--checks", "eq25", "--trace-dir", "T",
     "--out", "nodir/r.json"],
    ["verify", "--refine", "101,201,401", "--checks", "eq25", "--trace-dir", "F",
     "--out", "out.json"],
    ["generate", "--n", "201", "--out", "nodir/x.csv"],
    ["spectrum", "--n", "201", "--out", "nodir/s.json"],
], ids=["verify-out", "verify-trace-dir", "generate-out", "spectrum-out"])
def test_unwritable_output_exits_10_before_building(tmp_path, monkeypatch, capsys, argv):
    from pdmph import pipeline, verify

    def never(*args, **kwargs):
        raise AssertionError("a system was built for a run whose output cannot be written")
    monkeypatch.setattr(verify, "make_family", never)
    monkeypatch.setattr(pipeline, "make_family", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F").write_text("")
    assert run(argv) == 10
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]
    assert (tmp_path / "F").read_text() == ""


def test_trace_window_max_is_payload_residual(tmp_path):
    from pdmph import make_grid
    from pdmph.verify import CHECKS, PAD
    TRACEABLE = [k for k, row in CHECKS.items() if row.residual is not None]
    for system, domain in ((["--family", "morse", "--gauge", "scaled-g:scale=0.5"], (-2.0, 10.0)),
                           (["--family", "free"], (-8.0, 8.0))):
        out, traces = tmp_path / f"{system[1]}.json", tmp_path / system[1]
        # the free preset refuses the checks that need a dressed system
        traced = [k for k in TRACEABLE if system[1] != "free" or not CHECKS[k].dressed]
        assert run(["verify", *system, "--refine", "201,401,801",
                    "--checks", ",".join(traced), "--out", str(out),
                    "--trace-dir", str(traces)]) in (0, 7)
        checks = {c["name"]: c for c in json.loads(out.read_text())["payload"]["checks"]}
        grid = make_grid(*domain, 801)
        window = grid.interior_mask(PAD, PAD * (domain[1] - domain[0]) / 200)
        assert sorted(p.stem for p in traces.iterdir()) == sorted(traced)
        for name in traced:
            with open(traces / f"{name}.csv") as fh:
                header = fh.readline().strip().split(",")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            assert header == ["x"] + [result for result, _ in CHECKS[name].results]
            assert np.array_equal(data[:, 0], grid.x)
            for j, result in enumerate(header[1:], start=1):
                expected = checks[result]["levels"][-1]["residual"]
                assert f"{data[window, j].max():.16e}" == f"{expected:.16e}", result


def test_verify_eigensolver_failure_is_a_failed_check(tmp_path, monkeypatch):
    # a failing dense eigensolve fails spectrum and eq29 with the solver's
    # message and no levels; the other checks still run and pass
    monkeypatch.setattr(np.linalg, "eig", _failing_eig)
    (tmp_path / "c.json").write_text(json.dumps({"eig_levels": [101, 201]}))
    out = tmp_path / "rep.json"
    assert run(["verify", "--family", "morse", "--mass", "rational", "--xmin", "-3",
                "--xmax", "4", "--checks", "eq25,spectrum,eq29", "--refine", "101,201,401",
                "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 7
    payload = json.loads(out.read_text())["payload"]
    checks = {c["name"]: c for c in payload["checks"]}
    assert list(checks) == ["eq25", "spectrum", "eq29"]
    assert checks["eq25"]["verdict"] == "pass"
    for name in ("spectrum", "eq29"):
        assert checks[name]["verdict"] == "fail"
        assert checks[name]["levels"] == []
        assert checks[name]["notes"]["error"].startswith("dense eigensolver failed: ")
    assert payload["spectral"] is None


def test_spectrum_out_writes_the_printed_payload(tmp_path, capsys):
    argv = ["spectrum", "--family", "morse", "--mass", "rational", "--xmin", "-3",
            "--xmax", "4", "--n", "201"]
    assert run(argv) == 0
    printed = capsys.readouterr().out.strip()
    out = tmp_path / "s.json"
    assert run(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"payload", "sidecar"}
    assert payload_bytes(out) == printed.encode()
    assert "tolerances" not in doc["payload"]["config"]
