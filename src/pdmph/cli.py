"""Command-line front end: catalog, generate, verify, spectrum.

Every failure mode exits with a distinct code (see errors.py); check
failures in `verify` exit 7 while reported-only findings never fail a run.
Set PDMPH_NO_COLOR to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import CheckFailureError, ConfigError, IOFormatError, PdmphError
from .pipeline import (CATALOG, GeneratingSpec, catalog_rows, load_xy_table,
                       printed_potential, printed_vmu, to_csv)
from .profiles import MassProfile
from .report import (SETTINGS, SYSTEM_PRESETS, build_report, emit_json, payload_config,
                     resolve_config, write_report)
from .verify import (CORRUPTION_AMOUNT, PAD, PROBES, TOLERANCES, SystemBuilder, run_suite,
                     spectral_payload)


def _color(text, code, enabled):
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def _use_color():
    return sys.stdout.isatty() and not os.environ.get("PDMPH_NO_COLOR")


def _parse_flag(text, setting):
    """A flag's text as the value of `setting`; ConfigError if it does not parse."""
    try:
        if isinstance(setting.default, list):
            return [setting.type(item) for item in text.split(",")]
        return setting.type(text)
    except ValueError:
        raise ConfigError(f"{setting.flag or setting.key} must be {setting.what()}, "
                          f"got {text!r}") from None


def _parse_kv(spec, setting):
    """The values --mass/--gauge 'KIND[:k=v,...]' sets: the kind `setting`
    and the section's other values, each named once by its last key part
    (mass `beta` is an alias of `scale`); which a kind reads is the config's rule."""
    section = setting.key.rpartition(".")[0]
    names = {k.rpartition(".")[2]: k for k in SETTINGS
             if k.startswith(f"{section}.") and k != setting.key}
    if section == "mass":
        names["beta"] = "mass.scale"
    kind, _, rest = spec.partition(":")
    values = {setting.key: kind}
    for item in rest.split(",") if rest else ():
        k, eq, v = item.partition("=")
        if not eq or k not in names:
            raise ConfigError(f"bad {setting.flag} parameter {item!r} "
                              f"(expected k=v with k in {', '.join(names)})")
        if names[k] in values:
            raise ConfigError(f"{setting.flag} parameter {item!r} sets {names[k]} twice")
        values[names[k]] = _parse_flag(v, SETTINGS[names[k]])
    return values


def _profile_from(cfg):
    kind = cfg["mass"]["kind"]
    if kind == "constant":
        return MassProfile.constant(float(cfg["mass"]["scale"]))
    if kind == "rational":
        return MassProfile.rational(float(cfg["mass"]["scale"]))
    return MassProfile.from_table(*load_xy_table(cfg["mass"]["path"], "mass"))


def _gauge_from(cfg):
    g = cfg["gauge"]
    if g["mode"] == "zero":
        return ("zero",)
    if g["mode"] == "scaled-g":
        return ("scaled-g", float(g["scale"]))
    return ("table", *load_xy_table(g["path"], "gauge"))


def _builder_from(cfg) -> SystemBuilder:
    profile = _profile_from(cfg)
    grid = cfg["grid"]
    fam = cfg["family"]
    if fam == "free":
        return SystemBuilder(profile, grid["xmin"], grid["xmax"])
    if fam == "hermitian-limit":
        xs = np.array([grid["xmin"] - 1.0, grid["xmin"], grid["xmax"], grid["xmax"] + 1.0])
        vals = np.full(4, float(cfg["g_const"]))
        spec = GeneratingSpec("custom-table", delta=cfg["delta"],
                              gauge_a=_gauge_from(cfg), g_table=(xs, vals))
    elif fam == "custom-table":
        spec = GeneratingSpec("custom-table", delta=cfg["delta"],
                              gauge_a=_gauge_from(cfg),
                              g_table=load_xy_table(cfg["g_table"], "generating-function"))
    else:
        spec = GeneratingSpec(fam, alpha=cfg["alpha"], delta=cfg["delta"],
                              gauge_a=_gauge_from(cfg))
    corruption = None
    if cfg["corruption"]:
        corruption = (cfg["corruption"]["target"],
                      float(cfg["corruption"].get("amount", CORRUPTION_AMOUNT)))
    return SystemBuilder(profile, grid["xmin"], grid["xmax"], spec=spec, corruption=corruption)


def _mu_anchor(builder, n):
    """The mass-integral anchor convention at resolution n (profile only)."""
    return builder.profile.sample(builder.grid(n)).mu_anchor


def _conventions(builder, cfg):
    return {
        "mu_anchor": _mu_anchor(builder, min(cfg["refine"])),
        "boundary_policy": ("one-sided 4th-order closures on the full grid; "
                           "Dirichlet interior block with odd-reflection closure "
                           "for eigenproblems"),
        "interior_window": (f"index pad {PAD} plus a fixed margin of {PAD} coarse spacings "
                            "from each edge for refinement studies"),
        "groundstate_normalization": "value 1 at the quadrature anchor node",
        "tolerances": dict(TOLERANCES),
        "probes": PROBES,
    }


def cmd_catalog(args):
    rows = catalog_rows(args.family)
    widths = (18, 34, 16, 12, 16)
    header = ("family", "g(mu)", "default domain", "parameter", "constraint")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        dom = f"[{r['default_domain'][0]}, {r['default_domain'][1]}]"
        print("  ".join(str(v).ljust(w) for v, w in
                        zip((r["family"], r["g"], dom, r["alpha"], r["constraint"]), widths)))
    return 0


def _load_config(args):
    given = {}
    if args.config:
        try:
            with open(args.config) as fh:
                given = json.load(fh)
        except (OSError, ValueError) as exc:
            raise IOFormatError(f"could not read config file {args.config}: {exc}") from None
    overrides = {}
    for key, setting in SETTINGS.items():
        text, section = getattr(args, key, None), key.rpartition(".")[0]
        if text is not None and setting.flag == f"--{section}":
            # a flag named after its section sets all of it, replacing the file's
            overrides.update(_parse_kv(text, setting))
            if isinstance(given, dict):
                given.pop(section, None)
        elif text is not None:
            overrides[key] = _parse_flag(text, setting)
    cfg = resolve_config(given, overrides, args.command)
    # an output that cannot be written is refused before anything is built
    folder, trace_dir = os.path.dirname(cfg["out"] or ""), getattr(args, "trace_dir", None)
    if folder and not os.path.isdir(folder):
        raise IOFormatError(f"cannot write {cfg['out']}: no directory {folder}")
    if trace_dir and os.path.exists(trace_dir) and not os.path.isdir(trace_dir):
        raise IOFormatError(f"cannot write traces to {trace_dir}: not a directory")
    return cfg


def cmd_generate(args):
    cfg = _load_config(args)
    if cfg["family"] in SYSTEM_PRESETS:
        raise ConfigError("generate needs a catalog or custom-table family")
    ds = _builder_from(cfg).dressed(cfg["grid"]["n"])
    b = ds.bundle
    out = cfg["out"] or f"{cfg['family']}.csv"
    to_csv(ds, out)
    delta_ref, w = None, ds.grid.interior_mask(PAD)   # w empty for n <= 2 PAD: delta_ref null
    if ds.spec.family in CATALOG and w.any():
        printed = printed_potential(ds.spec.family, ds.spec.alpha, b.mu)
        delta_ref = float((np.abs(ds.V_eff - (printed + cfg["delta"]))
                           / (1.0 + np.abs(printed)))[w].max())
    summary = {
        "family": cfg["family"],
        "csv": out,
        "n": cfg["grid"]["n"],
        "mu_anchor": b.mu_anchor,
        "printed_form_max_rel_delta": delta_ref,
        "mass_gradient_printed_form_max_abs_delta": float(np.abs(ds.V_mu - printed_vmu(b)).max()),
    }
    print(emit_json(summary))
    return 0


def cmd_verify(args):
    cfg = _load_config(args)
    builder = _builder_from(cfg)
    results, spectral, findings = run_suite(
        builder, cfg["checks"], cfg["refine"], eig_levels=cfg["eig_levels"],
        detune=cfg["detune"], trace_dir=args.trace_dir)
    payload = build_report(cfg, _conventions(builder, cfg), results, spectral, findings)
    out = cfg["out"] or "verify_report.json"
    write_report(payload, out)
    color = _use_color()
    for r in results:
        mark = {"pass": _color("PASS", "32", color),
                "fail": _color("FAIL", "31", color),
                "reported-only": _color("INFO", "33", color)}[r.verdict]
        order = "n/a" if r.observed_order is None else f"{r.observed_order:5.2f}"
        res = f"residual={r.levels[-1].residual:9.3e}" if r.levels else \
            f"error: {r.notes.get('error', 'no data')}"
        print(f"{mark} {r.name:22s} {res} order={order}")
    print(f"report: {out}")
    if any(r.verdict == "fail" for r in results):
        raise CheckFailureError("one or more checks failed")
    return 0


def cmd_spectrum(args):
    cfg = _load_config(args)
    n = cfg["grid"]["n"]
    builder = _builder_from(cfg)
    sp = builder.spectral(n)
    payload = {
        "toolkit": {"name": "pdmph", "version": __version__},
        "config": payload_config(cfg),
        "mu_anchor": _mu_anchor(builder, n),
        "spectral": spectral_payload(sp),
    }
    out = cfg["out"]
    doc = emit_json(payload)
    if out:
        write_report(payload, out)
        print(f"report: {out}")
    else:
        print(doc)
    return 0


@functools.cache
def make_parser():
    # built once per process: parse_args returns a fresh Namespace, and no
    # option has a mutable or appending default
    p = argparse.ArgumentParser(
        prog="pdmph",
        description=("Position-dependent-mass non-Hermitian Hamiltonian toolkit: "
                     "build catalog systems from generating functions and verify "
                     "their operator identities numerically."))
    sub = p.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="catalog inspection")
    catsub = cat.add_subparsers(dest="subcommand", required=True)
    lst = catsub.add_parser("list", help="list the generating-function families")
    lst.add_argument("--family", default=None)
    lst.set_defaults(func=cmd_catalog)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file (strict schema)")
        for key, setting in SETTINGS.items():
            if setting.flag:
                sp.add_argument(setting.flag, dest=key, default=None,
                                help=f"{key}: {setting.what()}")

    gen = sub.add_parser("generate", help="sample a dressed system to CSV")
    common(gen)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run the verification suite")
    common(ver)
    ver.add_argument("--trace-dir", dest="trace_dir", default=None,
                     help="write per-check pointwise residual CSVs here")
    ver.set_defaults(func=cmd_verify)

    spec = sub.add_parser("spectrum", help="dense eigendecomposition report")
    common(spec)
    spec.set_defaults(func=cmd_spectrum)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PdmphError, OSError) as exc:
        # an output path that cannot be written is an I/O failure (exit 10)
        print(f"error: {exc}", file=sys.stderr)
        return IOFormatError.exit_code if isinstance(exc, OSError) else exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
