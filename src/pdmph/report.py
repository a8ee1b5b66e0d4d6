"""Run configuration (strict schema) and deterministic report emission.

Reports must be byte-identical across runs with the same configuration and
toolkit version, so the JSON text is produced by a small deterministic
emitter: keys in insertion order, every float rendered as 17-significant-
digit lowercase scientific notation, no timestamps inside the payload.  The
wall-clock timestamp lives in a sidecar section that golden comparisons
exclude via :func:`payload_bytes`.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import ConfigError
from .pipeline import CATALOG, FAMILIES
from .verify import CHECKS, CORRUPTION_TARGETS, EIG_LEVELS, validate_levels

SYSTEM_PRESETS = ("hermitian-limit", "free")

# largest grid of any level (refine, eig_levels, grid.n): a verify level
# costs about 2 kB and 5 us per point, so a mistyped level that asks for
# millions of points is refused before anything is allocated
MAX_POINTS = 200_001
# the parameters each mass kind and gauge mode reads (beta is an alias of scale)
MASS_PARAMS = {"constant": ("scale", "beta"), "rational": ("scale", "beta"),
               "table": ("path",)}
GAUGE_PARAMS = {"zero": (), "scaled-g": ("scale",), "table": ("path",)}

CONFIG_DEFAULTS = {
    "family": "morse",
    "alpha": 1.0,
    "delta": 0.0,
    "g_const": 1.0,
    "g_table": None,
    "gauge": {"mode": "zero", "scale": 1.0, "path": None},
    "mass": {"kind": "constant", "scale": 1.0, "path": None},
    "grid": {"xmin": None, "xmax": None, "n": 2001},
    "refine": [1001, 2001, 4001],
    "eig_levels": list(EIG_LEVELS),
    "checks": ["eq25", "eq26", "groundstate", "gauge", "tau", "eta-hermiticity",
               "intertwining", "eq28"],
    "detune": None,
    "corruption": None,
    "out": None,
}


def _merge_strict(defaults, given, path=""):
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in {path or '<root>'}")
    out = {}
    for key, dval in defaults.items():
        if key in given and isinstance(dval, dict) and dval is not None:
            out[key] = _merge_strict(dval, given[key], f"{path}{key}.")
        elif key in given:
            out[key] = given[key]
        else:
            out[key] = json.loads(json.dumps(dval)) if isinstance(dval, (dict, list)) else dval
    return out


def resolve_config(given=None, overrides=None):
    """Merge a config dict and CLI overrides onto the defaults, strictly.

    Unknown keys are rejected at every nesting level; the fully resolved
    configuration (see :func:`payload_config`) is echoed into every report
    so runs are self-describing.
    """
    cfg = _merge_strict(CONFIG_DEFAULTS, given or {})
    setby = _set_keys(given or {}, overrides or {})
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        if parts[-1] not in node:
            raise ConfigError(f"unknown override {key!r}")
        node[parts[-1]] = val
    _validate(cfg, setby)
    return cfg


def _set_keys(given, overrides):
    """Dotted names of the non-null values a run sets, as against defaults filled
    in; a flag that sets a whole section (--mass, --gauge) replaces the file's."""
    keys = {k for k, v in overrides.items() if v is not None}
    for key, val in given.items():
        if isinstance(val, dict) and key not in keys:
            keys |= {f"{key}.{k}" for k, v in val.items() if v is not None}
        if val not in (None, {}):
            keys.add(key)
    return keys


_NUMBERS = ("alpha", "delta", "g_const", "mass.scale", "gauge.scale")
_NUMBERS_OR_NULL = ("grid.xmin", "grid.xmax", "detune")
_INTEGERS = ("grid.n",)
_PATHS = ("g_table", "mass.path", "gauge.path")


def _field(cfg, key):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


def _is_number(value, kind=(int, float)):
    return isinstance(value, kind) and not isinstance(value, bool)


def _validate_types(cfg):
    """Reject wrongly typed values (booleans count as wrong) before anything uses them.

    Refinement and eigensolve levels are sorted, so that no verdict depends
    on the order they were given in; a repeated level is rejected.
    """
    for key in _NUMBERS + _NUMBERS_OR_NULL:
        value = _field(cfg, key)
        if not (_is_number(value) or (value is None and key in _NUMBERS_OR_NULL)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
    for key in _INTEGERS:
        if not _is_number(_field(cfg, key), int):
            raise ConfigError(f"{key} must be an integer, got {_field(cfg, key)!r}")
    for key in _PATHS:
        value = _field(cfg, key)
        if not (value is None or isinstance(value, str)):
            raise ConfigError(f"{key} must be a path (string) or null, got {value!r}")
    for key in ("refine", "eig_levels"):
        levels = cfg[key]
        if not isinstance(levels, list) or not all(_is_number(n, int) for n in levels):
            raise ConfigError(f"{key} must be a list of integers, got {levels!r}")
        if len(set(levels)) != len(levels):
            raise ConfigError(f"{key} repeats a level: {levels}")
        cfg[key] = sorted(levels)
    if not isinstance(cfg["checks"], list) or not all(isinstance(c, str) for c in cfg["checks"]):
        raise ConfigError(f"checks must be a list of check names, got {cfg['checks']!r}")


def _validate(cfg, setby):
    _validate_types(cfg)
    fam = cfg["family"]
    if fam not in FAMILIES and fam not in ("custom-table",) + SYSTEM_PRESETS:
        raise ConfigError(f"unknown family {fam!r}")
    if fam == "custom-table" and not cfg["g_table"]:
        raise ConfigError("family custom-table needs g_table (CSV path)")
    # a value the configured family never reads is refused, not ignored
    unread = {"g_table": fam != "custom-table", "g_const": fam != "hermitian-limit",
              "alpha": fam not in FAMILIES, "delta": fam == "free", "gauge": fam == "free",
              "corruption": fam == "free"}
    refused = sorted(k for k in setby if unread.get(k))
    if refused:
        raise ConfigError(f"{', '.join(refused)}: not read by family {fam!r}")
    for key, kind, params in (("mass", "kind", MASS_PARAMS), ("gauge", "mode", GAUGE_PARAMS)):
        value = cfg[key][kind]
        if value not in params:
            raise ConfigError(f"unknown {key} {kind} {value!r}")
        if "path" in params[value] and not cfg[key]["path"]:
            raise ConfigError(f"{key} {kind} {value!r} needs a path (CSV table)")
        if "path" not in params[value] and cfg[key]["path"] is not None:
            raise ConfigError(f"{key} {kind} {value!r} reads no path")
        if "scale" not in params[value] and f"{key}.scale" in setby:
            raise ConfigError(f"{key} {kind} {value!r} reads no scale")
    unknown = set(cfg["checks"]) - set(CHECKS)
    if unknown:
        raise ConfigError(f"unknown checks {sorted(unknown)}")
    if len(cfg["refine"]) < 3:
        raise ConfigError("refine needs at least three levels for order fits")
    for key, levels in (("refine", cfg["refine"]), ("eig_levels", cfg["eig_levels"]),
                        ("grid.n", [cfg["grid"]["n"]])):
        if levels and levels[-1] > MAX_POINTS:
            raise ConfigError(f"{key} asks for {levels[-1]} grid points; "
                              f"the maximum is {MAX_POINTS}")
    # a run option or level list that no requested check reads is refused
    for key in ("detune", "eig_levels"):
        readers = [k for k, row in CHECKS.items() if key in (row.levels, *row.options)]
        if key in setby and not set(readers) & set(cfg["checks"]):
            raise ConfigError(f"{key}: read by {', '.join(readers)}, not by checks {cfg['checks']}")
    if "spectrum" in cfg["checks"] and len(cfg["eig_levels"]) < 2:
        raise ConfigError("the spectrum check compares two eig_levels")
    validate_levels(cfg["checks"], cfg["refine"], cfg["eig_levels"])
    if cfg["grid"]["xmin"] is None or cfg["grid"]["xmax"] is None:
        domain = CATALOG.get(fam, (None, (-8.0, 8.0), None))[1]
        cfg["grid"]["xmin"], cfg["grid"]["xmax"] = domain
    if "parity-eta" in cfg["checks"] and not (cfg["grid"]["xmin"] == -cfg["grid"]["xmax"]
                                              and cfg["refine"][0] % 2 == 1):
        raise ConfigError("parity-eta needs a grid symmetric about 0: xmin = -xmax "
                          "and an odd coarsest refine level")
    if cfg["corruption"] is not None:
        cor = cfg["corruption"]
        if (not isinstance(cor, dict) or set(cor) - {"target", "amount"}
                or cor.get("target") not in CORRUPTION_TARGETS
                or not _is_number(cor.get("amount", 0.1))):
            raise ConfigError(f"corruption must be {{target, amount}} with a target in "
                              f"{list(CORRUPTION_TARGETS)} and a numeric amount, got {cor!r}")


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return "null"
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return f"{v:.16e}"
    if isinstance(value, complex):
        return _fmt({"re": value.real, "im": value.imag})
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in value.items()) + "}"
    raise ConfigError(f"cannot serialize {type(value).__name__} deterministically")


def emit_json(obj):
    """Deterministic JSON text (17-significant-digit floats, fixed key order)."""
    return _fmt(obj)


def payload_config(config):
    """The resolved configuration as payloads echo it, without `out`.

    The output path says where a run writes, not what it measures, so runs
    that differ only there give the same payload bytes.
    """
    return {k: v for k, v in config.items() if k != "out"}


def build_report(config, conventions, results, spectral, findings):
    """Assemble the verification report payload."""
    summary = {"pass": 0, "fail": 0, "reported-only": 0}
    for r in results:
        summary[r.verdict] += 1
    return {
        "toolkit": {"name": "pdmph", "version": __version__},
        "config": payload_config(config),
        "conventions": conventions,
        "checks": [r.to_dict() for r in results],
        "spectral": spectral,
        "findings": findings,
        "summary": summary,
    }


def write_report(payload, path):
    """Write {payload, sidecar} to path; only the sidecar carries a timestamp."""
    doc = ('{"payload":' + emit_json(payload)
           + ',"sidecar":{"generated_at":'
           + json.dumps(datetime.now(timezone.utc).isoformat()) + "}}")
    with open(path, "w") as fh:
        fh.write(doc + "\n")
    return doc


def payload_bytes(path):
    """Deterministically re-emitted payload section of a report file.

    Golden comparisons use these bytes; the sidecar (timestamp) is excluded.
    """
    with open(path) as fh:
        doc = json.load(fh)
    return emit_json(doc["payload"]).encode()
