"""Run configuration (one settings table) and deterministic report emission.

Every settable value is one row of `SETTINGS`: its default, its type, its
command-line flag and what reads it.  The nested defaults, the CLI's shared
flags, the type checks and the refusal of a value the run never reads all
come from that table.

Reports must be byte-identical across runs with the same configuration and
toolkit version, so the JSON text is produced by a small deterministic
emitter: keys in insertion order, every float rendered as 17-significant-
digit lowercase scientific notation, no timestamps inside the payload.  The
wall-clock timestamp lives in a sidecar section that golden comparisons
exclude via :func:`payload_bytes`.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError
from .pipeline import CATALOG, FAMILIES
from .verify import (CHECKS, CORRUPTION_AMOUNT, CORRUPTION_TARGETS, EIG_LEVELS, JUDGED_NOTES,
                     CheckLevel, CheckResult, judge, validate_levels)

SYSTEM_PRESETS = ("hermitian-limit", "free")
SYSTEMS = (*FAMILIES, "custom-table", *SYSTEM_PRESETS)
# the systems built from a generating function: all but the free particle
DRESSED = tuple(s for s in SYSTEMS if s != "free")
VERIFY = ("verify",)

# largest grid of any level (refine, eig_levels, grid.n): a verify level
# costs about 2 kB and 5 us per point, so a mistyped level that asks for
# millions of points is refused before anything is allocated
MAX_POINTS = 200_001


def _finite(value):
    # nan, inf and an int too large for a float all fail the comparison
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


class Setting(NamedTuple):
    """One settable value.  `type` is float (a finite number), int, str
    (from `choices`, if any) or dict; a list default makes it a list of
    distinct ones, and a None default lets it be null.  `readers` maps
    `command` or the config key family, mass.kind, gauge.mode or checks to
    the values of it that read the setting (`CHECKS`: the rows whose levels
    or options name the key); a selector it does not name reads it always."""

    key: str
    default: object
    type: type
    flag: str = None
    choices: tuple = ()
    readers: dict = {}
    needed: bool = False

    def what(self):
        """What a value must be, for a refusal."""
        what = {float: "a finite number", int: "an integer", str: "a string",
                dict: "an object"}[self.type]
        what += f" in {list(self.choices)}" if self.choices else ""
        if isinstance(self.default, list):
            what = f"a list of distinct values, each {what}"
        return what + (", or null" if self.default is None else "")

    def holds(self, value):
        """Whether `value` has the setting's type (a boolean is no number)."""
        if value is None or not isinstance(self.default, list):
            return self.default is None if value is None else self._holds_one(value)
        return (isinstance(value, list) and all(map(self._holds_one, value))
                and len(set(value)) == len(value))

    def _holds_one(self, value):
        if self.type is float:
            return _finite(value)
        return (isinstance(value, self.type) and not isinstance(value, bool)
                and (not self.choices or value in self.choices))


# every settable value, in the order payloads echo them
SETTINGS = {s.key: s for s in (
    Setting("family", "morse", str, "--family", SYSTEMS),
    Setting("alpha", 1.0, float, "--alpha", readers={"family": FAMILIES}),
    Setting("delta", 0.0, float, "--delta", readers={"family": DRESSED}),
    Setting("g_const", 1.0, float, "--g-const", readers={"family": ("hermitian-limit",)}),
    Setting("g_table", None, str, "--g-table", readers={"family": ("custom-table",)},
            needed=True),
    # the flag of a section's kind sets its other values too: --gauge MODE[:k=v,...]
    Setting("gauge.mode", "zero", str, "--gauge", ("zero", "scaled-g", "table"),
            {"family": DRESSED}),
    Setting("gauge.scale", 1.0, float, readers={"family": DRESSED, "gauge.mode": ("scaled-g",)}),
    Setting("gauge.path", None, str, readers={"family": DRESSED, "gauge.mode": ("table",)},
            needed=True),
    Setting("mass.kind", "constant", str, "--mass", ("constant", "rational", "table")),
    Setting("mass.scale", 1.0, float, readers={"mass.kind": ("constant", "rational")}),
    Setting("mass.path", None, str, readers={"mass.kind": ("table",)}, needed=True),
    # null: the bound of the family's default domain
    Setting("grid.xmin", None, float, "--xmin"),
    Setting("grid.xmax", None, float, "--xmax"),
    Setting("grid.n", 2001, int, "--n", readers={"command": ("generate", "spectrum")}),
    # levels are sorted before use, so that no verdict depends on their order
    Setting("refine", [1001, 2001, 4001], int, "--refine", readers={"command": VERIFY}),
    Setting("eig_levels", list(EIG_LEVELS), int, readers={"command": VERIFY, "checks": CHECKS}),
    Setting("checks", ["eq25", "eq26", "groundstate", "gauge", "tau", "eta-hermiticity",
                       "intertwining", "eq28"], str, "--checks", CHECKS, {"command": VERIFY}),
    Setting("detune", None, float, "--detune",
            readers={"command": VERIFY, "family": DRESSED, "checks": CHECKS}),
    Setting("corruption", None, dict, readers={"family": DRESSED}),
    Setting("out", None, str, "--out"),
)}


def _nested(flat):
    """{dotted key: value} as nested sections, in the given order."""
    out = {}
    for key, value in flat.items():
        section, _, leaf = key.rpartition(".")
        (out.setdefault(section, {}) if section else out)[leaf] = value
    return out


CONFIG_DEFAULTS = _nested({key: s.default for key, s in SETTINGS.items()})


def _flatten(given, path=""):
    """A config dict's values by dotted key; ConfigError for an unknown key or
    a section that is not an object."""
    if not isinstance(given, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    flat = {}
    for key, value in given.items():
        if "." not in key and path + key in SETTINGS:
            flat[path + key] = value
        elif any(k.startswith(f"{path}{key}.") for k in SETTINGS):
            flat.update(_flatten(value, f"{path}{key}."))
        else:
            raise ConfigError(f"unknown config key {key!r} in {path or '<root>'}")
    return flat


def resolve_config(given=None, overrides=None, command=None):
    """Merge a config dict and CLI overrides (dotted key: value, None: not
    set) onto the defaults, strictly: unknown keys are rejected at every
    level, and so is a value the run (of `command`; None: any) never reads.
    The resolved configuration (see :func:`payload_config`) is echoed into
    every report so runs are self-describing."""
    overrides = overrides or {}
    if set(overrides) - set(SETTINGS):
        raise ConfigError(f"unknown override(s) {sorted(set(overrides) - set(SETTINGS))}")
    flat = {**_flatten(given or {}), **{k: v for k, v in overrides.items() if v is not None}}
    setby = {key for key, value in flat.items() if value is not None}
    cfg = {key: flat.get(key, copy.copy(s.default)) for key, s in SETTINGS.items()}
    _validate(cfg, setby, command)
    return _nested(cfg)


def _refuse_unread(cfg, setby, command):
    """Refuse a set value a selector of the run does not read (`<key>: not
    read by <reader>`), and a `needed` one it reads but lacks."""
    for key, s in SETTINGS.items():
        run, unread = {}, []
        for sel, readers in s.readers.items():
            run[sel] = value = command if sel == "command" else cfg[sel]
            if readers is CHECKS:   # looked up per run, so a row added to CHECKS counts
                readers = [k for k, row in CHECKS.items() if key in (row.levels, *row.options)]
            if value is not None and not set(value if isinstance(value, list)
                                             else [value]) & set(readers):
                unread.append(f"{sel} {value!r}")
        if key in setby and unread:
            raise ConfigError(f"{key}: not read by {unread[0]}")
        if s.needed and not unread and not cfg[key]:
            raise ConfigError(f"{key}: needed by "
                              + ", ".join(f"{sel} {v!r}" for sel, v in run.items()))


def _validate(cfg, setby, command):
    for key, s in SETTINGS.items():
        if not s.holds(cfg[key]):
            raise ConfigError(f"{key} must be {s.what()}, got {cfg[key]!r}")
    cfg["refine"], cfg["eig_levels"] = sorted(cfg["refine"]), sorted(cfg["eig_levels"])
    if len(cfg["refine"]) < 3:
        raise ConfigError("refine needs at least three levels for order fits")
    for key, levels in (("refine", cfg["refine"]), ("eig_levels", cfg["eig_levels"]),
                        ("grid.n", [cfg["grid.n"]])):
        if levels and levels[-1] > MAX_POINTS:
            raise ConfigError(f"{key} asks for {levels[-1]} grid points; "
                              f"the maximum is {MAX_POINTS}")
    _refuse_unread(cfg, setby, command)
    domain = CATALOG.get(cfg["family"], (None, (-8.0, 8.0), None))[1]
    for key, bound in zip(("grid.xmin", "grid.xmax"), domain):
        if cfg[key] is None:
            cfg[key] = bound
    validate_levels(cfg["checks"], cfg["refine"], cfg["eig_levels"], cfg["grid.xmin"],
                    cfg["grid.xmax"])
    dressed = [k for k in cfg["checks"] if CHECKS[k].dressed]
    if "checks" in setby and dressed and cfg["family"] == "free":
        raise ConfigError(f"checks: {dressed} not run by family 'free' (no dressed system)")
    cor = cfg["corruption"]
    if cor is not None and (set(cor) - {"target", "amount"}
                            or cor.get("target") not in CORRUPTION_TARGETS
                            or not _finite(cor.get("amount", CORRUPTION_AMOUNT))):
        raise ConfigError(f"corruption must be {{target, amount}} with a target in "
                          f"{list(CORRUPTION_TARGETS)} and a finite amount, got {cor!r}")


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


def summary(results):
    """The number of results of each verdict."""
    return {v: sum(r.verdict == v for r in results) for v in ("pass", "fail", "reported-only")}


def build_report(config, conventions, results, spectral, findings):
    """Assemble the verification report payload."""
    return {
        "toolkit": {"name": "pdmph", "version": __version__},
        "config": payload_config(config),
        "conventions": conventions,
        "checks": [r.to_dict() for r in results],
        "spectral": spectral,
        "findings": findings,
        "summary": summary(results),
    }


def _number(value):
    """A parsed payload value with null read back as NaN and "inf" as inf, as
    `_fmt` writes them, in lists and objects too."""
    if isinstance(value, list):
        return [_number(v) for v in value]
    if isinstance(value, dict):
        return {k: _number(v) for k, v in value.items()}
    return {None: math.nan, "inf": math.inf, "-inf": -math.inf}.get(value, value)


def rejudge(payload):
    """A parsed verify payload with every check's verdict, threshold, observed
    order and derived notes (`JUDGED_NOTES`), and the summary, re-derived by
    `verify.judge` from the levels and notes it records; present or not."""
    results = [judge(CheckResult(c["name"], c["law"],
                                 [CheckLevel(**_number(lv)) for lv in c["levels"]],
                                 notes={k: _number(v) for k, v in c["notes"].items()
                                        if k not in JUDGED_NOTES}))
               for c in payload["checks"]]
    return {**payload, "checks": [r.to_dict() for r in results], "summary": summary(results)}


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
