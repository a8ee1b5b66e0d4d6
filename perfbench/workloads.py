"""The benchmark's workloads: pdmph CLI invocations generated from a seed.

A workload is a list of child processes; each child runs a plan, a list of
operations (`Op`), in one interpreter.  The program sees only the argv and
the input tables generated here.  Why each workload was chosen is in
NOTES.md.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from itertools import count

WORKLOADS = ("verify-default", "sweep-small")

FAMILIES = ("harmonic3d", "morse", "scarf2", "gen-poschl-teller", "poschl-teller")
# The seed draws each sweep operation's alpha from ALPHAS and the sweep's mass
# table from TABLE_SHAPES; references.json holds a verdict vector for every
# choice.  Verdicts near a threshold depend on the exact table (morse's
# groundstate flips between tables), so the tables come from a fixed set.
# Above alpha ~1.1 poschl-teller's g falls below 1e-12 at x = 12 (exit 5).
ALPHAS = (0.6, 0.8, 1.0)
# (A, c, w) of m(x) = exp(A tanh((x - c)/w)) / 2
TABLE_SHAPES = ((0.3, 1.0, 3.0), (-0.3, 2.0, 2.5), (0.2, -0.5, 3.5))
# A table mass puts mu = 0 at the grid node nearest 0, which is the first node
# of the harmonic3d and Poschl-Teller domains; those families reject it with
# exit 6, so only these two get table masses.
TABLE_FAMILIES = ("morse", "scarf2")

# full size and smoke size (tiny n, for the benchmark's own tests)
SIZES = {
    False: {"sweep_refine": "201,401,801", "eig_levels": [251, 501], "csv_n": 20001},
    True: {"verify_refine": "101,201,401", "sweep_refine": "51,101,201",
           "eig_levels": [51, 101], "csv_n": 2001},
}


@dataclass
class Op:
    """One CLI invocation; `out` is the report or CSV it writes."""

    id: str
    argv: list
    out: str

    @property
    def kind(self):
        return self.argv[0]


def _mass_table(shape, path):
    """Write a smooth positive mass table on [-9, 13] as a two-column CSV."""
    amp, c, w = TABLE_SHAPES[shape]
    with open(path, "w") as fh:
        fh.write("# x,m\n")
        for i in range(2201):
            x = -9.0 + 0.01 * i
            fh.write(f"{x!r},{0.5 * math.exp(amp * math.tanh((x - c) / w))!r}\n")


def build(workload, seed, work, smoke=False, all_variants=False):
    """Plans of one workload: a list of child plans, each a list of `Op`.

    `work` is the directory, inside the checkout, for generated inputs and
    outputs, relative to the checkout root.  With `all_variants` every sweep
    operation is expanded to every alpha and table the seed could draw (to
    record references).
    """
    size = SIZES[smoke]
    rng = random.Random(seed)
    counter = count()

    def op(op_id, *argv):
        out = os.path.join(work, f"op{next(counter)}.{'csv' if argv[0] == 'generate' else 'json'}")
        return Op(op_id, [*argv, "--out", out], out)

    def draw(choices):
        pick = rng.choice(choices)
        return choices if all_variants else (pick,)

    if workload == "verify-default":
        refine = ("--refine", size["verify_refine"]) if smoke else ()
        return [[op("morse/rational", "verify", "--family", "morse", "--mass", "rational", *refine)]]
    if workload == "sweep-small":
        ref = ("--refine", size["sweep_refine"])
        masses = [(fam, mass, mass) for fam in FAMILIES for mass in ("constant", "rational")]
        for k in draw(range(len(TABLE_SHAPES))):
            table = os.path.join(work, f"mass_table{k}.csv")
            _mass_table(k, table)
            masses += [(fam, f"table{k}", f"table:path={table}") for fam in TABLE_FAMILIES]
        ops = [op(f"{fam}/{label}/alpha={a}", "verify", "--family", fam, "--mass", mass,
                  "--alpha", str(a), *ref)
               for fam, label, mass in masses for a in draw(ALPHAS)]
        ops.append(op("hermitian-limit", "verify", "--family", "hermitian-limit", *ref))
        # the free preset exits 3 with the default checks (eq25 and eq26 need a
        # dressed system); it stays in the sweep and counts as a failed operation
        ops.append(op("free", "verify", "--family", "free", *ref))
        ops += [op(f"morse/scaled-g/alpha={a}", "verify", "--family", "morse",
                   "--gauge", "scaled-g:scale=0.5", "--alpha", str(a), *ref)
                for a in draw(ALPHAS)]
        # dense spectra (eig on morse/rational, eigh on free/constant) and the CSV
        # write path, so that every layer is measured on some workload
        cfg = os.path.join(work, "eig_levels.json")
        with open(cfg, "w") as fh:
            json.dump({"eig_levels": size["eig_levels"]}, fh)
        window = ("--checks", "spectrum,eq29", "--xmin", "-3", "--xmax", "4", "--config", cfg)
        ops.append(op("morse/rational/spectrum", "verify", "--family", "morse",
                      "--mass", "rational", *window, *ref))
        ops.append(op("free/constant/spectrum", "verify", "--family", "free", *window, *ref))
        ops.append(op("morse/rational/generate", "generate", "--family", "morse",
                      "--mass", "rational", "--n", str(size["csv_n"])))
        return [ops]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
