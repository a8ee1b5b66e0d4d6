"""Per-layer metrics, computed from the spans of the traced run.

A layer is a pdmph module.  A metric group is a set of span names; for a
group `g`:

  g.calls      spans of the group whose parent span is not in the group
               (build_d_tilde calling build_d is one first-order call)
  g.self_s     summed self time of the group's spans: span duration minus
               the time its child spans cover
  g.distinct   distinct inputs among the calls (grid and derivative order
               for diff_matrix; spec, profile and grid for make_family;
               matrix size for eigendecompose)
  g.nN.self_s  self time of the spans on an N-point grid (likewise .calls)
  g.bytes      bytes written (to_csv: CSV file size)

`layer.self_s` sums the self time of every span of a layer.  Metrics of a
layer the workload never enters read 0.
"""

from __future__ import annotations

from collections import defaultdict

CHECKS = ("eq25", "eq26", "groundstate", "gauge", "tau", "eta", "intertwining",
          "spectrum", "eq29")

GROUPS = {
    "grid.diff_matrix": ("grid.diff_matrix",),
    "grid.cumint": ("grid.cumint", "grid.cumulative_integral"),
    "profiles.sample": ("profiles.sample", "profiles.eval_profile"),
    "pipeline.make_family": ("pipeline.make_family",),
    "pipeline.to_csv": ("pipeline.to_csv",),
    "operators.build_eta_tilde.product": ("operators.build_eta_tilde.product",),
    "operators.build_eta_tilde.direct": ("operators.build_eta_tilde.direct",),
    "operators.build_h_prime": ("operators.build_h_prime",),
    "operators.build_h_prime_dagger": ("operators.build_h_prime_dagger",),
    "operators.first_order": ("operators.build_d", "operators.build_d_dagger",
                              "operators.build_d_tilde", "operators.build_d_tilde_dagger"),
    "operators.block": ("operators.build_h_prime_block", "operators.build_eta_tilde_block",
                        "operators.dirichlet_block"),
    "operators.tau_similarity_residual": ("operators.tau_similarity_residual",),
    "operators.matvec": ("operators.matvec",),
    **{f"verify.check_{c}": (f"verify.check_{c}",) for c in CHECKS if c != "gauge"},
    "verify.check_gauge": ("verify.check_gauge_equivalence",),
    "verify.residual_eq28": ("verify.residual_eq28",),
    "verify.eigendecompose": ("verify.eigendecompose",),
    "verify.run_suite": ("verify.run_suite",),
    "report.resolve_config": ("report.resolve_config",),
    "report.write_report": ("report.write_report",),
}

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("grid.diff_matrix.calls", "count", "lower"),
    ("grid.diff_matrix.distinct", "count", "lower"),
    ("grid.diff_matrix.self_s", "s", "lower"),
    ("grid.cumint.calls", "count", "lower"),
    ("grid.cumint.self_s", "s", "lower"),
    ("grid.self_s", "s", "lower"),
    ("profiles.sample.calls", "count", "lower"),
    ("profiles.sample.self_s", "s", "lower"),
    ("pipeline.make_family.calls", "count", "lower"),
    ("pipeline.make_family.distinct", "count", "lower"),
    ("pipeline.make_family.self_s", "s", "lower"),
    ("pipeline.to_csv.self_s", "s", "lower"),
    ("pipeline.to_csv.bytes", "B", "lower"),
    ("operators.build_eta_tilde.product.self_s", "s", "lower"),
    *[(f"operators.build_eta_tilde.product.n{n}.self_s", "s", "lower") for n in (1001, 2001, 4001)],
    ("operators.build_eta_tilde.direct.self_s", "s", "lower"),
    ("operators.build_h_prime.self_s", "s", "lower"),
    *[(f"operators.build_h_prime.n{n}.self_s", "s", "lower") for n in (1001, 2001, 4001)],
    ("operators.build_h_prime_dagger.self_s", "s", "lower"),
    ("operators.first_order.self_s", "s", "lower"),
    ("operators.block.self_s", "s", "lower"),
    ("operators.tau_similarity_residual.self_s", "s", "lower"),
    ("operators.matvec.calls", "count", "lower"),
    ("operators.dense_bytes", "B", "lower"),
    ("operators.fill_ratio", "ratio", "higher"),
    ("operators.self_s", "s", "lower"),
    *[(f"verify.check_{c}.self_s", "s", "lower") for c in CHECKS],
    ("verify.residual_eq28.self_s", "s", "lower"),
    ("verify.eigendecompose.calls", "count", "lower"),
    ("verify.eigendecompose.distinct", "count", "lower"),
    ("verify.eigendecompose.self_s", "s", "lower"),
    ("verify.eigendecompose.eig_calls", "count", "lower"),
    ("verify.eigendecompose.eigh_calls", "count", "lower"),
    *[(f"verify.eigendecompose.n{n}.{m}", u, "lower")
      for n in (251, 501) for m, u in (("calls", "count"), ("self_s", "s"))],
    ("verify.run_suite.self_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("report.resolve_config.self_s", "s", "lower"),
    ("report.write_report.self_s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("report.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def aggregate(spans):
    """Every metric the spans support, by name (a superset of PER_LAYER).

    A span is [id, parent id, name, n, op, start, end, duration, self, counters].
    """
    out = defaultdict(float)
    name_of = {s[0]: s[2] for s in spans}
    group_of = {n: g for g, names in GROUPS.items() for n in names}
    group_of.update({s[2]: "cli.main" for s in spans if s[2].startswith("cli.")})
    keys = defaultdict(set)
    nnz = entries = 0
    for sid, parent, name, n, _op, _t0, _t1, _dur, self_s, c in spans:
        c = c or {}
        out[name.split(".")[0] + ".self_s"] += self_s
        nnz += c.get("nnz", 0)
        entries += c.get("entries", 0)
        if "nnz" in c:
            out["operators.dense_bytes"] += c["bytes"]
        if name == "report.write_report":
            out["report.bytes"] += c.get("bytes", 0)
        g = group_of.get(name)
        if g is None:
            continue
        outer = group_of.get(name_of.get(parent)) != g
        out[f"{g}.self_s"] += self_s
        out[f"{g}.calls"] += outer
        if n is not None:
            out[f"{g}.n{n}.self_s"] += self_s
            out[f"{g}.n{n}.calls"] += outer
        if "key" in c:
            keys[g].add(tuple(c["key"]))
        if "solver" in c:
            out[f"{g}.{c['solver']}_calls"] += 1
        if g == "pipeline.to_csv":
            out[f"{g}.bytes"] += c.get("bytes", 0)
    for g, ks in keys.items():
        out[f"{g}.distinct"] = len(ks)
    out["operators.fill_ratio"] = nnz / entries if entries else 0.0
    return dict(out)


def per_layer(spans, overhead_s):
    """The PER_LAYER metrics of one traced pass, as {name: {"value", "unit"}}."""
    agg = aggregate(spans)
    agg["trace.overhead_s"] = overhead_s
    return {name: {"value": int(agg.get(name, 0)) if unit in ("count", "B") else agg.get(name, 0.0),
                   "unit": unit} for name, unit, _ in PER_LAYER}
