"""Span tracer for the traced benchmark run; it runs inside the child process.

`Tracer.install()` wraps the public functions of every pdmph module, plus
`MassProfile.sample` and `OperatorMatrix.apply` / `__matmul__` (a class
alias of `apply`, so both are wrapped), and rebinds every module attribute
that refers to an original function.  The rebinding matters because
`verify`, `cli` and `pipeline` import functions by name: `pdmph.verify`'s
own `build_h_prime` and `pdmph.pipeline`'s own `diff_matrix` are replaced
along with the definitions in `pdmph.operators` and `pdmph.grid`.

Products written inline as `op.mat @ v` (most matvecs inside the checks)
call numpy directly and cannot be seen from outside; their time stays in
the calling function's self time.

Each call becomes one span: [id, parent id, name, grid n, op index, start,
end, duration, self time, counters].  The tracer's own bookkeeping (reading
arguments, counting nonzeros) is timed and removed from every enclosing
span, so durations and self times measure the program, not the tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time

import numpy as np

LAYERS = ("grid", "profiles", "pipeline", "operators", "verify", "report", "cli")

# functions whose returned dense matrix is counted in operators.dense_bytes and fill_ratio
MATRIX_BUILDERS = {
    "grid.diff_matrix", "operators.build_d", "operators.build_d_dagger",
    "operators.build_d_tilde", "operators.build_d_tilde_dagger",
    "operators.build_eta_tilde", "operators.build_h_prime",
    "operators.build_h_prime_dagger", "operators.build_h_prime_block",
    "operators.build_eta_tilde_block", "operators.dirichlet_block",
    "operators.build_parity", "operators.build_eta_parity",
}


def _grid_n(args, kwargs):
    """Point count of the first grid among the arguments, or of an argument's `.grid`."""
    for a in (*args, *kwargs.values()):
        g = getattr(a, "grid", a)
        if hasattr(g, "h") and isinstance(getattr(g, "n", None), int):
            return g.n
    return None


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _counters(name, args, kwargs, result, reused):
    """Counters recorded at one call boundary; `key` identifies the inputs for `distinct`.

    `reused` marks a matrix builder that returned a matrix one of its child
    builders made (build_d_tilde returns build_d's), which allocated nothing.
    """
    c = {}
    if name == "grid.diff_matrix":
        g = _arg(args, kwargs, 0, "grid")
        c["key"] = [g.xmin, g.xmax, g.n, _arg(args, kwargs, 1, "order")]
    elif name == "pipeline.make_family":
        spec, prof, g = (_arg(args, kwargs, i, k) for i, k in enumerate(("spec", "profile", "grid")))
        c["key"] = [repr(spec), prof.kind, prof.scale, id(prof.table), g.xmin, g.xmax, g.n]
    elif name == "verify.eigendecompose":
        c["key"] = [result.eigenvalues.shape[0]]
        c["solver"] = result.solver
    elif name == "pipeline.to_csv":
        c["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "report.write_report":
        c["bytes"] = len(result.encode()) + 1
    if name in MATRIX_BUILDERS and not reused:
        mat = getattr(result, "mat", result)
        c.update(bytes=int(mat.nbytes), nnz=int(np.count_nonzero(mat)), entries=int(mat.size))
    return c


class Tracer:
    """Collects spans in memory; `dump` writes them out as JSON."""

    def __init__(self):
        self.spans = []
        self.op = -1            # index of the plan operation now running
        self._ids = iter(range(1 << 62))
        self._local = threading.local()

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []       # frames of the open spans of this thread
            st.book = 0.0       # tracer bookkeeping time spent so far in this thread
        return st

    def wrap(self, name, fn):
        """Span-recording wrapper of fn, recorded under `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            e0 = time.perf_counter()
            st = self._state()
            span = name
            if name == "operators.build_eta_tilde":
                mode = args[3] if len(args) > 3 else kwargs.get("mode", "direct")
                span = f"{name}.{mode}"
            frame = {"id": next(self._ids), "name": name, "child": 0.0, "matrices": []}
            parent = st.stack[-1] if st.stack else None
            n = _grid_n(args, kwargs)
            st.stack.append(frame)
            book_in = st.book
            t0 = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                dur = (t1 - t0) - (st.book - book_in)
                counters = {}
                if ok:
                    reused = any(result is m for m in frame["matrices"])
                    counters = _counters(name, args, kwargs, result, reused)
                if parent is not None:
                    parent["child"] += dur
                    if ok and name in MATRIX_BUILDERS and parent["name"] in MATRIX_BUILDERS:
                        parent["matrices"].append(result)
                self.spans.append([frame["id"], parent and parent["id"], span, n, self.op,
                                   t0, t1, dur, dur - frame["child"], counters or None])
                st.book += (t0 - e0) + (time.perf_counter() - t1)
            return result

        return traced

    def install(self):
        """Wrap every public pdmph function and rebind each module attribute naming one."""
        import pdmph
        mods = {layer: importlib.import_module(f"pdmph.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in (pdmph, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        om = mods["grid"].OperatorMatrix
        om.apply = self.wrap("operators.matvec", om.apply)
        om.__matmul__ = self.wrap("operators.matvec", om.__matmul__)
        mp = mods["profiles"].MassProfile
        mp.sample = self.wrap("profiles.sample", mp.sample)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
