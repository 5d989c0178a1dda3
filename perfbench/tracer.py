"""Spans around the public callables of each `spw` module, recorded from
the benchmark's own process without touching the program's files.

`Tracer.install` rebinds each traced function or method to a wrapper,
including the copies other `spw` modules imported by name (for example
`gradedmixed.homology`), and `uninstall` puts the originals back.  A span
is [name, start, end, parent, job, extra]; spans stay in memory until the
run writes them out.  A layer's self time is its spans' durations minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json

# Module-level functions that run once per monomial or term: a span per
# call would cost more than the work, so their time stays in the caller.
_PER_TERM = {("freecdga", "mono_mul"), ("freecdga", "apply_derivation")}

# Methods to trace, by module: the elimination entry points, and methods
# the CLI calls directly on objects it built.
_METHODS = {
    "exactlin": [("SparseMatrix", "rank"), ("SparseMatrix", "pivot_columns"),
                 ("SparseMatrix", "__matmul__")],
    "freecdga": [("ClosedFormTower", "check_cocycle"), ("KoszulComplex", "homotopy_dims"),
                 ("DeRhamAlgebra", "weight_dim_window")],
    "polyvec": [("PolyvectorAlgebra", "__init__"), ("MaurerCartanTower", "__init__")],
    "operads": [("MultilinearSpace", "weight_distribution"), ("ReesOperad", "dimension"),
                ("ArnoldAlgebra", "hilbert_series"), ("ArnoldAlgebra", "rank_certificate"),
                ("WeylMap", "structure_map")],
}

# Span name -> layer.  Names not listed fall back to their module's layer.
_LAYER = {
    "exactlin.SparseMatrix.rank": "exactlin.elim",
    "exactlin.SparseMatrix.pivot_columns": "exactlin.elim",
    "exactlin.kernel_basis": "exactlin.elim",
    "exactlin.solve_linear": "exactlin.elim",
    "exactlin.homology": "exactlin.homology",
    "exactlin.SparseMatrix.__matmul__": "exactlin.matmul",
    "gradedmixed.weight_window_total_complex": "gradedmixed.total_complex",
    "gradedmixed.validate_mixed": "gradedmixed.validate_mixed",
    "freecdga.window_basis": "freecdga.window_basis",
    "freecdga.graded_mixed_window": "freecdga.graded_mixed_window",
    "freecdga.closed_form_classes": "freecdga.closed_form_classes",
    "operads.ArnoldAlgebra.rank_certificate": "operads.rank_certificate",
    "dsl.parse": "dsl.parse",
    "dsl.tokenize": "dsl.parse",
    "cli.main": "cli.main",
    "cli.build_parser": "cli.build_parser",
}
_MODULE_LAYER = {
    "exactlin": "exactlin.other", "gradedmixed": "gradedmixed.other",
    "freecdga": "freecdga.other", "polyvec": "polyvec", "compare": "compare",
    "lieinfty": "lieinfty", "operads": "operads.normal_form", "dsl": "dsl.build",
}
MODULES = ("exactlin", "gradedmixed", "freecdga", "polyvec", "compare", "lieinfty",
           "operads", "dsl", "cli")


def layer_of(span_name):
    return _LAYER.get(span_name) or _MODULE_LAYER[span_name.split(".", 1)[0]]


def _nnz(m):
    items = m.items()
    try:
        return len(items)
    except TypeError:
        return sum(1 for _ in items)


def _matrix_shape(args):
    m = args[0]
    return (m.rows * m.cols, _nnz(m))


def _complex_cells(result):
    return sum(result.dim(m + 1) * result.dim(m) for m in result.degrees())


# A span's `extra`: taken from the arguments before the call (so a call
# that raises, like solve_linear's NoSolution, still counts), or from the
# result after a call that returned.
_FROM_ARGS = {"exactlin.elim": _matrix_shape}
_FROM_RESULT = {
    "exactlin.homology": lambda result: len(result.representatives),
    "gradedmixed.total_complex": _complex_cells,
    "freecdga.window_basis": len,
}


class Tracer:
    def __init__(self, spw, clock):
        self.spw = spw
        self.clock = clock
        self.spans = []
        self.stack = []
        self.job = None
        self._saved = []

    # -- wrapping --------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name) for every traced callable."""
        out = []
        for mod_name in MODULES:
            mod = self.spw[mod_name]
            if mod_name == "cli":
                out += [(mod, "main", "cli.main"), (mod, "build_parser", "cli.build_parser")]
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)
                        or (mod_name, attr) in _PER_TERM):
                    continue
                out.append((mod, attr, f"{mod_name}.{attr}"))
            for cls_name, attr in _METHODS.get(mod_name, ()):
                out.append((getattr(mod, cls_name), attr, f"{mod_name}.{cls_name}.{attr}"))
        return out

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, self.clock
        from_args = _FROM_ARGS.get(layer_of(name))
        from_result = _FROM_RESULT.get(layer_of(name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                   from_args(args) if from_args else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if from_result is not None:
                rec[5] = from_result(result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for owner, attr, name in self._targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name)
            wrapped[id(original)] = (original, wrapper)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # rebind names that other spw modules imported directly
        for mod_name in MODULES:
            mod = self.spw[mod_name]
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------------

    def layer_totals(self, jobs):
        """Per-layer totals over the spans of the given job ids."""
        spans = self.spans
        child = [0.0] * len(spans)
        in_homology = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_homology[i] = in_homology[parent] or spans[parent][0] == "exactlin.homology"
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, job, extra) in enumerate(spans):
            if job not in jobs:
                continue
            layer = layer_of(name)
            self_s = (end - start) - child[i]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", self_s)
            add(f"{name.split('.', 1)[0]}.module_self_s", self_s)
            if parent < 0:
                add("spans.top_level_s", end - start)
            if extra is None:
                continue
            if layer == "exactlin.elim":
                add("exactlin.elim.cells", extra[0])
                add("exactlin.elim.nnz", extra[1])
                if in_homology[i]:
                    add("exactlin.homology.rep_trials", 1)
            elif layer == "exactlin.homology":
                add("exactlin.homology.reps", extra)
            elif layer == "gradedmixed.total_complex":
                add("gradedmixed.total_complex.cells", extra)
            elif layer == "freecdga.window_basis":
                add("freecdga.window_basis.size", extra)
        return out

    def dump(self, path, job_labels):
        """Write the spans as JSON lines: one header, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job", "extra"],
                                 "jobs": job_labels}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

