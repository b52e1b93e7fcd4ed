"""Per-layer tracing from outside the library.

``Tracer`` wraps each layer boundary for the length of a ``with`` block and
restores the originals afterwards; nothing under ``src/`` is edited.  A
boundary's wrapper replaces the original everywhere it is bound: in every
loaded ``carlitz`` module that imported it by name (``carlitz_act`` in
``torsion``, ``reciprocity`` and ``cli``, say), in the extra modules given
(the benchmark's own task code), and under every alias in its class
(``Poly.__rmul__`` is ``Poly.__mul__``).

Every boundary counts its calls and its self time: its duration minus the
durations of the boundary calls nested inside it.  Fine boundaries (``Poly``,
``PadicElem`` and ``Series`` operations and the ``poly`` helpers) stop there,
in memory.  Coarse boundaries also keep one span each -- name, start, end,
parent span and task id -- for writing out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# boundary -> (module, attribute); ``Class.method`` names a method
FINE = {
    "poly.mul": ("carlitz.poly", "Poly.__mul__"),
    "poly.divmod": ("carlitz.poly", "Poly.__divmod__"),
    "poly.gcd": ("carlitz.poly", "poly_gcd"),
    "poly.pow_mod": ("carlitz.poly", "pow_mod"),
    "poly.is_irreducible": ("carlitz.poly", "is_irreducible"),
    "poly.ratfn_new": ("carlitz.poly", "RatFn.__init__"),
    "padic.mul": ("carlitz.padic", "PadicElem.__mul__"),
    "padic.pow": ("carlitz.padic", "PadicElem.__pow__"),
    "padic.inverse": ("carlitz.padic", "PadicElem.inverse"),
    "series.mul": ("carlitz.series", "Series.__mul__"),
    "series.inverse": ("carlitz.series", "Series.inverse"),
    "series.frobenius": ("carlitz.series", "Series.frobenius"),
}
COARSE = {
    "padic.ctx_new": ("carlitz.padic", "PadicCtx.__init__"),
    "padic.hensel_lift": ("carlitz.padic", "hensel_lift"),
    "operator.carlitz_operator": ("carlitz.operator", "carlitz_operator"),
    "operator.carlitz_act": ("carlitz.operator", "carlitz_act"),
    "operator.cyclotomic_poly": ("carlitz.operator", "cyclotomic_poly"),
    "torsion.torsion_vq": ("carlitz.torsion", "torsion_vq"),
    "torsion.torsion_padic": ("carlitz.torsion", "torsion_padic"),
    "torsion.divide_T": ("carlitz.torsion", "divide_T"),
    "residues.ddf": ("carlitz.residues", "ddf"),
    "reciprocity.residue_symbol": ("carlitz.reciprocity", "residue_symbol"),
    "reciprocity.check_reciprocity": ("carlitz.reciprocity", "check_reciprocity"),
    "reciprocity.residue_degree_cyclotomic": ("carlitz.reciprocity", "residue_degree_cyclotomic"),
    "reciprocity.kummer_solve": ("carlitz.reciprocity", "kummer_solve"),
    "geometry.descartes_form": ("carlitz.geometry", "descartes_form"),
    "geometry.tree_distance": ("carlitz.geometry", "tree_distance"),
    "analytic.carlitz_exp": ("carlitz.analytic", "carlitz_exp"),
    "analytic.eisenstein": ("carlitz.analytic", "eisenstein"),
    "analytic.period_partial": ("carlitz.analytic", "period_partial"),
    "cli.main": ("carlitz.cli", "main"),
}
BOUNDARIES = {**FINE, **COARSE}

# calls of these are also counted by the larger operand degree
BUCKETED = ("poly.mul", "poly.divmod")
BUCKETS = ((16, "deg_lt16"), (128, "deg16_127"), (None, "deg_ge128"))


def bucket_names():
    return [f"{b}.calls.{label}" for b in BUCKETED for _, label in BUCKETS]


def _bucket(args):
    # the other operand of Poly.__mul__ may be an int scalar
    a, b = args[0], args[1]
    deg = max(len(a.coeffs), len(getattr(b, "coeffs", (1,)))) - 1
    return next(label for limit, label in BUCKETS if limit is None or deg < limit)


def _resolve(module, attr):
    """(class or None, original); (None, None) when the library lacks it."""
    owner = sys.modules.get(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls, vars(cls).get(meth) if cls is not None else None
    return None, getattr(owner, attr, None)


class Tracer:
    """Context manager: boundary wrappers are live inside the ``with`` block.

    ``task`` is the id stamped on spans; set it before each task.
    """

    def __init__(self, extra_modules=()):
        self.stats = {name: [0, 0.0] for name in BOUNDARIES}
        self.buckets = dict.fromkeys(bucket_names(), 0)
        self.spans = []
        self.task = None
        self._stack = []
        self._extra = list(extra_modules)
        self._patches = []
        # boundaries the library no longer defines; their metrics read 0
        self.missing = []

    # -- patching --

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "carlitz" or n.startswith("carlitz.")]
        modules += self._extra
        for name, (module, attr) in BOUNDARIES.items():
            cls, original = _resolve(module, attr)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            owners = [cls] if cls is not None else modules
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, value))
                        setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        stack = self._stack
        stat = self.stats[name]
        spans = self.spans
        coarse = name in COARSE
        buckets = self.buckets if name in BUCKETED else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if coarse:
                span = len(spans)
                spans.append(None)
            else:
                span = parent
            if buckets is not None:
                buckets[f"{name}.calls.{_bucket(args)}"] += 1
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                stat[0] += 1
                stat[1] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if coarse:
                    spans[span] = (name, t0, t1, parent, tracer.task)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results --

    def metrics(self):
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.buckets)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "task": task}))
                fh.write("\n")
