"""In-process spans around the public functions of qaskey's layers.

A :class:`Tracer` replaces each traced function with a wrapper wherever
the function is looked up: on its module, in every qaskey module that
imported it by name (``sym_to_x`` lives on in ``families`` and
``operators``, ``x_to_sym`` also in ``inner_product``), on its class for
methods, and in ``cli.IDENTITIES`` for the per-identity runners.  A
wrapper that missed one of those bindings would miss calls.  Leaving
the ``with`` block puts every original back; entering it again patches
again and keeps adding to the same spans.  A function, method or
registry key that is not there to patch is listed in
:attr:`Tracer.missing`, so that its metrics cannot quietly read 0.

Each call records a span (name, start, end, parent) in flat arrays kept
in memory; :meth:`Tracer.dump` writes them out when the run ends.  Calls
and inclusive time are also summed online for the outermost span of
each name, so a function that calls itself, or one traced function that
calls another of the same name (``XPoly.divide_exact`` delegates to
``LaurentPoly.divide_exact``), is counted once.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter


#: identity registry keys at the time the benchmark was defined; each
#: gives a ``relations.<key>.s`` metric
IDENTITY_KEYS = (
    "eq28", "eq18", "eq26", "eq59", "eq54", "eq40", "eq59t", "eq02", "eq31",
    "eq32", "eq76", "eq77", "bangerezako", "eq71", "eq73", "sklyanin", "eq51",
    "eq52", "eq53", "eq55", "qdiff2", "combo54", "eq53-nonskew", "eq42",
    "eq41", "qdiff-derive", "coeff-match", "eigen", "gamma-lambda",
    "commutator", "d-from-l", "string", "skew-l", "sym-d", "sym-x",
    "orthogonality", "dual-path",
)

#: span name -> metric suffixes reported for it
SPAN_METRICS = {
    "laurent.sym_to_x": ("calls", "s"),
    "laurent.x_to_sym": ("calls", "s"),
    "laurent.x_monomial_sym": ("calls",),
    "laurent.sym_mul": ("calls", "s"),
    "laurent.laurent_mul": ("calls", "s"),
    "laurent.xpoly_mul": ("calls", "s"),
    "laurent.divide_exact": ("calls", "s"),
    "qcalc": ("s",),
    "families.build_family": ("calls", "s"),
    "families.expand": ("calls", "s"),
    "families.sample_specs": ("s",),
    "operators.family_L": ("calls",),
    "operators.family_D": ("calls",),
    "operators.d_from_l": ("calls",),
    "operators.column": ("calls", "s"),
    "inner_product.residual": ("calls", "s"),
    "relations.derive_second_order_qdiff": ("calls",),
    "relations.reduce_bigq_chain": ("calls",),
    "report.build_report": ("s",),
    "report.dump_report": ("s",),
    "cli.run_verify": ("s",),
    **{f"relations.{key}": ("s",) for key in IDENTITY_KEYS},
}


class Tracer:
    """Patches qaskey's layer boundaries for the life of a ``with`` block."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.column_misses = 0
        self.missing: set[str] = set()
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.incl.append(0.0)
        return nid

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        depth, calls, incl = self._depth, self.calls, self.incl

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            d = depth[nid]
            depth[nid] = d + 1
            t0 = perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                depth[nid] = d
                if d == 0:
                    calls[nid] += 1
                    incl[nid] += t1 - t0

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr, value):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` in every qaskey module that binds it."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        wrapped = self.wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "qaskey" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.add(f"{cls.__qualname__}.{attr}")
        else:
            self._set(cls, attr, self.wrap(name, fn))

    def patch_column(self, cls) -> None:
        """``PolyOperator.column``, counting a miss when the column was not
        in the operator's cache before the call and is after it."""
        fn = cls.__dict__.get("column")
        if fn is None:
            self.missing.add(f"{cls.__qualname__}.column")
            return
        timed = self.wrap("operators.column", fn)
        tracer = self

        def column(op, j):
            cache = getattr(op, "_columns", None)
            cold = cache is not None and j not in cache
            out = timed(op, j)
            if cold and j in cache:
                tracer.column_misses += 1
            return out

        self._set(cls, "column", column)

    def patch_registry(self, registry: dict) -> None:
        for key in IDENTITY_KEYS:
            entry = registry.get(key)
            if isinstance(entry, tuple) and len(entry) == 2 and callable(entry[1]):
                self._set(registry, key, (entry[0], self.wrap(f"relations.{key}", entry[1])))
            else:
                self.missing.add(f"cli.IDENTITIES[{key!r}]")

    def __enter__(self):
        from qaskey import (cli, families, inner_product, laurent, operators,
                            qcalc, relations, report)

        for attr in ("sym_to_x", "x_to_sym", "x_monomial_sym"):
            self.patch_function(laurent, attr, f"laurent.{attr}")
        self.patch_method(laurent.SymLaurentPoly, "__mul__", "laurent.sym_mul")
        self.patch_method(laurent.LaurentPoly, "__mul__", "laurent.laurent_mul")
        self.patch_method(laurent.XPoly, "__mul__", "laurent.xpoly_mul")
        self.patch_method(laurent.LaurentPoly, "divide_exact", "laurent.divide_exact")
        self.patch_method(laurent.XPoly, "divide_exact", "laurent.divide_exact")
        self.patch_function(laurent, "divide_exact", "laurent.divide_exact")
        for attr in ("q_pochhammer", "q_pochhammer_multi", "q_bracket", "q_derivative",
                     "central_q_derivative", "divided_q_difference"):
            self.patch_function(qcalc, attr, "qcalc")
        for attr in ("build_family", "sample_specs"):
            self.patch_function(families, attr, f"families.{attr}")
        self.patch_method(families.FamilyData, "expand", "families.expand")
        for attr in ("family_L", "family_D", "d_from_l"):
            self.patch_function(operators, attr, f"operators.{attr}")
        self.patch_column(operators.PolyOperator)
        for attr in ("symmetry_residual", "skew_symmetry_residual"):
            self.patch_function(inner_product, attr, "inner_product.residual")
        for attr in ("derive_second_order_qdiff", "reduce_bigq_chain"):
            self.patch_function(relations, attr, f"relations.{attr}")
        self.patch_registry(getattr(cli, "IDENTITIES", {}))
        for attr in ("build_report", "dump_report"):
            self.patch_function(report, attr, f"report.{attr}")
        self.patch_function(cli, "run_verify", "cli.run_verify")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        return False

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Calls and inclusive seconds per :data:`SPAN_METRICS` entry."""
        out = {}
        for name, kinds in SPAN_METRICS.items():
            nid = self._ids.get(name)
            for kind in kinds:
                if kind == "calls":
                    out[f"{name}.calls"] = self.calls[nid] if nid is not None else 0
                else:
                    out[f"{name}.s"] = self.incl[nid] if nid is not None else 0.0
        cols = out["operators.column.calls"]
        out["operators.column.misses"] = self.column_misses
        out["operators.column.hit_ratio"] = (
            (cols - self.column_misses) / cols if cols else 0.0)
        return out

    def self_times(self) -> dict:
        """name -> (calls, inclusive s, self s); self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        own = [0.0] * len(self.names)
        for i in range(n):
            own[self.span_name[i]] += self.span_end[i] - self.span_start[i] - child[i]
        return {name: (self.calls[i], self.incl[i], own[i])
                for i, name in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every span, times in integer nanoseconds from the first."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.span_start],
            "end_ns": [round((t - t0) * 1e9) for t in self.span_end],
            "summary": {k: {"calls": c, "incl_s": i, "self_s": s}
                        for k, (c, i, s) in self.self_times().items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
