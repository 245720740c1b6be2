"""Spans and exact counters installed on quivkit from outside the program.

`SpanTracer` wraps the public functions named in SPANS and records, per
span name, the call count and the self time: the span's duration minus the
time its child spans cover.  `OpCounter` wraps the field operations and the
sized entry points and counts work exactly; it is kept apart from the timed
traced run so that its per-call cost does not distort self times.

A wrapper replaces the function on every quivkit module and class attribute
that holds it (`validate_morphism` is imported by name into several
modules), and `uninstall()` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, attribute path, span name)
SPANS = (
    ("quivkit.exactlin", "rref", "exactlin.rref"),
    ("quivkit.exactlin", "solve", "exactlin.solve"),
    ("quivkit.exactlin", "kernel", "exactlin.kernel"),
    ("quivkit.exactlin", "Subspace.span", "exactlin.span"),
    ("quivkit.exactlin", "Subspace.reduce", "exactlin.reduce"),
    ("quivkit.exactlin", "Mat.matvec", "exactlin.matvec"),
    ("quivkit.algebra", "FinAlgebra.mul", "algebra.mul"),
    ("quivkit.algebra", "validate_morphism", "algebra.validate_morphism"),
    ("quivkit.algebra", "validate_algebra", "algebra.validate_algebra"),
    ("quivkit.algebra", "trace_form_radical", "algebra.trace_form_radical"),
    ("quivkit.algebra", "quotient_algebra", "algebra.quotient_algebra"),
    ("quivkit.algebra", "ideal_generated_by", "algebra.ideal_generated_by"),
    ("quivkit.vquiver", "VQuiverMap.__init__", "vquiver.VQuiverMap"),
    ("quivkit.pathalg", "build_kvq", "pathalg.build_kvq"),
    ("quivkit.pathalg", "universal_map", "pathalg.universal_map"),
    ("quivkit.splittings", "make_splitting", "splittings.make_splitting"),
    ("quivkit.splittings", "lift_idempotents", "splittings.lift_idempotents"),
    ("quivkit.gabriel", "gq", "gabriel.gq"),
    ("quivkit.gabriel", "GabrielQuiverResult.arrow_class_coords",
     "gabriel.arrow_class_coords"),
    ("quivkit.gabriel", "GabrielQuiverResult.vertex_of_idempotent",
     "gabriel.vertex_of_idempotent"),
    ("quivkit.gabriel", "check_sim", "gabriel.check_sim"),
    ("quivkit.adjunction", "psi", "adjunction.psi"),
    ("quivkit.adjunction", "phi", "adjunction.phi"),
    ("quivkit.adjunction", "counit", "adjunction.counit"),
    ("quivkit.dsl", "parse_ast", "dsl.parse_ast"),
    ("quivkit.dsl", "elaborate", "dsl.elaborate"),
    ("quivkit.cli", "main", "cli.main"),
    ("quivkit.jsonio", "report", "jsonio.report"),
)


def _validate_algebra_sizes(field, basis_labels, structconst, unit, *,
                            check_associativity=True, **_hints):
    dim3 = len(basis_labels) ** 3
    return {"algebra.sc_entries": dim3,
            "algebra.validate_algebra.assoc_triples": dim3 if check_associativity else 0}


# Exact sizes counted per call: (defining module, attribute path, sizes of
# one call from its arguments, or of its result when `from_result`).
SIZED = (
    ("quivkit.exactlin", "rref", False, lambda m: {"exactlin.rref.cells": m.rows * m.cols}),
    ("quivkit.algebra", "validate_morphism", False,
     lambda source, *_a, **_k: {"algebra.validate_morphism.basis_pairs": source.dim ** 2}),
    ("quivkit.algebra", "validate_algebra", False, _validate_algebra_sizes),
    ("quivkit.pathalg", "build_kvq", True, lambda t: {"pathalg.build_kvq.dim_sum": t.dim}),
)

# Field operations counted per call; `sub` is an addition.
FIELD_OPS = (
    ("quivkit.exactlin", "RationalField.mul", "exactlin.field_mul.count"),
    ("quivkit.exactlin", "PrimeField.mul", "exactlin.field_mul.count"),
    ("quivkit.exactlin", "RationalField.add", "exactlin.field_add.count"),
    ("quivkit.exactlin", "PrimeField.add", "exactlin.field_add.count"),
    ("quivkit.exactlin", "RationalField.sub", "exactlin.field_add.count"),
    ("quivkit.exactlin", "PrimeField.sub", "exactlin.field_add.count"),
)

COUNT_NAMES = sorted({name for *_x, name in FIELD_OPS} | {
    "exactlin.rref.cells", "algebra.validate_morphism.basis_pairs",
    "algebra.validate_algebra.assoc_triples", "algebra.sc_entries",
    "pathalg.build_kvq.dim_sum"})


def _original(module, path):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    value = vars(owner)[attr]
    return value.__func__ if isinstance(value, classmethod) else value


def _quivkit_owners():
    """Every quivkit module and every class defined in one."""
    owners = []
    for name, mod in list(sys.modules.items()):
        if name != "quivkit" and not name.startswith("quivkit."):
            continue
        owners.append(mod)
        owners.extend(v for v in vars(mod).values()
                      if isinstance(v, type) and v.__module__ == name)
    return owners


class _Patches:
    """Attribute replacements, undone in reverse order by `restore()`."""

    def __init__(self):
        self._saved = []

    def wrap_everywhere(self, wrappers):
        """`wrappers` maps id(original) to (original, wrapper); the wrapper
        replaces the original on every quivkit owner that holds it."""
        for owner in _quivkit_owners():
            for attr, value in list(vars(owner).items()):
                is_cm = isinstance(value, classmethod)
                func = value.__func__ if is_cm else value
                entry = wrappers.get(id(func))
                if entry is None or entry[0] is not func:
                    continue
                self._saved.append((owner, attr, value))
                setattr(owner, attr, classmethod(entry[1]) if is_cm else entry[1])

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class SpanTracer:
    """Calls and self time per span name, aggregated as each span closes."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()   # (parent span, child span) -> calls
        self._stack = []         # open spans as [name, start, time in children]
        self._patches = _Patches()

    def _wrap(self, name, fn):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[1]
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                    edges[(stack[-1][0], name)] += 1
        return span

    def install(self):
        wrappers = {}
        for module, path, name in SPANS:
            fn = _original(module, path)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        self._patches.wrap_everywhere(wrappers)

    def uninstall(self):
        self._patches.restore()


class OpCounter:
    """Exact work counts: field operations and the sizes in SIZED."""

    def __init__(self):
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self._patches = _Patches()

    def _count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    def _count_sizes(self, sizes, from_result, fn):
        counts = self.counts

        @functools.wraps(fn)
        def sized(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts.update(sizes(result) if from_result else sizes(*args, **kwargs))
            return result
        return sized

    def install(self):
        wrappers = {}
        for module, path, name in FIELD_OPS:
            fn = _original(module, path)
            wrappers[id(fn)] = (fn, self._count_calls(name, fn))
        for module, path, from_result, sizes in SIZED:
            fn = _original(module, path)
            wrappers[id(fn)] = (fn, self._count_sizes(sizes, from_result, fn))
        self._patches.wrap_everywhere(wrappers)

    def uninstall(self):
        self._patches.restore()
