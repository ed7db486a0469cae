"""Spans around the calls between tschirn's modules, for the traced run.

``Tracer.install`` replaces, in every ``tschirn`` module namespace that holds
them, the functions one module imports from another, plus the entry points
the workloads call.  Python looks up a global name at call time, so a call
from ``decide`` to ``rational_roots`` then goes through the wrapper.  It also
wraps ``UniPoly.__divmod__`` in a span and counts ``FpElement`` and
``GFElement`` constructions.  ``detach`` puts the originals back and
``attach`` the wrappers again.  Nothing here is imported by an untraced run.

Spans are kept in memory as (name id, start ns, end ns, parent index, op id)
and recorded only between ``begin_op`` and ``end_op``, so the checker's own
calls into the library are not traced.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

MODULES = ("fields", "poly", "factorq", "resolvent", "decide", "families", "cli")

# Functions the workloads call directly, and ones a per-layer metric names
# that are only called from inside their own module.
EXTRA = {
    "factorq": ("factor_over_Fp",),
    "decide": ("decide_same_splitting", "classify_subfield"),
    "families": ("scan_equal_splitting", "shanks_pair_equal"),
    "resolvent": ("resolvent_F0", "resolvent_F1", "resolvent_F2"),
    "cli": ("main",),
}

# Imported across modules but only a type dispatch, called for every
# coefficient access; a span on it would cost more than it measures.
SKIP = {"field_of"}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.active = False
        self.created = defaultdict(int)
        self.invariant_keys: set = set()
        self.distinct_invariants = 0
        self._patches: list = []

    # ---------------------------------------------------------------- spans

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name, fn, label=None):
        tracer = self
        fixed = self._name_id(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nid = fixed if label is None else tracer._name_id(label(*args))
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.op)

        return wrapper

    def _counter(self, name, init):
        tracer = self

        def counted(obj, *args):
            if tracer.active:
                tracer.created[name] += 1
            init(obj, *args)

        return counted

    def _invariants_label(self, s, field=None, *rest):
        self.invariant_keys.add((s.a1, s.a2, s.a3, field))
        return "resolvent.cubic_invariants"

    # --------------------------------------------------------- installation

    def install(self):
        mods = {m: importlib.import_module(f"tschirn.{m}") for m in MODULES}
        package = importlib.import_module("tschirn")
        targets = {}  # original function -> span name
        for name, mod in mods.items():
            for fname, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and fname not in SKIP
                        and obj.__module__.startswith("tschirn.")
                        and obj.__module__ != mod.__name__):
                    targets[obj] = f"{obj.__module__[8:]}.{fname}"
        for name, fnames in EXTRA.items():
            for fname in fnames:
                targets[getattr(mods[name], fname)] = f"{name}.{fname}"
        labels = {
            "factorq.rational_roots": lambda f, *r: f"factorq.rational_roots.deg{f.degree}",
            "resolvent.cubic_invariants": self._invariants_label,
        }
        wrappers = {fn: self._span(span, fn, labels.get(span))
                    for fn, span in targets.items()}
        for mod in (package, *mods.values()):
            for fname, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, fname, wrappers[obj])
        poly, fields = mods["poly"], mods["fields"]
        self._patch(poly.UniPoly, "__divmod__",
                    self._span("poly.divmod", poly.UniPoly.__divmod__))
        for cls in (fields.FpElement, fields.GFElement):
            self._patch(cls, "__init__",
                        self._counter(f"fields.{cls.__name__}.created", cls.__init__))
        self.attach()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), value))

    def attach(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def detach(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ ops

    def begin_op(self, op_id):
        self.op = op_id
        self.invariant_keys.clear()
        self.active = True

    def end_op(self):
        self.active = False
        self.distinct_invariants += len(self.invariant_keys)

    # ------------------------------------------------------------ summaries

    def totals(self, scale):
        """Per span name: calls, inclusive ns and self ns (inclusive minus
        the time covered by its child spans), each span's time multiplied by
        scale[op id]."""
        child = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for idx, (nid, start, end, _, op) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            busy[name] += (end - start) * scale[op]
            own[name] += (end - start - child[idx]) * scale[op]
        return calls, busy, own

    def write(self, path):
        """Write the spans as `name start_ns end_ns parent op` lines."""
        with open(path, "w") as fh:
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]} {start} {end} {parent} {op}\n")
