"""Span and counter tracing installed from outside the package.

`Tracer.install()` replaces the public functions of every ``altrings``
module, in each module namespace that imported them, and the public
methods of the core classes with wrappers.  Coarse calls record a span
(name, start, end, parent, job); calls made per scalar, per product or
per ring element only bump a counter, to keep the overhead down.
`uninstall()` restores the originals.  Spans stay in memory until
`dump()` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter

MODULES = ("fields", "linalg", "algebra", "catalog", "peirce", "lietype", "finite", "cli")
LAYERS = ("linalg", "algebra", "catalog", "peirce", "lietype", "finite", "cli")

COUNT_ONLY = {
    "algebra.Algebra.mul_coords", "algebra.Algebra.basis_element",
    "algebra.Algebra.basis_product", "algebra.Algebra.element",
    "algebra.Algebra.zero", "algebra.Algebra.size",
    "linalg.Matrix.entry", "linalg.Matrix.column",
    "finite.FiniteRing.element", "finite.FiniteRing.sub", "finite.FiniteRing.commutator",
    "finite.FiniteRing.nested", "finite.MapTable.apply_index",
}
FIELD_OPS = ("coerce", "add", "sub", "mul", "neg", "inv", "div", "is_zero")
RING_OPS = ("add", "neg", "mul")       # the ring ops FiniteRing memoises
OPERATORS = ("__matmul__", "__add__", "__sub__", "__neg__")
REBUILDS = ("contains", "residual", "contains_subspace", "residual_matrix")
CONSTRAINT_BUILDERS = ("lietype.derivation_space", "lietype.lie_n_derivation_space",
                       "lietype.conditions_abc_subspace")
# spans whose calls are counted, failed calls included
COUNTED = ("peirce.check_conditions_1_to_4", "lietype.nested_commutator_span",
           "catalog.parse", "lietype.decompose")
# span name -> counter that accumulates its duration
TIMED = {
    "linalg._RationalEchelon.add": "linalg.row_time.q",
    "peirce.peirce_context": "peirce.context_time",
    "algebra.classify_identities": "algebra.classify_time",
    "catalog.catalog": "catalog.build_time",
    "lietype.decompose": "lietype.decompose_time",
    "finite.verify_lie_n_identity": "finite.tuple_time",
    "cli.main": "cli.main_time",
    **{name: "lietype.constraint_time" for name in CONSTRAINT_BUILDERS},
}


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index, job)
        self.stack: list = []        # indices of open spans
        self.open_names: dict = {}   # index -> name while a span is open
        self.counts: Counter = Counter()
        self.job = "setup"
        self._cells: dict = {}       # fast counters, see flush()
        self._seen: dict = {}        # ring op -> {id(ring): argument tuples}
        self._alive: list = []       # rings built since the last flush()
        self._patches: list = []     # (owner, attribute, original)

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn):
        spans, stack, names, counts = self.spans, self.stack, self.open_names, self.counts
        after = self._after(name)
        timed = TIMED.get(name)
        calls = name + ".calls" if name in COUNTED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            names[idx] = name
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                del names[idx]
                spans[idx] = (name, start, end, parent, self.job)
            if timed is not None:
                counts[timed] += end - start
            if after is not None:
                after(result, parent, end - start)
            return result

        return wrapper

    def _cell(self, key: str) -> list:
        return self._cells.setdefault(key, [0])

    def _count(self, key: str, fn):
        cell = self._cell(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _ring_op(self, op: str, fn):
        """Count a memoised ring op and remember its distinct arguments."""
        cell = self._cell("finite.ring_ops")
        seen = self._seen.setdefault(op, {})   # id(ring) -> set of argument tuples

        @functools.wraps(fn)
        def wrapper(ring, *args):
            cell[0] += 1
            keys = seen.get(id(ring))
            if keys is None:
                keys = seen[id(ring)] = set()
            keys.add(args)
            return fn(ring, *args)

        return wrapper

    def _ring_init(self, fn):
        cell, alive = self._cell("finite.rings_built"), self._alive

        @functools.wraps(fn)
        def wrapper(ring, *args, **kwargs):
            cell[0] += 1
            alive.append(ring)     # keeps id(ring) unique until flush()
            return fn(ring, *args, **kwargs)

        return wrapper

    def flush(self):
        """Move the fast counters into `counts`.  Rings are told apart by
        id(), so call this at the end of each round, while they are alive."""
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
            cell[0] = 0
        for per_ring in self._seen.values():
            self.counts["finite.memo_distinct"] += sum(len(k) for k in per_ring.values())
            per_ring.clear()
        self._alive.clear()

    def _after(self, name: str):
        """Counters read from a call's result or from its caller's span."""
        counts = self.counts
        method = name.rsplit(".", 1)[1]
        if name in ("linalg._RationalEchelon.add", "linalg._PrimeEchelon.add"):
            key = "linalg.rows_folded." + ("q" if "Rational" in name else "gfp")

            def after(gained, parent, dur):
                counts[key] += 1
                counts["linalg.rank_gain"] += bool(gained)
                if self.open_names.get(parent) in CONSTRAINT_BUILDERS:
                    counts["lietype.constraint_rows"] += 1
        elif name == "peirce.is_prime":
            def after(report, parent, dur):
                if report.mode == "exhaustive":
                    counts["peirce.rays"] += report.checked
                    counts["peirce.ray_time"] += dur
        elif name == "finite.verify_lie_n_identity":
            def after(report, parent, dur):
                counts["finite.tuples"] += report.checked
        elif name == "finite.pruned_exhaustive_search":
            def after(report, parent, dur):
                counts["finite.search.nodes"] += report.nodes
                counts["finite.search.leaves"] += report.leaves
        elif name == "linalg.rank":
            def after(result, parent, dur):
                if self.open_names.get(parent) == "peirce.check_conditions_1_to_4":
                    counts["peirce.cond4_vectors"] += 1
        elif name.startswith("linalg.Subspace.") and method in REBUILDS:
            def after(result, parent, dur):
                counts["linalg.eliminator_rebuilds"] += 1
        elif method in ("left_mult_matrix", "right_mult_matrix"):
            def after(result, parent, dur):
                counts["algebra.mult_matrix.calls"] += 1
        else:
            return None
        return after

    # ------------------------------------------------------------- install

    def install(self):
        """Wrap the package's public callables; undone by `uninstall()`."""
        mods = {m: importlib.import_module(f"altrings.{m}") for m in MODULES}
        from altrings.fields import GF, QQ, PrimeField, RationalField

        def wrap(name, fn):
            if inspect.isgeneratorfunction(fn) or name in COUNT_ONLY:
                return self._count(name, fn)
            return self._span(name, fn)

        originals = {}   # id(function) -> (function, wrapper)
        for layer, mod in mods.items():
            for fname, obj in vars(mod).items():
                if (not fname.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, wrap(f"{layer}.{fname}", obj))
        for mod in list(mods.values()) + [importlib.import_module("altrings")]:
            for fname, obj in list(vars(mod).items()):
                pair = originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._patch(mod, fname, pair[1])

        for cls, key in ((RationalField, "fields.ops.q"), (PrimeField, "fields.ops.gfp")):
            for attr in FIELD_OPS:
                self._patch(cls, attr, self._count(key, vars(cls)[attr]))

        linalg, finite = mods["linalg"], mods["finite"]
        classes = (
            (linalg.Matrix, "linalg"), (linalg.Subspace, "linalg"),
            (type(linalg.echelon(QQ, 1)), "linalg"), (type(linalg.echelon(GF(2), 1)), "linalg"),
            (mods["algebra"].Algebra, "algebra"),
            (finite.FiniteRing, "finite"), (finite.MapTable, "finite"),
        )
        for cls, layer in classes:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                name = f"{layer}.{cls.__name__}.{attr}"
                if cls is finite.FiniteRing and attr in RING_OPS:
                    self._patch(cls, attr, self._ring_op(attr, raw))
                elif isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(wrap(name, raw.__func__)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, wrap(name, raw))
        self._patch(finite.FiniteRing, "__init__",
                    self._ring_init(vars(finite.FiniteRing)["__init__"]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- output

    def snapshot(self) -> dict:
        """Spans and counters as plain JSON data."""
        self.flush()
        return {"spans": self.spans, "counts": dict(self.counts)}

    def dump(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def self_times(spans) -> dict:
    """Self time per (job kind, layer): span time minus its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, parent, job), inner in zip(spans, child):
        out[(job == "setup", name.split(".", 1)[0])] += end - start - inner
    return out


def top_level_time(spans, setup: bool) -> float:
    """Time inside outermost layer spans, for set-up or for jobs."""
    return sum(end - start for name, start, end, parent, job in spans
               if parent < 0 and (job == "setup") == setup)
