"""Per-layer tracing installed from outside the library.

:meth:`Tracer.install` wraps the public functions of every qsymp layer,
the public methods of ``Subspace`` and ``Code`` and the bodies of their
``cached_property`` values.  Modules bind names such as ``rref``,
``kernel`` or ``check_budget`` at import time, so each wrapper is written
into every qsymp module namespace that holds the original object, not only
into the defining module.  :meth:`Tracer.uninstall` restores every binding.

Each call is a span with a parent id.  A span's self time is its duration
minus the durations of its direct children; a layer's self time is the sum
over its spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter
from functools import cached_property, wraps
from pathlib import Path

import numpy as np

from workloads import SUITE_NAMES

LAYERS = (
    "cli",
    "suites",
    "invariants",
    "enumerators",
    "anticodes",
    "codes",
    "symplectic",
    "linalg",
    "oracle",
    "errors",
)

# Classes whose methods are wrapped, with the dunders that do real work.
CLASS_METHODS = {
    "symplectic": ("Subspace", ("__init__", "__add__", "__and__", "__contains__")),
    "codes": ("Code", ()),
}


class Tracer:
    """Span stack, per-layer self time and counters for one traced pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.reset()

    # -- pass and op boundaries -------------------------------------------

    def reset(self, record: bool = False) -> None:
        """Clear all counters; ``record`` keeps every span for :meth:`write_spans`."""
        self.counts.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.record = record
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 1
        self.begin_op()

    def begin_op(self) -> None:
        """Subspace/intersection duplicates are counted within one operation."""
        self._seen_bases: set = set()
        self._seen_pairs: set = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, layer, name, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, parent, layer, name, child, start = frame
        self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.incl_s[name] += dur
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][4] += dur
        if self.record:
            self.spans.append((span_id, parent, name, start, end))

    def caller_layer(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, layer: str, name: str, fn, pre=None, post=None, label=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            frame = tracer._enter(layer, label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn, on_item=None):
        """Count calls and items; the generator body runs in its consumer's span.

        A span per resumption would cost more than the 160k oracle codewords
        it times.  The consumers of ``codeword_batches`` and
        ``enumerate_codewords`` sit in the generator's own layer, so their
        layer self time is unchanged by this.
        """
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            for item in fn(*args, **kwargs):
                if on_item is not None:
                    on_item(item, tracer.caller_layer())
                yield item

        return wrapper

    # -- counters attached to particular functions ----------------------------

    def _hooks(self) -> dict:
        c = self.counts  # cleared in place by reset(), never replaced

        def arg(args, kwargs, i, name):
            return args[i] if len(args) > i else kwargs[name]

        def rref_pre(args, kwargs):
            shape = np.shape(arg(args, kwargs, 0, "a"))
            c["linalg.rref.cells"] += shape[0] * shape[1] if len(shape) == 2 else shape[0]
            if arg(args, kwargs, 1, "q") == 2 and kwargs.get("packed") is not False:
                c["linalg.rref.gf2"] += 1

        def subspace_post(args, _result):
            sp = args[0]
            key = (sp.q, sp.n, sp.basis.shape, sp.basis.tobytes())
            if key in self._seen_bases:
                c["symplectic.subspace.dup"] += 1
            else:
                self._seen_bases.add(key)

        def intersect_pre(args, kwargs):
            space, a = arg(args, kwargs, 0, "space"), arg(args, kwargs, 1, "a")
            key = (space.q, space.n, space.basis.shape, space.basis.tobytes(), a.support)
            if key not in self._seen_pairs:
                self._seen_pairs.add(key)
                c["anticodes.intersect.distinct"] += 1

        def support_table_pre(args, kwargs):
            if getattr(args[0], "_support_table_cache", None) is not None:
                c["invariants.support_table.hits"] += 1

        def budget_pre(args, kwargs):
            needed, budget = arg(args, kwargs, 0, "needed"), arg(args, kwargs, 1, "budget")
            c["errors.budget.needed"] += int(needed)
            if needed > budget:
                c["errors.budget.refused"] += 1

        def codewords(item, _consumer):
            self.counts["codes.codewords"] += int(item[1].shape[0])

        def oracle_word(_item, _consumer):
            self.counts["oracle.codewords"] += 1

        def support(_item, consumer):
            self.counts[f"{consumer}.supports"] += 1

        def suite_label(args, kwargs):
            return f"suites.run_suites[{kwargs.get('suite', args[0] if args else 'all')}]"

        return {
            "linalg.rref": {"pre": rref_pre},
            "symplectic.Subspace.__init__": {"post": subspace_post},
            "anticodes.intersect_with_anticode": {"pre": intersect_pre},
            "invariants.support_table": {"pre": support_table_pre},
            "errors.check_budget": {"pre": budget_pre},
            "codes.codeword_batches": {"on_item": codewords},
            "oracle.enumerate_codewords": {"on_item": oracle_word},
            "anticodes.all_anticodes": {"on_item": support},
            "suites.run_suites": {"label": suite_label},
        }

    # -- installation ----------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every layer and rebind the wrappers wherever the originals are bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = {layer: importlib.import_module(f"qsymp.{layer}") for layer in LAYERS}
        replaced: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                h = hooks.get(name, {})
                if inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap_generator(name, obj, h.get("on_item"))
                else:
                    wrapped = self._wrap_function(layer, name, obj, h.get("pre"), h.get("post"), h.get("label"))
                replaced[id(obj)] = (obj, wrapped)
            if layer in CLASS_METHODS:
                self._wrap_class(layer, mod, *CLASS_METHODS[layer], hooks)
        # Rebind in every qsymp namespace (including the package itself).
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qsymp" or modname.startswith("qsymp.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

    def _wrap_class(self, layer: str, mod, clsname: str, dunders: tuple, hooks: dict) -> None:
        cls = getattr(mod, clsname)
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{clsname}.{attr}"
            h = hooks.get(name, {})
            if isinstance(obj, cached_property):
                self._set(obj, "func", self._wrap_function(layer, name, obj.func))
            elif inspect.isfunction(obj) and (not attr.startswith("_") or attr in dunders):
                self._set(cls, attr, self._wrap_function(layer, name, obj, h.get("pre"), h.get("post")))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            setattr(obj, attr, old)

    # -- results -----------------------------------------------------------------

    def layer_counts(self) -> dict[str, int]:
        """Every exact count of the pass (call counts and counters), for comparison."""
        return dict(sorted(self.counts.items()))

    def write_spans(self, path: Path) -> None:
        """Spans of the recorded pass as gzip CSV: id, parent, name, start/end in us."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")


def per_layer_metrics(counts: dict, self_s: dict, incl_s: dict, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""

    def ratio(num, den):
        return num / den if den else 0.0

    rref_calls = counts.get("linalg.rref", 0)
    built = counts.get("symplectic.Subspace.__init__", 0)
    inter = counts.get("anticodes.intersect_with_anticode", 0)
    st_calls = counts.get("invariants.support_table", 0)
    st_hits = counts.get("invariants.support_table.hits", 0)
    m = {
        "linalg.rref.calls": (rref_calls, "count"),
        "linalg.rref.cells": (counts.get("linalg.rref.cells", 0), "count"),
        "linalg.rref.gf2_share": (ratio(counts.get("linalg.rref.gf2", 0), rref_calls), "ratio"),
        "linalg.kernel.calls": (counts.get("linalg.kernel", 0), "count"),
        "linalg.intersect.calls": (counts.get("linalg.intersect", 0), "count"),
        "symplectic.subspace.built": (built, "count"),
        "symplectic.subspace.dup_ratio": (ratio(counts.get("symplectic.subspace.dup", 0), built), "ratio"),
        "symplectic.split.calls": (counts.get("symplectic.Subspace._split", 0), "count"),
        "anticodes.intersect.calls": (inter, "count"),
        "anticodes.intersect.useful_ratio": (ratio(counts.get("anticodes.intersect.distinct", 0), inter), "ratio"),
        "invariants.support_table.builds": (st_calls - st_hits, "count"),
        "invariants.support_table.hit_ratio": (ratio(st_hits, st_calls), "ratio"),
        "enumerators.supports": (counts.get("enumerators.supports", 0), "count"),
        "codes.codewords": (counts.get("codes.codewords", 0), "count"),
        "oracle.codewords": (counts.get("oracle.codewords", 0), "count"),
        "errors.budget.needed": (counts.get("errors.budget.needed", 0), "count"),
        "errors.budget.refused": (counts.get("errors.budget.refused", 0), "count"),
    }
    for layer in ("linalg", "symplectic", "anticodes", "invariants", "enumerators", "codes", "oracle", "cli"):
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.s"] = (incl_s.get(f"suites.run_suites[{suite}]", 0.0), "s")
    m["trace.overhead"] = (overhead, "ratio")
    return m
