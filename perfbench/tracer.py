"""In-process span tracer for the traced run.

Wraps the functions that the homcollapse modules look up by name, plus a
few named methods, so every call into them records a span (name, layer,
start, end, parent).  Spans are kept in memory and summarised when each
pass ends.  A layer is the module a function is defined in, so
`cli.enumerate_hom_cells` is charged to `hom`.  Nothing under src/ is
edited: wrappers are installed on the imported modules and removed again.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

PACKAGE = "homcollapse"
LAYERS = ("graphs", "hom", "posets", "closure", "folds", "homology", "cli")

# Modules whose function attributes are all wrapped.
WRAP_MODULES = ("cli", "folds", "closure", "homology")
# (module, class, method).  FacePoset.above/below/le are left alone on
# purpose: they are tiny and hot, and a wrapper would dominate their cost.
WRAP_METHODS = (
    ("posets", "FacePoset", "chains"),
    ("posets", "FacePoset", "restrict"),
    ("posets", "FacePoset", "to_json"),
    ("folds", "FoldCollapsePlan", "to_json"),
)
# Per-layer metric -> span names whose time it sums (outermost calls only).
TIMES = {
    "homology.gf2_rank_s": ("homology.gf2_rank",),
    "homology.betti_s": ("homology.betti",),
    "homology.smith_s": ("homology.smith_invariant_factors",),
    "homology.replay_s": ("homology.execute_collapses",),
    "closure.sequence_s": ("closure.collapse_sequence_from_closure",),
    "closure.verify_s": ("posets.verify_closure_operator",),
    "posets.chains_s": ("posets.FacePoset.chains",),
    "posets.order_complex_s": ("posets.order_complex",),
    "posets.restrict_s": ("posets.FacePoset.restrict",),
    "posets.to_json_s": ("posets.FacePoset.to_json",),
    "folds.plan_s": ("folds.first_arg_collapse", "folds.second_arg_collapse"),
    "folds.maps_s": ("folds.alpha_beta_maps",),
    "folds.to_json_s": ("folds.FoldCollapsePlan.to_json",),
    "hom.enumerate_s": ("hom.enumerate_hom_cells",),
    "cli.json_s": ("cli._dump",),
}
# Per-layer metric -> counter.  "<span>.calls" counts calls; the others are
# filled from arguments or results below, or by the caller.
COUNTS = {
    "homology.gf2_nnz": "homology.gf2_nnz",
    "homology.smith_calls": "homology.smith_invariant_factors.calls",
    "homology.smith_entries": "homology.smith_entries",
    "homology.replay_steps": "homology.replay_steps",
    "closure.steps": "closure.steps",
    "posets.chains_calls": "posets.FacePoset.chains.calls",
    "posets.order_complex_simplices": "posets.order_complex_simplices",
    "folds.ambient_unread_simplices": "folds.ambient_unread_simplices",
    "hom.cells": "hom.cells",
    "cli.json_bytes": "cli.json_bytes",
}
# A name the metrics read that is not found is reported as absent.
NEEDED = sorted({n for names in TIMES.values() for n in names} | {"cli.main"})


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _len(x):
    try:
        return len(x)
    except TypeError:
        return 0


def _gf2_args(args, kwargs, counts):
    columns = list(args[0])  # may be a one-shot iterable; hand on the list
    counts["homology.gf2_nnz"] += sum(_len(c) for c in columns)
    return (columns,) + tuple(args[1:]), kwargs


def _smith_args(args, kwargs, counts):
    m = args[0]
    counts["homology.smith_entries"] += len(m) * (len(m[0]) if m else 0)
    return args, kwargs


def _replay_args(args, kwargs, counts):
    counts["homology.replay_steps"] += _len(args[1])
    return args, kwargs


# Counters read from arguments (before the span starts) or results.
ARG_COUNTS = {
    "homology.gf2_rank": _gf2_args,
    "homology.smith_invariant_factors": _smith_args,
    "homology.execute_collapses": _replay_args,
}
RESULT_COUNTS = {
    "closure.collapse_sequence_from_closure": "closure.steps",
    "posets.order_complex": "posets.order_complex_simplices",
    "hom.enumerate_hom_cells": "hom.cells",
    "cli._dump": "cli.json_bytes",  # json.dumps output is ASCII: chars == bytes
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.outer: set[int] = set()  # spans with no enclosing span of the same name
        self.counts: Counter = Counter()
        self.ambient_simplices = 0  # order-complex simplices in plans built since the last take
        self.present: set[str] = set()
        self._undo: list = []

    def _wrapper(self, fn, name, layer):
        spans, stack, active, outer, counts = self.spans, self.stack, self.active, self.outer, self.counts
        before = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)
        is_plan = name in ("folds.first_arg_collapse", "folds.second_arg_collapse")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None and args:
                args, kwargs = before(args, kwargs, counts)
            idx = len(spans)
            span = [name, layer, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            if not active[name]:
                outer.add(idx)
            active[name] += 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                active[name] -= 1
            counts[name + ".calls"] += 1
            if result_count is not None:
                counts[result_count] += _len(result)
            if is_plan:
                self.ambient_simplices += _ambient_size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name in WRAP_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if not obj.__module__.startswith(PACKAGE):
                    continue
                self._set(mod, attr, obj, f"{_layer(obj)}.{obj.__name__}", _layer(obj))
        for mod_name, cls_name, meth in WRAP_METHODS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self._set(cls, meth, fn, f"{mod_name}.{cls_name}.{meth}", mod_name)

    def _set(self, owner, attr, fn, name, layer) -> None:
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(fn, name, layer))
        self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def absent(self) -> list[str]:
        return [n for n in NEEDED if n not in self.present]

    def take_ambient(self) -> int:
        n, self.ambient_simplices = self.ambient_simplices, 0
        return n

    def reset(self) -> None:
        self.spans.clear()
        self.outer.clear()
        self.counts.clear()
        self.ambient_simplices = 0

    def metrics(self, total: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset;
        total is the pass's traced wall time."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        self_s = dict.fromkeys(LAYERS, 0.0)  # a module outside LAYERS is not reported
        for idx, (name, layer, start, end, parent) in enumerate(self.spans):
            if idx in self.outer:
                incl[name] += end - start
            if layer in self_s:
                self_s[layer] += (end - start) - child[idx]
        m = {metric: sum(incl[n] for n in names) for metric, names in TIMES.items()}
        m.update({metric: self.counts[c] for metric, c in COUNTS.items()})
        m.update({f"{layer}.self_s": t for layer, t in self_s.items()})
        m["trace.total_s"] = total
        return m


def _ambient_size(plan) -> int:
    """Simplices in a plan's ambient order complex, read without touching a
    lazy attribute (which would build what the benchmark wants to count)."""
    ambient = getattr(plan, "__dict__", {}).get("ambient")
    return _len(getattr(ambient, "simplices", ()))
