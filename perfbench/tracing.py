"""Traced runs: spans and counts at the layer boundaries of bttwist, recorded
by wrapping the layers' public functions from outside the package.

`install(tracer)` rebinds each target in its defining module or class and in
every `bttwist.*` module that imported it by name (`from .x import y` copies
the reference, so patching the defining module alone would miss those
callers).  The returned `Patch` restores every binding; untraced runs never
install anything.

Field operations (`padic`) and subtree membership (`bttree.contains`) are
counted but not timed: a cycle makes up to hundreds of thousands of these
calls, so their time stays in the calling layer's self time and is measured
directly in `micro.py`.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "_perfbench_wrapper"


class Tracer:
    """Spans (name, parent index, job, start, end) kept in memory, plus
    counters."""

    def __init__(self):
        self.spans = []
        self.stack = []          # indices of open spans
        self.open_names = []     # their names, for scope checks
        self.counts = Counter()
        self.job = 0
        self._seen_apply = set()
        self._scan = {}          # id(vertex) -> [vertex, every test true]

    def begin_job(self):
        self._fold_scan()
        self.job += 1
        self._seen_apply.clear()

    def add_span(self, name, t0, t1):
        """A finished span under the innermost open one: time that is not
        the program's (a speed sample) and that self times must leave out."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, parent, self.job, t0, t1))

    def in_scope(self, prefix: str) -> bool:
        return any(n.startswith(prefix) for n in self.open_names)

    def _fold_scan(self):
        self.counts["enumerate.vertices_scanned"] += len(self._scan)
        self.counts["enumerate.members"] += sum(
            1 for _, ok in self._scan.values() if ok)
        self._scan.clear()

    def wrap(self, name, fn, timed=True, before=None, after=None):
        """A wrapper that counts `name.calls`, records a span when `timed`,
        and calls the hooks before(tracer, args) and
        after(tracer, args, result, state) around a successful call."""
        tracer = self
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            state = before(tracer, args) if before else None
            if not timed:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.spans)
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.spans.append(None)
                tracer.stack.append(idx)
                tracer.open_names.append(name)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    tracer.stack.pop()
                    tracer.open_names.pop()
                    tracer.spans[idx] = (name, parent, tracer.job, t0, t1)
            if after:
                after(tracer, args, result, state)
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self, import_s=None) -> dict:
        """Counters and per-name self time, plus the process's import time
        of bttwist if given; summaries of several processes add up."""
        self._fold_scan()
        out = {"counts": dict(self.counts), "self_s": self_times(self.spans)}
        if import_s is not None:
            out["counts"]["cli.imports"] = 1
            out["self_s"]["cli.import"] = import_s
        return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Per span name: total duration minus the time child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span is not None and span[1] >= 0:
            children[span[1]].append((span[3], span[4]))
    out = defaultdict(float)
    for idx, span in enumerate(spans):
        if span is None:
            continue
        name, _, _, t0, t1 = span
        out[name] += (t1 - t0) - union_length(children.get(idx, ()), t0, t1)
    return dict(out)


# -- hooks ----------------------------------------------------------------


def _field_builds(tracer, args):
    return tracer.counts["padic.field_builds.calls"]


def _make_field_hit(tracer, args, result, builds_before):
    if tracer.counts["padic.field_builds.calls"] == builds_before:
        tracer.counts["padic.make_field.hits"] += 1


def _window_built(tracer, args, result, state):
    tracer.counts["bttree.window.vertices"] += len(args[0].vertices)
    if tracer.in_scope("enumerate."):
        tracer.counts["enumerate.window_builds"] += 1


def _member_result(tracer, args, result, state):
    if result:
        tracer.counts["branch.member.hits"] += 1
    if tracer.in_scope("enumerate."):
        v = args[1]
        entry = tracer._scan.get(id(v))
        if entry is None:
            tracer._scan[id(v)] = [v, bool(result)]
        else:
            entry[1] = entry[1] and bool(result)


def _subfield_result(tracer, args, result, state):
    if result:
        tracer.counts["twisted.subfield_test.true"] += 1


def _apply_seen(tracer, args):
    sigma, x = args[1], args[2]
    center = getattr(x, "center", None)
    if center is not None:
        key = (sigma, center.coords, x.level)
    else:
        value = getattr(x, "value", x)
        key = (sigma, None if value is None else value.coords)
    if key in tracer._seen_apply:
        tracer.counts["twisted.apply.repeats"] += 1
    else:
        tracer._seen_apply.add(key)


# (module, class or None, attribute, wrapper name, timed, before, after)
TARGETS = [
    ("bttwist.padic", "FieldElement", "__mul__", "padic.mul", False, None,
     None),
    ("bttwist.padic", "FieldElement", "inv", "padic.inv", False, None, None),
    ("bttwist.padic", "FieldElement", "valuation", "padic.valuation", False,
     None, None),
    ("bttwist.padic", "LocalField", "__init__", "padic.field_builds", False,
     None, None),
    ("bttwist.padic", None, "make_field", "padic.make_field", False,
     _field_builds, _make_field_hit),
    ("bttwist.bttree", "MoebiusMap", "apply_vertex", "bttree.apply_vertex",
     True, None, None),
    ("bttwist.bttree", "Window", "__init__", "bttree.window", True, None,
     _window_built),
    ("bttwist.branch", None, "branch_member", "branch.member", True, None,
     _member_result),
    ("bttwist.branch", None, "branch_closed_form", "branch.closed_form", True,
     None, None),
    ("bttwist.branch", None, "unit_fixed_points", "branch.fixed_points", True,
     None, None),
    ("bttwist.quatalg", "Trivialization", "matrix_coords",
     "quatalg.matrix_coords", True, None, None),
    ("bttwist.quatalg", "_ComposedTrivialization", "matrix_coords",
     "quatalg.matrix_coords", True, None, None),
    ("bttwist.quatalg", None, "find_trivialization", "quatalg.trivialization",
     True, None, None),
    ("bttwist.quatalg", None, "q8_trivialization", "quatalg.trivialization",
     True, None, None),
    ("bttwist.twisted", None, "subfield_vertex_test", "twisted.subfield_test",
     True, None, _subfield_result),
    ("bttwist.twisted", "TwistedTree", "apply", "twisted.apply", True,
     _apply_seen, None),
    ("bttwist.twisted", None, "order_lattice_of_vertex",
     "twisted.order_lattice", True, None, None),
    ("bttwist.enumerate", None, "make_context", "enumerate.make_context", True,
     None, None),
    ("bttwist.enumerate", None, "count_integral_forms", "enumerate.count",
     True, None, None),
    ("bttwist.enumerate", None, "table1", "enumerate.table1", True, None,
     None),
    ("bttwist.globalforms", None, "global_count", "globalforms.global_count",
     True, None, None),
    ("bttwist.globalforms", None, "class_group", "globalforms.class_group",
     True, None, None),
    ("bttwist.cli", None, "main", "cli", True, None, None),
]


def _contains_targets():
    """`contains` of every convex-subtree class in bttree (counted only)."""
    bttree = sys.modules["bttwist.bttree"]
    base = getattr(bttree, "ConvexSubtree", None)
    out = []
    for name, obj in sorted(vars(bttree).items()):
        if (isinstance(obj, type) and base is not None
                and issubclass(obj, base) and "contains" in vars(obj)):
            out.append(("bttwist.bttree", name, "contains", "bttree.contains",
                        False, None, None))
    return out


def bttwist_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bttwist"
                                  or name.startswith("bttwist."))]


class Patch:
    """The bindings made by `install`, undone by `remove`."""

    def __init__(self):
        self.undo = []       # (owner, attribute, original)
        self.missing = []    # targets this version of the program lacks

    def bind(self, owner, attr, new):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self):
        while self.undo:
            owner, attr, old = self.undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def install(tracer: Tracer) -> Patch:
    import bttwist.cli  # noqa: F401  (loads every layer)

    patch = Patch()
    modules = bttwist_modules()
    for mod_name, cls_name, attr, name, timed, before, after in (
            TARGETS + _contains_targets()):
        mod = sys.modules.get(mod_name)
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = (vars(owner).get(attr) if cls_name and owner is not None
                    else getattr(owner, attr, None))
        if not callable(original):
            patch.missing.append(f"{mod_name}.{cls_name or ''}.{attr}")
            continue
        wrapper = tracer.wrap(name, original, timed, before, after)
        if cls_name:
            for other, val in list(vars(owner).items()):
                if val is original:
                    patch.bind(owner, other, wrapper)
            continue
        for m in modules:
            for other, val in list(vars(m).items()):
                if val is original:
                    patch.bind(m, other, wrapper)
    return patch


def leftover_wrappers() -> list:
    """Names in bttwist modules and their classes still bound to a wrapper."""
    found = []
    for m in bttwist_modules():
        for name, val in vars(m).items():
            if getattr(val, MARK, False):
                found.append(f"{m.__name__}.{name}")
            if isinstance(val, type) and val.__module__ == m.__name__:
                for attr, inner in vars(val).items():
                    if getattr(inner, MARK, False):
                        found.append(f"{m.__name__}.{name}.{attr}")
    return found


# -- per-layer metrics from a summary ---------------------------------------

COUNTS = [
    "padic.mul.calls", "padic.inv.calls", "padic.valuation.calls",
    "bttree.apply_vertex.calls", "bttree.window.calls",
    "bttree.window.vertices", "bttree.contains.calls", "branch.member.calls",
    "quatalg.matrix_coords.calls", "twisted.subfield_test.calls",
    "twisted.apply.calls", "enumerate.count.calls", "enumerate.window_builds",
    "enumerate.vertices_scanned", "globalforms.global_count.calls",
]
SELF_TIMES = [
    "bttree.apply_vertex", "bttree.window", "branch.member",
    "branch.closed_form", "branch.fixed_points", "quatalg.matrix_coords",
    "quatalg.trivialization", "twisted.subfield_test", "twisted.apply",
    "twisted.order_lattice", "enumerate.make_context", "enumerate.count",
    "globalforms.global_count", "globalforms.class_group", "cli",
]
RATIOS = {  # metric -> (numerator counter, denominator counter)
    "padic.make_field.hit_ratio": ("padic.make_field.hits",
                                   "padic.make_field.calls"),
    "branch.member.hit_ratio": ("branch.member.hits", "branch.member.calls"),
    "twisted.subfield_test.true_ratio": ("twisted.subfield_test.true",
                                         "twisted.subfield_test.calls"),
    "twisted.apply.repeat_ratio": ("twisted.apply.repeats",
                                   "twisted.apply.calls"),
    "enumerate.member_ratio": ("enumerate.members",
                               "enumerate.vertices_scanned"),
}


def layer_metrics(summary: dict) -> dict:
    """name -> (value, unit, base) for every traced per-layer metric; `base`
    is the denominator of a ratio, else None."""
    c = Counter(summary["counts"])
    s = defaultdict(float, summary["self_s"])
    out = {name: (c[name], "count", None) for name in COUNTS}
    out.update({f"{span}.self_s": (s[span], "s", None) for span in SELF_TIMES})
    for name, (num, den) in RATIOS.items():
        out[name] = (c[num] / c[den] if c[den] else 0.0, "ratio", c[den])
    return out


def merge(summaries) -> dict:
    counts, self_s = Counter(), defaultdict(float)
    for summ in summaries:
        counts.update(summ["counts"])
        for k, v in summ["self_s"].items():
            self_s[k] += v
    return {"counts": dict(counts), "self_s": dict(self_s)}
