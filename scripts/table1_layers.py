#!/usr/bin/env python3
"""Time and count the layers of one in-process `table1`.

    python3 scripts/table1_layers.py [--src DIR] [--runs N]

For the bttwist found in DIR (default: this checkout's `src/`), runs
`table1` N times (after two warm-up runs) with wrappers on three layers and
prints one JSON object: per layer, the median milliseconds per `table1`,
and the calls and the field products (`FieldElement.__mul__` calls) per
`table1`.  Calls and products are counted in a separate pass, so that the
counters add nothing to the times.  The layers:

- `make_context`: the trivialization, the cocycle law and the
  irreducibility check;
- `flood_fill`: the seed search and flood fill of the branch,
  `enumerate.branch_vertices` (or `branch_walk` in older trees, where
  `branch_vertices` wraps it);
- `closed_form`: `SubfieldLattice.distance`, the subfield test of the pairs
  whose cocycle is trivial on Gal(L/E), all of them together (absent from
  a tree without it);
- `norms`: the integer field norms behind every valuation, congruence,
  inverse and pivot, counted by the degree of the model that takes them.
  They are wrapped where the tree takes them: `LocalField._tower_norm` in
  older trees, each model's closed forms `_norm` and `_norm_adjugate` in
  newer ones.  Their wrappers would slow every `table1` they sit in, so
  they are timed in a pass of their own after the other layers.

Pin the process to one CPU (`taskset -c 0`) and alternate two trees' runs
to compare them; the host's speed drifts between minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _patch(undo: list, owner, name, new):
    undo.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, new)


def _restore(undo: list):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


def install(totals: dict, products: list) -> list:
    """Wrap the three layers and count field products; each call adds its
    time (s), itself and the products it made to totals[layer].  Returns
    the (owner, name, original) bindings to restore."""
    from bttwist import enumerate as counting
    from bttwist import twisted

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            p0, t0 = products[0], perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = totals.setdefault(name, [0.0, 0, 0])
                cell[0] += perf_counter() - t0
                cell[1] += products[0] - p0
                cell[2] += 1
        return wrapper

    undo: list = []
    fill = "branch_walk" if hasattr(counting, "branch_walk") else \
        "branch_vertices"
    _patch(undo, counting, fill, timed("flood_fill", getattr(counting, fill)))
    _patch(undo, counting, "make_context",
           timed("make_context", counting.make_context))
    lattice = twisted.SubfieldLattice
    if hasattr(lattice, "distance"):
        _patch(undo, lattice, "distance",
               timed("closed_form", lattice.distance))
    return undo


def install_norms(totals: dict) -> list:
    """Wrap the norm entry points of the tree; each call adds its time (s)
    to totals["norms"] and itself to totals["norms.d<degree>"]."""
    from bttwist import padic

    def timed(degree, fn):
        key = f"norms.d{degree}"

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                t = perf_counter() - t0
                totals["norms"] = totals.get("norms", 0.0) + t
                totals[key] = totals.get(key, 0) + 1
        return wrapper

    undo: list = []
    if hasattr(padic.LocalField, "_tower_norm"):
        tower_norm = padic.LocalField._tower_norm

        def loop(self, num, climb):
            return timed(self.degree, tower_norm)(self, num, climb)
        _patch(undo, padic.LocalField, "_tower_norm", loop)
        return undo
    for field in padic._FIELD_CACHE.values():  # built by the warm-up runs
        for name in ("_norm", "_norm_adjugate"):
            _patch(undo, field, name,
                   timed(field.degree, getattr(field, name)))
    return undo


def count_products(undo: list, products: list):
    from bttwist.padic import FieldElement
    mul = FieldElement.__mul__

    def counted(self, other):
        products[0] += 1
        return mul(self, other)

    _patch(undo, FieldElement, "__mul__", counted)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--runs", type=int, default=30)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from bttwist import enumerate as counting

    products = [0]
    per_run = []
    totals: dict = {}
    norms: dict = {}
    undo = install(totals, products)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for _ in range(2):
                counting.table1()
            for _ in range(args.runs):
                totals.clear()
                t0 = perf_counter()
                counting.table1()
                totals["table1"] = [perf_counter() - t0, 0]
                per_run.append({k: v[0] for k, v in totals.items()})
            count_products(undo, products)
            totals.clear()
            products[0] = 0
            counting.table1()
            table1_products = products[0]
            _restore(undo)
            undo = install_norms(norms)
            norm_ms = []
            for _ in range(args.runs):
                norms.clear()
                counting.table1()
                norm_ms.append(norms.get("norms", 0.0) * 1e3)
    finally:
        _restore(undo)
    out = {"src": args.src, "runs": args.runs, "layers": {}}
    totals["table1"] = [0.0, table1_products, 1]
    for name in sorted(per_run[0]):
        ms = statistics.median(run.get(name, 0.0) for run in per_run) * 1e3
        _, made, calls = totals.get(name, [0.0, 0, 0])
        out["layers"][name] = {"ms_per_table1": round(ms, 3),
                               "calls_per_table1": calls,
                               "products_per_table1": made}
    by_degree = {key.split(".")[1]: calls for key, calls in
                 sorted(norms.items()) if key.startswith("norms.")}
    out["layers"]["norms"] = {
        "ms_per_table1": round(statistics.median(norm_ms), 3),
        "calls_per_table1": sum(by_degree.values()),
        "calls_by_degree": by_degree, "products_per_table1": 0}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
