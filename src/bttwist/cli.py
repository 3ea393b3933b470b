"""Command-line surface: field inspection, branches, local counts, the
dyadic table, global counts, and the verification suite.

All numeric output is exact: integers stay integers, other rationals are
rendered as "num/den" strings.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import BttwistError
from .padic import INFINITY, make_field
from .bttree import MoebiusMap, Vertex, Window, emit_dot
from .branch import branch_member, branch_with_extension, lift_vertex
from . import enumerate as counting
from . import globalforms


def rat(x) -> str:
    if x is INFINITY:
        return "oo"
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def parse_field(text: str):
    """Field syntax p:d1,d2,... (e.g. 2:-1,-3,2); bare "p" is the base."""
    p_str, _, rest = text.partition(":")
    return int(p_str), tuple(int(t) for t in rest.split(",") if t.strip())


def parse_matrix(text: str):
    """Matrix syntax "a,b;c,d" with rational entries, as two rows."""
    rows = [row.split(",") for row in text.split(";")]
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise argparse.ArgumentTypeError(
            f"matrix {text!r} is not of the form a,b;c,d")
    return [[_fraction(x) for x in row] for row in rows]


def parse_radius(text: str) -> Fraction:
    r = _fraction(text)
    if r < 0:
        raise argparse.ArgumentTypeError(f"radius {text} is negative")
    return r


def cmd_field(args) -> int:
    p, sqrts = args.p, tuple(args.sqrts)
    f = make_field(p, sqrts)
    subfields = [
        {"sqrt_args": list(s.field.sqrt_args), "e": s.field.e, "f": s.field.f}
        for s in f.subfields()
    ]
    base = make_field(p, ())
    defects = {}
    for d in sqrts:
        defects[str(d)] = rat(base.quadratic_defect(base.from_rational(d)))
    out = {
        "p": p, "sqrt_args": list(sqrts), "e": f.e, "f": f.f,
        "degree": f.degree, "residue_size": f.q,
        "uniformizer_valuation": rat(f.uniformizer.valuation()),
        "subfields": subfields,
        "sample_defects": defects,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_branch(args) -> int:
    p, sqrts = args.field
    f = make_field(p, sqrts)
    q = MoebiusMap.from_rows(f, args.matrix)
    S, ambient = branch_with_extension(q, f)
    center = Vertex(f.zero, Fraction(0))
    win = Window(center, args.radius)
    members = [v for v in win if S.contains(lift_vertex(v, ambient))]
    out = {
        "field": {"p": p, "sqrt_args": list(sqrts)},
        "ambient_sqrt_args": list(ambient.sqrt_args),
        "shape": repr(S),
        "window_radius": rat(args.radius),
        "member_count": len(members),
        "member_ids": sorted(f"B[{k[1]}]@{rat(k[0])}" for k in
                             (v.key() for v in members)),
    }
    print(json.dumps(out, sort_keys=True))
    if args.dot:

        class _Highlight:
            def contains(self, v):
                return branch_member(q, v)

        with open(args.dot, "w") as fh:
            fh.write(emit_dot(win, _Highlight(), title="branch"))
    return 0


def cmd_count_local(args) -> int:
    p, sqrts = args.field
    rep = counting.count_local(args.group, p, sqrts)
    out = {
        "group": rep.group,
        "base_field": {"p": p, "sqrt_args": list(sqrts)},
        "subfield_e": rep.e, "subfield_f": rep.f,
        "ambient_sqrt_args": list(rep.ambient_args),
        "count": rep.count,
        "vertex_ids": sorted(f"B[{k[1]}]@{rat(k[0])}" for k in rep.vertex_ids),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_table1(args) -> int:
    data = counting.table1()
    rows = []
    for r in sorted(data["rows"], key=lambda r: (len(r["field"]), r["field"])):
        rows.append({
            "field": list(r["field"]), "e": r["e"], "f": r["f"],
            "count": r["count"], "vertex_ids": r["vertex_ids"],
        })
    cross = {f"({a},{b})": n for (a, b), n in sorted(data["cross_table"].items())}
    out = {
        "group": data["group"],
        "base_field": data["base_field"],
        "total_over_tower": data["total"],
        "rows": rows,
        "cross_table": cross,
        "summary": data["summary"],
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_global(args) -> int:
    out = globalforms.global_count(
        args.N, assert_existence=args.assert_existence or args.resolve,
        resolve=args.resolve)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only this command needs the suite
    ok = verify.run_all(fast=args.fast)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bttwist",
        description="Exact Bruhat-Tits tree computations: branches, twisted "
                    "forms, and integral-form counts for quaternionic groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="inspect a local field model")
    p_field.add_argument("-p", type=int, required=True)
    p_field.add_argument("--sqrts", type=lambda s: [int(t) for t in s.split(",") if t],
                         default=[])
    p_field.set_defaults(func=cmd_field)

    p_branch = sub.add_parser("branch", help="branch of a 2x2 matrix")
    p_branch.add_argument("--field", required=True, type=parse_field,
                          help="p:d1,d2,...")
    p_branch.add_argument("--matrix", required=True, type=parse_matrix,
                          help='"a,b;c,d"')
    p_branch.add_argument("--radius", type=parse_radius, default=Fraction(2))
    p_branch.add_argument("--dot", help="write a DOT graph of the window")
    p_branch.set_defaults(func=cmd_branch)

    p_count = sub.add_parser("count-local", help="count local integral forms")
    p_count.add_argument("--group", required=True,
                         choices=["q8", "hurwitz", "dicyclic", "maxorder"])
    p_count.add_argument("--field", required=True, type=parse_field,
                         help="p:d1,d2,...")
    p_count.set_defaults(func=cmd_count_local)

    p_table = sub.add_parser("table1",
                             help="the 14-subfield dyadic table for q8")
    p_table.set_defaults(func=cmd_table1)

    p_global = sub.add_parser("global", help="global count over Q(sqrt(-N))")
    p_global.add_argument("-N", type=int, required=True)
    p_global.add_argument("--assert-existence", action="store_true")
    p_global.add_argument("--resolve", action="store_true")
    p_global.set_defaults(func=cmd_global)

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--fast", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return ap


_VALUE_FLAGS = ("--sqrts", "--matrix", "--field")


def _merge_dash_values(argv):
    """Join value flags with their argument so negative entries parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_dash_values(list(argv))
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BttwistError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (`bttwist table1 | head -c 1`): the rest
        # of the output goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
