"""Command-line front end: component counting, connectivity queries, and the
grid oracle."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ResourceBudgetError, SeparationError
from .infring import QQ
from .mpoly import PolyParseError, QRING, parse_poly, parse_poly_file
from .points import RealUnivRep, rur_sign, sample_components
from .realroots import TriangularContext
from .roadmap import (
    connectivity,
    graph_to_json_str,
    roadmap_bounded,
    roadmap_general,
)
from .solve import Budget

# what a failed step of the algorithm raises: the two typed errors, and the
# arithmetic or value error of a step that has no route left
_ALGORITHM_ERRORS = (ResourceBudgetError, SeparationError, ArithmeticError, ValueError)


def _read_poly_file(path):
    """(variables, polynomials) of a -f file; a file that cannot be read
    raises OSError, a malformed one PolyParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_poly_file(fh.read())


def _product(polys):
    out = None
    for p in polys:
        out = p if out is None else out * p
    return out


def _load_point(path, variables):
    """RUR record: {"uvar": name, "f": poly, "signs": [ints], "F": [polys]}.
    Polynomials are strings in the CLI text syntax over (uvar,).  F holds
    the denominator and one numerator per variable, the signs must fix a
    real root of f, and the denominator must not vanish there.  A field of
    another JSON type, a polynomial that does not parse, a wrong length of
    F or a denominator that vanishes at the root raises ValueError, signs
    of no root EmptyEncodingError (a ValueError); a file that cannot be
    read raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a point record is a JSON object")
    uvar, f, signs, F = data["uvar"], data["f"], data["signs"], data["F"]
    if not (isinstance(uvar, str) and isinstance(f, str)
            and isinstance(signs, list) and all(type(s) is int for s in signs)
            and isinstance(F, list) and all(isinstance(g, str) for g in F)):
        raise ValueError('"uvar" and "f" are strings, "signs" a list of ints '
                         'and "F" a list of strings')
    F = tuple(parse_poly(g, (uvar,)) for g in F)
    if len(F) != len(variables) + 1:
        raise ValueError(f"F has {len(F)} entries, not {len(variables) + 1}")
    u = RealUnivRep(TriangularContext(QRING), uvar, parse_poly(f, (uvar,)), tuple(signs),
                    F, tuple(variables))
    at_root = u.extended_context()
    at_root.level_solver()
    if at_root.sign_mpoly(F[0]) == 0:
        raise ValueError("the denominator F[0] vanishes at the root of f")
    return u


def cmd_components(args):
    try:
        variables, polys = _read_poly_file(args.file)
    except (OSError, PolyParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    P = _product(polys)
    budget = Budget()
    try:
        A = [] if args.no_anchors else sample_components(
            [P], xvars=variables, budget=budget, seed=args.seed)
        if args.general:
            graph = roadmap_general(P, A, kprime=args.dim_bound,
                                    budget=budget, seed=args.seed)
        else:
            graph = roadmap_bounded(P, A, kprime=args.dim_bound,
                                    budget=budget, seed=args.seed)
    except _ALGORITHM_ERRORS as e:
        print(f"algorithm error: {e}", file=sys.stderr)
        return 3
    print(graph.component_count())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(graph_to_json_str(graph))
    return 0


def cmd_connect(args):
    try:
        variables, polys = _read_poly_file(args.file)
    except (OSError, PolyParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    P = _product(polys)
    try:
        p1 = _load_point(args.p1, variables)
        p2 = _load_point(args.p2, variables)
    except (OSError, KeyError, ValueError) as e:
        # ValueError covers json.JSONDecodeError, a record that is not an
        # object, PolyParseError, a wrong length of F and EmptyEncodingError
        print(f"point parse error: {e}", file=sys.stderr)
        return 2
    for u in (p1, p2):
        if rur_sign(u, P) != 0:
            print("point not on the variety", file=sys.stderr)
            return 4
    budget = Budget()
    try:
        A = sample_components([P], xvars=variables, budget=budget, seed=args.seed)
        graph = roadmap_bounded(P, A + [p1, p2], kprime=args.dim_bound,
                                budget=budget, seed=args.seed)
        connected, path = connectivity(graph, p1, p2)
    except _ALGORITHM_ERRORS as e:
        print(f"algorithm error: {e}", file=sys.stderr)
        return 3
    if connected:
        segs = [str(eid) for kind, eid in path if kind == "edge"]
        print("connected" + (" " + " ".join(segs) if segs else ""))
    else:
        print("disconnected")
    return 0


def cmd_oracle(args):
    try:
        variables, polys = _read_poly_file(args.file)
    except (OSError, PolyParseError) as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    from .oracle import MeshConfig, grid_components

    P = _product(polys)
    cfg = MeshConfig(box=QQ(args.box), h=QQ(args.grid), tau=QQ(args.tau))
    try:
        count, cloud = grid_components(P, cfg)
    except (MemoryError, ValueError) as e:
        print(f"oracle error: {e}", file=sys.stderr)
        return 3
    print(count)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            for pt, label in cloud:
                fh.write(",".join(str(c) for c in pt) + f",{label}\n")
    return 0


def _rat(text):
    if "/" in text:
        a, b = text.split("/")
        return QQ(int(a), int(b))
    return QQ(int(text))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="dcroadmap",
                                 description="Exact roadmaps of real algebraic sets")
    ap.add_argument("--seed", type=int, default=0,
                    help="fixes all randomized choices (separating forms)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c1 = sub.add_parser("components", help="count connected components")
    c1.add_argument("-f", "--file", required=True)
    c1.add_argument("--dim-bound", type=int, default=None)
    c1.add_argument("--general", action="store_true",
                    help="force the unbounded reduction")
    c1.add_argument("--no-anchors", action="store_true",
                    help="run with an empty anchor set")
    c1.add_argument("-o", "--output", default=None, help="write roadmap JSON")
    c1.set_defaults(fn=cmd_components)

    c2 = sub.add_parser("connect", help="decide point connectivity")
    c2.add_argument("-f", "--file", required=True)
    c2.add_argument("--p1", required=True)
    c2.add_argument("--p2", required=True)
    c2.add_argument("--dim-bound", type=int, default=None)
    c2.set_defaults(fn=cmd_connect)

    c3 = sub.add_parser("oracle", help="grid-mesh component count")
    c3.add_argument("-f", "--file", required=True)
    c3.add_argument("--grid", type=_rat, default=QQ(1, 100))
    c3.add_argument("--tau", type=_rat, default=QQ(1, 20))
    c3.add_argument("--box", type=_rat, default=QQ(2))
    c3.add_argument("--csv", default=None)
    c3.set_defaults(fn=cmd_oracle)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
