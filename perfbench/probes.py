"""Inputs the benchmark has no workload for, and why.

Each probe runs in a child interpreter with a time limit; the child is killed
when the limit passes.  Run from the repository root:

    python3 perfbench/probes.py            # every probe, 60 s each
    python3 perfbench/probes.py --timeout 300 unit_sphere

A probe that starts to answer within seconds is ready to become a workload
(see README.md).
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (what it would exercise, variables, equations, roadmap call, expected
# number of components)
PROBES = {
    "unit_sphere": ("tree/divide/critloci/optimsub: k=3 with kprime=2",
                    ("x", "y", "z"), ("x^2 + y^2 + z^2 - 1",), "bounded2", 1),
    "line_general": ("roadmap_general on an unbounded curve",
                     ("x", "y"), ("x - y",), "general", 1),
    "quartic": ("a degree-4 plane curve",
                ("x", "y"), ("x^4 + y^4 - 1",), "bounded1", 1),
    "circle_in_x_plane": ("a space curve inside a plane x = c (wrong answer)",
                          ("x", "y", "z"), ("x^2 + y^2 + z^2 - 1", "x"), "bounded1", 1),
}


def run_one(name):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from dcroadmap.mpoly import parse_poly
    from dcroadmap.points import sample_components
    from dcroadmap.roadmap import roadmap_bounded, roadmap_general

    _, variables, equations, call, _expected = PROBES[name]
    polys = [parse_poly(e, variables) for e in equations]
    target = polys[0] if len(polys) == 1 else polys
    if call == "general":
        graph = roadmap_general(target, [])
    else:
        anchors = sample_components(polys, xvars=variables)
        graph = roadmap_bounded(target, anchors, kprime=2 if call == "bounded2" else 1)
    print(graph.component_count())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help=f"any of {', '.join(PROBES)}")
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--one", choices=PROBES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        run_one(args.one)
        return 0
    unknown = set(args.names) - set(PROBES)
    if unknown:
        ap.error(f"unknown probes: {', '.join(sorted(unknown))}")
    for name in args.names or PROBES:
        what, _v, equations, _c, expected = PROBES[name]
        cmd = [sys.executable, "-B", os.path.abspath(__file__), "--one", name]
        t = time.perf_counter()
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=args.timeout)
        except subprocess.TimeoutExpired:
            print(f"{name}: no answer within {args.timeout:g} s ({what})")
            continue
        took = time.perf_counter() - t
        if done.returncode != 0:
            err = done.stderr.strip().splitlines()[-1:] or ["?"]
            print(f"{name}: failed after {took:.1f} s: {err[0]} ({what})")
            continue
        got = int(done.stdout.split()[-1])
        verdict = "right" if got == expected else f"WRONG, expected {expected}"
        print(f"{name}: {got} components in {took:.1f} s, {verdict} ({what}; "
              f"{' ; '.join(equations)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
