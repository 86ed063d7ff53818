"""Seeded benchmark inputs with ground truth known from their construction.

Every instance is a product of conics (plane) or quadrics cut by a plane
(space) whose connected components are known analytically, so each answer
can be checked without trusting the code under test.  The same (workload,
seed) always yields the same instance stream.

Each workload cycles through a fixed template of instance classes; the seed
draws the data of every slot from small sets of variants of similar cost
(mirror images, nearby radii).  Keeping the class of each slot fixed keeps the
cost of a run comparable across seeds, which a regression gate needs; the
seed still changes every polynomial.  Instances never repeat within a stream,
so the library's caches only help within one request.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

XY = ("x", "y")
XYZ = ("x", "y", "z")


@dataclass(frozen=True)
class Instance:
    """One build request: equations as text plus the expected answer."""

    kind: str
    variables: tuple
    equations: tuple  # polynomial texts in the CLI syntax
    components: int  # number of connected components, from the construction
    conics: tuple = ()  # plane only: the factors, one per conic


def _q(v):
    """Exact rational written in the polynomial syntax."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _shift(var, c):
    c = Fraction(c)
    if c == 0:
        return var
    return f"({var} - {_q(c)})" if c > 0 else f"({var} + {_q(-c)})"


def conic(cx, a, b=None):
    """Axis-aligned ellipse centered at (cx, 0) with semi-axes a (along x)
    and b (along y); a circle when b is omitted."""
    b = a if b is None else b
    a2, b2 = Fraction(a) ** 2, Fraction(b) ** 2
    if a2 == b2:
        return f"{_shift('x', cx)}^2 + y^2 - {_q(a2)}"
    return f"{_times(b2)}{_shift('x', cx)}^2 + {_times(a2)}y^2 - {_q(a2 * b2)}"


def _times(c):
    return "" if c == 1 else f"{_q(c)}*"


def _product(factors):
    return "*".join(f"({f})" for f in factors)


# ---------------------------------------------------------------------------
# plane curves

# Slot classes of one plane_curves cycle.  Singles are the majority of every
# prefix a run can end on, so the median latency is a single's on every seed.
# The slowest class, a crossing, starts about 25 s into the cycle and is the
# request in flight at a 30 s deadline: its own noise then moves throughput
# only through the share of it done by the deadline, not through the start
# of every later request.
PLANE_TEMPLATE = ("single", "disjoint", "single", "single", "tangent", "single",
                  "crossing", "single", "single")

# The unit circle is left out: it is a factor of every pair, and a single that
# repeats it is answered from the library's caches in a fraction of the time.
_SINGLES = tuple(conic(0, *axes) for axes in (
    (3,), (Fraction(1, 2),), (2, 1), (1, 2), (Fraction(1, 2), 1), (3, 1), (1, 3)))


def plane_instance(rng, kind):
    if kind == "single":
        f = rng.choice(_SINGLES)
        return Instance(kind, XY, (f,), 1, (f,))
    side = rng.choice((1, -1))
    if kind == "crossing":  # unit circles a unit apart: two transversal crossings
        r2, d, comps = Fraction(1), Fraction(1), 1
    elif kind == "tangent":  # touching from outside at one point
        r2 = rng.choice((Fraction(1), Fraction(1, 2)))
        d, comps = 1 + r2, 1
    else:  # disjoint
        r2 = Fraction(1)
        d, comps = 1 + r2 + rng.choice((Fraction(1), Fraction(2))), 2
    factors = (conic(0, 1), conic(side * d, r2))
    return Instance(kind, XY, (_product(factors),), comps, factors)


# ---------------------------------------------------------------------------
# space curves

# Slot classes of one space_curves cycle.  A great circle is the cheapest
# class (about 1.5 s against 2 to 4 s for the others), and two slots in three
# are great circles, so the median latency of every run is a great circle's,
# well inside that class rather than at its border with a dearer one.
SPACE_TEMPLATE = ("sphere_plane", "two_spheres_plane", "sphere_plane", "sphere_plane",
                  "cylinder_plane", "sphere_plane", "sphere_plane", "sphere_offset_plane",
                  "sphere_plane", "sphere_plane", "two_cylinders_plane", "sphere_plane")


def _sphere(cx, r):
    return f"{_shift('x', cx)}^2 + y^2 + z^2 - {_q(Fraction(r) ** 2)}"


def _cylinder(cx, r):
    return f"{_shift('x', cx)}^2 + y^2 - {_q(Fraction(r) ** 2)}"


def space_instance(rng, kind):
    """A curve in R^3 cut out by two equations.  No plane is of the form
    x = c: see README.md, "Known wrong answers"."""
    # No instance is a component of another one in the stream (great circles
    # use other radii than the pairs of spheres, single cylinders are never
    # cut at z = 0): the library's caches would answer such a repeat in a
    # fraction of the time.
    var = rng.choice(("y", "z"))
    if kind == "sphere_plane":  # a great circle
        return Instance(kind, XYZ, (_sphere(0, rng.randrange(4, 16)), var), 1)
    r = rng.choice((1, 2, 3))
    if kind == "sphere_offset_plane":  # a smaller circle
        c = rng.choice((Fraction(1, 2), -Fraction(1, 2))) * r
        return Instance(kind, XYZ, (_sphere(0, r), _shift(var, c)), 1)
    if kind == "cylinder_plane":  # a circle around the z axis
        return Instance(kind, XYZ, (_cylinder(0, r), _shift("z", rng.choice((1, -1)))), 1)
    # two disjoint solids of revolution cut through their centres: two circles
    side = rng.choice((1, -1)) * (2 * r + rng.choice((1, 2)))
    make = _sphere if kind == "two_spheres_plane" else _cylinder
    solids = _product((make(0, r), make(side, r)))
    return Instance(kind, XYZ, (solids, var if make is _sphere else "z"), 2)


# ---------------------------------------------------------------------------
# streams


def instance_stream(workload, seed):
    """Endless, deterministic, repetition-free instances for a build
    workload."""
    template, make = {
        "plane_curves": (PLANE_TEMPLATE, plane_instance),
        "space_curves": (SPACE_TEMPLATE, space_instance),
    }[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    i = 0
    while True:
        kind = template[i % len(template)]
        for _attempt in range(1000):
            inst = make(rng, kind)
            if inst.equations not in seen:
                break
        else:
            # every variant of this slot is used up: scale the last draw by
            # a fresh factor so the stream stays repetition-free
            inst = _scaled(inst, i)
        seen.add(inst.equations)
        yield inst
        i += 1


def _scaled(inst, i):
    """The same curve with every equation multiplied by a fresh constant;
    the zero set and the answer are unchanged."""
    k = i + 2
    eqs = tuple(f"{k}*({e})" for e in inst.equations)
    conics = tuple(f"{k}*({c})" for c in inst.conics)
    return Instance(inst.kind, inst.variables, eqs, inst.components, conics)


def first_instances(workload, seed, n):
    return list(itertools.islice(instance_stream(workload, seed), n))


# ---------------------------------------------------------------------------
# connectivity queries


def connect_curve(seed):
    """Two disjoint unit circles one unit apart on the x axis, the second to
    the right or to the left of the first.  Query cost depends on the vertex
    coordinates, so the seed only picks between these mirror images (and the
    query order).  Returns (equation text, conic texts)."""
    rng = random.Random(f"connect_queries:{seed}")
    d = 3 * rng.choice((1, -1))
    factors = (conic(0, 1), conic(d, 1))
    return _product(factors), factors


def query_order(seed, npairs):
    """Endless indices into the pair list: each round visits every pair
    once, in a fresh seeded order."""
    rng = random.Random(f"connect_queries:order:{seed}")
    while True:
        idx = list(range(npairs))
        rng.shuffle(idx)
        yield from idx


# One small input per workload, for smoke runs and for warming up a process
# before it is timed; none of them occurs in a stream.
_SMALL_CIRCLE = Instance("single", XY, ("x^2 + y^2 - 1/9",), 1, ("x^2 + y^2 - 1/9",))
SMALL = {
    "plane_curves": _SMALL_CIRCLE,
    "space_curves": Instance("cylinder_plane", XYZ, ("x^2 + y^2 - 1/9", "z"), 1),
    "connect_queries": _SMALL_CIRCLE,
}
