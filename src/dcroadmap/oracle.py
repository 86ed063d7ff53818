"""Independent brute-force ground truth for tests: mesh-based connectivity
(test oracle only; never a primary path)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .infring import QQ


@dataclass
class MeshConfig:
    box: QQ = QQ(2)
    h: QQ = QQ(1, 100)
    tau: QQ = QQ(1, 20)
    max_cells: int = 4_000_000


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _poly_to_numpy_eval(P, variables):
    pos = {v: i for i, v in enumerate(variables)}
    terms = []
    for m, c in P.terms.items():
        sparse = tuple((pos[P.vars[i]], e) for i, e in enumerate(m) if e)
        terms.append((sparse, float(Fraction(int(c.numerator), int(c.denominator)))))

    def ev(grids):
        acc = np.zeros_like(grids[0], dtype=float)
        for sparse, c in terms:
            t = np.full_like(grids[0], c, dtype=float)
            for i, e in sparse:
                t = t * grids[i] ** e
            acc = acc + t
        return acc

    return ev


def grid_components(P, cfg: MeshConfig = None):
    """Union-find components of {|P| <= tau} over cell centers of a uniform
    grid on [-R, R]^k with 2k-neighborhood adjacency.

    Exact rational evaluation is used for membership (float evaluation is a
    prefilter); returns (count, labeled point cloud)."""
    cfg = cfg or MeshConfig()
    variables = [v for v in P.vars if P.degree(v) > 0]
    k = len(variables)
    if k == 0:
        return (0, []) if P.ring.sign(P.const_value()) != 0 else (1, [tuple()])
    if k > 3:
        raise ValueError("grid oracle supports k <= 3")
    R = QQ(cfg.box)
    h = QQ(cfg.h)
    n = int((2 * R) / h)
    if n ** k > cfg.max_cells:
        raise MemoryError("grid resolution exceeds the cell budget")
    centers = [R * (-1) + h * (i + QQ(1, 2)) for i in range(n)]
    centers_f = np.array([float(Fraction(int(c.numerator), int(c.denominator)))
                          for c in centers])
    ev = _poly_to_numpy_eval(P, variables)
    tau_f = float(Fraction(int(QQ(cfg.tau).numerator), int(QQ(cfg.tau).denominator)))
    grids = np.meshgrid(*([centers_f] * k), indexing="ij")
    vals = np.abs(ev(grids))
    # float prefilter with a safety margin, exact confirmation at the margin
    sure_in = vals <= tau_f * 0.98
    boundary = (vals > tau_f * 0.98) & (vals <= tau_f * 1.02)
    mask = sure_in.copy()
    if boundary.any():
        idxs = np.argwhere(boundary)
        for idx in idxs:
            assign = {variables[i]: centers[idx[i]] for i in range(k)}
            val = P.eval_rational(assign)
            if abs(val) <= QQ(cfg.tau):
                mask[tuple(idx)] = True
    cells = np.argwhere(mask)
    index_of = {tuple(c): i for i, c in enumerate(map(tuple, cells))}
    uf = UnionFind(len(cells))
    for ci, cell in enumerate(map(tuple, cells)):
        for dim in range(k):
            nb = list(cell)
            nb[dim] += 1
            nb = tuple(nb)
            if nb in index_of:
                uf.union(ci, index_of[nb])
    roots = {}
    cloud = []
    for ci, cell in enumerate(map(tuple, cells)):
        r = uf.find(ci)
        roots.setdefault(r, len(roots))
        pt = tuple(float(centers_f[cell[i]]) for i in range(k))
        cloud.append((pt, roots[r]))
    return len(roots), cloud
