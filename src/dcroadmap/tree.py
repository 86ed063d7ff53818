"""The divide-and-conquer recursion tree: node bookkeeping and breadth-first
expansion through Divide."""

from __future__ import annotations

from dataclasses import dataclass, field

from .divide import divide, _subst_block
from .points import dedupe_points, points_equal
from .realroots import TriangularContext
from .solve import DEFAULT_BUDGET


@dataclass
class TreeNode:
    s: tuple
    base: TriangularContext
    W: list
    P: list
    Q: list
    A: list
    xvars: tuple
    kprime: int
    children: list = field(default_factory=list)

    @property
    def level(self):
        return len(self.s)

    @property
    def fix_count(self):
        return sum(1 for b in self.s if b == 1)

    @property
    def Fix(self):
        return sum(self.kprime // (2 ** (i + 1)) for i, b in enumerate(self.s) if b == 1)

    def is_leaf(self):
        return 2 ** self.level >= self.kprime


@dataclass
class Tree:
    root: TreeNode
    nodes: list

    def leaves(self):
        return [n for n in self.nodes if n.is_leaf()]


def _round_up_pow2(k):
    n = 1
    while n < k:
        n *= 2
    return n


def build_tree(P, A, kprime, xvars=None, budget=None, seed=0):
    """Breadth-first construction of Tree(V, A).

    kprime is rounded up to a power of two (strong dimension <= a implies
    <= b for b >= a); depth is log2(kprime)."""
    budget = budget or DEFAULT_BUDGET
    system = P if isinstance(P, list) else [P]
    if xvars is None:
        xvars = tuple(system[0].vars)
    kprime = _round_up_pow2(max(kprime, 1))
    root = TreeNode((), TriangularContext(system[0].ring), [], list(system),
                    [], list(A), tuple(xvars), kprime)
    nodes = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            if node.is_leaf():
                continue
            _expand(node, budget, seed)
            nodes.extend(node.children)
            nxt.extend(node.children)
        frontier = nxt
    return Tree(root, nodes)


def _expand(node: TreeNode, budget, seed):
    out = divide(node, budget, seed)
    ell = (node.kprime // (2 ** node.level)) // 2
    # left children: one per chart
    for alpha, P0, Q0, A_alpha in out.charts:
        child = TreeNode(node.s + (0,), node.base, list(node.W), list(P0),
                         list(Q0), list(A_alpha), node.xvars, node.kprime)
        node.children.append(child)
    # right children: one per fiber coordinate w in N, over the context
    # Divide's step 6 put w's fiber anchors over
    rest = tuple(node.xvars[ell:])
    for idx, w in enumerate(out.N):
        ctx_w = out.fibers[idx]
        P_m = [q for q in (_subst_block(pp, w, ctx_w) for pp in out.Ptilde)
               if not q.is_zero()]
        Q_m = [_subst_block(qq, w, ctx_w) for qq in out.Qtilde]
        A_m = list(out.B.get(idx, []))
        # a point of A~ over w keeps its own root; over the fiber context,
        # only its other coordinates remain
        A_m.extend(a.project(rest).over(ctx_w) for a in out.Atilde
                   if points_equal(a, w, upto=ell))
        child = TreeNode(node.s + (1,), ctx_w, list(node.W) + [w], P_m, Q_m,
                         dedupe_points(A_m), rest, node.kprime)
        node.children.append(child)
