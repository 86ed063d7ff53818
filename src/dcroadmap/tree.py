"""The divide-and-conquer recursion tree: node bookkeeping, breadth-first
expansion through Divide, the neighbor relation on leaf strings, and the
leaf-set accessors."""

from __future__ import annotations

from dataclasses import dataclass, field

from .divide import DivideInput, DivideOutput, divide, _fiber_var, _subst_block
from .mpoly import MPoly
from .points import RealUnivRep, coordinate_encoding_cached, dedupe_points
from .realroots import TriangularContext, compare_roots
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
    divide_output: DivideOutput = None

    @property
    def level(self):
        return len(self.s)

    @property
    def fix_count(self):
        return sum(1 for b in self.s if b == 1)

    @property
    def Fix(self):
        t = len(self.s)
        return sum(self.kprime // (2 ** (i + 1)) for i, b in enumerate(self.s) if b == 1)

    def is_leaf(self):
        return 2 ** self.level >= self.kprime

    def path(self):
        return "".join(str(b) for b in self.s)


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
    inp = DivideInput(node.s, node.base, node.P, node.Q, node.A, node.xvars,
                      node.kprime, budget=budget, seed=seed)
    out = divide(inp)
    node.divide_output = out
    ell = (node.kprime // (2 ** node.level)) // 2
    # left children: one per chart
    for alpha, P0, Q0, A_alpha in out.charts:
        child = TreeNode(node.s + (0,), node.base, list(node.W), list(P0),
                         list(Q0), list(A_alpha), node.xvars, node.kprime)
        node.children.append(child)
    # right children: one per fiber coordinate w in N
    block = list(node.xvars[:ell])
    rest = tuple(node.xvars[ell:])
    for idx, w in enumerate(out.N):
        tvar = _fiber_var(w)
        ren = {w.uvar: MPoly.var(w.f.ring, (tvar,), tvar)}
        lvl_poly = w.f.subst(ren)
        ctx_w = node.base.to_ering().extend(tvar, lvl_poly, w.sigma)
        P_m = [q for q in (_subst_block(pp, block, w) for pp in out.Ptilde)
               if not q.is_zero()]
        Q_m = [_subst_block(qq, block, w) for qq in out.Qtilde]
        A_m = list(out.B.get(idx, []))
        for a in out.Atilde:
            if _proj_matches(a, w, ell):
                A_m.append(_restrict_point(a, ctx_w, ell, rest))
        child = TreeNode(node.s + (1,), ctx_w, list(node.W) + [w], P_m, Q_m,
                         dedupe_points(A_m), rest, node.kprime)
        node.children.append(child)


def _proj_matches(a, w, ell):
    try:
        for i in range(1, ell + 1):
            ea = coordinate_encoding_cached(a, i)
            ew = coordinate_encoding_cached(w, i)
            if compare_roots(ea, ew) != 0:
                return False
        return True
    except (ValueError, ArithmeticError):
        return False


def _restrict_point(a, ctx_w, ell, rest):
    """Re-express a point whose projection equals w over the w-extended
    context (the representation is unchanged; only the base grows)."""
    return RealUnivRep(ctx_w, a.uvar, a.f, a.sigma,
                       (a.F[0],) + tuple(a.F[ell + 1:]), rest)


def neighbors(s1, s2, t=None):
    """The neighbor relation N_t on leaf strings: reflexive, symmetric,
    generated by 0 N_1 1, the two prefix rules, and 01^(t-1) N_t 1^t."""
    s1 = tuple(int(b) for b in s1)
    s2 = tuple(int(b) for b in s2)
    if t is None:
        t = len(s1)
    if len(s1) != t or len(s2) != t:
        raise ValueError("length mismatch")
    if s1 == s2:
        return True
    if t == 1:
        return {s1[0], s2[0]} == {0, 1}
    if s1[0] == 0 and s2[0] == 0:
        return neighbors(s1[1:], s2[1:], t - 1)
    if s1[0] == 1 and s2[0] == 1:
        return s1 == s2
    special = {(0,) + (1,) * (t - 1), (1,) * t}
    return {s1, s2} == special


def leaf_sets(tree: Tree, n: TreeNode):
    """(Leav(n), Leav0(n), Leav1(n)) per the subtree rooted at n."""
    prefix = n.s
    L = [m for m in tree.leaves() if m.s[: len(prefix)] == prefix]
    L0 = [m for m in L if all(b == 0 for b in m.s[len(prefix):])]
    L1 = [m for m in L if all(b == 1 for b in m.s[len(prefix):])]
    return L, L0, L1
