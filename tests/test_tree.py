from dcroadmap import tree
from dcroadmap.divide import DivideOutput
from dcroadmap.mpoly import QRING, parse_poly
from dcroadmap.points import RealUnivRep, rur_sign, sample_components
from dcroadmap.realroots import TriangularContext, _ext_context_for
from dcroadmap.tree import TreeNode, build_tree

XY = ("x", "y")


def test_build_tree_kprime1_is_single_leaf():
    circle = parse_poly("x^2 + y^2 - 1", XY)
    A = sample_components([circle])
    tree = build_tree([circle], A, 1, xvars=XY)
    assert len(tree.nodes) == 1
    assert tree.root.is_leaf()
    assert tree.leaves() == [tree.root]
    assert tree.root.A == A


def test_tree_node_invariants():
    n = TreeNode((1, 0, 1), None, [], [], ["q1"], [], ("x",), 8)
    assert n.level == 3
    assert n.fix_count == 2
    # Fix = sum over set bits of kprime/2^i = 8/2 + 8/8 = 5
    assert n.Fix == 5
    assert n.is_leaf()  # level == log2(kprime)
    assert not TreeNode((1, 0, 1), None, [], [], ["q"], [], ("x",), 16).is_leaf()


def test_a_right_child_lives_over_its_fiber_point(monkeypatch):
    # Divide stubbed: one fiber coordinate w (x = 1) and one point a of A~
    # over it, (1, 0, sqrt(3)) on the sphere of radius 2; the right child
    # lives over the base extended by w's root, on the circle left in (y, z)
    XYZ = ("x", "y", "z")
    w = RealUnivRep(TriangularContext(QRING), "U", parse_poly("U - 1", ("U",)), (0, 1),
                    (parse_poly("1", ("U",)), parse_poly("U", ("U",))), ("x",))
    V = ("V",)
    a = RealUnivRep(TriangularContext(QRING), "V", parse_poly("V^2 - 3", V), (0, 1, 1),
                    tuple(parse_poly(t, V) for t in ("1", "1", "0", "V")), XYZ)
    ctx_w = _ext_context_for(w.root.renamed("Tf_U"))
    sphere = parse_poly("x^2 + y^2 + z^2 - 4", XYZ)
    out = DivideOutput([sphere], [], [a], [w], {0: []}, [ctx_w], [])
    monkeypatch.setattr(tree, "divide", lambda node, budget, seed: out)
    node = TreeNode((), TriangularContext(QRING), [], [sphere], [], [], XYZ, 2)
    tree._expand(node, None, 0)
    [child] = node.children
    assert child.base == ctx_w and child.xvars == ("y", "z") and child.W == [w]
    [circle] = child.P
    assert circle == parse_poly("Tf_U^2 + y^2 + z^2 - 4", ("Tf_U", "y", "z"))
    [anchor] = child.A
    assert anchor.base == ctx_w and anchor.xvars == ("y", "z")
    assert rur_sign(anchor, circle) == 0 and rur_sign(anchor, parse_poly("z^2 - 3", ("z",))) == 0
