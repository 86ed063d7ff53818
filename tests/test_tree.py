from dcroadmap.mpoly import parse_poly
from dcroadmap.points import sample_components
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
