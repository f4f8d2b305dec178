import pytest

from instance_tools import seeded_wadge_instance
from truestages import cli
from truestages.hierarchy import UpsetRep, eval_at
from truestages.jump import DefaultOperator
from truestages.ordinals import parse_ordinal, render
from truestages.stages import TrueStageSystem
from truestages.universe import Universe, seq_str
from truestages.wadge import (
    decomposition_eval,
    wadge_tree,
)

W = parse_ordinal("w")


@pytest.fixture(scope="module")
def sys_():
    return TrueStageSystem(DefaultOperator())


def upset_where(uni, lam, pred):
    """Upward-closed set given by a property of sequences themselves.

    Every sequence satisfying the property is its own generator, so
    membership never depends on reaching back to a shorter stage.
    """
    return UpsetRep(lam, frozenset(s for s in uni.all_seqs() if pred(s)))


@pytest.fixture(scope="module")
def first_entry(sys_):
    uni = Universe(3, 3)
    w1 = upset_where(uni, W, lambda s: bool(s) and s[0] in (0, 1))
    w0 = upset_where(uni, W, lambda s: bool(s) and s[0] == 2)
    return uni, w0, w1, wadge_tree(sys_, w0, w1, W, uni)


def test_first_entry_rank_one(first_entry):
    _, _, _, tree = first_entry
    assert tree.kind == "internal"
    assert tree.rank == 1
    assert all(c.kind == "leaf" and c.rank == 0 for c in tree.children)


def test_first_entry_children_sit_one_step_up(sys_, first_entry):
    _, _, _, tree = first_entry
    assert sys_.height((), W) == 0
    for child in tree.children:
        assert sys_.height(child.node, W) == 1
    assert render(tree.separator_level) == "2"


def test_first_entry_children_may_skip_lengths(first_entry):
    _, _, _, tree = first_entry
    nodes = {c.node for c in tree.children}
    assert (0,) in nodes
    assert (2, 0) in nodes
    assert any(len(n) == 3 for n in nodes)


def test_first_entry_eval_examples(sys_, first_entry):
    _, _, _, tree = first_entry
    assert decomposition_eval(sys_, tree, (0, 2, 1)) is True
    assert decomposition_eval(sys_, tree, (2, 0, 0)) is False


def test_first_entry_eval_agrees_everywhere(sys_, first_entry):
    uni, _, w1, tree = first_entry
    for x in uni.maximal():
        assert decomposition_eval(sys_, tree, x) == eval_at(sys_, w1, x)


def test_first_entry_no_separator_matches_root(sys_, first_entry):
    _, _, _, tree = first_entry
    with pytest.raises(ValueError, match=r"0 separators match \[\] at node \[\]"):
        decomposition_eval(sys_, tree, ())


def test_separators_pairwise_disjoint(sys_, first_entry):
    uni, _, _, tree = first_entry
    stack = [tree]
    while stack:
        t = stack.pop()
        if t.kind != "internal":
            continue
        stack.extend(t.children)
        for s in uni.all_seqs():
            hits = sum(1 for sep in t.separators if eval_at(sys_, sep, s))
            assert hits <= 1


def test_decided_root_is_a_single_leaf(sys_):
    uni = Universe(2, 2)
    w1 = upset_where(uni, W, lambda s: True)
    w0 = upset_where(uni, W, lambda s: False)
    tree = wadge_tree(sys_, w0, w1, W, uni)
    assert tree.kind == "leaf"
    assert tree.rank == 0
    assert tree.value == 1
    assert render(tree.witness_level) == "1"


def test_overlap_is_rejected(sys_):
    uni = Universe(2, 2)
    full = upset_where(uni, W, lambda s: True)
    with pytest.raises(ValueError, match=r"W0 and W1 overlap at \[\]"):
        wadge_tree(sys_, full, full, W, uni)


def test_uncovered_maximal_is_rejected(sys_):
    uni = Universe(3, 3)
    w1 = upset_where(uni, W, lambda s: bool(s) and s[0] == 2)
    w0 = upset_where(uni, W, lambda s: bool(s) and s[0] == 0)
    with pytest.raises(ValueError, match=r"maximal sequence \[1,0,0\] is uncovered"):
        wadge_tree(sys_, w0, w1, W, uni)


def test_non_limit_level_is_rejected(sys_):
    uni = Universe(2, 2)
    three = parse_ordinal("3")
    w1 = upset_where(uni, three, lambda s: True)
    w0 = upset_where(uni, three, lambda s: False)
    with pytest.raises(ValueError, match="3 is not a limit level"):
        wadge_tree(sys_, w0, w1, three, uni)


def test_mismatched_set_level_is_rejected(sys_):
    uni = Universe(2, 2)
    w1 = upset_where(uni, parse_ordinal("2"), lambda s: True)
    w0 = upset_where(uni, W, lambda s: False)
    with pytest.raises(ValueError, match="W1 lives at level 2, expected w"):
        wadge_tree(sys_, w0, w1, W, uni)


def test_second_entry_split_has_rank_two(sys_):
    uni = Universe(3, 2)
    w1 = upset_where(uni, W, lambda s: len(s) >= 2 and s[1] == 1)
    w0 = upset_where(uni, W, lambda s: len(s) >= 2 and s[1] == 0)
    tree = wadge_tree(sys_, w0, w1, W, uni)
    assert tree.rank == 2
    for x in uni.maximal():
        assert decomposition_eval(sys_, tree, x) == eval_at(sys_, w1, x)


def test_tree_to_json_mirrors_the_tree(sys_):
    uni = Universe(3, 2)
    w1 = upset_where(uni, W, lambda s: len(s) >= 2 and s[1] == 1)
    w0 = upset_where(uni, W, lambda s: len(s) >= 2 and s[1] == 0)
    tree = wadge_tree(sys_, w0, w1, W, uni)

    def check(node, data):
        assert (data["node"], data["kind"], data["rank"]) == (
            list(node.node), node.kind, node.rank)
        if node.kind == "leaf":
            assert data["value"] == node.value
            assert data["witnessLevel"] == render(node.witness_level)
            return
        assert data["separatorLevel"] == render(node.separator_level)
        assert tuple(cli._upset_from_json(s, "separators", uni.alphabet)
                     for s in data["separators"]) == node.separators
        assert len(data["children"]) == len(node.children)
        for child, child_data in zip(node.children, data["children"]):
            check(child, child_data)

    check(tree, cli._tree_to_json(tree))


@pytest.mark.parametrize("seed", range(6))
def test_seeded_instances_evaluate_correctly(sys_, seed):
    uni = Universe(3, 2)
    w0, w1, tree = seeded_wadge_instance(sys_, uni, W, seed)
    assert tree.rank >= 1
    for x in uni.maximal():
        assert decomposition_eval(sys_, tree, x) == eval_at(sys_, w1, x)


def ref_children(sys_, uni, lam, node):
    """A node's children by the straight-line scan of the whole universe."""
    k = sys_.height(node, lam)
    return sorted(
        tau for tau in uni.all_seqs()
        if len(tau) > len(node)
        and sys_.height(tau, lam) == k + 1
        and sys_.leq(node, tau, lam)
    )


def ref_eval(sys_, tree, x):
    """The walk with one eval_at per separator."""
    while tree.kind == "internal":
        matches = [i for i, sep in enumerate(tree.separators) if eval_at(sys_, sep, x)]
        if len(matches) != 1:
            raise ValueError(
                f"{len(matches)} separators match {seq_str(x)} at node {seq_str(tree.node)}"
            )
        tree = tree.children[matches[0]]
    return bool(tree.value)


def outcome(walk, sys_, tree, x):
    """The walk's answer, or the message it fails with."""
    try:
        return walk(sys_, tree, x)
    except ValueError as exc:
        return str(exc)


REFERENCE_INSTANCES = [
    *((Universe(3, 2), "w", seed) for seed in range(6)),
    (Universe(4, 3), "w*2", 0),
]


@pytest.mark.parametrize("uni, lam, seed", REFERENCE_INSTANCES,
                         ids=lambda v: f"{v.max_len}x{v.alphabet}" if isinstance(v, Universe) else str(v))
def test_tree_and_walk_match_the_straight_line_reference(sys_, uni, lam, seed):
    lam = parse_ordinal(lam)
    _, _, tree = seeded_wadge_instance(sys_, uni, lam, seed)
    internal = 0
    stack = [tree]
    while stack:
        t = stack.pop()
        if t.kind != "internal":
            continue
        internal += 1
        assert [c.node for c in t.children] == ref_children(sys_, uni, lam, t.node), t.node
        stack.extend(t.children)
    assert internal >= 1
    for x in uni.all_seqs():
        assert outcome(decomposition_eval, sys_, tree, x) == outcome(ref_eval, sys_, tree, x), x
