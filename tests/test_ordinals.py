import copy
import functools
import pickle
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truestages import ordinals
from truestages.hierarchy import ApproxFn, mind_change_tree
from truestages.jump import DefaultOperator
from truestages.ordinals import (
    ONE,
    OMEGA,
    ZERO,
    CeilingError,
    OrdinalNotation,
    ParseError,
    classify,
    compare,
    enum_copy,
    from_int,
    fund_seq,
    kb_rank,
    parity,
    parse_ordinal,
    render,
    successor,
)
from truestages.stages import TrueStageSystem
from truestages.universe import Universe


def test_from_int_reads_the_interned_notation():
    assert from_int(0) is ZERO
    for n in list(range(1, 41)) + [10**30]:
        assert from_int(n) is OrdinalNotation(((ZERO, n),))
        assert from_int(n) is from_int(n)


def test_from_int_rejects_negatives_and_stores_nothing():
    before = from_int.cache_info().currsize
    with pytest.raises(ValueError, match="naturals only"):
        from_int(-1)
    assert from_int.cache_info().currsize == before


ROUND_TRIPS = [
    "0", "1", "17", "w", "w+1", "w+13", "w*2", "w*2+5", "w*9",
    "w^2", "w^2*3+w+4", "w^3+w^2*2+5", "w^5*4+w*7+2", "w^w",
]


@pytest.mark.parametrize("text", ROUND_TRIPS)
def test_parse_render_round_trip(text):
    assert render(parse_ordinal(text)) == text


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("3", 3), ("w", None), ("w+1", None),
])
def test_as_int_reads_finite_notations_only(text, value):
    nu = parse_ordinal(text)
    if value is None:
        with pytest.raises(ValueError, match=f"^{re.escape(text)} is not finite$"):
            nu.as_int()
    else:
        assert nu.as_int() == value


def test_term_structure():
    nu = parse_ordinal("w^2*3+w+4")
    assert nu.terms == ((from_int(2), 3), (ONE, 1), (ZERO, 4))


def test_sum_binds_to_outer_expression():
    # after ^ the sum continues only while exponents keep dropping
    assert len(parse_ordinal("w^2+w+4").terms) == 3
    assert parse_ordinal("w^w").terms == ((OMEGA, 1),)


@pytest.mark.parametrize(
    "bad",
    ["", "x", "01", "w^0", "w*0", "1+1", "w+w", "w+0", "+w", "w^", "w*",
     "2+w", "w^2+w^3", "1 + 1", "w^w*2", "w^w+1"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_ordinal(bad)


def test_ceiling_is_inclusive():
    assert render(parse_ordinal("w^w")) == "w^w"
    with pytest.raises(CeilingError):
        OrdinalNotation(((parse_ordinal("w^w"), 1),))
    above = ((OMEGA, 1), (ZERO, 1))  # w^w+1
    with pytest.raises(CeilingError):
        OrdinalNotation(above)
    assert above not in ordinals._INTERNED
    with pytest.raises(CeilingError):
        successor(parse_ordinal("w^w"))
    with pytest.raises(ParseError):
        parse_ordinal("w^w+1")


ORDERED_POOL = ["0", "1", "2", "15", "w", "w+1", "w+2", "w*2", "w*2+1", "w*3",
                "w^2", "w^2+w", "w^2*2", "w^3", "w^3+w^2", "w^w"]


def test_compare_on_ordered_pool():
    vals = [parse_ordinal(t) for t in ORDERED_POOL]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            want = 0 if i == j else (-1 if i < j else 1)
            assert compare(a, b) == want, (ORDERED_POOL[i], ORDERED_POOL[j])


def ref_compare(a: OrdinalNotation, b: OrdinalNotation) -> int:
    """The recursive definition of the order, term by term, that the
    interned order keys must reproduce."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ref_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def test_keys_sort_a_long_copy_prefix_as_the_recursive_order():
    nus = list(islice(enum_copy(parse_ordinal("w^w")), 30_000))
    by_key = sorted(nus)
    assert by_key == sorted(nus, key=functools.cmp_to_key(ref_compare))
    assert by_key[0] is ZERO and len(set(by_key)) == len(nus)


def test_classification_is_computed_once_per_notation():
    for text in ORDERED_POOL:
        nu = parse_ordinal(text)
        first = classify(nu)
        assert first == classify.__wrapped__(nu), text
        assert classify(nu) is first, text


def test_classify_and_successor():
    assert classify(ZERO).kind == "zero"
    assert classify(from_int(4)).kind == "successor"
    assert render(classify(from_int(4)).predecessor) == "3"
    assert classify(parse_ordinal("w")).kind == "limit"
    assert classify(parse_ordinal("w*2")).kind == "limit"
    assert classify(parse_ordinal("w+3")).kind == "successor"
    assert render(classify(parse_ordinal("w+3")).predecessor) == "w+2"
    assert render(classify(parse_ordinal("w^2+1")).predecessor) == "w^2"
    assert render(successor(ZERO)) == "1"
    assert render(successor(parse_ordinal("w"))) == "w+1"
    assert render(successor(parse_ordinal("w^2+3"))) == "w^2+4"


def test_parity_examples():
    assert parity(ZERO) == 0
    assert parity(from_int(6)) == 0
    assert parity(from_int(7)) == 1
    assert parity(parse_ordinal("w")) == 0
    assert parity(parse_ordinal("w+3")) == 1
    assert parity(parse_ordinal("w+4")) == 0
    assert parity(parse_ordinal("w^2+w")) == 0


def test_fund_seq_examples():
    assert render(fund_seq(parse_ordinal("w"), 4)) == "5"
    assert render(fund_seq(parse_ordinal("w*2"), 5)) == "w+6"
    assert render(fund_seq(parse_ordinal("w^2"), 2)) == "w*3"
    assert render(fund_seq(parse_ordinal("w^w"), 3)) == "w^4"
    assert render(fund_seq(parse_ordinal("w^2+w"), 0)) == "w^2+1"
    assert render(fund_seq(parse_ordinal("w^2*2"), 1)) == "w^2+w*2"


def test_fund_seq_rejects_non_limits():
    with pytest.raises(ValueError):
        fund_seq(from_int(3), 0)
    with pytest.raises(ValueError):
        fund_seq(parse_ordinal("w+1"), 0)


def test_fund_seq_repeats_read_the_interned_notation():
    lam = parse_ordinal("w^2+w*3")
    first = fund_seq(lam, 5)
    assert first is parse_ordinal("w^2+w*2+6")
    assert fund_seq(lam, 5) is first
    assert fund_seq.__wrapped__(lam, 5) is first


def test_fund_seq_rejections_raise_every_time_and_store_nothing():
    before = fund_seq.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="index must be a natural"):
            fund_seq(OMEGA, -1)
        with pytest.raises(ValueError, match=r"^w\+1 is not a limit$"):
            fund_seq(parse_ordinal("w+1"), 0)
    assert fund_seq.cache_info().currsize == before


def test_equal_notations_are_one_object():
    assert parse_ordinal("w+1") is successor(OMEGA)
    assert fund_seq(parse_ordinal("w*2"), 0) is parse_ordinal("w+1")
    assert classify(from_int(4)).predecessor is parse_ordinal("3")
    assert OrdinalNotation(((ZERO, 1),)) is ONE
    assert hash(OMEGA) == object.__hash__(OMEGA)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda nu: pickle.loads(pickle.dumps(nu))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_return_the_interned_object(clone):
    for text in ["0", "1", "w", "w^2*3+w+4", "w^w"]:
        nu = parse_ordinal(text)
        assert clone(nu) is nu
        assert render(ZERO) == "0"
        assert render(nu) == text
    assert OrdinalNotation(((ONE, 1),)) is OMEGA


@pytest.mark.parametrize(
    "terms",
    [((ZERO, 1), (ONE, 1)), ((ONE, 1), (ONE, 2)), ((ONE, 0),), ((ZERO, -1),),
     ((OMEGA, 1), (ZERO, 1))],
    ids=["increasing", "repeated", "zero-coefficient", "negative", "above-ceiling"],
)
def test_rejected_terms_are_not_interned(terms):
    # A second attempt must be validated afresh, not served from the table.
    for _ in range(2):
        with pytest.raises(ValueError):
            OrdinalNotation(terms)
    assert terms not in ordinals._INTERNED


# Hypothesis: arbitrary notations below w^w have finite exponents.
@st.composite
def notations(draw):
    exps = draw(st.lists(st.integers(0, 6), unique=True, max_size=4))
    exps.sort(reverse=True)
    terms = tuple(
        (from_int(e), draw(st.integers(1, 9))) for e in exps
    )
    return OrdinalNotation(terms)


@given(notations())
def test_render_parse_identity(nu):
    assert parse_ordinal(render(nu)) == nu


@given(notations(), notations(), notations())
def test_compare_is_a_total_order(a, b, c):
    assert compare(a, a) == 0
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(notations(), notations(), notations())
def test_keys_agree_with_the_recursive_order(a, b, c):
    for x, y in ((a, b), (b, c), (a, c), (a, a)):
        want = ref_compare(x, y)
        assert compare(x, y) == want
        assert (x < y, x <= y, x > y, x >= y) == (
            want < 0, want <= 0, want > 0, want >= 0
        )


@given(notations())
def test_successor_steps_up(nu):
    nxt = successor(nu)
    assert compare(nu, nxt) < 0
    cls = classify(nxt)
    assert cls.kind == "successor"
    assert cls.predecessor == nu
    assert parity(nxt) == 1 - parity(nu)


@given(notations(), st.integers(0, 8))
def test_fund_seq_climbs_below_limit(nu, k):
    if classify(nu).kind != "limit":
        return
    lo = fund_seq(nu, k)
    hi = fund_seq(nu, k + 1)
    assert compare(lo, hi) < 0
    assert compare(hi, nu) < 0


def test_enum_copy_finite():
    items = enum_copy(from_int(3))
    assert [render(nu) for nu in items] == ["0", "1", "2"]
    assert next(items, None) is None
    # Raised at the call, not when the iterator is first read.
    with pytest.raises(ValueError, match="eta must be positive"):
        enum_copy(ZERO)


def test_enum_copy_omega_is_the_identity():
    items = enum_copy(parse_ordinal("w"))
    assert list(islice(items, 30)) == [from_int(n) for n in range(30)]


def test_enum_copy_omega_plus_one_puts_w_first():
    items = list(islice(enum_copy(parse_ordinal("w+1")), 12))
    assert items[0] is OMEGA
    assert items[1:] == [from_int(n) for n in range(11)]


def test_enum_copy_batches_by_rendered_length():
    prefix = [render(nu) for nu in islice(enum_copy(parse_ordinal("w^w")), 12370)]
    # batch 3 starts after 11 + 90 shorter expressions
    assert prefix[101:126] == (
        [f"w*{c}" for c in range(2, 10)]
        + [f"w+{d}" for d in range(1, 10)]
        + [f"w^{e}" for e in range(2, 10)]
    )
    assert prefix.index("w*2") == 101
    assert prefix.index("w^2") == 118
    # A w^e*c term with e and c both 2 or more, and its neighbours.
    assert prefix.index("w^2*2") == 12368
    assert prefix[12367:12370] == ["w^299", "w^2*2", "w^2*3"]


@given(st.integers(0, 200))
@settings(max_examples=30)
def test_enum_copy_is_a_bijection_prefix(i):
    eta = parse_ordinal("w^3")
    items = list(islice(enum_copy(eta), i + 1))
    assert compare(items[i], eta) < 0
    assert items.index(items[i]) == i


def test_kb_rank_chain():
    eta, ranks = kb_rank({(): None, (0,): (), (0, 0): (0,)})
    assert render(eta) == "3"
    assert ranks == {(0, 0): 0, (0,): 1, (): 2}


def test_kb_rank_branching():
    eta, ranks = kb_rank({(): None, (1,): (), (0,): (), (0, 0): (0,)})
    assert render(eta) == "4"
    assert ranks == {(0, 0): 0, (0,): 1, (1,): 2, (): 3}


def test_kb_rank_descendants_rank_lower():
    parent = {(): None, (0,): (), (1,): (), (1, 0): (1,),
              (1, 1): (1,), (1, 1, 0): (1, 1)}
    _, ranks = kb_rank(parent)
    assert sorted(ranks.values()) == list(range(len(parent)))
    for node in parent:
        p = parent[node]
        while p is not None:
            assert ranks[node] < ranks[p]
            p = parent[p]


def test_ranked_tree_rejects_malformed():
    for parent in [
        {(): None, (0,): (), (1,): None},  # two roots
        {(0,): (1,), (1,): (0,)},  # no root: a cycle
        {(): None, (0,): (9,)},  # a parent that is not a node
        {(): None, (0,): (1,), (1,): (0,)},  # a cycle off the root
        {},  # no root at all
    ]:
        with pytest.raises(ValueError, match="not a tree"):
            kb_rank(parent)


def ref_kb_ranks(parent):
    """Kleene-Brouwer ranks read off root paths, without ordinals: a node's
    key lists (0, len, node) per step from the root and ends in (1,), so a
    descendant sorts before its ancestor and siblings by (len, node)."""

    def key(node):
        path = []
        while parent[node] is not None:
            path.append((0, len(node), node))
            node = parent[node]
        return tuple(reversed(path)) + ((1,),)

    return {node: rank for rank, node in enumerate(sorted(parent, key=key))}


_KB_SYSTEM = TrueStageSystem(DefaultOperator())
_KB_UNIVERSE = Universe(4, 2)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["0", "1", "w"]))
@settings(max_examples=40, deadline=None)
def test_kb_rank_matches_root_path_order(bits, level):
    seqs = _KB_UNIVERSE.all_seqs()
    fn = ApproxFn(parse_ordinal(level), {s: (bits >> i) & 1 for i, s in enumerate(seqs)})
    tree, _ = mind_change_tree(_KB_SYSTEM, fn, _KB_UNIVERSE)
    eta, ranks = kb_rank(tree)
    assert ranks == ref_kb_ranks(tree)
    assert eta == from_int(len(tree))
