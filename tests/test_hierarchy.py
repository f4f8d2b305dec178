import functools
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truestages import cli
from truestages.hierarchy import (
    ApproxFn,
    DifferenceFamily,
    UpsetRep,
    WitnessFn,
    approx_limit,
    approx_to_witness,
    difference_value,
    dsets_to_witness,
    eval_at,
    mind_change_tree,
    upset_close,
    verify_witness_laws,
    witness_to_dsets,
)
from test_ordinals import ref_compare
from test_stages import ref_chain, ref_leq
from truestages.jump import DefaultOperator
from truestages.ordinals import (
    enum_copy, from_int, kb_rank, parity, parse_ordinal, render, successor,
)
from truestages.stages import TrueStageSystem
from truestages.universe import Universe, parse_seq

A0 = from_int(0)
A1 = from_int(1)
LVL1 = parse_ordinal("1")
UNI = Universe(3, 2)
WIDE = Universe(3, 10)
REF = Universe(4, 2)


@pytest.fixture(scope="module")
def sys_():
    return TrueStageSystem(DefaultOperator())


def test_upset_close_prefix_level(sys_):
    u = upset_close(sys_, [(3,)], A0, WIDE)
    assert (3,) in u.generators
    assert (3, 1) in u.generators
    assert (4,) not in u.generators
    assert eval_at(sys_, u, (3, 1, 4))
    assert not eval_at(sys_, u, (4,))


def test_upset_close_empty(sys_):
    u = upset_close(sys_, [], A0, WIDE)
    assert u.generators == frozenset()
    assert not eval_at(sys_, u, ())


def test_upset_close_level_one_excludes_dropped_stage(sys_):
    u = upset_close(sys_, [(5,)], LVL1, WIDE)
    assert (5, 0) not in u.generators
    assert not eval_at(sys_, u, (5, 0))
    assert eval_at(sys_, u, (5,))


def test_upset_close_rejects_alien_generator(sys_):
    with pytest.raises(ValueError):
        upset_close(sys_, [(9, 9, 9, 9)], A0, UNI)


def test_eval_at_is_monotone(sys_):
    u = upset_close(sys_, [(1,)], LVL1, UNI)
    for sigma, tau in UNI.prefix_pairs():
        if eval_at(sys_, u, sigma) and sys_.leq(sigma, tau, LVL1):
            assert eval_at(sys_, u, tau)


def test_approx_limit(sys_):
    const = ApproxFn(A0, {s: 7 for s in UNI.all_seqs()})
    assert approx_limit(sys_, const, (0, 1)) == (7, True)
    assert approx_limit(sys_, const, ()) == (7, False)
    by_parity = ApproxFn(A0, {s: len(s) % 2 for s in UNI.all_seqs()})
    assert approx_limit(sys_, by_parity, (1, 1)) == (0, False)


def test_dsets_to_witness_worked_example(sys_):
    eta = from_int(2)
    family = [
        upset_close(sys_, [(0,)], A0, UNI),
        upset_close(sys_, [()], A0, UNI),
    ]
    f, o = dsets_to_witness(sys_, family, eta, A0, UNI)
    assert render(o.table[(0,)]) == "0" and f.table[(0,)] == 0
    assert render(o.table[(1,)]) == "2" and f.table[(1,)] == 0
    assert render(o.table[(1, 1)]) == "1" and f.table[(1, 1)] == 1
    assert verify_witness_laws(sys_, f, o, UNI) == []


def test_dsets_to_witness_empty_set(sys_):
    f, o = dsets_to_witness(
        sys_, [UpsetRep(A0, frozenset())], from_int(1), A0, UNI)
    assert all(render(v) == "1" for v in o.table.values())
    assert set(f.table.values()) == {0}


def test_dsets_to_witness_rejects_non_increasing(sys_):
    full = upset_close(sys_, [()], A0, UNI)
    small = upset_close(sys_, [(0,)], A0, UNI)
    with pytest.raises(ValueError, match="not increasing"):
        dsets_to_witness(sys_, [full, small], from_int(2), A0, UNI)


def test_witness_to_dsets_round_trip_membership(sys_):
    family = [
        upset_close(sys_, [(0,)], A0, UNI),
        upset_close(sys_, [()], A0, UNI),
    ]
    # A finite eta gives one set per copy index; eta = w stops after the
    # largest copy index the witness uses.
    for eta in (from_int(2), parse_ordinal("w")):
        f, o = dsets_to_witness(sys_, family, eta, A0, UNI)
        back = witness_to_dsets(sys_, f, o, UNI)
        assert back.eta == eta and len(back.sets) == 2
        for x in UNI.all_seqs():
            assert difference_value(sys_, back, x) == f.table[x]


@pytest.mark.parametrize("name", ["2", "w", "w+1"])
def test_family_indices_are_a_prefix_of_the_copy(sys_, name):
    # The copy of w+1 starts at w, so the smaller set goes to the smaller
    # of the first two indices.
    eta = parse_ordinal(name)
    first = list(islice(enum_copy(eta), 2))
    small, full = upset_close(sys_, [(0,)], A0, UNI), upset_close(sys_, [()], A0, UNI)
    family = [small, full] if first[0] < first[1] else [full, small]
    f, o = dsets_to_witness(sys_, family, eta, A0, UNI)
    back = witness_to_dsets(sys_, f, o, UNI)
    indices = [nu for nu, _ in back.sets]
    assert back.eta == eta and indices
    assert indices == list(islice(enum_copy(eta), len(back.sets)))


def ref_witness_violations(fn, witness, universe):
    """Every violation of the witness laws, read pair by pair off the
    prefix pairs with the reference relation and the recursive order."""
    out = []
    for sigma, tau in universe.prefix_pairs():
        if sigma == tau or not ref_leq(sigma, tau, fn.level):
            continue
        os, ot = witness.table[sigma], witness.table[tau]
        if ref_compare(ot, os) > 0:
            out.append({"clause": "i", "sigma": list(sigma), "tau": list(tau),
                        "detail": f"o rose from {render(os)} to {render(ot)}"})
        if fn.table[sigma] != fn.table[tau] and ref_compare(ot, os) >= 0:
            out.append({"clause": "ii", "sigma": list(sigma), "tau": list(tau),
                        "detail": f"value changed but o kept {render(ot)}"})
    for sigma in universe.all_seqs():
        if witness.table[sigma] == witness.eta and fn.table[sigma] != 0:
            out.append({"clause": "iii", "sigma": list(sigma), "tau": list(sigma),
                        "detail": "o reached eta with a nonzero value"})
    return out


def planted_witness(sys_, alpha, fault):
    """A lawful (f, o) pair on REF from approx_to_witness, with one fault
    of the named clause planted at a single stage."""
    rng = random.Random(f"{render(alpha)}-{fault}")
    fn = ApproxFn(alpha, {s: rng.randrange(2) for s in REF.all_seqs()})
    witness = approx_to_witness(sys_, fn, REF)
    eta, table, o = witness.eta, dict(fn.table), dict(witness.table)
    tau = REF.maximal()[rng.randrange(len(REF.maximal()))]
    sigma = ref_chain(tau, alpha)[-2]
    if fault == "i":  # o rises from sigma to tau
        o[tau] = successor(o[sigma])
    elif fault == "ii":  # f changes from sigma to tau while o stays
        o[tau] = o[sigma]
        table[tau] = 1 - table[sigma]
    elif fault == "iii":  # the root reaches eta with value 1
        o[()] = eta
        table[()] = 1
    return ApproxFn(alpha, table), WitnessFn(eta, o)


@pytest.mark.parametrize("fault", ["lawful", "i", "ii", "iii"])
@pytest.mark.parametrize("name", ["0", "1", "2", "w", "w+1"])
def test_witness_laws_list_every_violation_in_pair_order(sys_, name, fault):
    fn, witness = planted_witness(sys_, parse_ordinal(name), fault)
    want = ref_witness_violations(fn, witness, REF)
    assert verify_witness_laws(sys_, fn, witness, REF) == want
    if fault == "lawful":
        assert want == []
    else:
        assert fault in {v["clause"] for v in want}


def ref_difference_value(sys_, upsets, eta, x):
    """The parity rule with one eval_at per upset."""
    items = list(islice(enum_copy(eta), len(upsets)))
    hits = [items[n] for n, u in enumerate(upsets) if eval_at(sys_, u, x)]
    if not hits:
        return 0
    best = min(hits, key=functools.cmp_to_key(ref_compare))
    return int(parity(best) != parity(eta))


@pytest.mark.parametrize("eta", ["5", "w+2"])
def test_difference_value_reads_a_chain_per_level(sys_, eta):
    # Bare generators, not closures: (1,0) and (0,0,1) lie on the level-1
    # chains of some maximal x and on none of their w+1 chains.
    low, high = LVL1, parse_ordinal("w+1")
    family = [
        UpsetRep(high, frozenset({(1, 1, 0)})),
        UpsetRep(low, frozenset({(1, 0), (0, 0, 1)})),
        UpsetRep(high, frozenset({(0, 1)})),
        UpsetRep(low, frozenset({(1, 1, 0), (0, 0, 0)})),
        UpsetRep(high, frozenset({()})),
    ]
    eta = parse_ordinal(eta)
    indexed = DifferenceFamily(eta, tuple(zip(enum_copy(eta), family)))
    got = {x: difference_value(sys_, indexed, x) for x in REF.maximal()}
    assert got == {x: ref_difference_value(sys_, family, eta, x) for x in REF.maximal()}
    assert set(got.values()) == {0, 1}


def test_difference_value_names_the_first_member_beyond_the_copy(sys_):
    # A family checks its indices when it is built, so neither a set
    # beyond the copy of eta nor an eta of 0 reaches difference_value.
    # The copy of 2 has indices 0 and 1; (1,) lies in set 1 alone, and ()
    # in neither.
    eta = from_int(2)
    sets = [UpsetRep(A0, frozenset(g)) for g in [{(0,)}, {(1,)}, {(0,)}, {(1,)}]]
    with pytest.raises(ValueError, match="index 2 is beyond the copy of 2"):
        DifferenceFamily(eta, tuple(zip(map(from_int, range(4)), sets)))
    family = DifferenceFamily(eta, tuple(zip(enum_copy(eta), sets)))
    assert len(family.sets) == 2
    assert difference_value(sys_, family, (1,)) == 1
    assert difference_value(sys_, family, ()) == 0
    with pytest.raises(ValueError, match="eta must be positive"):
        DifferenceFamily(from_int(0), ())


# (f, eta, o, the error named) on UNI at level 0.
BAD_WITNESSES = {
    "clause-i": (lambda s: 0, 3, lambda s: min(len(s), 2), r"law \(i\)"),
    "clause-ii": (lambda s: len(s) % 2, 3, lambda s: 0, r"law \(ii\)"),
    "clause-iii": (lambda s: 1, 3, lambda s: 3, r"law \(iii\)"),
    "two-valued": (lambda s: 2, 3, lambda s: 0, "two-valued approximation required"),
    # o = 3 keeps the laws, but its value lies beyond its own eta of 2.
    "exceeds-eta": (lambda s: 0, 2, lambda s: 3, "adjusted witness exceeds eta"),
}


@pytest.mark.parametrize("case", list(BAD_WITNESSES))
def test_witness_to_dsets_names_violated_clause(sys_, case):
    f, eta, o, message = BAD_WITNESSES[case]
    seqs = UNI.all_seqs()
    fn = ApproxFn(A0, {s: f(s) for s in seqs})
    witness = WitnessFn(from_int(eta), {s: from_int(o(s)) for s in seqs})
    with pytest.raises(ValueError, match=message):
        witness_to_dsets(sys_, fn, witness, UNI)


def test_witness_adjustment_rules(sys_):
    # a lawful pair where o must be pushed to o+1 to encode f by parity
    eta = from_int(2)
    table_o = {s: (from_int(1) if len(s) < 2 else from_int(0))
               for s in UNI.all_seqs()}
    table_f = {s: 0 for s in UNI.all_seqs()}
    fn = ApproxFn(A0, table_f)
    o = WitnessFn(eta, table_o)
    fam = witness_to_dsets(sys_, fn, o, UNI)
    # f=0 with o=1 odd-against-eta: pushed to 2, outside every listed
    # set; f=0 with o=0 keeps 0, landing in both
    long_stages = frozenset(s for s in UNI.all_seqs() if len(s) >= 2)
    assert [(nu, u.generators) for nu, u in fam.sets] == [
        (from_int(0), long_stages), (from_int(1), long_stages)]


def test_approx_to_witness_constant(sys_):
    fn = ApproxFn(A0, {s: 3 for s in UNI.all_seqs()})
    o = approx_to_witness(sys_, fn, UNI)
    assert render(o.eta) == "1"
    assert all(render(v) == "0" for v in o.table.values())


def test_approx_to_witness_parity_chain(sys_):
    narrow = Universe(2, 1)
    fn = ApproxFn(A0, {s: len(s) % 2 for s in narrow.all_seqs()})
    o = approx_to_witness(sys_, fn, narrow)
    assert render(o.eta) == "3"
    assert [render(o.table[s]) for s in [(), (0,), (0, 0)]] == ["2", "1", "0"]


def test_approx_to_witness_single_change(sys_):
    fn = ApproxFn(A0, {s: int(s[:1] == (0,)) for s in UNI.all_seqs()})
    o = approx_to_witness(sys_, fn, UNI)
    assert render(o.eta) == "2"
    assert render(o.table[()]) == "1"
    assert render(o.table[(0,)]) == "0"
    assert render(o.table[(0, 1)]) == "0"
    assert render(o.table[(1,)]) == "1"


def test_mind_change_tree_nodes(sys_):
    fn = ApproxFn(A0, {s: int(s[:1] == (0,)) for s in UNI.all_seqs()})
    tree, last = mind_change_tree(sys_, fn, UNI)
    assert tree == {(): None, (0,): ()}
    assert last == {s: s[:1] if s[:1] == (0,) else () for s in UNI.all_seqs()}


def ref_last_on_tree(chain, tree):
    """The longest stage of chain that is a node of tree."""
    return next(rho for rho in reversed(chain) if rho in tree)


def ref_mind_change_tree(fn, universe):
    """The tree found by scanning each new node's reference chain for the
    longest node already placed."""
    parent = {(): None}
    for sigma in universe.all_seqs()[1:]:
        chain = ref_chain(sigma, fn.level)
        if fn.table[chain[-2]] != fn.table[sigma]:
            parent[sigma] = ref_last_on_tree(chain[:-1], parent)
    return parent


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["0", "1", "2", "w", "w+1", "w*2"]))
@settings(max_examples=60, deadline=None)
def test_one_pass_tree_and_witness_match_the_chain_scan(bits, level):
    seqs = REF.all_seqs()
    fn = ApproxFn(parse_ordinal(level), {s: (bits >> i) & 1 for i, s in enumerate(seqs)})
    want = ref_mind_change_tree(fn, REF)
    nodes = {s: ref_last_on_tree(ref_chain(s, fn.level), want) for s in seqs}
    assert mind_change_tree(_SHARED, fn, REF) == (want, nodes)
    want_eta, ranks = kb_rank(want)
    witness = approx_to_witness(_SHARED, fn, REF)
    assert witness.eta == want_eta
    assert witness.table == {s: from_int(ranks[nodes[s]]) for s in seqs}


@given(st.integers(0, 2 ** 15 - 1), st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_round_trip_reproduces_stable_limits(bits, a):
    sys_ = _SHARED
    alpha = from_int(a)
    seqs = UNI.all_seqs()
    fn = ApproxFn(alpha, {s: (bits >> i) & 1 for i, s in enumerate(seqs)})
    o = approx_to_witness(sys_, fn, UNI)
    assert verify_witness_laws(sys_, fn, o, UNI) == []
    fam = witness_to_dsets(sys_, fn, o, UNI)
    for x in UNI.maximal():
        value, stable = approx_limit(sys_, fn, x)
        if stable:
            assert difference_value(sys_, fam, x) == value


_SHARED = TrueStageSystem(DefaultOperator())


def test_json_round_trips(sys_):
    u = upset_close(sys_, [(1,)], LVL1, UNI)
    assert cli._upset_from_json(cli._upset_to_json(u), "upsets", UNI.alphabet) == u
    fn = ApproxFn(A0, {s: len(s) % 2 for s in UNI.all_seqs()})
    back = cli._approx_from_json(cli._approx_to_json(fn), UNI)
    assert back.level == fn.level and back.table == fn.table
    o = approx_to_witness(sys_, fn, UNI)
    data = cli._witness_to_json(o)
    assert parse_ordinal(data["eta"]) == o.eta
    assert {parse_seq(k): parse_ordinal(v) for k, v in data["table"].items()} == o.table
