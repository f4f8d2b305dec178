"""The relations, the HK round trip, the Wadge decompositions, the game
solver and the correctness checker under lawful operators other than
the default.

The machinery may rely only on an operator's laws: at most one code per
entry, no code twice, and traces that extend along prefixes.  Each test
here runs over the three lawful operators of `instance_tools`, sharing
the example budget of the default-operator test it mirrors.  None of
them has `last_code`, so every run must also read some p through the
trace branch of `TrueStageSystem._p`.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instance_tools import (
    LAWFUL_OPERATORS,
    Even,
    NoLast,
    Swap,
    seeded_game_instance,
    seeded_wadge_instance,
)
from test_game import HISTORIES, ReferenceCorrectness, reference_solve
from truestages.game import PRE_ROOT, CorrectnessChecker, StrategyTable, solve
from truestages.hierarchy import (
    ApproxFn,
    approx_limit,
    approx_to_witness,
    difference_value,
    verify_witness_laws,
    witness_to_dsets,
)
from truestages.jump import DefaultOperator
from truestages.ordinals import parse_ordinal, render
from truestages.stages import TrueStageSystem, ts_verify
from truestages.universe import Universe
from truestages.wadge import decomposition_eval

OPERATORS = pytest.mark.parametrize(
    "operator", LAWFUL_OPERATORS, ids=lambda op: op.__name__)


@contextlib.contextmanager
def traced_p_reads():
    """The (sigma, alpha) of every p fill that built sigma's level-alpha
    trace itself, which only `_p`'s trace branch does."""
    reads = []
    real = TrueStageSystem._p

    def counting(self, sigma, alpha):
        key = (TrueStageSystem._trace_at, sigma, alpha)
        before = key in self._memo
        p = real(self, sigma, alpha)
        if not before and key in self._memo:
            reads.append((sigma, alpha))
        return p

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TrueStageSystem, "_p", counting)
        yield reads


def test_the_operators_are_not_the_default():
    sigma = (1, 0, 1)
    default = DefaultOperator().trace(sigma)
    assert default.codes == (1, 0, 4)
    assert Swap().trace(sigma).codes == (2, 0, 4)
    assert Even().trace(sigma).codes == (0, 4)
    assert NoLast().trace(sigma) == default
    assert not any(hasattr(op(), "last_code") for op in LAWFUL_OPERATORS)


def test_the_default_operator_reads_p_without_the_trace_branch():
    # The counter's control: last_code gives every p, so no p fill
    # builds its own trace.
    with traced_p_reads() as reads:
        report = ts_verify(TrueStageSystem(DefaultOperator()), Universe(3, 2),
                           [parse_ordinal(s) for s in ["0", "1", "2", "w+1"]])
    assert report.all_passed
    assert reads == []


@OPERATORS
def test_verification_suite_passes(operator):
    levels = [parse_ordinal(s) for s in ["0", "1", "2", "3", "w", "w+1", "w*2"]]
    with traced_p_reads() as reads:
        report = ts_verify(TrueStageSystem(operator()), Universe(4, 2), levels)
    assert report.all_passed, report.summary_lines()
    assert reads


@OPERATORS
def test_round_trip_reproduces_stable_limits(operator):
    # 60 functions in all, as in test_hierarchy's default-operator test,
    # at 1, 2, w and w+1.
    uni = Universe(3, 2)
    rng = random.Random(f"round trip/{operator.__name__}")
    sys_ = TrueStageSystem(operator())
    checked = 0
    with traced_p_reads() as reads:
        for level in ["1", "2", "w", "w+1"] * 5:
            fn = ApproxFn(parse_ordinal(level),
                          {s: rng.randrange(2) for s in uni.all_seqs()})
            witness = approx_to_witness(sys_, fn, uni)
            assert verify_witness_laws(sys_, fn, witness, uni) == []
            family = witness_to_dsets(sys_, fn, witness, uni)
            for x in uni.maximal():
                value, stable = approx_limit(sys_, fn, x)
                if stable:
                    assert difference_value(sys_, family, x) == value, (level, x)
                    checked += 1
    assert checked
    assert reads


@OPERATORS
@settings(max_examples=13, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.integers(0, 1), min_size=len(HISTORIES), max_size=len(HISTORIES)),
       st.tuples(*[st.integers(0, 1)] * 3))
def test_checker_matches_reference_on_random_games(operator, seed, moves, y):
    # 40 examples in all, as in test_game's default-operator test.
    g = seeded_game_instance(seed)
    table = StrategyTable("I", 8, dict(zip(HISTORIES, moves)))
    with traced_p_reads() as reads:
        chk = CorrectnessChecker(TrueStageSystem(operator()), g, table, y)
        nodes = [PRE_ROOT] + Universe(3, 2).all_seqs()
        ref = ReferenceCorrectness(chk, nodes)
        for alpha in (parse_ordinal(s) for s in ["0", "1", "2", "w", "w+1"]):
            want = ref.table(alpha)
            for sigma in nodes:
                got = (chk.is_correct(sigma, alpha), chk.is_strongly_correct(sigma, alpha))
                assert got == want[sigma], (sigma, render(alpha))
    assert reads


@OPERATORS
def test_decompositions_evaluate_correctly(operator):
    # test_wadge's 6 seeds split among the operators, each seed on three
    # universes at w and w*2.  W1 is generated by the maximal sequences
    # it holds, so x lies in W1 exactly when it is a generator.
    part = LAWFUL_OPERATORS.index(operator)
    sys_ = TrueStageSystem(operator())
    with traced_p_reads() as reads:
        for uni in (Universe(3, 2), Universe(4, 2), Universe(3, 3)):
            for lam in (parse_ordinal("w"), parse_ordinal("w*2")):
                for seed in (2 * part, 2 * part + 1):
                    _, w1, tree = seeded_wadge_instance(sys_, uni, lam, seed)
                    assert tree.rank >= 1
                    for x in uni.maximal():
                        got = decomposition_eval(sys_, tree, x)
                        assert got == (x in w1.generators), (render(lam), seed, x)
    assert reads


@OPERATORS
def test_solve_matches_the_full_minimax_reference(operator):
    # test_game's 96 seeded games split among the operators, a third of
    # each shape's seeds (rounded up) to each.
    shapes = [(2, 3, 40), (2, 4, 12), (3, 2, 40), (3, 3, 4)]  # alphabet, depth, seeds
    part = LAWFUL_OPERATORS.index(operator)
    statuses = set()
    with traced_p_reads() as reads:
        for b, d, n in shapes:
            share = -(-n // 3)
            for seed in range(part * share, min((part + 1) * share, n)):
                g = seeded_game_instance(seed, b, d)
                sys_ = TrueStageSystem(operator())
                r = solve(sys_, g)
                assert r == reference_solve(sys_, g), (b, d, seed)
                statuses.add(r.status)
    assert statuses == {"IWins", "Undetermined"}
    assert reads
