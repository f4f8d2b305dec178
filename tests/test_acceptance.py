"""End-to-end acceptance checks, one test function per shipping
criterion.  Every oracle here is coded directly from the intended
behavior rather than by calling back into the code under test, so a
regression in the library cannot silently re-grade itself.
"""

import itertools
import json
import random
import subprocess
import sys as _sys
import time

from instance_tools import (
    Rewriter,
    seeded_game_instance,
    seeded_wadge_instance,
    y_mismatch_game,
)
from truestages.game import (
    PRE_ROOT,
    CorrectnessChecker,
    GameInstance,
    PairTree,
    PartialPlay,
    StrategyTable,
    adversarial_play,
    extract_reduction,
    referee,
    solve,
)
from truestages.hierarchy import (
    ApproxFn,
    UpsetRep,
    approx_limit,
    approx_to_witness,
    difference_value,
    dsets_to_witness,
    eval_at,
    upset_close,
    verify_witness_laws,
    witness_to_dsets,
)
from truestages.jump import DefaultOperator, enumerate_jump
from truestages.ordinals import ZERO, compare, from_int, parse_ordinal
from truestages.stages import TrueStageSystem, ts_verify
from truestages.universe import Universe
from truestages.wadge import decomposition_eval

SYS = TrueStageSystem(DefaultOperator())
LEVELS = {s: parse_ordinal(s) for s in ["0", "1", "2", "3", "w", "w+1"]}
FULL = PairTree(full=True)
ROOT_ONLY = PairTree.from_pairs([((), ())])


def passed(n: int, label: str) -> None:
    print(f"criterion {n}: PASS ({label})")


# -- criterion 1: relation verification suite -----------------------------


def test_criterion_01_verification_suite():
    start = time.monotonic()
    report = ts_verify(
        TrueStageSystem(DefaultOperator()),
        Universe(4, 3),
        [LEVELS[s] for s in ["0", "1", "2", "3", "w", "w+1"]],
    )
    elapsed = time.monotonic() - start
    assert report.all_passed, report.summary_lines()
    assert elapsed < 60

    broken = ts_verify(
        TrueStageSystem(Rewriter()),
        Universe(3, 2),
        [LEVELS[s] for s in ["0", "1", "2"]],
    )
    assert not broken.all_passed
    assert broken.results["TS7-consistency"].counterexamples
    passed(1, f"full suite clean in {elapsed:.2f}s, corrupted operator caught")


# -- criterion 2: jump operator -------------------------------------------


def test_criterion_02_jump_monotone_and_worked_values():
    start = time.monotonic()
    op = DefaultOperator()
    for uni in (Universe(4, 3), Universe(2, 6)):
        for sigma, tau in uni.prefix_pairs():
            assert op.trace(tau).extends(op.trace(sigma))
    assert enumerate_jump(op, ()).p == 0
    assert enumerate_jump(op, (5,)).p == 15
    assert enumerate_jump(op, (5, 0)).p == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1
    passed(2, f"monotone on two universes, worked values hold, {elapsed:.2f}s")


# -- criterion 3: approximation round trip --------------------------------


def test_criterion_03_round_trip_100_functions():
    start = time.monotonic()
    uni = Universe(3, 2)
    rng = random.Random(20260823)
    checked = 0
    for alpha in (from_int(0), from_int(1)):
        for _ in range(50):
            fn = ApproxFn(alpha, {s: rng.randrange(2) for s in uni.all_seqs()})
            witness = approx_to_witness(SYS, fn, uni)
            family = witness_to_dsets(SYS, fn, witness, uni)
            for x in uni.maximal():
                want, stable = approx_limit(SYS, fn, x)
                if not stable:
                    continue
                assert difference_value(SYS, family, x) == want
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    passed(3, f"100 functions, {checked} stable limits reproduced, {elapsed:.2f}s")


# -- criterion 4: witness laws --------------------------------------------


def test_criterion_04_witness_laws_hold():
    uni = Universe(3, 2)
    rng = random.Random(4)
    violations = []
    for alpha in (from_int(0), from_int(1)):
        for _ in range(15):
            fn = ApproxFn(alpha, {s: rng.randrange(2) for s in uni.all_seqs()})
            witness = approx_to_witness(SYS, fn, uni)
            violations += verify_witness_laws(SYS, fn, witness, uni)
            for value in witness.table.values():
                if compare(value, witness.eta) >= 0:
                    violations.append({"clause": "below-eta", "value": value})
    pool = [s for s in uni.all_seqs() if len(s) <= 2]
    for alpha in (from_int(0), from_int(1)):
        for _ in range(5):
            size = rng.choice([1, 2, 3])
            gens: list = []
            family = []
            for _ in range(size):
                gens += rng.sample(pool, k=rng.randrange(1, 4))
                family.append(upset_close(SYS, gens, alpha, uni))
            fn, witness = dsets_to_witness(SYS, family, from_int(size), alpha, uni)
            violations += verify_witness_laws(SYS, fn, witness, uni)
    assert violations == []
    passed(4, "40 converted witnesses, zero law violations")


# -- criterion 5: decomposition trees -------------------------------------


def test_criterion_05_twenty_seeded_decompositions():
    start = time.monotonic()
    uni = Universe(3, 2)
    lam = LEVELS["w"]
    for seed in range(20):
        _, w1, tree = seeded_wadge_instance(SYS, uni, lam, seed)
        for x in uni.maximal():
            assert decomposition_eval(SYS, tree, x) == eval_at(SYS, w1, x)
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.kind != "internal":
                continue
            stack.extend(node.children)
            for s in uni.all_seqs():
                hits = sum(1 for sep in node.separators if eval_at(SYS, sep, s))
                assert hits <= 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    passed(5, f"20 instances evaluated and separator-disjoint, {elapsed:.2f}s")


# -- criterion 6: referee against a straight-line transcription -----------


def straight_line_verdict(g, play):
    """The grading rule written out longhand: membership by generator
    scan, the index set by an explicit loop, II's answer assembled
    field by field."""
    xs = tuple(play.xs)
    n = len(xs)

    def member(seq):
        return any(SYS.leq(gen, seq, g.xi) for gen in g.w.generators)

    in_w = member(xs)
    f = []
    for i in range(1, n + 1):
        if not SYS.leq(xs[:i], xs, g.xi):
            continue
        if in_w and not member(xs[:i]):
            continue
        f.append(i)
    ybar = tuple(play.yzs[j][0] for j in range(len(f)))
    zbar = tuple(play.yzs[i - 1][1] for i in f)
    tree = g.t1 if in_w else g.t0
    status = "Continues" if tree.contains(ybar, zbar) else "IWon"
    return tuple(f), ybar, zbar, status


def test_criterion_06_referee_matches_transcription():
    disagreements = 0
    for seed in range(5):
        g = seeded_game_instance(seed)
        rng = random.Random(1000 + seed)
        for _ in range(1000):
            n = rng.randrange(1, g.depth + 1)
            play = PartialPlay(
                tuple(rng.randrange(g.alphabet) for _ in range(n)),
                tuple(
                    (rng.randrange(g.alphabet), rng.randrange(g.alphabet))
                    for _ in range(n)
                ),
            )
            v = referee(SYS, g, play)
            if (v.f_indices, v.ybar, v.zbar, v.status) != straight_line_verdict(g, play):
                disagreements += 1
    assert disagreements == 0
    passed(6, "5000 random plays, zero disagreements")


# -- criterion 7: solver against iterative-deepening minimax --------------


def forced_win_turn(g, depth):
    """Least round by which player I can force a win, by trying each
    target round in order with a plain any/all game-tree search."""

    def can_force(xs, yzs, target):
        if len(xs) >= target:
            return False
        for x in range(g.alphabet):
            xs2 = xs + (x,)
            if all(
                referee(SYS, g, PartialPlay(xs2, yzs + ((y, z),))).status == "IWon"
                or can_force(xs2, yzs + ((y, z),), target)
                for y in range(g.alphabet)
                for z in range(g.alphabet)
            ):
                return True
        return False

    for target in range(1, depth + 1):
        if can_force((), (), target):
            return target
    return None


def test_criterion_07_solver_matches_minimax():
    start = time.monotonic()
    quick = GameInstance(ZERO, UpsetRep(ZERO, frozenset({()})), FULL, ROOT_ONLY, 2, 3)
    never = GameInstance(ZERO, UpsetRep(ZERO, frozenset()), FULL, ROOT_ONLY, 2, 3)
    games = [quick, never, y_mismatch_game(LEVELS["1"])]
    games += [seeded_game_instance(seed) for seed in range(22)]
    for g in games:
        outcome = solve(SYS, g)
        turn = forced_win_turn(g, g.depth)
        if turn is None:
            assert outcome.status == "Undetermined"
        else:
            assert outcome.status == "IWins"
            assert outcome.by_turn == turn
    elapsed = time.monotonic() - start
    assert elapsed < 120
    passed(7, f"25 instances agree with minimax, {elapsed:.2f}s")


# -- criterion 8: correctness laws on sampled triples ---------------------


def _law_violations(g, table, levels, rng, count):
    pool = [PRE_ROOT] + [
        s for n in range(4) for s in itertools.product(range(g.alphabet), repeat=n)
    ]
    checkers: dict = {}  # one checker per y
    bad = []
    for _ in range(count):
        y = tuple(rng.randrange(g.alphabet) for _ in range(4))
        sigma = rng.choice(pool)
        alpha = rng.choice(levels)
        checker = checkers.get(y)
        if checker is None:
            checker = checkers[y] = CorrectnessChecker(SYS, g, table, y)
        strong = checker.is_strongly_correct(sigma, alpha)
        plain = checker.is_correct(sigma, alpha)
        if strong and not plain:
            bad.append(("strong-implies-plain", y, sigma, alpha))
        if compare(alpha, ZERO) == 0 and strong != plain:
            bad.append(("level-zero-agree", y, sigma, alpha))
        if plain:
            for beta in levels:
                if compare(beta, alpha) < 0 and not checker.is_strongly_correct(sigma, beta):
                    bad.append(("lower-levels-strong", y, sigma, alpha, beta))
        if strong and sigma is not PRE_ROOT:
            for i in range(len(sigma) + 1):
                rho = sigma[:i]
                if checker.tri_leq(rho, sigma, alpha):
                    if not checker.is_strongly_correct(rho, alpha):
                        bad.append(("predecessors-strong", y, sigma, alpha, rho))
        if plain and sigma is not PRE_ROOT:
            for i in range(len(sigma)):
                rho = sigma[:i]
                if checker.is_correct(rho, alpha):
                    if not checker.tri_leq(rho, sigma, alpha):
                        bad.append(("correct-prefixes-related", y, sigma, alpha, rho))
        if not checker.is_strongly_correct(PRE_ROOT, alpha):
            bad.append(("root-always-strong", y, alpha))
    return bad


def test_criterion_08_correctness_laws_sampled():
    rng = random.Random(8)
    violations = []
    for name in ["0", "1", "2"]:
        xi = LEVELS[name]
        levels = [LEVELS[t] for t in ["0", "1", "2"] if compare(LEVELS[t], xi) <= 0]

        base = seeded_game_instance(3)
        g = GameInstance(xi, UpsetRep(xi, base.w.generators), base.t0, base.t1, 2, 3)
        fixed = StrategyTable("I", 8, {})
        violations += _law_violations(g, fixed, levels, rng, 500)

        g2 = y_mismatch_game(xi)
        outcome = solve(SYS, g2)
        assert outcome.status == "IWins"
        violations += _law_violations(g2, outcome.strategy, levels, rng, 500)
    assert violations == [], violations[:3]
    passed(8, "500 triples on each of six instances, zero violations")


# -- criterion 9: separation dichotomy ------------------------------------


def _winning_table(g):
    outcome = solve(SYS, g)
    assert outcome.status == "IWins"
    return outcome.strategy


def _t1_witnesses(g, depth):
    for y in itertools.product(range(g.alphabet), repeat=depth):
        for v in itertools.product(range(g.alphabet), repeat=depth):
            if all(g.t1.contains(y[:j], v[:j]) for j in range(1, depth + 1)):
                yield y, v
                break


def test_criterion_09_separation_dichotomy():
    # The winning pool varies the level, the depth, and the alphabet of
    # a family whose W-side win is forced through the grading of II's
    # answers.  An arbitrary winning instance can win before the first
    # answer is graded, and then the empty sigma is evidence for every
    # y at finite depth; see the finite-depth artifact test in the game
    # suite for a pinned example.
    winning = [
        y_mismatch_game(LEVELS[s], alphabet=2, depth=d)
        for s in ["0", "1", "2"]
        for d in (2, 3, 4)
    ]
    winning.append(y_mismatch_game(LEVELS["1"], alphabet=3, depth=3))
    undetermined = []
    seed = 0
    while len(undetermined) < 5:
        g = seeded_game_instance(seed)
        seed += 1
        if solve(SYS, g).status == "Undetermined":
            undetermined.append(g)

    assert len(winning) == 10
    for g in winning:
        table = _winning_table(g)
        depth = g.depth
        assert depth <= 4
        carriers = list(_t1_witnesses(g, depth))
        checkers = {y: CorrectnessChecker(SYS, g, table, y) for y, _ in carriers}
        for y, _ in carriers:
            assert checkers[y].separator_evidence() is None
        rng = random.Random(9)
        sample = carriers if len(carriers) <= 4 else rng.sample(carriers, 4)
        for y, v in sample:
            transcript = adversarial_play(checkers[y], v, depth, search_bound=3)
            assert transcript.outcome != "ReachedDepth"

    for g in undetermined:
        outcome = solve(SYS, g)
        depth = g.depth
        for x in itertools.product(range(g.alphabet), repeat=depth):
            ys, zs = extract_reduction(outcome.strategy, x)
            yzs = tuple(zip(ys, zs))
            for n in range(1, depth + 1):
                verdict = referee(SYS, g, PartialPlay(x[:n], yzs[:n]))
                assert verdict.status == "Continues"
            half = extract_reduction(outcome.strategy, x[:2])
            assert half == (ys[:2], zs[:2])
    passed(9, "10 winning and 5 open instances behave as a separation")


# -- criterion 10: command-line determinism -------------------------------


def _cli_instances(root):
    uni = Universe(3, 3)
    quick = root / "quickwin.json"
    quick.write_text(json.dumps({
        "xi": "0",
        "W": {"level": "0", "generators": [[]]},
        "T0": {"full": True},
        "T1": {"pairs": [[[], []]]},
        "bounds": {"alphabet": 2, "depth": 3},
        "play": {"xs": [0, 1], "yzs": [[0, 0], [1, 0]]},
        "y": [0, 0, 0, 0],
        "v": [0, 0, 0, 0],
        "searchBound": 3,
    }))
    wadge = root / "wadge.json"
    wadge.write_text(json.dumps({
        "lambda": "w",
        "maxLen": 3,
        "alphabet": 3,
        "W0": {"level": "w",
               "generators": sorted(list(s) for s in uni.all_seqs()
                                    if s and s[0] == 2)},
        "W1": {"level": "w",
               "generators": sorted(list(s) for s in uni.all_seqs()
                                    if s and s[0] in (0, 1))},
        "queries": [[0, 2, 1], [2, 0, 0]],
    }))
    hk = root / "hk.json"
    hk.write_text(json.dumps({
        "alpha": "1",
        "eta": "3",
        "upsets": [
            {"level": "1", "generators": [[0]]},
            {"level": "1", "generators": [[0], [1]]},
            {"level": "1", "generators": [[]]},
        ],
    }))
    return str(quick), str(wadge), str(hk)


def test_criterion_10_cli_byte_determinism(tmp_path):
    quick, wadge, hk = _cli_instances(tmp_path)
    commands = [
        ["verify", "--max-len", "3", "--alphabet", "2", "--levels", "0,1,w"],
        ["jump", "--max-len", "2", "--alphabet", "2"],
        ["truestages", "--max-len", "2", "--alphabet", "2", "--levels", "0,1"],
        ["hk", "roundtrip", "--seed", "7", "--max-len", "3",
         "--alphabet", "2", "--alpha", "1"],
        ["hk", "convert", "--instance", hk],
        ["wadge", "decompose", "--instance", wadge],
        ["wadge", "eval", "--instance", wadge],
        ["lsr", "solve", "--instance", quick],
        ["lsr", "referee", "--instance", quick],
        ["lsr", "separator", "--instance", quick],
        ["lsr", "adversarial", "--instance", quick],
    ]
    for argv in commands:
        for fmt in ("text", "json"):
            full = [_sys.executable, "-m", "truestages", *argv, "--format", fmt]
            first = subprocess.run(full, capture_output=True)
            second = subprocess.run(full, capture_output=True)
            assert first.returncode == second.returncode == 0, argv
            assert first.stdout == second.stdout, argv
    passed(10, "11 subcommands in both formats, repeat runs byte-identical")
