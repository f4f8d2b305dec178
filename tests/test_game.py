import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instance_tools import (
    Rootless,
    Selfless,
    pointwise_tree,
    seeded_game_instance,
    y_mismatch_game,
)
from truestages import cli, game
from truestages.game import (
    PRE_ROOT,
    CorrectnessChecker,
    GameInstance,
    PairTree,
    PartialPlay,
    ResourceBoundError,
    SolveResult,
    StrategyTable,
    StrategyUndefinedError,
    adversarial_play,
    extract_reduction,
    referee,
    solve,
)
from truestages.hierarchy import UpsetRep, eval_at
from truestages.jump import ContractViolationError, DefaultOperator
from truestages.ordinals import ZERO, classify, compare, fund_seq, parse_ordinal, render
from truestages.stages import TrueStageSystem
from truestages.universe import Universe

LEVELS = {s: parse_ordinal(s) for s in ["0", "1", "2", "w"]}
ROOT_ONLY = PairTree.from_pairs([((), ())])
FULL = PairTree(full=True)


@pytest.fixture(scope="module")
def sys_():
    return TrueStageSystem(DefaultOperator())


@pytest.fixture(scope="module")
def quick_win(sys_):
    """W holds everything and T1 holds nothing beyond the root, so the
    first referee check already fires."""
    w = UpsetRep(ZERO, frozenset({()}))
    return GameInstance(ZERO, w, FULL, ROOT_ONLY, alphabet=2, depth=3)


@pytest.fixture(scope="module")
def never_win(sys_):
    """W is empty and T0 is full, so the referee always continues."""
    w = UpsetRep(ZERO, frozenset())
    return GameInstance(ZERO, w, FULL, ROOT_ONLY, alphabet=2, depth=3)


def constant_zero():
    return StrategyTable("I", 8, {})


# -- pair trees -----------------------------------------------------------


def test_from_pairs_closes_under_truncation():
    tree = PairTree.from_pairs([((1, 2), (3, 4))])
    assert tree.contains((1,), (3,))
    assert tree.contains((), ())
    assert not tree.contains((1,), (4,))


def test_explicit_tree_must_be_truncation_closed():
    with pytest.raises(ValueError, match="not truncation-closed"):
        PairTree(pairs=frozenset({((1,), (2,))}))


def test_pair_lengths_must_agree():
    with pytest.raises(ValueError, match="pair lengths differ"):
        PairTree.from_pairs([((1,), (2, 2))])


def test_full_tree_matches_any_equal_length_pair():
    assert FULL.contains((4, 5), (6, 7))
    assert not FULL.contains((4,), (6, 7))


def test_full_tree_rejects_explicit_pairs():
    with pytest.raises(ValueError, match="must not list"):
        PairTree(full=True, pairs=frozenset({((), ())}))


# -- instances ------------------------------------------------------------


def test_instance_level_mismatch_rejected():
    w = UpsetRep(LEVELS["1"], frozenset())
    with pytest.raises(ValueError, match="W lives at level 1, expected 2"):
        GameInstance(LEVELS["2"], w, FULL, FULL, 2, 3)


def empty_w_game(alphabet, depth):
    return GameInstance(ZERO, UpsetRep(ZERO, frozenset()), FULL, FULL, alphabet, depth)


@pytest.mark.parametrize("build, message", [
    (lambda: PairTree(pairs=frozenset({((0,), (0, 1))})), "pair lengths differ: [0], [0,1]"),
    (lambda: empty_w_game(0, 3), "alphabet bound must be positive"),
    (lambda: empty_w_game(2, 0), "depth bound must be positive"),
    (lambda: StrategyTable("III", 3, {}), "unknown side 'III'"),
], ids=["explicit-pair-lengths", "alphabet", "depth", "strategy-side"])
def test_game_parts_reject_bad_values(build, message):
    # The library's own checks, met without the CLI's readers in front.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# -- referee --------------------------------------------------------------


def test_referee_quick_win_round_one(sys_, quick_win):
    v = referee(sys_, quick_win, PartialPlay((0,), ((0, 0),)))
    assert v.f_indices == (1,)
    assert v.ybar == (0,)
    assert v.zbar == (0,)
    assert v.status == "IWon"


def test_referee_never_win_continues(sys_, never_win):
    for play in [
        PartialPlay((0,), ((0, 0),)),
        PartialPlay((1, 0), ((1, 1), (0, 1))),
        PartialPlay((1, 1, 1), ((0, 0), (0, 0), (0, 0))),
    ]:
        assert referee(sys_, never_win, play).status == "Continues"


def test_referee_level_zero_collects_all_rounds(sys_, never_win):
    v = referee(sys_, never_win, PartialPlay((0, 1, 0), ((0, 0), (1, 1), (0, 0))))
    assert v.f_indices == (1, 2, 3)


def test_referee_rejects_mismatched_round_counts(sys_, never_win):
    with pytest.raises(ValueError, match="player I has made 2 moves but player II has made 1"):
        referee(sys_, never_win, PartialPlay((0, 1), ((0, 0),)))
    with pytest.raises(ValueError, match="at least one completed round"):
        referee(sys_, never_win, PartialPlay((), ()))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_referee_final_round_always_counts(data):
    sys2 = TrueStageSystem(DefaultOperator())
    g = seeded_game_instance(data.draw(st.integers(0, 9)))
    n = data.draw(st.integers(1, 4))
    xs = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    yzs = tuple(
        (data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))) for _ in range(n)
    )
    v = referee(sys2, g, PartialPlay(xs, yzs))
    assert n in v.f_indices
    assert len(v.ybar) == len(v.f_indices) == len(v.zbar)


# -- solver ---------------------------------------------------------------


def test_solve_quick_win_by_turn_one(sys_, quick_win):
    r = solve(sys_, quick_win)
    assert r.status == "IWins"
    assert r.by_turn == 1
    assert r.strategy.side == "I"
    assert r.strategy.moves == {(): 0}


def test_solve_never_win_undetermined_at_every_depth(sys_, never_win):
    for depth in (1, 2, 3):
        r = solve(sys_, never_win, depth=depth)
        assert r.status == "Undetermined"
        assert r.strategy.side == "II"


def test_solve_y_mismatch_wins_by_turn_two(sys_):
    for name in ["0", "1", "2"]:
        r = solve(sys_, y_mismatch_game(LEVELS[name]))
        assert r.status == "IWins"
        assert r.by_turn == 2


def test_solve_node_budget_is_enforced(sys_, quick_win):
    with pytest.raises(ResourceBoundError, match="exceeded 2 referee evaluations"):
        solve(sys_, quick_win, max_nodes=2)


def pinned_game(xi: str) -> GameInstance:
    """Both trees hold every pair of length <= 2, so player I wins by
    round 3 and never earlier."""
    level = parse_ordinal(xi)
    both = pointwise_tree(2, 2, lambda a, b: True)
    w = UpsetRep(level, frozenset({(0, 1), (1, 0, 1)}))
    return GameInstance(level, w, both, both, alphabet=2, depth=4)


@pytest.mark.parametrize("xi, budget", [("0", 214), ("1", 321), ("w", 232)])
def test_solve_node_count_is_pinned(xi, budget):
    """Pins the exact number of replies the search judges: a search that
    cuts fewer or more replies, or judges one twice, moves the least
    budget that succeeds."""
    g = pinned_game(xi)
    r = solve(TrueStageSystem(DefaultOperator()), g, max_nodes=budget)
    assert r.status == "IWins"
    assert r.by_turn == 3
    assert len(r.strategy.moves) == 21
    with pytest.raises(ResourceBoundError, match=f"exceeded {budget - 1} referee"):
        solve(TrueStageSystem(DefaultOperator()), g, max_nodes=budget - 1)


@pytest.mark.parametrize("xi", ["0", "1", "w"])
def test_solve_grades_each_x_play_once(xi, monkeypatch):
    graded = []

    def counting_grade(sys, g, xs):
        graded.append(xs)
        return grade(sys, g, xs)

    grade = game._grade
    monkeypatch.setattr(game, "_grade", counting_grade)
    g = pinned_game(xi)
    for _ in range(2):  # a second solve grades afresh
        graded.clear()
        assert solve(TrueStageSystem(DefaultOperator()), g).status == "IWins"
        assert graded
        assert len(graded) == len(set(graded))


@pytest.mark.parametrize("xi", ["0", "1", "w"])
def test_solver_judging_agrees_with_referee(xi):
    """The solver reads II's earlier rounds once per x-play, by _read on
    F without its last round, and judges each reply on that read plus
    the y of round |F| (the reply's own when |F| is the new round) and
    the reply's z; on every play of up to 3 rounds that pair and its
    membership must be the referee's."""
    g = pinned_game(xi)
    sys_ = TrueStageSystem(DefaultOperator())
    pairs = list(itertools.product(range(g.alphabet), repeat=2))
    seen = set()
    for n in range(1, 4):
        for xs in itertools.product(range(g.alphabet), repeat=n):
            tree, f = game._grade(sys_, g, xs)
            for yzs in itertools.product(pairs, repeat=n):
                ypre, zpre = game._read(f[:-1], yzs[:-1])
                judged = (ypre + (yzs[len(f) - 1][0],), zpre + (yzs[-1][1],))
                verdict = referee(sys_, g, PartialPlay(xs, yzs))
                assert judged == (verdict.ybar, verdict.zbar)
                continues = tree.full or judged in tree.pairs
                assert continues == (verdict.status == "Continues")
                seen.add(verdict.status)
    assert seen == {"Continues", "IWon"}


@pytest.mark.parametrize("xi", ["0", "1", "w"])
def test_chain_without_its_own_play_is_a_contract_violation(xi):
    # The solver's read of the earlier rounds needs F to end at the
    # newest round; a system whose chains drop the play itself must fail
    # loudly.  At a limit level the root's empty chain fails first, in
    # the height that picks a fundamental-sequence level.
    g = pinned_game(xi)
    sys_ = Selfless(DefaultOperator())
    first, later = (r"\[\]", r"\[\]") if xi == "w" else (r"\[0\]", r"\[1,0\]")
    with pytest.raises(ContractViolationError,
                       match=rf"chain of {first} does not end at {first} itself"):
        solve(sys_, g)
    with pytest.raises(ContractViolationError, match=rf"chain of {later}"):
        referee(sys_, g, PartialPlay((1, 0), ((0, 0), (1, 1))))


def assert_beats_every_reply(sys_, g: GameInstance, r) -> None:
    """Replays r's side-I strategy against every reply of II, judged by
    the referee: I wins each play by round r.by_turn."""

    def walk(xs, yzs):
        x = r.strategy.moves[yzs]
        xs2 = xs + (x,)
        for y in range(g.alphabet):
            for z in range(g.alphabet):
                yzs2 = yzs + ((y, z),)
                if referee(sys_, g, PartialPlay(xs2, yzs2)).status == "IWon":
                    continue
                assert len(xs2) < r.by_turn
                walk(xs2, yzs2)

    walk((), ())


def test_winning_strategy_replay_beats_every_reply(sys_):
    g = y_mismatch_game(ZERO)
    assert_beats_every_reply(sys_, g, solve(sys_, g))


def reference_solve(sys_, g: GameInstance) -> SolveResult:
    """Full minimax with no cuts, every reply judged by the referee.

    I's strategy plays the least move among those that force a win by
    the least round; II's plays, against each x, the first reply in
    (y, z) order from which I cannot force a win."""
    pairs = list(itertools.product(range(g.alphabet), repeat=2))
    values: dict = {}

    def continues(xs, yzs):
        return referee(sys_, g, PartialPlay(xs, yzs)).status == "Continues"

    def value(xs, yzs):
        """(least round by which I forces a win, least such x), or None."""
        if len(xs) == g.depth:
            return None
        if (xs, yzs) not in values:
            wins = []
            for x in range(g.alphabet):
                rounds = [
                    value(xs + (x,), yzs + (p,)) if continues(xs + (x,), yzs + (p,))
                    else (len(xs) + 1,)
                    for p in pairs
                ]
                if None not in rounds:
                    wins.append((max(r[0] for r in rounds), x))
            values[(xs, yzs)] = min(wins) if wins else None
        return values[(xs, yzs)]

    def fill_i(moves, xs, yzs):
        x = moves[yzs] = value(xs, yzs)[1]
        for p in pairs:
            if continues(xs + (x,), yzs + (p,)):
                fill_i(moves, xs + (x,), yzs + (p,))

    def fill_ii(moves, xs, yzs):
        if len(xs) == g.depth:
            return
        for x in range(g.alphabet):
            reply = next(
                p for p in pairs
                if continues(xs + (x,), yzs + (p,))
                and value(xs + (x,), yzs + (p,)) is None
            )
            moves[xs + (x,)] = reply
            fill_ii(moves, xs + (x,), yzs + (reply,))

    moves: dict = {}
    root = value((), ())
    if root is None:
        fill_ii(moves, (), ())
        return SolveResult("Undetermined", StrategyTable("II", g.depth, moves))
    fill_i(moves, (), ())
    return SolveResult("IWins", StrategyTable("I", g.depth, moves), by_turn=root[0])


def test_solve_matches_the_full_minimax_reference():
    """The solver's cuts skip only what cannot change a value or the
    least move that reaches it, so its whole result, strategy included,
    is the uncut search's."""
    shapes = [(2, 3, 40), (2, 4, 12), (3, 2, 40), (3, 3, 4)]  # alphabet, depth, seeds
    games = [seeded_game_instance(seed, b, d) for b, d, n in shapes for seed in range(n)]
    statuses = {2: set(), 3: set()}
    for g in games:
        sys_ = TrueStageSystem(DefaultOperator())
        r = solve(sys_, g)
        assert r == reference_solve(sys_, g)
        statuses[g.alphabet].add(r.status)
    assert statuses == {2: {"IWins", "Undetermined"}, 3: {"IWins", "Undetermined"}}


def test_alphabet_three_depth_five_solve_fits_the_default_budget():
    """Both trees hold every pair of length <= 3 and W lies off the
    all-zero branch, so I wins at round 4 and never earlier.  A search
    of every reply to every x judges more replies than the default
    budget allows."""
    level = parse_ordinal("1")
    both = pointwise_tree(3, 3, lambda a, b: True)
    w = UpsetRep(level, frozenset({(0, 1), (1, 0, 2)}))
    g = GameInstance(level, w, both, both, alphabet=3, depth=5)
    sys_ = TrueStageSystem(DefaultOperator())
    r = solve(sys_, g)
    assert r.status == "IWins"
    assert r.by_turn == 4
    assert_beats_every_reply(sys_, g, r)


# -- strategies -----------------------------------------------------------


def replay(table, y, sigma):
    """Player I's moves against the pair play (y, sigma), read straight
    off the table: the answer to the first i pairs for each i up to
    |sigma|, and 0 where the table lists no answer."""
    if sigma is PRE_ROOT:
        return ()
    yzs = tuple(zip(y, sigma))
    return tuple(table.moves.get(yzs[:i], 0) for i in range(len(sigma) + 1))


def test_apply_strategy_pre_root_is_empty(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (7, 7))
    assert chk.play(PRE_ROOT) == ()


def test_apply_strategy_constant_zero(sys_, never_win):
    def play(table, y, sigma):
        return CorrectnessChecker(sys_, never_win, table, y).play(sigma)

    assert play(constant_zero(), (9,), (4,)) == (0, 0)
    # A listed history plays its move and an unlisted one plays 0.
    partial = StrategyTable("I", 3, {(): 1, ((9, 4),): 1})
    assert play(partial, (9, 9), (4, 4)) == (1, 1, 0)
    assert play(partial, (9,), (5,)) == (1, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=4))
def test_apply_strategy_length_law(sys_, never_win, sigma):
    sigma = tuple(sigma)
    y = tuple(1 for _ in sigma)
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), y)
    assert len(chk.play(sigma)) == len(sigma) + 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_each_play_matches_the_straight_line_replay(sys_, never_win, data):
    """Each play is memoised as its parent's play and one move, so a
    fresh checker asked for sigma first and then for every prefix must
    agree with the table read straight through."""
    moves = st.integers(0, 2)
    y = tuple(data.draw(st.lists(moves, max_size=4), label="y"))
    sigma = tuple(data.draw(st.lists(moves, max_size=len(y)), label="sigma"))
    yzs = tuple(zip(y, sigma))
    # Answers at the histories this play reaches, some left unlisted,
    # and at histories it never reaches.
    listed = data.draw(st.lists(st.booleans(), min_size=len(sigma) + 1,
                                max_size=len(sigma) + 1), label="listed")
    table = {yzs[:i]: data.draw(moves) for i, on in enumerate(listed) if on}
    pair = st.tuples(moves, moves)
    table.update(data.draw(st.dictionaries(
        st.lists(pair, max_size=4).map(tuple), moves, max_size=4), label="others"))
    table = StrategyTable("I", 4, table)
    chk = CorrectnessChecker(sys_, never_win, table, y)
    assert chk.play(sigma) == replay(table, y, sigma)
    for i in range(len(sigma)):
        assert chk.play(sigma[:i]) == replay(table, y, sigma[:i])


def test_apply_strategy_needs_enough_y(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (1,))
    with pytest.raises(ValueError, match="need 2 values of y, got 1"):
        chk.play((0, 0))


def test_apply_strategy_rejects_side_two(sys_, never_win):
    table = StrategyTable("II", 3, {})
    with pytest.raises(ValueError, match="correctness analysis needs a side I strategy"):
        CorrectnessChecker(sys_, never_win, table, ())


def test_undefined_play_raises():
    # A side II table answers only the x-plays it lists.
    table = StrategyTable("II", 3, {(0,): (0, 0)})
    with pytest.raises(StrategyUndefinedError, match="undefined after opponent moves"):
        extract_reduction(table, (0, 1))


# -- correctness ----------------------------------------------------------


@pytest.mark.parametrize("y, sigma", [((0,), (0, 0)), ((), (1,)), ((0,), (0, 0, 0))])
def test_correctness_needs_enough_y(sys_, y, sigma):
    """The message names the sigma asked about, not a shorter prefix that
    a fill reaches first, whatever the level."""
    chk = CorrectnessChecker(sys_, y_mismatch_game(ZERO), constant_zero(), y)
    msg = f"need {len(sigma)} values of y, got {len(y)}"
    with pytest.raises(ValueError, match=msg):
        chk.play(sigma)
    for alpha in (LEVELS["0"], LEVELS["1"], LEVELS["w"]):
        with pytest.raises(ValueError, match=msg):
            chk.is_correct(sigma, alpha)
        with pytest.raises(ValueError, match=msg):
            chk.is_strongly_correct(sigma, alpha)


def test_pre_root_is_strongly_correct_at_every_level(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0))
    for name in ["0", "1", "2"]:
        assert chk.is_strongly_correct(PRE_ROOT, LEVELS[name])


def test_zero_correct_matches_referee_run(sys_):
    g = y_mismatch_game(ZERO)
    table = solve(sys_, g).strategy
    for y in itertools.product(range(2), repeat=3):
        chk = CorrectnessChecker(sys_, g, table, y)
        for n in range(3):
            for sigma in itertools.product(range(2), repeat=n):
                xs: list[int] = []
                yzs = ()
                continues = True
                for i in range(len(sigma)):
                    xs.append(table.move_at(yzs))
                    yzs = yzs + ((y[i], sigma[i]),)
                    v = referee(sys_, g, PartialPlay(tuple(xs), yzs))
                    if v.status == "IWon":
                        continues = False
                        break
                assert chk.is_correct(sigma, ZERO) == continues


def test_correctness_laws_on_sampled_triples(sys_):
    rng = random.Random(4)
    for name in ["0", "1", "2"]:
        xi = LEVELS[name]
        base = seeded_game_instance(3)
        g = GameInstance(xi, UpsetRep(xi, base.w.generators), base.t0, base.t1, 2, 3)
        checkers: dict = {}  # one checker per y
        levels = [LEVELS[t] for t in ["0", "1", "2"] if compare(LEVELS[t], xi) <= 0]
        pool = [PRE_ROOT] + [
            s for n in range(4) for s in itertools.product(range(2), repeat=n)
        ]
        for _ in range(80):
            y = tuple(rng.randrange(2) for _ in range(4))
            sigma = rng.choice(pool)
            alpha = rng.choice(levels)
            chk = checkers.get(y)
            if chk is None:
                chk = checkers[y] = CorrectnessChecker(sys_, g, constant_zero(), y)
            strong = chk.is_strongly_correct(sigma, alpha)
            plain = chk.is_correct(sigma, alpha)
            if strong:
                assert plain
            if compare(alpha, ZERO) == 0:
                assert strong == plain
            if plain:
                for beta in levels:
                    if compare(beta, alpha) < 0:
                        assert chk.is_strongly_correct(sigma, beta)
            if strong and sigma is not PRE_ROOT:
                for i in range(len(sigma) + 1):
                    rho = sigma[:i]
                    if chk.tri_leq(rho, sigma, alpha):
                        assert chk.is_strongly_correct(rho, alpha)
            if plain and sigma is not PRE_ROOT:
                for i in range(len(sigma)):
                    rho = sigma[:i]
                    if chk.is_correct(rho, alpha):
                        assert chk.tri_leq(rho, sigma, alpha)
            assert chk.is_strongly_correct(PRE_ROOT, alpha)


class ReferenceCorrectness:
    """Correctness along the checker's y from the definitions,
    independent of the checker's memo and of the chains it reads.

    One table per level gives every node's (correct, strongly correct)
    pair and is built straight from the tables below it: tri_leq asked
    about the pre-root token and every prefix, 0-correctness graded
    round by round with the referee, and at a limit the first four
    fundamental-sequence levels plus the one sys.height selects, where
    the checker reads only the last; the law test below pins that the
    two agree.  The nodes must be closed under prefixes.
    """

    def __init__(self, chk: CorrectnessChecker, nodes: list):
        self.chk = chk
        self.y = chk.y
        self.nodes = nodes
        self.tables: dict = {}

    def related(self, sigma, alpha):
        prefixes = [] if sigma is PRE_ROOT else [sigma[:i] for i in range(len(sigma) + 1)]
        return [
            tau for tau in [PRE_ROOT] + prefixes
            if self.chk.tri_leq(tau, sigma, alpha)
        ]

    def table(self, alpha) -> dict:
        if alpha not in self.tables:
            correct = {sigma: self.correct(sigma, alpha) for sigma in self.nodes}
            self.tables[alpha] = {
                sigma: (correct[sigma],
                        all(correct[tau] for tau in self.related(sigma, alpha)))
                for sigma in self.nodes
            }
        return self.tables[alpha]

    def correct(self, sigma, alpha) -> bool:
        chk, y = self.chk, self.y
        cls = classify(alpha)
        if cls.kind == "zero":
            rounds = 0 if sigma is PRE_ROOT else len(sigma)
            return all(
                referee(chk.sys, chk.game, PartialPlay(
                    replay(chk.table, y, sigma[: i - 1]),
                    tuple(zip(y[:i], sigma[:i])),
                )).status == "Continues"
                for i in range(1, rounds + 1)
            )
        if cls.kind == "successor":
            below = self.table(cls.predecessor)
            if not below[sigma][1]:
                return False
            related = self.related(sigma, alpha)
            return all(
                tau in related
                for tau in self.related(sigma, cls.predecessor)
                if below[tau][1]
            )
        xs = replay(chk.table, y, sigma)
        k = chk.sys.height(xs, alpha)
        return all(
            self.table(fund_seq(alpha, j))[sigma][0] for j in sorted({0, 1, 2, 3, k})
        )


@pytest.mark.parametrize("table_kind", ["constant", "solved", "copy"])
@pytest.mark.parametrize("xi", ["1", "w"])
def test_checker_matches_straight_line_reference(xi, table_kind):
    """The constant strategy induces one play for every node, so its
    chains never tell nodes apart; the copying one (I plays II's last z)
    makes the induced plays, and their chains, differ from node to node."""
    g = pinned_game(xi)
    sys2 = TrueStageSystem(DefaultOperator())
    if table_kind == "constant":
        table = constant_zero()
    elif table_kind == "copy":
        histories = [
            k for n in range(4)
            for k in itertools.product(itertools.product(range(2), repeat=2), repeat=n)
        ]
        table = StrategyTable("I", 8, {k: k[-1][1] if k else 0 for k in histories})
    else:
        r = solve(sys2, g)
        assert r.status == "IWins"
        table = StrategyTable("I", 8, dict(r.strategy.moves))
    nodes = [PRE_ROOT] + Universe(3, 2).all_seqs()
    levels = [parse_ordinal(s) for s in ["0", "1", "2", "w", "w+1"]]
    seen = set()
    for y in itertools.product(range(2), repeat=3):
        chk = CorrectnessChecker(sys2, g, table, y)
        ref = ReferenceCorrectness(chk, nodes)
        for alpha in levels:
            want = ref.table(alpha)
            for sigma in nodes:
                got = (chk.is_correct(sigma, alpha),
                       chk.is_strongly_correct(sigma, alpha))
                assert got == want[sigma], (y, sigma, render(alpha))
                seen.add(got)
    assert {(False, False), (True, True)} <= seen


@pytest.mark.parametrize("generators, v, entries", [
    ({(1,), (0, 1)}, None, {"_is_correct": 64, "_play": 6}),
    ({(0, 0)}, (0, 1, 1, 0, 1, 0), {"_is_correct": 81, "_play": 7}),
], ids=["T0", "T1"])
def test_checker_memo_holds_plays_and_correctness_only(generators, v, entries):
    # The golden adversarial games: strong correctness is read from the
    # correctness memo, so it adds no memo entries of its own.
    xi = parse_ordinal("w+1")
    g = GameInstance(xi, UpsetRep(xi, frozenset(generators)), FULL, FULL,
                     alphabet=2, depth=5)
    chk = CorrectnessChecker(TrueStageSystem(DefaultOperator()), g,
                             StrategyTable("I", 6, {}), (0, 1, 1, 0, 1, 0))
    adversarial_play(chk, v, depth=5, search_bound=3)
    assert collections.Counter(fill.__name__ for fill, *_ in chk._memo) == entries


# Every history of up to 3 pairs over {0, 1}, the keys of a random table.
HISTORIES = [
    k for n in range(4)
    for k in itertools.product(itertools.product(range(2), repeat=2), repeat=n)
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.integers(0, 1), min_size=len(HISTORIES), max_size=len(HISTORIES)),
       st.tuples(*[st.integers(0, 1)] * 3))
def test_checker_matches_reference_on_random_games(seed, moves, y):
    """Random games, random side-I tables and a random y: unlike the
    pinned game, tree membership here depends on more than the size of
    F, and the induced plays differ from node to node.  Level 0 is
    compared too: a checker that grades only a node's last round agrees
    with the reference at every level above 0, since strong 0-correctness
    grades every prefix and w's fundamental sequence starts at 1."""
    g = seeded_game_instance(seed)
    table = StrategyTable("I", 8, dict(zip(HISTORIES, moves)))
    chk = CorrectnessChecker(TrueStageSystem(DefaultOperator()), g, table, y)
    nodes = [PRE_ROOT] + Universe(3, 2).all_seqs()
    ref = ReferenceCorrectness(chk, nodes)
    for alpha in (parse_ordinal(s) for s in ["0", "1", "2", "w"]):
        want = ref.table(alpha)
        for sigma in nodes:
            got = (chk.is_correct(sigma, alpha), chk.is_strongly_correct(sigma, alpha))
            assert got == want[sigma], (sigma, render(alpha))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6),
       st.lists(st.integers(0, 1), min_size=len(HISTORIES), max_size=len(HISTORIES)),
       st.tuples(*[st.integers(0, 1)] * 3))
def test_limit_correctness_is_the_same_at_every_index(seed, moves, y):
    """The checker decides a limit level at the member of the fundamental
    sequence that the induced play's height k selects, and at no other.
    That rests on this law: correctness at lam[j] is the same for every
    j from 0 to k + 4."""
    g = seeded_game_instance(seed)
    table = StrategyTable("I", 8, dict(zip(HISTORIES, moves)))
    sys2 = TrueStageSystem(DefaultOperator())
    chk = CorrectnessChecker(sys2, g, table, y)
    for lam in (parse_ordinal("w"), parse_ordinal("w*2")):
        for sigma in [PRE_ROOT] + Universe(3, 2).all_seqs():
            k = sys2.height(chk.play(sigma), lam)
            verdicts = {chk.is_correct(sigma, fund_seq(lam, j)) for j in range(k + 5)}
            assert len(verdicts) == 1, (sigma, render(lam))


def test_limit_level_correctness_runs(sys_):
    base = seeded_game_instance(7)
    w = LEVELS["w"]
    g = GameInstance(w, UpsetRep(w, base.w.generators), base.t0, base.t1, 2, 3)
    chk = CorrectnessChecker(sys_, g, constant_zero(), (0, 1, 0, 1))
    assert chk.is_strongly_correct(PRE_ROOT, w)
    assert chk.is_correct((), w)
    tau = chk.extend_correct((), w, search_bound=3)
    assert chk.is_strongly_correct(tau, w)
    assert tau == next(
        tau for n in range(3) for tau in itertools.product(range(2), repeat=n)
        if chk.is_strongly_correct(tau, w)
    )


@pytest.mark.parametrize("sigma, tau, related", [
    (PRE_ROOT, (0,), True),
    ((1,), (0, 1), False),
    ((0,), PRE_ROOT, False),
    ((), PRE_ROOT, False),
], ids=["pre-root-below-all", "not-a-prefix", "above-pre-root", "root-above-pre-root"])
def test_tri_leq_needs_a_prefix_pair(sys_, never_win, sigma, tau, related):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0))
    assert chk.tri_leq(sigma, tau, ZERO) is related


# -- extension search -----------------------------------------------------


def test_extend_at_level_zero_returns_sigma(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0))
    assert chk.extend_correct((), ZERO, 3) == ()
    # sigma itself is the search's first candidate, so a bound of 0,
    # which searches nothing, finds nothing at level 0 as at any level.
    assert chk.extend_correct((), ZERO, 1) == ()
    assert chk.extend_correct((), ZERO, 0) is None


def test_extend_with_empty_search_space(sys_):
    one = LEVELS["1"]
    g = GameInstance(one, UpsetRep(one, frozenset()), FULL, ROOT_ONLY, 2, 3)
    chk = CorrectnessChecker(sys_, g, constant_zero(), (0, 0, 0))
    assert chk.extend_correct((), one, search_bound=0) is None


def test_extend_search_bound_edge(sys_):
    """A bound of b searches extensions by at most b - 1 entries.  Here
    () is strongly w-correct, so its shortest strongly correct extension
    is () itself, by 0 entries: bound 1 finds it and bound 0 does not.
    No longer shortest extension was found to pin: on random small games
    at levels 1 to w*2, every prefix of a strongly correct node was
    strongly correct."""
    w = LEVELS["w"]
    g = GameInstance(w, UpsetRep(w, frozenset()), FULL, ROOT_ONLY, 2, 3)
    chk = CorrectnessChecker(sys_, g, constant_zero(), (0, 0, 0))
    assert chk.is_strongly_correct((), w)
    assert chk.extend_correct((), w, 1) == ()
    assert chk.extend_correct((), w, 0) is None


def test_extend_found_is_independently_verified(sys_):
    one = LEVELS["1"]
    g = GameInstance(one, UpsetRep(one, frozenset()), FULL, ROOT_ONLY, 2, 3)
    chk = CorrectnessChecker(sys_, g, constant_zero(), (0, 0, 0, 0))
    tau = chk.extend_correct((), one, search_bound=3)
    assert chk.is_strongly_correct(tau, one)
    exhaustive = [
        tau for n in range(3) for tau in itertools.product(range(2), repeat=n)
        if chk.is_strongly_correct(tau, one)
    ]
    assert tau == exhaustive[0]  # the first in shortlex order


def test_extend_precondition_errors(sys_, quick_win):
    chk = CorrectnessChecker(sys_, quick_win, constant_zero(), (0, 0, 0))
    with pytest.raises(ValueError, match="rho is not strongly 0-correct"):
        chk.extend_correct((0, 0), ZERO, 3)
    with pytest.raises(ValueError, match="sigma is not 0-correct"):
        chk.extend_correct((0,), LEVELS["1"], 3)


# -- evidence and adversarial play ----------------------------------------


def test_evidence_on_full_w(sys_, quick_win):
    chk = CorrectnessChecker(sys_, quick_win, constant_zero(), (0, 0, 0))
    assert chk.separator_evidence() == ()


def test_no_evidence_on_empty_w(sys_, never_win):
    for bound in (0, 1, 2, 3):
        chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0)[:bound])
        assert chk.separator_evidence() is None


def test_evidence_separates_on_winning_instance(sys_):
    g = y_mismatch_game(ZERO)
    r = solve(sys_, g)
    table = StrategyTable("I", 8, dict(r.strategy.moves))
    ev1 = CorrectnessChecker(sys_, g, table, (1, 1, 1, 1)).separator_evidence()
    assert ev1 is None
    chk = CorrectnessChecker(sys_, g, table, (0, 0, 0, 0))
    ev0 = chk.separator_evidence()
    assert chk.is_strongly_correct(ev0, g.xi)


def test_adversarial_halts_on_winning_instance(sys_, quick_win):
    r = solve(sys_, quick_win)
    table = StrategyTable("I", 8, dict(r.strategy.moves))
    chk = CorrectnessChecker(sys_, quick_win, table, (0, 0, 0))
    t = adversarial_play(chk, (0, 0, 0), depth=3, search_bound=3)
    assert t.outcome == "PlayerIWon"
    assert len(t.steps) == 1
    assert t.steps[0].sigma == ()
    assert t.failed_extension == (0,)
    # In T0 mode no entry stays 0-correct, so the failed extension is the
    # last one tried: the largest entry of the alphabet.
    t = adversarial_play(chk, None, depth=3, search_bound=3)
    assert (t.mode, t.outcome) == ("T0", "PlayerIWon")
    assert [s.sigma for s in t.steps] == [()]
    assert t.failed_extension == (1,)


def test_adversarial_survives_on_undetermined_instance(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0, 0))
    t = adversarial_play(chk, None, depth=3, search_bound=2)
    assert t.outcome == "ReachedDepth"
    assert [s.sigma for s in t.steps] == [(), (0,), (0, 0), (0, 0, 0)]
    for step in t.steps:
        assert step.strongly_correct
        assert step.witness_set_matches
    assert [s.appended_matches for s in t.steps] == [None, True, True, True]
    # y has four entries, so a fifth step has no y-entry to answer.
    t = adversarial_play(chk, None, depth=5, search_bound=2)
    assert t.outcome == "WitnessExhausted"
    assert [s.sigma for s in t.steps] == [(0,) * n for n in range(5)]


def test_adversarial_t1_mode_tracks_witness(sys_, never_win):
    w = UpsetRep(ZERO, frozenset({()}))
    g = GameInstance(ZERO, w, ROOT_ONLY, FULL, alphabet=2, depth=3)
    chk = CorrectnessChecker(sys_, g, constant_zero(), (1, 0, 1, 0))
    t = adversarial_play(chk, (1, 1, 0, 0), depth=3, search_bound=2)
    assert t.mode == "T1"
    assert t.outcome == "ReachedDepth"
    assert [s.sigma for s in t.steps] == [(), (1,), (1, 1), (1, 1, 0)]
    for step in t.steps:
        assert step.strongly_correct
        assert step.witness_set_matches
        assert step.witness_consistent in (None, True)
    # v has four entries, so a fifth step has no v-entry to append.
    t = adversarial_play(chk, (1, 1, 0, 0), depth=5, search_bound=2)
    assert t.outcome == "WitnessExhausted"
    assert [s.sigma for s in t.steps] == [(1, 1, 0, 0)[:n] for n in range(5)]


def test_adversarial_without_evidence_reports_it(sys_, never_win):
    chk = CorrectnessChecker(sys_, never_win, constant_zero(), (0, 0, 0))
    t = adversarial_play(chk, (0, 0, 0), depth=2, search_bound=2)
    assert t.outcome == "NoEvidence"
    assert t.steps == ()
    # The T0 play starts at the empty sequence, which is strongly
    # correct under any lawful system.  A system that breaks TS2 leaves
    # it strongly correct at no level above 0, so the first extension
    # refuses it.
    w = UpsetRep(LEVELS["1"], frozenset())
    g = GameInstance(LEVELS["1"], w, FULL, ROOT_ONLY, alphabet=2, depth=3)
    chk = CorrectnessChecker(Rootless(DefaultOperator()), g, constant_zero(), (0, 0, 0))
    with pytest.raises(ValueError, match="rho is not strongly 1-correct"):
        adversarial_play(chk, None, depth=2, search_bound=2)


# -- reduction extraction -------------------------------------------------


def test_reduction_replay_never_loses(sys_, never_win):
    r = solve(sys_, never_win)
    assert r.status == "Undetermined"
    for xs in itertools.product(range(2), repeat=3):
        ys, zs = extract_reduction(r.strategy, xs)
        yzs = tuple(zip(ys, zs))
        for j in range(1, len(xs) + 1):
            v = referee(sys_, never_win, PartialPlay(xs[:j], yzs[:j]))
            assert v.status == "Continues"


def test_reduction_is_prefix_monotone(sys_, never_win):
    r = solve(sys_, never_win)
    long = extract_reduction(r.strategy, (0, 1, 0))
    short = extract_reduction(r.strategy, (0, 1))
    assert long[0][:2] == short[0]
    assert long[1][:2] == short[1]


def test_reduction_needs_side_two():
    with pytest.raises(ValueError, match="needs a side II strategy"):
        extract_reduction(constant_zero(), (0,))


# -- serialization --------------------------------------------------------


def test_pair_tree_from_json():
    def read(data):
        return cli._pair_tree_from_json(data, "T0", 2)

    assert read({"full": True}) == FULL
    assert read({"pairs": [[[], []]]}) == ROOT_ONLY
    # Listed pairs are closed under simultaneous truncation.
    tree = read({"pairs": [[[0, 1], [1, 1]]]})
    assert tree.pairs == {((), ()), ((0,), (1,)), ((0, 1), (1, 1))}
    tree = pointwise_tree(2, 3, lambda a, b: a == b)
    data = {"pairs": [[list(y), list(z)] for y, z in tree.pairs]}
    assert read(data) == tree
    with pytest.raises(ValueError, match="pair lengths differ"):
        read({"pairs": [[[0], []]]})


def test_game_from_json(quick_win):
    data = {
        "xi": "0",
        "W": {"level": "0", "generators": [[]]},
        "T0": {"full": True},
        "T1": {"pairs": [[[], []]]},
        "bounds": {"alphabet": 2, "depth": 3},
    }
    assert cli._game_from_json(data) == quick_win
    with pytest.raises(ValueError, match="W lives at level 1, expected 0"):
        cli._game_from_json({**data, "W": {"level": "1", "generators": []}})


def test_strategy_json_round_trip(sys_, quick_win, never_win):
    for g, depth in [(quick_win, None), (never_win, 2)]:
        table = solve(sys_, g, depth=depth).strategy
        data = cli._strategy_to_json(table)
        assert cli._strategy_from_json(data, g.alphabet) == table


def test_finite_depth_evidence_artifact(sys_):
    """A winning strategy can open with a move whose singleton already
    lies in W.  The empty sigma is strongly correct for every strategy
    and its play is that one move, so every y gets evidence, including
    y carried by T1.  The infinite refutation would extend sigma
    indefinitely, but with fewer rounds than byTurn nothing has been
    graded yet, so no finite contradiction exists.  Separation checks
    therefore use instances whose win runs through the grading of II's
    answers; this test pins the artifact itself."""
    g = seeded_game_instance(10)
    r = solve(sys_, g)
    assert r.status == "IWins"
    assert r.by_turn == 2
    table = StrategyTable("I", 8, dict(r.strategy.moves))
    opening = table.move_at(())
    assert eval_at(sys_, g.w, (opening,))
    carrier = next(
        (y, v)
        for y in itertools.product(range(2), repeat=3)
        for v in itertools.product(range(2), repeat=3)
        if all(g.t1.contains(y[:j], v[:j]) for j in range(1, 4))
    )
    y, v = carrier
    chk = CorrectnessChecker(sys_, g, table, y)
    assert chk.separator_evidence() == ()
    # every 0-correct sigma is still shorter than byTurn, and the
    # adversarial run never survives to the depth bound
    for n in range(4):
        for sigma in itertools.product(range(2), repeat=n):
            if chk.is_correct(sigma, ZERO):
                assert len(sigma) < r.by_turn
    assert adversarial_play(chk, v, 3, search_bound=3).outcome != "ReachedDepth"
