"""A two-player separation game with an open winning condition.

Player I builds a sequence x one entry at a time; player II answers with
pairs (y, z).  A fixed upward-closed set W gives each finite x an opinion,
and II is graded only at the stages that currently look true and share
that opinion: the referee collects z-entries at those stages and asks
whether the collected pair still lies in the corresponding tree T0 or T1.
The referee check is open for player I, so bounded-depth play is exactly
solvable by backward induction.  The search stops on a move of player I
as soon as it cannot beat the best move found so far; ties go to the
least move, so these cuts never change the value or the strategy.  The
newest round is always graded, since x ends its own chain (TS2), so the
replies to one x-play differ only in their own entries: the solver
grades each x-play once and reads II's earlier answers once for all the
replies to it, through the same reader as the referee.

A strategy for player I pulls the true-stage relations back onto the
candidate second coordinates that II might play.  The resulting
correctness predicates, the extension search, the evidence search for
the separating set, and the adversarial play that tries to defeat a
winning strategy are all implemented here at finite scale.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from .hierarchy import UpsetRep, eval_at
from .jump import ContractViolationError
from .ordinals import (
    OrdinalNotation,
    ZERO,
    classify,
    fund_seq,
    render,
)
from .stages import Memo, TrueStageSystem
from .universe import InputError, Seq, seq_str, shortlex


class StrategyUndefinedError(ValueError):
    """A strategy table was consulted at a play it does not cover."""


class ResourceBoundError(RuntimeError):
    """The solver exceeded its node budget before reaching an answer."""


class _PreRoot:
    def __repr__(self) -> str:
        return "pre-root"


# Distinguished token preceding the empty sequence; by convention its
# length is -1 and every strategy answers it with the empty play.
PRE_ROOT = _PreRoot()

Node = Union[Seq, _PreRoot]
Pair = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class PairTree:
    """A tree of equal-length sequence pairs, or the full such tree.

    Explicit trees must be closed under simultaneous truncation; use
    from_pairs to close an arbitrary pair set.
    """

    full: bool = False
    pairs: frozenset[tuple[Seq, Seq]] = frozenset()

    def __post_init__(self) -> None:
        if self.full and self.pairs:
            raise ValueError("a full tree must not list explicit pairs")
        for y, z in self.pairs:
            if len(y) != len(z):
                raise InputError(f"pair lengths differ: {seq_str(y)}, {seq_str(z)}")
            if y and (y[:-1], z[:-1]) not in self.pairs:
                raise ValueError(
                    f"tree is not truncation-closed at ({seq_str(y)}, {seq_str(z)})"
                )

    @staticmethod
    def from_pairs(pairs) -> "PairTree":
        closed = set()
        for y, z in pairs:
            y, z = tuple(y), tuple(z)
            if len(y) != len(z):
                raise InputError(f"pair lengths differ: {seq_str(y)}, {seq_str(z)}")
            for j in range(len(y) + 1):
                closed.add((y[:j], z[:j]))
        return PairTree(pairs=frozenset(closed))

    def contains(self, ybar: Seq, zbar: Seq) -> bool:
        if len(ybar) != len(zbar):
            return False
        if self.full:
            return True
        return (tuple(ybar), tuple(zbar)) in self.pairs


@dataclasses.dataclass(frozen=True)
class GameInstance:
    """Game data: the opinion set W at level xi, the two pair trees, and
    the bounds within which plays are enumerated.

    W is represented by generators, so it is upward closed in the
    level-xi relation by construction.
    """

    xi: OrdinalNotation
    w: UpsetRep
    t0: PairTree
    t1: PairTree
    alphabet: int
    depth: int

    def __post_init__(self) -> None:
        if self.w.level != self.xi:
            raise InputError(
                f"W lives at level {render(self.w.level)}, expected {render(self.xi)}"
            )
        if self.alphabet < 1:
            raise ValueError("alphabet bound must be positive")
        if self.depth < 1:
            raise ValueError("depth bound must be positive")


@dataclasses.dataclass(frozen=True)
class PartialPlay:
    """Position at the start of one of player I's turns: I has played xs
    and II has answered with the pairs in yzs."""

    xs: Seq
    yzs: tuple[Pair, ...]


@dataclasses.dataclass(frozen=True)
class RefereeVerdict:
    f_indices: tuple[int, ...]
    ybar: Seq
    zbar: Seq
    status: str  # "IWon" or "Continues"


# The judging tree and the index set F of one x-play.
Grade = tuple[PairTree, tuple[int, ...]]


def referee(sys: TrueStageSystem, g: GameInstance, play: PartialPlay) -> RefereeVerdict:
    """Grade a position.

    The index set F keeps the 1-based rounds i whose prefix of x looks
    true at level xi now (and shares x's opinion about W when x has one).
    II is judged on the first |F| y-entries together with the z-entries
    from exactly the rounds in F.
    """
    n = len(play.xs)
    if len(play.yzs) != n:
        raise InputError(
            f"player I has made {n} moves but player II has made {len(play.yzs)}"
        )
    if n < 1:
        raise InputError("referee needs at least one completed round")
    tree, f = _grade(sys, g, tuple(play.xs))
    ybar, zbar = _read(f, play.yzs)
    status = "Continues" if tree.contains(ybar, zbar) else "IWon"
    return RefereeVerdict(f, ybar, zbar, status)


def _grade(sys: TrueStageSystem, g: GameInstance, xs: Seq) -> Grade:
    """Player I's half of the referee: the tree that judges II, chosen by
    x's opinion about W, and the index set F.  Neither reads II's answers,
    so one grade serves every reply to the same x-play.

    F ends at |x|, since x ends its own chain (TS2) and shares its own
    opinion; the solver's read of the earlier rounds needs this, so a
    system that breaks it raises ContractViolationError."""
    in_w = eval_at(sys, g.w, xs)
    f = tuple(
        len(rho) for rho in sys.chain(xs, g.xi)
        if rho and (not in_w or eval_at(sys, g.w, rho))
    )
    if not f or f[-1] != len(xs):
        raise ContractViolationError(
            f"the level-{render(g.xi)} chain of {seq_str(xs)} does not end at "
            f"{seq_str(xs)} itself (TS2)"
        )
    return (g.t1 if in_w else g.t0), f


def _read(f: tuple[int, ...], yzs: tuple[Pair, ...]) -> tuple[Seq, Seq]:
    """Player II's half of the referee: the y-entries of the first |F|
    rounds and the z-entries of exactly the rounds in F."""
    return tuple([y for y, _ in yzs[: len(f)]]), tuple([yzs[a - 1][1] for a in f])


@dataclasses.dataclass(frozen=True)
class StrategyTable:
    """A deterministic strategy, keyed by the opponent's moves so far.

    For side I a key is the tuple of (y, z) pairs played by II and the
    value is the next x; player I plays 0 at any key the table does not
    list.  For side II a key is the tuple of x values played by I (the
    last one unanswered) and the value is a (y, z) pair.  The player's
    own earlier moves are recovered by replay, so they are not part of
    the key.
    """

    side: str  # "I" or "II"
    depth: int
    moves: dict

    def __post_init__(self) -> None:
        if self.side not in ("I", "II"):
            raise ValueError(f"unknown side {self.side!r}")

    def move_at(self, key: tuple):
        if key in self.moves:
            return self.moves[key]
        raise StrategyUndefinedError(
            f"side {self.side} strategy is undefined after opponent moves {key!r}"
        )


@dataclasses.dataclass(frozen=True)
class SolveResult:
    status: str  # "IWins" or "Undetermined"
    strategy: StrategyTable
    by_turn: Optional[int] = None


def solve(
    sys: TrueStageSystem,
    g: GameInstance,
    depth: Optional[int] = None,
    max_nodes: int = 1_000_000,
) -> SolveResult:
    """Backward induction within the instance bounds.

    IWins carries the least round by which player I can force a win and
    a strategy achieving it (ties broken by least move).  Undetermined
    carries a player II strategy surviving to the depth bound; an open
    win for II is not certifiable at finite depth, so no stronger claim
    is made.
    """
    if depth is None:
        depth = g.depth
    search = _Search(sys, g, depth, max_nodes)
    root = search.value((), ())
    moves: dict = {}
    if root is not None:
        search.fill_i(moves, (), ())
        return SolveResult("IWins", StrategyTable("I", depth, moves), by_turn=root)
    search.fill_ii(moves, (), ())
    return SolveResult("Undetermined", StrategyTable("II", depth, moves))


class _Search:
    """One solve's backward induction.  The recursive steps are methods,
    not closures: a closure that calls itself keeps itself, and with it
    sys and its memo, alive until a full garbage collection.

    Each x-play is graded once per solve and II's earlier answers are
    read once per x-play and position, by _read on F without its last
    round: F ends at the new round n + 1, so a reply adds only its own
    z, and its own y when |F| = n + 1 (else the y of round |F|), and
    costs one set lookup.

    value() returns the exact value and least-move argmin of a position
    but skips what cannot change them: the replies to an x once they
    refute it no sooner than the best x so far, and every further x once
    one wins at the next round.  Where I cannot win, best stays None, so
    nothing is skipped and each x keeps II's first surviving reply."""

    def __init__(self, sys: TrueStageSystem, g: GameInstance, depth: int,
                 max_nodes: int):
        self.sys = sys
        self.g = g
        self.depth = depth
        self.max_nodes = max_nodes
        self.nodes = 0
        self.i_choice: dict[tuple, int] = {}
        self.ii_choice: dict[tuple, Pair] = {}
        # An x-play recurs under every reply sequence of II; grade it once.
        self._memo = Memo(self)

    def _graded(self, xs: Seq) -> Grade:
        return _grade(self.sys, self.g, xs)

    def value(self, xs: Seq, yzs: tuple[Pair, ...]) -> Optional[int]:
        n = len(xs)
        if n == self.depth:
            return None
        b = self.g.alphabet
        best: Optional[tuple[int, int]] = None
        for x in range(b):
            # x beats best only by winning before round bar, since ties go
            # to the least x; with no best yet, bar lies past the depth.
            bar = self.depth + 1 if best is None else best[0]
            if bar == n + 1:
                break  # no move wins before round n + 1
            xs2 = xs + (x,)
            tree, f = self._memo[_Search._graded, xs2]
            full, pairs = tree.full, tree.pairs
            ypre, zpre = _read(f[:-1], yzs)
            last = len(f) - 1  # round |F|, as an index into the rounds
            worst = 0
            surviving: Optional[Pair] = None
            for y in range(b):
                if surviving is not None or worst >= bar:
                    break
                ybar = ypre + ((y if last == n else yzs[last][0]),)
                for z in range(b):
                    self.nodes += 1
                    if self.nodes > self.max_nodes:
                        raise ResourceBoundError(
                            f"solver exceeded {self.max_nodes} referee evaluations"
                        )
                    if not (full or (ybar, zpre + (z,)) in pairs):
                        sub = n + 1
                    else:
                        sub = self.value(xs2, yzs + ((y, z),))
                        if sub is None:
                            surviving = (y, z)
                            break
                    if sub > worst:
                        worst = sub
                        if worst >= bar:
                            break
            if surviving is not None:
                self.ii_choice[(xs, yzs, x)] = surviving
            elif worst < bar:
                best = (worst, x)
        if best is None:
            return None
        self.i_choice[(xs, yzs)] = best[1]
        return best[0]

    def fill_i(self, moves: dict, xs: Seq, yzs: tuple[Pair, ...]) -> None:
        b = self.g.alphabet
        x = self.i_choice[(xs, yzs)]
        moves[yzs] = x
        xs2 = xs + (x,)
        # value() searched every reply to the chosen x, since none was cut
        # while it beat every earlier x: a reply that continued left an
        # i_choice entry, a reply I won left none.
        for y in range(b):
            for z in range(b):
                yzs2 = yzs + ((y, z),)
                if (xs2, yzs2) in self.i_choice:
                    self.fill_i(moves, xs2, yzs2)

    def fill_ii(self, moves: dict, xs: Seq, yzs: tuple[Pair, ...]) -> None:
        if len(xs) == self.depth:
            return
        for x in range(self.g.alphabet):
            reply = self.ii_choice[(xs, yzs, x)]
            moves[xs + (x,)] = reply
            self.fill_ii(moves, xs + (x,), yzs + (reply,))


def extract_reduction(table: StrategyTable, x_prefix: Seq) -> tuple[Seq, Seq]:
    """Player II's answers along x_prefix, split into the y and z parts.

    The result is prefix-monotone in x_prefix, which is the finite trace
    of the continuous reduction a surviving II strategy induces.
    """
    if table.side != "II":
        raise ValueError("extract_reduction needs a side II strategy")
    xs: Seq = ()
    ys: list[int] = []
    zs: list[int] = []
    for x in x_prefix:
        xs = xs + (x,)
        y, z = table.move_at(xs)
        ys.append(y)
        zs.append(z)
    return tuple(ys), tuple(zs)


class CorrectnessChecker:
    """Correctness predicates for II's candidate plays against a fixed
    side I strategy, along one fixed y.

    The strategy pulls the stage relations back onto candidate second
    coordinates: sigma precedes tau at level alpha when sigma is a
    prefix of tau and the induced x-sequences, against the pair plays
    (y, sigma) and (y, tau), are stage-related.  A sequence is
    0-correct when the referee lets the induced play run; higher levels
    follow the stage recursion.  At a limit level the unbounded
    quantifier over lower levels is decided at the member of the
    fundamental sequence that the height of the induced play selects, as
    the stage system's limit chains are.  Every sigma asked about must
    be covered by y.
    """

    def __init__(
        self, sys: TrueStageSystem, game: GameInstance, table: StrategyTable, y: Seq
    ) -> None:
        if table.side != "I":
            raise InputError("correctness analysis needs a side I strategy")
        self._memo = Memo(self)
        self.sys = sys
        self.game = game
        self.table = table
        self.y = tuple(y)

    # -- induced plays ------------------------------------------------

    def play(self, sigma: Node) -> Seq:
        """Player I's x-sequence against the pair play (y, sigma), one
        move longer than sigma; () at the pre-root token.  I plays 0 at
        any history the table does not list: a solver table stops where
        I has already won, and no move there bears on correctness."""
        if sigma is PRE_ROOT:
            return ()
        return self._memo[CorrectnessChecker._play, tuple(sigma)]

    def _play(self, sigma: Seq) -> Seq:
        # I's answer to the last pair extends the play of sigma's parent.
        move = self.table.moves.get(self._pairs(sigma), 0)
        before = self._memo[CorrectnessChecker._play, sigma[:-1]] if sigma else ()
        return before + (move,)

    def _pairs(self, sigma: Seq) -> tuple[Pair, ...]:
        """The pair play (y, sigma), read by each fill before it recurses."""
        if len(self.y) < len(sigma):
            raise ValueError(f"need {len(sigma)} values of y, got {len(self.y)}")
        return tuple(zip(self.y, sigma))

    def tri_leq(self, sigma: Node, tau: Node, alpha: OrdinalNotation) -> bool:
        if not _prefix_of(sigma, tau):
            return False
        return self.sys.leq(self.play(sigma), self.play(tau), alpha)

    def _related(self, sigma: Node, alpha: OrdinalNotation) -> list[Node]:
        """The nodes tau with tri_leq(tau, sigma, alpha), shortest first,
        read off one chain.  Each play extends its parent's play by
        construction, so play(tau) is the prefix of play(sigma) of length
        |tau| + 1: the chain element of length 0 is the pre-root token
        and the one of length L is sigma[:L-1]."""
        return [
            sigma[: len(x) - 1] if x else PRE_ROOT
            for x in self.sys.chain(self.play(sigma), alpha)
        ]

    # -- correctness --------------------------------------------------

    def is_correct(self, sigma: Node, alpha: OrdinalNotation) -> bool:
        key = sigma if sigma is PRE_ROOT else tuple(sigma)
        return self._memo[CorrectnessChecker._is_correct, key, alpha]

    def _is_correct(self, sigma: Node, alpha: OrdinalNotation) -> bool:
        cls = classify(alpha)
        if cls.kind == "zero":
            return self._zero_correct(sigma)
        if cls.kind == "successor":
            beta = cls.predecessor
            if not self._memo[CorrectnessChecker._is_strongly_correct, sigma, beta]:
                return False
            # Each proper element of the play's beta chain is the play of a
            # strongly beta-correct node tau (see _related), as tau's chain
            # is the prefix of sigma's that ends at tau; so it needs only to
            # stay on the alpha chain, read only when there is such a tau.
            xs = self.play(sigma)
            proper = self.sys.chain(xs, beta)[:-1]
            if not proper:
                return True
            kept = self.sys.chain(xs, alpha)
            return all(x in kept for x in proper)
        k = self.sys.height(self.play(sigma), alpha)
        return self._memo[CorrectnessChecker._is_correct, sigma, fund_seq(alpha, k)]

    def is_strongly_correct(self, sigma: Node, alpha: OrdinalNotation) -> bool:
        key = sigma if sigma is PRE_ROOT else tuple(sigma)
        return self._memo[CorrectnessChecker._is_strongly_correct, key, alpha]

    def _is_strongly_correct(self, sigma: Node, alpha: OrdinalNotation) -> bool:
        return all(self._memo[CorrectnessChecker._is_correct, tau, alpha]
                   for tau in self._related(sigma, alpha))

    def _zero_correct(self, sigma: Node) -> bool:
        # Every round continues: the earlier ones by the memoised answer
        # for sigma's parent, the last one graded here.
        if sigma is PRE_ROOT or not sigma:
            return True
        pairs = self._pairs(sigma)
        if not self._memo[CorrectnessChecker._is_correct, sigma[:-1], ZERO]:
            return False
        tree, f = _grade(self.sys, self.game, self.play(sigma[:-1]))
        return tree.contains(*_read(f, pairs))

    # -- extension search ---------------------------------------------

    def extend_correct(
        self, sigma: Seq, alpha: OrdinalNotation, search_bound: int
    ) -> Optional[Seq]:
        """The shortest strongly alpha-correct extension of sigma, the
        least in shortlex order among those by fewer than search_bound
        entries that y still covers.  This is what the defeating-play
        construction needs: sigma's parent rho, the pre-root token for
        (), must be strongly alpha-correct and sigma 0-correct.  None
        reports an exhausted search space, not nonexistence.  At level 0
        the first candidate, sigma itself, is the answer whenever the
        bound is positive: it is 0-correct and its parent strongly so.
        """
        sigma = tuple(sigma)
        rho = sigma[:-1] if sigma else PRE_ROOT
        if not self.is_strongly_correct(rho, alpha):
            raise ValueError(f"rho is not strongly {render(alpha)}-correct")
        if not self.is_correct(sigma, ZERO):
            raise ValueError("sigma is not 0-correct")
        room = min(search_bound - 1, len(self.y) - len(sigma))
        for s in shortlex(room, self.game.alphabet):
            if self.is_strongly_correct(sigma + s, alpha):
                return sigma + s
        return None

    # -- evidence for the separating set ------------------------------

    def separator_evidence(self) -> Optional[Seq]:
        """Shortest strongly xi-correct sigma whose induced play lands
        in W, scanning every length that y covers.  None is a bounded
        negative, not a nonmembership claim."""
        xi = self.game.xi
        for sigma in shortlex(len(self.y), self.game.alphabet):
            if not eval_at(self.sys, self.game.w, self.play(sigma)):
                continue
            if self.is_strongly_correct(sigma, xi):
                return sigma
        return None


def _prefix_of(sigma: Node, tau: Node) -> bool:
    if sigma is PRE_ROOT:
        return True
    if tau is PRE_ROOT:
        return False
    sigma, tau = tuple(sigma), tuple(tau)
    return tau[: len(sigma)] == sigma


@dataclasses.dataclass(frozen=True)
class PlayStep:
    index: int
    sigma: Seq
    strongly_correct: bool
    appended_matches: Optional[bool]
    witness_set_matches: bool
    witness_consistent: Optional[bool]


@dataclasses.dataclass(frozen=True)
class PlayTranscript:
    mode: str  # "T1" or "T0"
    steps: tuple[PlayStep, ...]
    outcome: str
    failed_extension: Optional[Seq] = None


def adversarial_play(
    checker: CorrectnessChecker,
    v_prefix: Optional[Seq],
    depth: int,
    search_bound: int,
) -> PlayTranscript:
    """Try to defeat a side I strategy along the checker's y.

    With v given (the T1 case) the start is the least separator
    evidence and each step appends the next v entry; without v (the T0
    case) the start is the empty sequence and each step appends the
    least entry that stays 0-correct.  The empty sequence is strongly
    correct at every level, because every chain keeps the root (TS2),
    so the T0 play needs no search for its start.  Every step records
    the construction invariants: strong correctness, the appended
    entry, the predecessor-set identity, and in the T1 case whether
    (y, v) is still inside T1.  Against a strategy that wins by round d
    the construction must halt before d surviving steps.
    """
    g = checker.game
    if v_prefix is not None:
        mode = "T1"
        sigma = checker.separator_evidence()
        if sigma is None:
            return PlayTranscript(mode, (), "NoEvidence")
    else:
        mode = "T0"
        sigma = ()

    sigmas = [sigma]
    steps = [_record(checker, v_prefix, sigmas, None)]
    outcome = "ReachedDepth"
    failed: Optional[Seq] = None
    for i in range(depth):
        if len(sigma) + 1 > len(checker.y) or (
                v_prefix is not None and i >= len(v_prefix)):
            outcome = "WitnessExhausted"
            break
        choices = range(g.alphabet) if v_prefix is None else (v_prefix[i],)
        vi = next((u for u in choices if checker.is_correct(sigma + (u,), ZERO)), None)
        if vi is None:
            outcome = "PlayerIWon"
            failed = sigma + (choices[-1],)
            break
        ext = checker.extend_correct(sigma + (vi,), g.xi, search_bound)
        if ext is None:
            outcome = "BoundExhausted"
            break
        sigma = ext
        sigmas.append(sigma)
        steps.append(_record(checker, v_prefix, sigmas, vi))
    return PlayTranscript(mode, tuple(steps), outcome, failed_extension=failed)


def _record(
    checker: CorrectnessChecker,
    v_prefix: Optional[Seq],
    sigmas: list[Seq],
    appended: Optional[int],
) -> PlayStep:
    xi = checker.game.xi
    sigma = sigmas[-1]
    index = len(sigmas) - 1
    if appended is None:
        appended_matches = None
    else:
        appended_matches = sigma[len(sigmas[-2])] == appended
    related = {
        rho for rho in checker._related(sigma, xi)
        if rho is not PRE_ROOT and (
            v_prefix is None
            or eval_at(checker.sys, checker.game.w, checker.play(rho))
        )
    }
    witness_set_matches = related == set(sigmas)
    if v_prefix is not None and index > 0:
        witness_consistent = checker.game.t1.contains(
            checker.y[:index], tuple(v_prefix[:index])
        )
    else:
        witness_consistent = None
    return PlayStep(
        index=index,
        sigma=sigma,
        strongly_correct=checker.is_strongly_correct(sigma, xi),
        appended_matches=appended_matches,
        witness_set_matches=witness_set_matches,
        witness_consistent=witness_consistent,
    )
