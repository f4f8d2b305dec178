"""Deterministic instance generators, lawful operators and the unlawful
operator and stage systems shared by the test modules."""

from __future__ import annotations

import itertools
import random

from truestages.game import GameInstance, PairTree
from truestages.hierarchy import UpsetRep
from truestages.jump import DefaultOperator, JumpTrace, cantor_pair
from truestages.ordinals import OrdinalNotation, parse_ordinal
from truestages.stages import TrueStageSystem
from truestages.universe import Universe
from truestages.wadge import DecompositionTree, wadge_tree


def occurrences(sigma):
    """The pairs (i, k) of each entry i of sigma and its count k of
    earlier occurrences, in order."""
    seen: dict[int, int] = {}
    for i in sigma:
        k = seen[i] = seen.get(i, -1) + 1
        yield i, k


# Three lawful operators besides the default: each enumerates at most
# one code per entry, never the same code twice, and extends its traces
# along prefixes, which is all the true-stage machinery may rely on.
# None has `last_code`, so a stage system reads every p through a
# checked trace.

class Swap:
    """Enumerates pair(k, i), not pair(i, k), at the (k+1)-th occurrence
    of value i."""

    def trace(self, sigma):
        return JumpTrace(tuple(cantor_pair(k, i) for i, k in occurrences(sigma)))


class Even:
    """Enumerates pair(i, k) at the (k+1)-th occurrence of value i only
    when i + k is even, so a trace can be shorter than its oracle."""

    def trace(self, sigma):
        return JumpTrace(tuple(
            cantor_pair(i, k) for i, k in occurrences(sigma) if (i + k) % 2 == 0))


class NoLast:
    """The default operator's traces without its `last_code`."""

    def __init__(self):
        self._op = DefaultOperator()

    def trace(self, sigma):
        return self._op.trace(sigma)


LAWFUL_OPERATORS = [Swap, Even, NoLast]


class Rewriter:
    """An unlawful operator: it tampers with the time-2 code of length-2
    sequences only, which breaks trace extension from length 2 to
    length 3."""

    def trace(self, sigma):
        base = DefaultOperator().trace(sigma)
        if len(sigma) == 2:
            first, second = base.codes
            return JumpTrace((first, second + 1000))
        return base


class Rootless(TrueStageSystem):
    """Drops the root from every chain of a nonempty sequence above
    level 0, against TS2.  No nonempty play then keeps the pre-root
    token at level 1, so nothing but the pre-root is 1-correct."""

    def chain(self, tau, alpha):
        ch = super().chain(tau, alpha)
        return ch[1:] if tau and not alpha.is_zero() else ch


class Selfless(TrueStageSystem):
    """Drops tau itself from every chain, against TS2, so the index set
    F of a play no longer ends at the newest round."""

    def chain(self, tau, alpha):
        return super().chain(tau, alpha)[:-1]


def seeded_wadge_instance(
    sys_: TrueStageSystem,
    universe: Universe,
    lam: OrdinalNotation,
    seed: int,
) -> tuple[UpsetRep, UpsetRep, DecompositionTree]:
    """A coverage-satisfying pair splitting on a short prefix pattern.

    Retries with bumped seeds when the undecided tree stalls, so every
    seed yields an instance deterministically.
    """
    for attempt in itertools.count():
        rng = random.Random(seed * 7919 + attempt)
        depth = rng.choice([1, 1, 2])
        patterns = list(itertools.product(range(universe.alphabet), repeat=depth))
        chosen = rng.sample(patterns, rng.randint(1, len(patterns) - 1))
        ones = frozenset(
            s for s in universe.all_seqs()
            if len(s) >= depth and s[:depth] in chosen
        )
        zeros = frozenset(
            s for s in universe.all_seqs()
            if len(s) >= depth and s[:depth] not in chosen
        )
        w1 = UpsetRep(lam, ones)
        w0 = UpsetRep(lam, zeros)
        try:
            tree = wadge_tree(sys_, w0, w1, lam, universe)
        except ValueError:
            continue
        return w0, w1, tree


def pointwise_tree(alphabet: int, depth: int, pred) -> PairTree:
    """Tree of all equal-length pairs whose entries satisfy pred pointwise."""
    pairs = []
    for n in range(depth + 1):
        for y in itertools.product(range(alphabet), repeat=n):
            for z in itertools.product(range(alphabet), repeat=n):
                if all(pred(a, b) for a, b in zip(y, z)):
                    pairs.append((y, z))
    return PairTree.from_pairs(pairs)


def contains_one_upset(xi: OrdinalNotation, alphabet: int, max_len: int) -> UpsetRep:
    """Generated by the sequences whose last entry is their first 1."""
    gens = set()
    for n in range(1, max_len + 1):
        for s in itertools.product(range(alphabet), repeat=n):
            if s[-1] == 1 and 1 not in s[:-1]:
                gens.add(s)
    return UpsetRep(xi, frozenset(gens))


def y_mismatch_game(xi: OrdinalNotation, alphabet: int = 2, depth: int = 3) -> GameInstance:
    """Player II must answer all-0 y while x avoids 1 and all-1 y after
    x plays a 1; the first y entry commits II either way, so player I
    wins quickly."""
    t0 = pointwise_tree(alphabet, depth + 2, lambda a, b: a == 0)
    t1 = pointwise_tree(alphabet, depth + 2, lambda a, b: a == 1)
    w = contains_one_upset(xi, alphabet, depth + 2)
    return GameInstance(xi, w, t0, t1, alphabet, depth)


_TREE_RECIPES = [
    lambda b, d: PairTree(full=True),
    lambda b, d: PairTree.from_pairs([((), ())]),
    lambda b, d: pointwise_tree(b, d, lambda a, c: a == 0),
    lambda b, d: pointwise_tree(b, d, lambda a, c: a == 1),
    lambda b, d: pointwise_tree(b, d, lambda a, c: c == 0),
    lambda b, d: pointwise_tree(b, d, lambda a, c: a == c),
    lambda b, d: pointwise_tree(b, d, lambda a, c: a <= c),
]


def seeded_game_instance(seed: int, alphabet: int = 2, depth: int = 3) -> GameInstance:
    rng = random.Random(seed * 6173 + 11)
    xi = parse_ordinal(rng.choice(["0", "1", "2"]))
    gen_pool = [
        s for n in range(0, 3)
        for s in itertools.product(range(alphabet), repeat=n)
    ]
    count = rng.randint(0, 4)
    gens = frozenset(rng.sample(gen_pool, count)) if count else frozenset()
    w = UpsetRep(xi, gens)
    t0 = rng.choice(_TREE_RECIPES)(alphabet, depth + 2)
    t1 = rng.choice(_TREE_RECIPES)(alphabet, depth + 2)
    return GameInstance(xi, w, t0, t1, alphabet, depth)
