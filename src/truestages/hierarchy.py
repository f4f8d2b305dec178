"""Difference-hierarchy conversions over upward-closed sets.

Sets are generator families closed upward under a level relation.  Three
conversions pass through ordinal-valued witnesses counting mind changes:
an approximation to a witness (`approx_to_witness`, which ranks the
mind-change tree in Kleene-Brouwer order; one pass over the chains
builds the tree and each stage's longest tree node on its chain), a
lawful witness to an increasing difference family (`witness_to_dsets`),
and an increasing difference family to an approximation and its
witness (`dsets_to_witness`).  A `DifferenceFamily` carries each set's
index in the copy of eta, so `difference_value` takes no copy."""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Optional

from .ordinals import (
    OrdinalNotation,
    enum_copy,
    from_int,
    kb_rank,
    parity,
    render,
    successor,
)
from .stages import TrueStageSystem
from .universe import InputError, Seq, Universe, seq_str


@dataclasses.dataclass(frozen=True)
class UpsetRep:
    """An upward-closed set given by generators at a fixed level."""

    level: OrdinalNotation
    generators: frozenset[Seq]


def upset_close(
    sys: TrueStageSystem,
    generators: Iterable[Seq],
    alpha: OrdinalNotation,
    universe: Universe,
) -> UpsetRep:
    """Materialize the least upward-closed superset within the universe."""
    gens = {tuple(g) for g in generators}
    for g in gens:
        if g not in universe:
            raise ValueError(f"generator {seq_str(g)} is outside the universe")
    closed = frozenset(
        tau
        for tau in universe.all_seqs()
        if not gens.isdisjoint(sys.chain(tau, alpha))
    )
    return UpsetRep(alpha, closed)


def eval_at(sys: TrueStageSystem, upset: UpsetRep, x_prefix: Seq) -> bool:
    """Whether some generator lies at or below x_prefix: a generator g
    does exactly when g is on x_prefix's chain."""
    return not upset.generators.isdisjoint(sys.chain(x_prefix, upset.level))


@dataclasses.dataclass(frozen=True)
class ApproxFn:
    """A total guessing function on a finite universe."""

    level: OrdinalNotation
    table: dict[Seq, int]


def approx_limit(
    sys: TrueStageSystem, fn: ApproxFn, x_prefix: Seq
) -> tuple[int, bool]:
    """Value along the apparent-truth chain of a prefix, plus a bit
    reporting whether the last step kept it constant."""
    chain = sys.chain(tuple(x_prefix), fn.level)
    value = fn.table[chain[-1]]
    stable = len(chain) >= 2 and fn.table[chain[-2]] == value
    return value, stable


@dataclasses.dataclass(frozen=True)
class WitnessFn:
    """An ordinal-valued mind-change counter over a fixed copy of eta."""

    eta: OrdinalNotation
    table: dict[Seq, OrdinalNotation]


@dataclasses.dataclass(frozen=True)
class DifferenceFamily:
    """An increasing difference family over a copy of eta: each set with
    its index in the copy, in copy order.  An eta of 0 and an index
    outside the copy, that is not below eta, raise `ValueError`."""

    eta: OrdinalNotation
    sets: tuple[tuple[OrdinalNotation, UpsetRep], ...]

    def __post_init__(self) -> None:
        if self.eta.is_zero():
            raise ValueError("eta must be positive")
        for nu, _ in self.sets:
            if nu._key >= self.eta._key:
                raise ValueError(
                    f"index {render(nu)} is beyond the copy of {render(self.eta)}"
                )


def verify_witness_laws(
    sys: TrueStageSystem,
    fn: ApproxFn,
    witness: WitnessFn,
    universe: Universe,
) -> list[dict]:
    """Check the three monotonicity laws over every comparable pair;
    returns one record per violation.  The strict predecessors of tau
    are its chain without tau, shortest first, so the pairs come in
    prefix order.  Each value of tau is read once, after its predecessors'
    values of the same table, so a partial table fails where it did when
    every pair read both values."""
    violations: list[dict] = []
    alpha = fn.level
    for tau in universe.all_seqs():
        below = sys.chain(tau, alpha)[:-1]
        if not below:
            continue
        before = [witness.table[sigma] for sigma in below]
        ot = witness.table[tau]
        guesses = [fn.table[sigma] for sigma in below]
        ft = fn.table[tau]
        for sigma, os, fs in zip(below, before, guesses):
            if ot._key > os._key:
                violations.append({
                    "clause": "i", "sigma": list(sigma), "tau": list(tau),
                    "detail": f"o rose from {render(os)} to {render(ot)}",
                })
            if fs != ft and ot._key >= os._key:
                violations.append({
                    "clause": "ii", "sigma": list(sigma), "tau": list(tau),
                    "detail": f"value changed but o kept {render(ot)}",
                })
    for sigma in universe.all_seqs():
        if witness.table[sigma] == witness.eta and fn.table[sigma] != 0:
            violations.append({
                "clause": "iii", "sigma": list(sigma), "tau": list(sigma),
                "detail": "o reached eta with a nonzero value",
            })
    return violations


def dsets_to_witness(
    sys: TrueStageSystem,
    upsets: list[UpsetRep],
    eta: OrdinalNotation,
    alpha: OrdinalNotation,
    universe: Universe,
) -> tuple[ApproxFn, WitnessFn]:
    """From an increasing difference family to (approximation, witness).

    The candidate pool for a stage opens up one copy index per unit of
    length; eta itself is always a candidate and the full universe
    stands behind it.
    """
    if eta.is_zero():
        raise InputError("eta must be positive")
    for u in upsets:
        if u.level != alpha:
            raise InputError(
                f"expected level {render(alpha)}, got {render(u.level)}"
            )
    ordinals = list(islice(enum_copy(eta), len(upsets)))
    if len(ordinals) < len(upsets):
        raise InputError(
            f"index {len(ordinals)} is beyond the copy of {render(eta)}"
        )
    seqs = universe.all_seqs()
    membership = [
        frozenset(s for s in seqs if eval_at(sys, u, s)) for u in upsets
    ]
    for n, nu in enumerate(ordinals):
        for m, mu in enumerate(ordinals):
            if nu < mu and not membership[n] <= membership[m]:
                raise InputError(
                    f"family is not increasing: set {n} (index {render(nu)}) "
                    f"is not contained in set {m} (index {render(mu)})"
                )
    f_table: dict[Seq, int] = {}
    o_table: dict[Seq, OrdinalNotation] = {}
    for sigma in seqs:
        o_val = min(
            (ordinals[n] for n in range(min(len(sigma), len(upsets)))
             if sigma in membership[n]),
            default=eta,
        )
        o_table[sigma] = o_val
        f_table[sigma] = int(parity(o_val) != parity(eta))
    return ApproxFn(alpha, f_table), WitnessFn(eta, o_table)


def witness_to_dsets(
    sys: TrueStageSystem,
    fn: ApproxFn,
    witness: WitnessFn,
    universe: Universe,
) -> DifferenceFamily:
    """Rebuild an increasing family from a lawful (f, o) pair.

    o is nudged to o or o+1 so that its parity against eta encodes f,
    then the family collects the stages at or below each copy index.
    """
    violations = verify_witness_laws(sys, fn, witness, universe)
    if violations:
        first = violations[0]
        raise ValueError(
            f"witness law ({first['clause']}) fails at "
            f"({seq_str(tuple(first['sigma']))}, {seq_str(tuple(first['tau']))}): "
            f"{first['detail']}"
        )
    eta = witness.eta
    adjusted: dict[Seq, OrdinalNotation] = {}
    odd = parity(eta)
    for sigma in universe.all_seqs():
        o_val = witness.table[sigma]
        want = fn.table[sigma]
        if want not in (0, 1):
            raise InputError(f"two-valued approximation required, "
                             f"got {want} at {seq_str(sigma)}")
        if int(parity(o_val) != odd) != want:
            o_val = successor(o_val)
        if o_val._key > eta._key:
            raise ValueError(f"adjusted witness exceeds eta at {seq_str(sigma)}")
        adjusted[sigma] = o_val
    copy = enum_copy(eta)
    if eta.is_finite():
        indices = list(copy)
    else:
        # An infinite copy is read up to the last item that an adjusted
        # value below eta takes.
        pending = {v for v in adjusted.values() if v._key < eta._key}
        indices = []
        while pending:
            indices.append(next(copy))
            pending.discard(indices[-1])
    # Sorted and cut on order keys, whose order is the notation order.
    ranked = sorted(adjusted, key=lambda s: adjusted[s]._key)
    keys = [adjusted[s]._key for s in ranked]
    return DifferenceFamily(eta, tuple(
        (nu, UpsetRep(fn.level, frozenset(ranked[: bisect_right(keys, nu._key)])))
        for nu in indices
    ))


def difference_value(
    sys: TrueStageSystem, family: DifferenceFamily, x_prefix: Seq
) -> int:
    """The parity rule: odd-side membership is decided by the least
    ordinal index whose set contains the point; outside them all, 0.
    x_prefix's chain is read once per level the family uses."""
    chains: dict[OrdinalNotation, tuple[Seq, ...]] = {}
    members = []
    for nu, u in family.sets:
        chain = chains.get(u.level)
        if chain is None:
            chain = chains[u.level] = sys.chain(x_prefix, u.level)
        if not u.generators.isdisjoint(chain):
            members.append(nu)
    if not members:
        return 0
    best = min(members, key=lambda nu: nu._key)
    return int(parity(best) != parity(family.eta))


def mind_change_tree(
    sys: TrueStageSystem, fn: ApproxFn, universe: Universe
) -> tuple[dict[Seq, Optional[Seq]], dict[Seq, Seq]]:
    """The mind-change tree, which maps each stage whose guess differs
    from its immediate predecessor's to its longest tree predecessor and
    the root to None, and each stage's longest tree node on its chain.
    One shortlex pass reads each chain once: a chain element's own chain
    is the prefix that ends at it, so the longest node on sigma's chain
    below sigma is its immediate predecessor's."""
    alpha = fn.level
    parent: dict[Seq, Optional[Seq]] = {(): None}
    last: dict[Seq, Seq] = {(): ()}
    for sigma in universe.all_seqs()[1:]:
        chain = sys.chain(sigma, alpha)
        node = last[chain[-2]]
        if fn.table[chain[-2]] != fn.table[sigma]:
            parent[sigma] = node
            node = sigma
        last[sigma] = node
    return parent, last


def approx_to_witness(
    sys: TrueStageSystem, fn: ApproxFn, universe: Universe
) -> WitnessFn:
    """Rank the mind-change tree and read the witness off the longest
    tree node on each stage's chain.  Values stay strictly below eta, so
    the eta clause of the laws never fires."""
    tree, last = mind_change_tree(sys, fn, universe)
    eta, ranks = kb_rank(tree)
    table = {sigma: from_int(ranks[node]) for sigma, node in last.items()}
    return WitnessFn(eta, table)
