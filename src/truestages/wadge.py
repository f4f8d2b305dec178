"""Decomposition trees for limit-level Wadge analysis.

Given two disjoint upward-closed sets that between them decide every
maximal sequence, the undecided stages form a finite well-founded tree.
Each undecided node splits into its immediate extensions, guarded by
pairwise disjoint single-generator separators one fundamental-sequence
step up; the nesting depth of these splits is the iterated
separated-union rank.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .hierarchy import UpsetRep, eval_at
from .ordinals import OrdinalNotation, classify, fund_seq, render
from .stages import TrueStageSystem
from .universe import InputError, Seq, Universe, seq_str


@dataclasses.dataclass(frozen=True)
class DecompositionTree:
    node: Seq
    kind: str  # "leaf" or "internal"
    rank: int
    value: Optional[int] = None
    witness_level: Optional[OrdinalNotation] = None
    children: tuple["DecompositionTree", ...] = ()
    separators: tuple[UpsetRep, ...] = ()
    separator_level: Optional[OrdinalNotation] = None


def wadge_tree(
    sys: TrueStageSystem,
    w0: UpsetRep,
    w1: UpsetRep,
    lam: OrdinalNotation,
    universe: Universe,
) -> DecompositionTree:
    if classify(lam).kind != "limit":
        raise InputError(f"{render(lam)} is not a limit level")
    for name, w in (("W0", w0), ("W1", w1)):
        if w.level != lam:
            raise InputError(
                f"{name} lives at level {render(w.level)}, expected {render(lam)}"
            )
    for sigma in universe.all_seqs():
        if eval_at(sys, w0, sigma) and eval_at(sys, w1, sigma):
            raise InputError(f"W0 and W1 overlap at {seq_str(sigma)}")
    for x in universe.maximal():
        if not (eval_at(sys, w0, x) or eval_at(sys, w1, x)):
            raise InputError(f"maximal sequence {seq_str(x)} is uncovered")

    by_height: dict[int, list[Seq]] = {}
    for tau in universe.all_seqs():
        by_height.setdefault(sys.height(tau, lam), []).append(tau)
    return _build(sys, w0, w1, lam, by_height, ())


def _build(
    sys: TrueStageSystem,
    w0: UpsetRep,
    w1: UpsetRep,
    lam: OrdinalNotation,
    by_height: dict[int, list[Seq]],
    node: Seq,
) -> DecompositionTree:
    """The subtree at node; its children are found among the stages one
    height up.  A module function, not a closure: a closure that calls
    itself keeps itself, and with it sys and its memo, alive until a
    full garbage collection."""
    k = sys.height(node, lam)
    for value, w in ((1, w1), (0, w0)):
        if eval_at(sys, w, node):
            return DecompositionTree(node, "leaf", 0, value=value,
                                     witness_level=fund_seq(lam, k))
    kids = sorted(
        tau for tau in by_height.get(k + 1, ()) if sys.leq(node, tau, lam)
    )
    if not kids:
        # The sets leave this stage undecided with nothing one height up
        # to split it on: like an overlap, a misfit of the instance.
        raise InputError(
            f"undecided stage {seq_str(node)} has no extensions to split on"
        )
    level = fund_seq(lam, k + 1)
    subtrees = tuple(_build(sys, w0, w1, lam, by_height, tau) for tau in kids)
    separators = tuple(
        UpsetRep(level, frozenset({tau})) for tau in kids
    )
    rank = 1 + max(t.rank for t in subtrees)
    return DecompositionTree(node, "internal", rank,
                             children=subtrees, separators=separators,
                             separator_level=level)


def decomposition_eval(
    sys: TrueStageSystem, tree: DecompositionTree, x_prefix: Seq
) -> bool:
    """Walk down the tree along the one separator that x_prefix meets at
    each node.  Every separator of a node lives at its separator level,
    so x_prefix's chain there is read once per node."""
    x_prefix = tuple(x_prefix)
    while tree.kind == "internal":
        chain = sys.chain(x_prefix, tree.separator_level)
        matches = [
            i for i, sep in enumerate(tree.separators)
            if not sep.generators.isdisjoint(chain)
        ]
        if len(matches) != 1:
            raise InputError(
                f"{len(matches)} separators match {seq_str(x_prefix)} "
                f"at node {seq_str(tree.node)}"
            )
        tree = tree.children[matches[0]]
    return bool(tree.value)
