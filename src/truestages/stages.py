"""Level-indexed apparent-truth relations on finite sequences.

At level 0 the relation is the prefix order.  At a successor level,
sigma stays true to tau when no intermediate stage's p-value dips below
sigma's own.  At a limit level the relation defers to the member of the
fundamental sequence picked out by sigma's height.  The system computes
each relation as the chain of a sequence, the prefixes that look true to
it: a successor chain is one suffix-minimum pass over the chain a level
below, and a relation answer is membership in a chain.  The oracle
that climbs one level lists, for each chain element past the root, a
segment: a bound on the lower-level jump, the count of codes known to
lie below it, and those codes in increasing order.
"""

from __future__ import annotations

import dataclasses
import threading
from fractions import Fraction
from typing import Callable, Iterable

from .jump import (
    ContractViolationError,
    EnumerationOperator,
    JumpTrace,
    enumerate_jump,
)
from .ordinals import OrdinalNotation, classify, fund_seq, render, successor
from .universe import Seq, Universe, seq_str


class Memo:
    """The one memo block: values computed once per instance and stored
    under their fill function and arguments.  A hit is read without the
    lock; a miss takes the lock, reads again and fills, so each value is
    computed once.  One instance may be shared across threads: this
    rests on `dict.get` and item assignment being atomic, as they are in
    CPython."""

    def __init__(self):
        self._lock = threading.RLock()
        self._memo: dict[tuple, object] = {}

    def _memoized(self, fill: Callable, *args):
        """The value of fill(self, *args), computed once and stored
        under (fill, *args)."""
        key = (fill, *args)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._memo.get(key)
            if hit is None:
                hit = self._memo[key] = fill(self, *args)
            return hit


class TrueStageSystem(Memo):
    """Memoizing evaluator for the level-indexed relations of one
    enumeration operator.

    One memo holds every chain, jump trace and oracle segment, each
    computed once per system.  No leq answer is stored: leq reads
    membership in a memoised chain."""

    def __init__(self, operator: EnumerationOperator):
        super().__init__()
        self.operator = operator

    def leq(self, sigma: Seq, tau: Seq, alpha: OrdinalNotation) -> bool:
        sigma, tau = tuple(sigma), tuple(tau)
        if sigma == tau:
            return True
        if tau[: len(sigma)] != sigma:
            return False
        return sigma in self.chain(tau, alpha)

    def height(self, sigma: Seq, alpha: OrdinalNotation) -> int:
        """Number of strict predecessors; at a limit this recursion only
        ever consults strictly shorter sequences.  An empty chain lacks
        sigma itself, against TS2, and raises ContractViolationError."""
        ch = self.chain(sigma, alpha)
        if not ch:
            raise ContractViolationError(
                f"the level-{render(alpha)} chain of {seq_str(sigma)} does not "
                f"end at {seq_str(sigma)} itself (TS2)"
            )
        return len(ch) - 1

    def chain(self, tau: Seq, alpha: OrdinalNotation) -> tuple[Seq, ...]:
        """The prefixes of tau that look true to tau at level alpha,
        shortest first, tau itself last."""
        return self._memoized(TrueStageSystem._chain, tuple(tau), alpha)

    def _chain(self, tau: Seq, alpha: OrdinalNotation) -> tuple[Seq, ...]:
        cls = classify(alpha)
        if cls.kind == "zero":
            return tuple(tau[:i] for i in range(len(tau) + 1))
        if cls.kind == "successor":
            # A suffix minimum: rho stays when no later stage of the
            # chain below has a smaller p.
            beta = cls.predecessor
            kept: list[Seq] = []
            floor = None
            for rho in reversed(self.chain(tau, beta)):
                p = self.p(rho, beta)
                if floor is None or p <= floor:
                    kept.append(rho)
                    floor = p
            return tuple(reversed(kept))
        # A proper prefix stays when it is on tau's chain at the member of
        # the fundamental sequence that its own height picks.
        return tuple(
            rho for rho in (tau[:i] for i in range(len(tau)))
            if rho in self.chain(tau, fund_seq(alpha, self.height(rho, alpha)))
        ) + (tau,)

    def oracle(self, sigma: Seq, alpha: OrdinalNotation) -> Seq:
        """The sequence fed back to the operator to climb one level: sigma
        itself at level 0; above it, the segments of sigma's chain
        elements past the root, in chain order."""
        cls = classify(alpha)
        if cls.kind == "zero":
            return tuple(sigma)
        out: list[int] = []
        for rho in self.chain(sigma, alpha)[1:]:
            level = (cls.predecessor if cls.kind == "successor"
                     else fund_seq(alpha, self.height(rho, alpha)))
            out.extend(self._memoized(TrueStageSystem._segment, rho, level))
        return tuple(out)

    def _segment(self, rho: Seq, level: OrdinalNotation) -> tuple[int, ...]:
        """rho's segment below level: the bound p, the number n of codes
        under it, then those codes in increasing order.  A segment is
        shared by every later stage whose chain contains rho, so it is
        filled once per (rho, level) through the memo."""
        trace = self.trace_at(rho, level)
        bound = trace.p
        below = [e for e in trace.codes if e < bound]
        below.sort()
        return (bound, len(below), *below)

    def trace_at(self, sigma: Seq, alpha: OrdinalNotation) -> JumpTrace:
        return self._memoized(TrueStageSystem._trace_at, tuple(sigma), alpha)

    def _trace_at(self, sigma: Seq, alpha: OrdinalNotation) -> JumpTrace:
        return enumerate_jump(self.operator, self.oracle(sigma, alpha))

    def p(self, sigma: Seq, alpha: OrdinalNotation) -> int:
        return self.trace_at(sigma, alpha).p

    def distance(self, sigma: Seq, tau: Seq, alpha: OrdinalNotation) -> Fraction:
        """2^-|rho| for the longest rho on both chains; 0 when equal."""
        sigma, tau = tuple(sigma), tuple(tau)
        if sigma == tau:
            return Fraction(0)
        on_tau = self.chain(tau, alpha)
        common = [rho for rho in self.chain(sigma, alpha) if rho in on_tau]
        return Fraction(1, 2 ** len(common[-1]))


# ---------------------------------------------------------------------------
# The property verifier.

@dataclasses.dataclass
class PropertyResult:
    name: str
    passed: bool = True
    checked: int = 0
    failures: int = 0
    counterexamples: list[dict] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class PropertyReport:
    results: dict[str, PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results.values():
            if r.passed:
                lines.append(f"{r.name}: pass ({r.checked} checks)")
            else:
                lines.append(f"{r.name}: FAIL ({r.failures} of {r.checked} checks)")
        return lines


# Counterexamples kept per property; `failures` counts every one.
_MAX_COUNTEREXAMPLES = 5
# TS9 compares the limit answer at this many fundamental-sequence
# levels past the height index.
_TS9_WINDOW = 4


def _example(res: PropertyResult, **data) -> None:
    res.passed = False
    res.failures += 1
    if len(res.counterexamples) < _MAX_COUNTEREXAMPLES:
        res.counterexamples.append(
            {k: (render(v) if isinstance(v, OrdinalNotation) else
                 list(v) if isinstance(v, tuple) else v)
             for k, v in data.items()}
        )


def ts_verify(
    sys: TrueStageSystem,
    universe: Universe,
    levels: Iterable[OrdinalNotation],
) -> PropertyReport:
    """Exhaustively check the order axioms on a finite universe.

    Failures are recorded, never raised; a corrupted operator shows up
    as counterexample entries in the report, at most five per property.
    """
    levels = list(levels)
    seqs = universe.all_seqs()
    pairs = list(universe.prefix_pairs())
    report = PropertyReport(results={})

    def fresh(name: str) -> PropertyResult:
        res = PropertyResult(name)
        report.results[name] = res
        return res

    # TS1: the relation refines the prefix order.
    res = fresh("TS1")
    for alpha in levels:
        for sigma in seqs:
            for tau in seqs:
                res.checked += 1
                if sys.leq(sigma, tau, alpha) and tau[: len(sigma)] != sigma:
                    _example(res, alpha=alpha, sigma=sigma, tau=tau,
                             detail="related but not a prefix")

    # TS2: predecessor sets are chains rooted at the empty sequence.
    res = fresh("TS2")
    for alpha in levels:
        for tau in seqs:
            ch = sys.chain(tau, alpha)
            res.checked += 1
            if not ch or ch[0] != ():
                _example(res, alpha=alpha, tau=tau,
                         detail="chain does not start at the root")
                continue
            for i in range(len(ch)):
                for j in range(i + 1, len(ch)):
                    res.checked += 1
                    if not sys.leq(ch[i], ch[j], alpha):
                        _example(res, alpha=alpha, tau=tau,
                                 sigma=ch[i], rho=ch[j],
                                 detail="chain elements incomparable")

    # TS5: higher levels refine lower ones (consecutive listed levels).
    res = fresh("TS5")
    ordered = sorted(levels)
    for lo, hi in zip(ordered, ordered[1:]):
        for sigma, tau in pairs:
            res.checked += 1
            if sys.leq(sigma, tau, hi) and not sys.leq(sigma, tau, lo):
                _example(res, low=lo, high=hi, sigma=sigma, tau=tau,
                         detail="related at the higher level only")

    # TS7-consistency: successor levels re-derived straight-line, and
    # jump traces must extend along every related pair (the enumeration
    # presupposition behind p; a non-monotone operator fails here).
    res = fresh("TS7-consistency")
    for alpha in levels:
        cls = classify(alpha)
        if cls.kind != "successor":
            continue
        beta = cls.predecessor
        for sigma, tau in pairs:
            res.checked += 1
            if sigma == tau:
                expected = True
            else:
                ch = sys.chain(tau, beta)
                if sigma not in ch:
                    expected = False
                else:
                    floor = sys.p(sigma, beta)
                    expected = all(
                        sys.p(rho, beta) >= floor
                        for rho in ch
                        if len(rho) > len(sigma)
                    )
            if sys.leq(sigma, tau, alpha) != expected:
                _example(res, alpha=alpha, sigma=sigma, tau=tau,
                         detail="successor formula disagrees")
    for alpha in levels:
        for sigma, tau in pairs:
            if sigma == tau or not sys.leq(sigma, tau, alpha):
                continue
            res.checked += 1
            if not sys.trace_at(tau, alpha).extends(sys.trace_at(sigma, alpha)):
                _example(res, alpha=alpha, sigma=sigma, tau=tau,
                         detail="jump trace not extended along the chain")

    # Club: between levels alpha and alpha+1, truth cannot skip over an
    # intermediate stage.
    res = fresh("club")
    for alpha in levels:
        up = successor(alpha)
        for tau in seqs:
            ch = sys.chain(tau, alpha)
            for i in range(len(ch)):
                for j in range(i + 1, len(ch)):
                    res.checked += 1
                    if sys.leq(ch[i], tau, up) and not sys.leq(ch[i], ch[j], up):
                        _example(res, alpha=alpha, sigma=ch[i],
                                 rho=ch[j], tau=tau,
                                 detail="skipped an intermediate stage")

    # TS3 finite analog: on each maximal sequence the apparently true
    # stages are pairwise comparable.
    res = fresh("TS3-finite")
    for alpha in levels:
        for tau in universe.maximal():
            ch = sys.chain(tau, alpha)
            for i in range(len(ch)):
                for j in range(i + 1, len(ch)):
                    res.checked += 1
                    if not (sys.leq(ch[i], ch[j], alpha)
                            or sys.leq(ch[j], ch[i], alpha)):
                        _example(res, alpha=alpha, tau=tau,
                                 sigma=ch[i], rho=ch[j],
                                 detail="true stages incomparable")

    # TS9 stabilization: past the height index, the limit answer must
    # not flicker within the test window.
    res = fresh("TS9-stabilization")
    for lam in levels:
        if classify(lam).kind != "limit":
            continue
        for sigma, tau in pairs:
            if sigma == tau:
                continue
            res.checked += 1
            k = sys.height(sigma, lam)
            base = sys.leq(sigma, tau, fund_seq(lam, k))
            for j in range(k + 1, k + _TS9_WINDOW + 1):
                if sys.leq(sigma, tau, fund_seq(lam, j)) != base:
                    _example(res, lam=lam, sigma=sigma, tau=tau,
                             k=k, j=j, detail="answer flickers past the height")
                    break

    return report
