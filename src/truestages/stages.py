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
lie below it, and those codes in increasing order.  A segment lives in
its trace's memo entry: the trace's fill cuts it from the sorted codes
that the trace's duplicate check read, so no segment sorts or filters
codes again.

A successor chain reads only p, the last code of a stage's jump trace.
When the operator has a `last_code` method, a p whose trace is not yet
memoised is read from the oracle's parts, the memoised segments
themselves, so neither the trace nor the oracle is built for it.  The
traces are filled only for the readers of their codes, the segments and
the verifier's TS7 extension check, and a trace's fill is the one place
that builds an oracle.

Checked traces are shared by oracle parts.  Each trace fill interns the
segment it cuts, so equal segments are one object, found through the
fingerprint (p, n) and a comparison of codes only under a matching
fingerprint.  Above level 0 the fill keeps its checked trace and segment
under the identities of its oracle's parts, which live as long as the
system; a later fill whose oracle is made of the same parts reuses both
and runs no operator, sort or duplicate check.  This is sound because
the `EnumerationOperator` protocol makes a trace a function of its input
sequence alone: an operator must be such a function, as every operator
in the package and in its tests is.  Level-0 fills skip the table, since
their oracle is sigma itself and no two of them can share.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from bisect import bisect_left
from itertools import combinations, islice
from struct import pack
from typing import Iterable

from .jump import (
    ContractViolationError,
    EnumerationOperator,
    JumpTrace,
    checked_trace,
)
from .ordinals import OrdinalNotation, classify, fund_seq, render, successor
from .universe import Seq, Universe, seq_str


class Memo(dict):
    """The one memo block: values computed once per owner and stored
    under their fill function and arguments, keyed by (fill, *args).  A
    reader subscripts `owner._memo[fill, *args]`: a hit is one dict read,
    served by the dict itself with no lock and no Python frame, and only
    a miss runs Python code.  The miss takes the lock, reads the entry
    again and otherwise stores fill(owner, *args), so each value is
    computed once even when threads race.  `get` peeks without filling.
    One owner may be shared across threads: this rests on dict reads and
    item assignment being atomic, as they are in CPython.  The owner is
    held through a weak reference, so an owner and its memo form no
    reference cycle and are freed together by reference counting."""

    __slots__ = ("_owner", "_lock")

    def __init__(self, owner):
        super().__init__()
        self._owner = weakref.ref(owner)
        self._lock = threading.RLock()

    def __missing__(self, key: tuple):
        with self._lock:
            hit = self.get(key)
            if hit is None:
                fill, *args = key
                hit = self[key] = fill(self._owner(), *args)
            return hit


def _joined(parts: list[Seq]) -> Seq:
    """The parts' concatenation; the list it is built in is freed on
    return, before any operator reads the oracle."""
    out: list[int] = []
    for part in parts:
        out.extend(part)
    return tuple(out)


class TrueStageSystem:
    """Memoizing evaluator for the level-indexed relations of one
    enumeration operator.

    One memo holds every chain, jump trace and p, each computed once per
    system; a trace's entry also holds the oracle segment its own fill
    cuts, so every fill writes only its own entry.  A p entry is filled
    on the first read of that p: from the memoised trace when there is
    one, otherwise from the operator's `last_code` on the oracle's
    parts, so neither the trace nor the oracle is built for it.  An
    operator without `last_code` gives every p through a memoised,
    checked trace.  No leq answer is stored: leq reads membership in a
    memoised chain.  Beside the memo, the system keeps its interned
    segments and its traces by oracle parts; only trace fills write
    them, under the memo's lock, and they are freed with the system.

    The readers `leq`, `chain`, `p`, `trace_at`, `_parts` and the chain
    fill itself subscript the memo under `TrueStageSystem._chain` (and so
    on), looked up when they run, so a hit costs one dict read and a
    patched fill still fills.  `height` reads through `chain`, so a
    subclass that overrides `chain` still sees every height read."""

    def __init__(self, operator: EnumerationOperator):
        self._memo = Memo(self)
        self.operator = operator
        self._last_code = getattr(operator, "last_code", None)
        self._segments: dict[tuple[int, int], list[Seq]] = {}
        self._traces: dict[bytes, tuple[JumpTrace, Seq]] = {}

    def leq(self, sigma: Seq, tau: Seq, alpha: OrdinalNotation) -> bool:
        sigma, tau = tuple(sigma), tuple(tau)
        if sigma == tau:
            return True
        if tau[: len(sigma)] != sigma:
            return False
        return sigma in self._memo[TrueStageSystem._chain, tau, alpha]

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
        return self._memo[TrueStageSystem._chain, tuple(tau), alpha]

    def _chain(self, tau: Seq, alpha: OrdinalNotation) -> tuple[Seq, ...]:
        cls = classify(alpha)
        if cls.kind == "zero":
            return tuple(tau[:i] for i in range(len(tau) + 1))
        if cls.kind == "successor":
            beta = cls.predecessor
            memo = self._memo
            below = classify(beta)
            if below.kind == "successor" and (
                    TrueStageSystem._chain, tau, below.predecessor) not in memo:
                # Two or more levels are missing: fill them bottom-up, so
                # that no fill recurses once per successor level.
                run = [beta, below.predecessor]
                while (below := classify(run[-1])).kind == "successor" and (
                        TrueStageSystem._chain, tau, below.predecessor) not in memo:
                    run.append(below.predecessor)
                for level in reversed(run):
                    memo[TrueStageSystem._chain, tau, level]
            # A suffix minimum: rho stays when no later stage of the
            # chain below has a smaller p.
            kept: list[Seq] = []
            floor = None
            for rho in reversed(memo[TrueStageSystem._chain, tau, beta]):
                p = memo[TrueStageSystem._p, rho, beta]
                if floor is None or p <= floor:
                    kept.append(rho)
                    floor = p
            return tuple(reversed(kept))
        # A proper prefix stays when it is on tau's chain at the member of
        # the fundamental sequence that its own height picks.  Any later
        # member would do as well: TS9 says the answer is the same at
        # every index from the height on, so the index is immaterial
        # wherever the verifier's TS9 property holds.
        return tuple(
            rho for rho in (tau[:i] for i in range(len(tau)))
            if rho in self._memo[TrueStageSystem._chain, tau,
                                 fund_seq(alpha, self.height(rho, alpha))]
        ) + (tau,)

    def oracle(self, sigma: Seq, alpha: OrdinalNotation) -> Seq:
        """The sequence fed back to the operator to climb one level: sigma
        itself at level 0; above it, the segments of sigma's chain
        elements past the root, in chain order."""
        return _joined(self._parts(sigma, alpha))

    def _parts(self, sigma: Seq, alpha: OrdinalNotation) -> list[Seq]:
        """The oracle in consecutive parts, each a memoised segment above
        level 0, so that p is read from them with no oracle built."""
        cls = classify(alpha)
        if cls.kind == "zero":
            return [tuple(sigma)]
        memo = self._memo
        parts = []
        for rho in memo[TrueStageSystem._chain, tuple(sigma), alpha][1:]:
            level = (cls.predecessor if cls.kind == "successor"
                     else fund_seq(alpha, self.height(rho, alpha)))
            parts.append(memo[TrueStageSystem._trace_at, rho, level][1])
        return parts

    def trace_at(self, sigma: Seq, alpha: OrdinalNotation) -> JumpTrace:
        return self._memo[TrueStageSystem._trace_at, tuple(sigma), alpha][0]

    def _trace_at(self, sigma: Seq, alpha: OrdinalNotation) -> tuple[JumpTrace, Seq]:
        """sigma's checked trace at level alpha and its segment: the bound
        p, the number n of codes under it, then those codes in increasing
        order, cut from the codes the check sorted.  A segment is shared
        by every later stage whose chain contains sigma, so it is cut
        once per (sigma, alpha) and read from the memo.  Above level 0
        the entry is shared by every stage whose oracle is made of the
        same interned parts."""
        if classify(alpha).kind == "zero":
            return self._cut(*checked_trace(self.operator, sigma))
        parts = self._parts(sigma, alpha)
        # The parts' identities packed 8 bytes each: no int per part.
        key = pack(f"{len(parts)}Q", *map(id, parts))
        entry = self._traces.get(key)
        if entry is None:
            entry = self._traces[key] = self._cut(
                *checked_trace(self.operator, _joined(parts)))
        return entry

    def _cut(self, trace: JumpTrace, ordered: list[int]) -> tuple[JumpTrace, Seq]:
        """The trace and its interned segment, cut from its sorted codes
        once the oracle is freed.  A segment is looked up by its
        fingerprint (p, n), and its codes are compared only with the
        segments kept under that fingerprint."""
        bound = trace.p
        n = bisect_left(ordered, bound)
        segment = (bound, n, *islice(ordered, n))
        kept = self._segments.setdefault((bound, n), [])
        for other in kept:
            if other == segment:
                return trace, other
        kept.append(segment)
        return trace, segment

    def p(self, sigma: Seq, alpha: OrdinalNotation) -> int:
        return self._memo[TrueStageSystem._p, tuple(sigma), alpha]

    def _p(self, sigma: Seq, alpha: OrdinalNotation) -> int:
        entry = self._memo.get((TrueStageSystem._trace_at, sigma, alpha))
        if entry is not None:
            return entry[0].p
        if self._last_code is not None:
            return self._last_code(self._parts(sigma, alpha))
        return self.trace_at(sigma, alpha).p


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


# Counterexamples kept per property, as given; `failures` counts every one.
_MAX_COUNTEREXAMPLES = 5
# TS9 compares the limit answer at this many fundamental-sequence
# levels past the height index.
_TS9_WINDOW = 4


def _example(res: PropertyResult, **data) -> None:
    res.passed = False
    res.failures += 1
    if len(res.counterexamples) < _MAX_COUNTEREXAMPLES:
        res.counterexamples.append(data)


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
            for sigma, rho in combinations(ch, 2):
                res.checked += 1
                if not sys.leq(sigma, rho, alpha):
                    _example(res, alpha=alpha, tau=tau, sigma=sigma, rho=rho,
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
            for sigma, rho in combinations(sys.chain(tau, alpha), 2):
                res.checked += 1
                if sys.leq(sigma, tau, up) and not sys.leq(sigma, rho, up):
                    _example(res, alpha=alpha, sigma=sigma, rho=rho, tau=tau,
                             detail="skipped an intermediate stage")

    # TS3 finite analog: on each maximal sequence the apparently true
    # stages are pairwise comparable.
    res = fresh("TS3-finite")
    for alpha in levels:
        for tau in universe.maximal():
            for sigma, rho in combinations(sys.chain(tau, alpha), 2):
                res.checked += 1
                if not (sys.leq(sigma, rho, alpha) or sys.leq(rho, sigma, alpha)):
                    _example(res, alpha=alpha, tau=tau, sigma=sigma, rho=rho,
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
