"""Stage-bounded jump enumeration over finite sequences.

An enumeration operator assigns to each finite sequence a trace of
events (e, t): number e enters the jump set at time t, with
1 <= t <= len(sigma).  Traces must grow monotonically along prefixes.
The default operator enumerates pair(i, k) when the (k+1)-th occurrence
of value i appears, which makes the running "last number enumerated"
drop and recover as sequences extend.  It computes the pairing inline;
`cantor_pair` is the reference definition it must agree with.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Protocol

from .universe import Seq


class ContractViolationError(Exception):
    """An operator broke a trace invariant (bounds, order, monotonicity)."""


def cantor_pair(i: int, k: int) -> int:
    return (i + k) * (i + k + 1) // 2 + k


@dataclasses.dataclass(frozen=True)
class JumpTrace:
    """Events (e, time) sorted by time then e; no duplicate e."""

    events: tuple[tuple[int, int], ...] = ()

    @property
    def codes(self) -> frozenset[int]:
        return frozenset(e for e, _ in self.events)

    @property
    def p(self) -> int:
        """The last number enumerated; 0 when nothing has been."""
        if not self.events:
            return 0
        return self.events[-1][0]

    def extends(self, other: "JumpTrace") -> bool:
        return self.events[: len(other.events)] == other.events


class EnumerationOperator(Protocol):
    def trace(self, sigma: Seq) -> JumpTrace: ...


class DefaultOperator:
    """Enumerates pair(i, k) at the position of the (k+1)-th occurrence
    of value i in the sequence."""

    def trace(self, sigma: Seq) -> JumpTrace:
        # cantor_pair(i, k) inlined: this loop runs once per event.  A
        # first occurrence (k = 0) is the triangular number of i.
        seen: dict[int, int] = {}
        get = seen.get
        events: list[tuple[int, int]] = []
        append = events.append
        for t, i in enumerate(sigma, start=1):
            k = get(i, 0)
            seen[i] = k + 1
            if k:
                n = i + k
                append((n * (n + 1) // 2 + k, t))
            else:
                append((i * (i + 1) // 2, t))
        return JumpTrace(tuple(events))


def enumerate_jump(op: EnumerationOperator, sigma: Seq) -> JumpTrace:
    """Run the operator and check the per-call trace invariants."""
    trace = op.trace(tuple(sigma))
    n = len(sigma)
    prev_e, prev_t = 0, 0
    seen: set[int] = set()
    for e, t in trace.events:
        if not 1 <= t <= n:
            raise ContractViolationError(
                f"event ({e},{t}) out of bounds for a sequence of length {n}"
            )
        if t < prev_t:
            raise ContractViolationError(f"event times out of order at ({e},{t})")
        if t == prev_t and prev_e >= e:
            raise ContractViolationError(
                f"events at time {t} not sorted by code: {prev_e} before {e}"
            )
        if e in seen:
            raise ContractViolationError("duplicate code enumerated")
        seen.add(e)
        prev_e, prev_t = e, t
    return trace


def p_value(op: EnumerationOperator, sigma: Seq) -> int:
    return enumerate_jump(op, sigma).p


class ValidatingOperator:
    """Wraps an operator and checks prefix-monotonicity against every
    previously seen trace.  The cache is shared, so access is serialized.
    """

    def __init__(self, inner: EnumerationOperator):
        self.inner = inner
        self._cache: dict[Seq, JumpTrace] = {}
        self._lock = threading.Lock()

    def trace(self, sigma: Seq) -> JumpTrace:
        sigma = tuple(sigma)
        with self._lock:
            cached = self._cache.get(sigma)
            if cached is not None:
                return cached
        trace = enumerate_jump(self.inner, sigma)
        with self._lock:
            for i in range(len(sigma) + 1):
                prefix = sigma[:i]
                known = self._cache.get(prefix)
                if known is not None and not trace.extends(known):
                    raise ContractViolationError(
                        f"trace of {sigma} does not extend trace of prefix {prefix}"
                    )
            for other, known in self._cache.items():
                if other[: len(sigma)] == sigma and not known.extends(trace):
                    raise ContractViolationError(
                        f"trace of {other} does not extend trace of prefix {sigma}"
                    )
            self._cache[sigma] = trace
        return trace
