"""Stage-bounded jump enumeration over finite sequences.

An enumeration operator assigns to each finite sequence a trace of
events (e, t): number e enters the jump set at time t, with
1 <= t <= len(sigma).  A trace stores its events as two columns, the
codes and their times.  Traces must grow monotonically along prefixes.
The default operator enumerates pair(i, k) when the (k+1)-th occurrence
of value i appears, which makes the running "last number enumerated"
drop and recover as sequences extend.  It enumerates one code per
entry, so its times are the range 1..len(sigma), and the trace
contract is checked without a loop over events.  It computes the
pairing inline; `cantor_pair` is the reference definition it must
agree with.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Iterable, Protocol, Sequence

from .universe import Seq


class ContractViolationError(Exception):
    """An operator broke a trace invariant (bounds, order, monotonicity)."""


def cantor_pair(i: int, k: int) -> int:
    return (i + k) * (i + k + 1) // 2 + k


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class JumpTrace:
    """Events (e, time) sorted by time then e, with no duplicate e, held
    as two columns: `codes`, a tuple of ints, and `times`.  When the
    times are exactly 1..len(codes), one code per time, `times` is that
    range; otherwise it is a tuple.  Equality and hashing are by value."""

    codes: tuple[int, ...]
    times: Sequence[int]

    def __init__(self, events: Iterable[tuple[int, int]] = ()):
        events = tuple(events)
        times = tuple(t for _, t in events)
        dense = range(1, len(times) + 1)
        object.__setattr__(self, "codes", tuple(e for e, _ in events))
        object.__setattr__(self, "times", dense if times == tuple(dense) else times)

    @classmethod
    def dense(cls, codes: Iterable[int]) -> "JumpTrace":
        """The trace that enumerates codes[i] at time i + 1."""
        trace = cls.__new__(cls)
        codes = tuple(codes)
        object.__setattr__(trace, "codes", codes)
        object.__setattr__(trace, "times", range(1, len(codes) + 1))
        return trace

    @property
    def events(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.codes, self.times))

    @property
    def p(self) -> int:
        """The last number enumerated; 0 when nothing has been."""
        return self.codes[-1] if self.codes else 0

    def extends(self, other: "JumpTrace") -> bool:
        n = len(other.codes)
        head = self.times[:n]
        # A range never equals a tuple, so a dense prefix of a trace
        # that is not dense is compared as a tuple.
        return self.codes[:n] == other.codes and (
            head == other.times or tuple(head) == tuple(other.times))


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
        codes: list[int] = []
        append = codes.append
        for i in sigma:
            k = get(i, 0)
            seen[i] = k + 1
            if k:
                n = i + k
                append(n * (n + 1) // 2 + k)
            else:
                append(i * (i + 1) // 2)
        return JumpTrace.dense(codes)


def enumerate_jump(op: EnumerationOperator, sigma: Seq) -> JumpTrace:
    """Run the operator and check the per-call trace invariants."""
    trace = op.trace(tuple(sigma))
    n = len(sigma)
    codes = trace.codes
    # A dense trace is sorted by construction; its bounds and duplicates
    # are checked without visiting each event.
    if (trace.times == range(1, len(codes) + 1) and len(codes) <= n
            and len(set(codes)) == len(codes)):
        return trace
    prev_e, prev_t = 0, 0
    seen: set[int] = set()
    for e, t in zip(codes, trace.times):
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
