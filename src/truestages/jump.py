"""Stage-bounded jump enumeration over finite sequences.

An enumeration operator assigns to each finite sequence a trace: a
column of codes, where codes[i] enters the jump set at time i + 1, so
at most one code enters per entry of sigma.  Traces must grow
monotonically along prefixes, so a trace extends another exactly when
the other's codes are a prefix of its own; `stages.ts_verify` checks
this in its TS7-consistency property.  The default operator
enumerates pair(i, k) when the (k+1)-th occurrence of value i appears,
which makes the running "last number enumerated" drop and recover as
sequences extend.  It computes the pairing inline; `cantor_pair` is the
reference definition it must agree with.
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

from .universe import Seq


class ContractViolationError(Exception):
    """An operator, or a stage system over it, broke an invariant the
    package relies on: a trace's bounds or duplicates, or a chain that
    does not end at its own sequence (TS2)."""


def cantor_pair(i: int, k: int) -> int:
    return (i + k) * (i + k + 1) // 2 + k


@dataclasses.dataclass(frozen=True, slots=True)
class JumpTrace:
    """The codes enumerated, codes[i] at time i + 1, with no code twice.
    Equality and hashing are by value."""

    codes: tuple[int, ...]

    @property
    def events(self) -> tuple[tuple[int, int], ...]:
        """The (code, time) pairs, in time order."""
        return tuple(zip(self.codes, range(1, len(self.codes) + 1)))

    @property
    def p(self) -> int:
        """The last number enumerated; 0 when nothing has been."""
        return self.codes[-1] if self.codes else 0

    def extends(self, other: "JumpTrace") -> bool:
        return self.codes[: len(other.codes)] == other.codes


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
        return JumpTrace(tuple(codes))


def enumerate_jump(op: EnumerationOperator, sigma: Seq) -> JumpTrace:
    """Run the operator and check the per-call trace invariants: at most
    one code per entry of sigma, and no code twice."""
    trace = op.trace(tuple(sigma))
    n = len(sigma)
    codes = trace.codes
    if len(codes) > n:
        raise ContractViolationError(
            f"event ({codes[n]},{n + 1}) out of bounds for a sequence of length {n}"
        )
    if len(set(codes)) != len(codes):
        raise ContractViolationError("duplicate code enumerated")
    return trace
