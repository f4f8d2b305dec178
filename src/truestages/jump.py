"""Stage-bounded jump enumeration over finite sequences.

An enumeration operator assigns to each finite sequence a trace: a
column of codes, where codes[i] enters the jump set at time i + 1, so
at most one code enters per entry of sigma.  Traces must grow
monotonically along prefixes, so a trace extends another exactly when
the other's codes are a prefix of its own; `stages.ts_verify` checks
this in its TS7-consistency property.  The default operator
enumerates pair(i, k) when the (k+1)-th occurrence of value i appears,
which makes the running "last number enumerated" drop and recover as
sequences extend.  It computes the pairing inline and keeps each
value's triangular number, so a value that recurs across oracles is
squared once per operator; `cantor_pair` is the reference definition it
must agree with.
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
    of value i in the sequence.

    Each operator keeps the triangular number of every value it has
    traced, so a value recurring across oracles is squared once per
    operator.  Under a stage system, every oracle entry above level 0
    lies in a memoised segment and every kept number is a code of a
    memoised trace, so the cache holds no value the system's memo does
    not.  The cache is an attribute, never module state: one command
    builds one operator, and work is not carried from one to the next."""

    def __init__(self):
        self._triangular: dict[int, int] = {}

    def trace(self, sigma: Seq) -> JumpTrace:
        # cantor_pair(i, k) inlined: this loop runs once per event.  A
        # first occurrence (k = 0) is the triangular number of i, read
        # from the cache; a repeat pairs n = i + k by squaring, which
        # CPython does faster than a product of two distinct ints.
        triangular = self._triangular
        cached = triangular.get
        seen: dict[int, int] = {}
        get = seen.get
        codes: list[int] = []
        append = codes.append
        for i in sigma:
            k = get(i, 0)
            seen[i] = k + 1
            if k:
                n = i + k
                append(((n * n + n) >> 1) + k)
            else:
                t = cached(i)
                if t is None:
                    t = triangular[i] = (i * i + i) >> 1
                append(t)
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
