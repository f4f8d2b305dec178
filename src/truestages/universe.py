"""Finite test universes: every sequence up to a length bound over an
initial-segment alphabet."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterator

Seq = tuple[int, ...]


class InputError(ValueError):
    """Input that cannot be served: a missing file, malformed JSON, a
    bad notation, or an instance whose parts do not fit together.  The
    command line exits 2 on this error and on no other; any other error
    is a defect and propagates."""


def shortlex(max_len: int, alphabet: int) -> Iterator[Seq]:
    """Every sequence over range(alphabet) of length at most max_len,
    shortest first and lexicographic within a length.  Lazy, so a scan
    that stops early never builds the rest."""
    for n in range(max_len + 1):
        yield from itertools.product(range(alphabet), repeat=n)


@dataclasses.dataclass(frozen=True)
class Universe:
    max_len: int
    alphabet: int

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError("max_len must be a natural")
        if self.alphabet < 1:
            raise ValueError("alphabet must contain at least one value")

    @functools.cached_property
    def _members(self) -> tuple[Seq, ...]:
        return tuple(shortlex(self.max_len, self.alphabet))

    def all_seqs(self) -> list[Seq]:
        """All members, in shortlex order, as a fresh list."""
        return list(self._members)

    def maximal(self) -> list[Seq]:
        return list(itertools.product(range(self.alphabet), repeat=self.max_len))

    def prefix_pairs(self) -> Iterator[tuple[Seq, Seq]]:
        """Every (sigma, tau) with sigma a (possibly equal) prefix of tau."""
        for tau in self.all_seqs():
            for i in range(len(tau) + 1):
                yield tau[:i], tau

    def __contains__(self, seq: object) -> bool:
        return (
            isinstance(seq, tuple)
            and len(seq) <= self.max_len
            and all(isinstance(v, int) and 0 <= v < self.alphabet for v in seq)
        )


def seq_str(seq: Seq) -> str:
    return "[" + ",".join(str(v) for v in seq) + "]"


def parse_seq(text: str) -> Seq:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected a bracketed sequence, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return tuple(int(part) for part in body.split(","))
