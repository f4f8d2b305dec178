"""Ordinal notations in Cantor normal form, canonical copies, and
Kleene-Brouwer ranks of finite trees.

The canonical copy of eta, :func:`enum_copy`, is a plain iterator over
the notations below eta in one fixed order.  A finite tree is a parent
map, node to parent with the root mapped to None, and :func:`kb_rank`
numbers its nodes in Kleene-Brouwer order.

A notation is a finite sum of terms ``w^e * c`` with exponents that are
themselves notations, strictly decreasing along the sum, and positive
integer coefficients.  The empty sum is zero.  The concrete syntax is

    expr := term ("+" term)*
    term := "w" ["^" expr] ["*" nat] | nat

with no whitespace.  Rendering always emits the minimal form, so
``w^1`` renders back as ``w`` and coefficients of one are dropped.

Notations are interned: constructing a notation returns the one object
for that sum, so ``==`` is identity and a notation is a cheap dict key.
Each interned notation carries an order key, the tuple of its
(exponent key, coefficient) pairs, built once; Python's tuple order,
with a proper prefix first, is exactly the notation order, so a
comparison reads two keys.  :func:`classify`, :func:`from_int` and
:func:`fund_seq` are ``functools.cache`` functions.

The ceiling is fixed at ``w^w``: constructing a notation above it raises
:class:`CeilingError`, and every notation below it has finite exponents.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterator, Optional


class ParseError(ValueError):
    """Raised on malformed notation text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CeilingError(ValueError):
    """Raised when a constructed notation exceeds the ceiling w^w."""


# w^w, set as soon as ZERO, ONE and OMEGA exist to build it.
_CEILING: Optional["OrdinalNotation"] = None
_INTERNED: dict[tuple, "OrdinalNotation"] = {}


@dataclasses.dataclass(frozen=True, eq=False, init=False)
class OrdinalNotation:
    """Cantor normal form: a tuple of (exponent, coefficient) pairs.

    There is one object per notation, so equality is identity and the
    hash is the object's.  The terms and the ceiling are checked when a
    notation is first built; a notation that fails is never interned.
    ``_key`` is the order key; no other module reads it.
    """

    terms: tuple[tuple["OrdinalNotation", int], ...] = ()

    def __new__(cls, terms: tuple[tuple["OrdinalNotation", int], ...] = ()):
        self = _INTERNED.get(terms)
        if self is not None:
            return self
        prev = None
        for exp, coeff in terms:
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive int, got {coeff!r}")
            if prev is not None and exp._key >= prev._key:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", tuple((e._key, c) for e, c in terms))
        if _CEILING is not None and self._key > _CEILING._key:
            raise CeilingError(
                f"notation {render(self)} exceeds the ceiling {render(_CEILING)}"
            )
        return _INTERNED.setdefault(terms, self)

    def __reduce__(self):
        return OrdinalNotation, (self.terms,)

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise ValueError(f"{render(self)} is not finite")
        return self.terms[0][1]

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"OrdinalNotation[{render(self)}]"

    def __lt__(self, other: "OrdinalNotation") -> bool:
        return self._key < other._key

    def __le__(self, other: "OrdinalNotation") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "OrdinalNotation") -> bool:
        return self._key > other._key

    def __ge__(self, other: "OrdinalNotation") -> bool:
        return self._key >= other._key


ZERO = OrdinalNotation()
ONE = OrdinalNotation(((ZERO, 1),))
OMEGA = OrdinalNotation(((ONE, 1),))
_CEILING = OrdinalNotation(((OMEGA, 1),))


@functools.cache
def from_int(n: int) -> OrdinalNotation:
    """The notation of the natural n.  A hit is one C-level cache read;
    a negative n raises and is not stored, and a large n adds one entry."""
    if n < 0:
        raise ValueError("naturals only")
    return ZERO if n == 0 else OrdinalNotation(((ZERO, n),))


def compare(a: OrdinalNotation, b: OrdinalNotation) -> int:
    """Total order on notations: -1, 0, or 1, read off the order keys."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def render(a: OrdinalNotation) -> str:
    if not a.terms:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp == ONE:
            head = "w"
        else:
            head = "w^" + render(exp)
        parts.append(head if coeff == 1 else f"{head}*{coeff}")
    return "+".join(parts)


def successor(a: OrdinalNotation) -> OrdinalNotation:
    if a.terms and a.terms[-1][0].is_zero():
        exp, coeff = a.terms[-1]
        return OrdinalNotation(a.terms[:-1] + ((exp, coeff + 1),))
    return OrdinalNotation(a.terms + ((ZERO, 1),))


@dataclasses.dataclass(frozen=True)
class Classified:
    kind: str  # "zero" | "successor" | "limit"
    predecessor: Optional[OrdinalNotation]


@functools.cache
def classify(a: OrdinalNotation) -> Classified:
    """Zero, successor (with its predecessor) or limit.  Cached like
    from_int: a hit is one C-level cache read."""
    if a.is_zero():
        return Classified("zero", None)
    exp, coeff = a.terms[-1]
    if not exp.is_zero():
        return Classified("limit", None)
    if coeff > 1:
        pred = OrdinalNotation(a.terms[:-1] + ((exp, coeff - 1),))
    else:
        pred = OrdinalNotation(a.terms[:-1])
    return Classified("successor", pred)


def parity(a: OrdinalNotation) -> int:
    """Parity of the finite remainder: 0 for even, 1 for odd.

    Limits and zero have an empty remainder and count as even.
    """
    if a.terms and a.terms[-1][0].is_zero():
        return a.terms[-1][1] % 2
    return 0


@functools.cache
def fund_seq(lam: OrdinalNotation, k: int) -> OrdinalNotation:
    """The k-th member of the canonical fundamental sequence of a limit.

    (b + w^(g+1))[k] = b + w^g * (k+1); (b + w^g)[k] = b + w^(g[k]) for
    g a limit.  In particular w[k] = k+1.  Cached like from_int: the
    relations ask for a few (lam, k) pairs many times, a hit is one
    C-level cache read, and a call that raises stores nothing.
    """
    if k < 0:
        raise ValueError("index must be a natural")
    if classify(lam).kind != "limit":
        raise ValueError(f"{render(lam)} is not a limit")
    exp, coeff = lam.terms[-1]
    base = lam.terms[:-1] if coeff == 1 else lam.terms[:-1] + ((exp, coeff - 1),)
    cls = classify(exp)
    if cls.kind == "successor":
        gamma = cls.predecessor
        if gamma.is_zero():
            return OrdinalNotation(base + ((ZERO, k + 1),))
        return OrdinalNotation(base + ((gamma, k + 1),))
    return OrdinalNotation(base + ((fund_seq(exp, k), 1),))


# ---------------------------------------------------------------------------
# Parsing.

def parse_ordinal(text: str) -> OrdinalNotation:
    """Parse notation text; the result round-trips through render()."""
    if text == "0":
        return ZERO
    value, pos = _parse_expr(text, 0)
    if pos != len(text):
        raise ParseError("unexpected trailing input", pos)
    return value


def _parse_expr(s: str, i: int) -> tuple[OrdinalNotation, int]:
    terms = []
    term, i = _parse_term(s, i)
    terms.append(term)
    while i < len(s) and s[i] == "+":
        save = i
        term, j = _parse_term(s, i + 1)
        # A term whose exponent does not drop belongs to the enclosing
        # expression (this is what keeps w^2+w meaning (w^2)+w).
        if compare(term[0], terms[-1][0]) >= 0:
            i = save
            break
        terms.append(term)
        i = j
    try:
        return OrdinalNotation(tuple(terms)), i
    except ValueError as exc:
        raise ParseError(str(exc), i) from exc


def _parse_term(s: str, i: int) -> tuple[tuple[OrdinalNotation, int], int]:
    if i >= len(s):
        raise ParseError("expected a term", i)
    if s[i] == "w":
        i += 1
        exp = ONE
        if i < len(s) and s[i] == "^":
            exp, i = _parse_expr(s, i + 1)
        coeff = 1
        if i < len(s) and s[i] == "*":
            coeff, i = _parse_nat(s, i + 1)
            if coeff == 0:
                raise ParseError("coefficient must be positive", i)
        return (exp, coeff), i
    n, i = _parse_nat(s, i)
    if n == 0:
        raise ParseError("zero cannot appear inside a sum", i)
    return (ZERO, n), i


def _parse_nat(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise ParseError("expected a number", i)
    if s[i] == "0" and j - i > 1:
        raise ParseError("leading zero", i)
    return int(s[i:j]), j


# ---------------------------------------------------------------------------
# Canonical copies.

_CHAR_ORDER = {c: k for k, c in enumerate("w0123456789*+^")}


def _string_key(text: str) -> tuple:
    return tuple(_CHAR_ORDER[c] for c in text)


def enum_copy(eta: OrdinalNotation) -> Iterator[OrdinalNotation]:
    """The canonical copy of eta: an iterator over the notations strictly
    below eta, each once.

    The order lists rendered expressions by length, and within a length
    by character order with ``w`` before the digits.  This keeps finite
    eta in natural order and puts ``w`` first for eta = w+1.
    """
    if eta.is_zero():
        raise ValueError("eta must be positive")
    if eta.is_finite():
        return map(from_int, range(eta.as_int()))
    return _below(eta)


def _below(eta: OrdinalNotation) -> Iterator[OrdinalNotation]:
    for length in itertools.count(1):
        for nu in sorted(_rendered(length, 1), key=lambda nu: _string_key(render(nu))):
            if nu < eta:
                yield nu
        lo = 0 if length == 1 else 10 ** (length - 1)
        for n in range(lo, 10 ** length):
            nu = from_int(n)
            if nu < eta:
                yield nu


def _rendered(
    length: int, low: int = 0, high: Optional[int] = None
) -> Iterator[OrdinalNotation]:
    """The nonzero notations below w^w whose rendering has the given
    length and whose leading exponent, a natural, lies in [low, high);
    in no fixed order.

    A term ``w^n*c`` never renders shorter as n or c grows, so each loop
    stops at the first term that is too long.
    """
    for n in itertools.count(low) if high is None else range(low, high):
        exp = from_int(n)
        for c in itertools.count(1):
            used = _term_length(n, c)
            if used > length:
                break
            if used == length:
                yield OrdinalNotation(((exp, c),))
            elif used + 2 <= length:
                for rest in _rendered(length - used - 1, 0, n):
                    yield OrdinalNotation(((exp, c),) + rest.terms)
        if c == 1:
            # w^n alone is too long, and so is every later head.
            return


def _term_length(n: int, c: int) -> int:
    """The rendered length of the term w^n*c, n a natural."""
    if n == 0:
        return len(str(c))
    head = 1 if n == 1 else 2 + len(str(n))
    return head if c == 1 else head + 1 + len(str(c))


# ---------------------------------------------------------------------------
# Kleene-Brouwer ranks.

Node = tuple[int, ...]


def kb_rank(parent: dict[Node, Optional[Node]]) -> tuple[OrdinalNotation, dict[Node, int]]:
    """Kleene-Brouwer ranks of the finite tree given by its parent map,
    whose root maps to None: descendants before ancestors, siblings
    shortest first, then lexicographically.  Returns the order type (as a
    notation) and the rank map.

    Raises ValueError unless the map has a single root that reaches every
    node, which also means that every parent is a node and that there is
    no cycle.
    """
    roots: list[Node] = []
    children: dict[Node, list[Node]] = {}
    # One sort of every node, shortest first and then lexicographically,
    # leaves each node's children in sibling order.
    for node in sorted(sorted(parent), key=len):
        p = parent[node]
        if p is None:
            roots.append(node)
        else:
            children.setdefault(p, []).append(node)
    ranks: dict[Node, int] = {}
    stack: list[tuple[Node, bool]] = [(root, False) for root in roots[:1]]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            ranks[node] = len(ranks)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(children.get(node, ())))
    if len(roots) != 1 or len(ranks) != len(parent):
        raise ValueError(
            "not a tree: the parent map needs a single root that reaches every node"
        )
    return from_int(len(ranks)), ranks
