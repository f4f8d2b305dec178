import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from truestages.jump import (
    ContractViolationError,
    DefaultOperator,
    JumpTrace,
    cantor_pair,
    enumerate_jump,
)
from truestages.universe import Universe


def test_cantor_pair_values():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(1, 0) == 1
    assert cantor_pair(2, 0) == 3
    assert cantor_pair(2, 1) == 7
    assert cantor_pair(5, 0) == 15
    assert cantor_pair(9, 0) == 45


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
def test_cantor_pair_injective(i, k, i2, k2):
    if (i, k) != (i2, k2):
        assert cantor_pair(i, k) != cantor_pair(i2, k2)


def test_default_traces():
    op = DefaultOperator()
    assert enumerate_jump(op, ()).events == ()
    assert enumerate_jump(op, (2, 2)).events == ((3, 1), (7, 2))
    assert enumerate_jump(op, (5, 0)).events == ((15, 1), (0, 2))
    assert enumerate_jump(op, (5, 1)).events == ((15, 1), (1, 2))


def straight_line_trace(sigma):
    """The default operator's events, built from cantor_pair itself."""
    occurrences = {}
    events = []
    for t, i in enumerate(sigma, start=1):
        k = occurrences.get(i, 0)
        occurrences[i] = k + 1
        events.append((cantor_pair(i, k), t))
    return tuple(events)


def _seqs_over(pool):
    return st.lists(st.sampled_from(pool), max_size=16)


# Draws from a small pool, so values repeat, and big values occur.
_pools = st.lists(st.integers(0, 6) | st.integers(0, 2**4000), min_size=1, max_size=5)
_pooled_seqs = _pools.flatmap(_seqs_over)


@given(_pooled_seqs)
def test_default_operator_pairs_like_cantor_pair(seq):
    assert DefaultOperator().trace(tuple(seq)).events == straight_line_trace(seq)


@given(_pools.flatmap(
    lambda pool: st.lists(_seqs_over(pool + [2**4000 - 1, 2**4000]), max_size=6)))
def test_one_operator_pairs_like_cantor_pair_across_calls(seqs):
    # The operator keeps each value's triangular number, so a value that
    # recurs across traces, big ones included, must pair the same each time.
    op = DefaultOperator()
    for seq in seqs:
        assert op.trace(tuple(seq)).events == straight_line_trace(seq)


# Long draws from small pools, so values repeat many times, with big
# values on either side of 2**4000.
_repeating_seqs = _pools.map(lambda pool: pool + [2**4000 - 1, 2**4000 + 1]).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=60))


@example([], [])
@example([2**4000] * 40 + [2**4000 - 1, 2**4000], [0, 41, 41, 60])
@given(_repeating_seqs, st.lists(st.integers(0, 60), max_size=6))
def test_last_code_is_the_p_of_the_checked_trace(seq, cuts):
    # last_code reads the oracle in consecutive parts: the drawn sequence
    # cut at the drawn points, so parts may be empty, and an empty
    # sequence with no cuts is the single empty part.
    bounds = [0, *sorted(min(cut, len(seq)) for cut in cuts), len(seq)]
    parts = [tuple(seq[a:b]) for a, b in zip(bounds, bounds[1:])]
    op = DefaultOperator()
    assert op.last_code(parts) == enumerate_jump(op, tuple(seq)).p


def test_p_values():
    op = DefaultOperator()
    assert enumerate_jump(op, ()).p == 0
    assert enumerate_jump(op, (5,)).p == 15
    assert enumerate_jump(op, (5, 0)).p == 0
    assert enumerate_jump(op, (2, 2)).p == 7
    assert enumerate_jump(op, (1, 9)).p == 45


def test_p_can_drop_then_recover():
    op = DefaultOperator()
    values = [enumerate_jump(op, (5, 0)[:i]).p for i in range(3)]
    assert values == [0, 15, 0]
    assert enumerate_jump(op, (5, 0, 5)).p == cantor_pair(5, 1)


def test_prefix_monotone_on_universe():
    op = DefaultOperator()
    for sigma, tau in Universe(4, 3).prefix_pairs():
        assert enumerate_jump(op, tau).extends(enumerate_jump(op, sigma))


@given(st.lists(st.integers(0, 9), max_size=6))
def test_determinism_and_p_membership(seq):
    op = DefaultOperator()
    trace = enumerate_jump(op, tuple(seq))
    again = enumerate_jump(op, tuple(seq))
    assert trace == again
    if trace.events:
        assert trace.p in trace.codes
    else:
        assert trace.p == 0


# Each bad operator breaks one invariant and names the message it must get.
# The case ids are fixed, so a case keeps its name when others are removed.


class _BoundBeforeDuplicate:
    """Too long and repeating a code: the bound is reported first."""

    message = r"event \(4,3\) out of bounds for a sequence of length 2"

    def trace(self, sigma):
        return JumpTrace((4,) * (len(sigma) + 1))


class _DuplicatedApart:
    """A repeated code with another code between the two."""

    message = "duplicate code enumerated"

    def trace(self, sigma):
        return JumpTrace((4, 5, 4)[: len(sigma)])


class _Duplicated:
    message = "duplicate code enumerated"

    def trace(self, sigma):
        return JumpTrace((4,) * len(sigma))


class _TooLong:
    message = r"event \(3,3\) out of bounds for a sequence of length 2"

    def trace(self, sigma):
        return JumpTrace(tuple(range(1, len(sigma) + 2)))


@pytest.mark.parametrize(
    "bad, sigma",
    [
        pytest.param(_BoundBeforeDuplicate(), (3, 3), id="bad0"),
        pytest.param(_DuplicatedApart(), (3, 3, 3), id="bad1"),
        pytest.param(_Duplicated(), (3, 3), id="bad4"),
        pytest.param(_TooLong(), (3, 3), id="bad5"),
    ],
)
def test_local_contract_violations(bad, sigma):
    with pytest.raises(ContractViolationError, match=f"^{bad.message}$"):
        enumerate_jump(bad, sigma)
