import itertools

import pytest

from truestages.universe import Universe, shortlex


@pytest.mark.parametrize("max_len", [0, 1, 2, 4])
@pytest.mark.parametrize("alphabet", [1, 2, 3])
def test_shortlex_lists_the_universe_in_order(max_len, alphabet):
    seqs = list(shortlex(max_len, alphabet))
    assert seqs == Universe(max_len, alphabet).all_seqs()
    assert seqs == sorted(seqs, key=lambda s: (len(s), s))
    assert len(set(seqs)) == len(seqs)


def test_shortlex_is_lazy():
    # 2^61 - 1 sequences in all: only a lazy scan can stop after three.
    assert list(itertools.islice(shortlex(60, 2), 3)) == [(), (0,), (1,)]


def test_shortlex_of_a_negative_length_is_empty():
    assert list(shortlex(-1, 2)) == []


@pytest.mark.parametrize("max_len, alphabet, message", [
    (-1, 2, "max_len must be a natural"),
    (2, 0, "alphabet must contain at least one value"),
], ids=["negative-length", "empty-alphabet"])
def test_universe_rejects_bad_bounds(max_len, alphabet, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Universe(max_len, alphabet)
