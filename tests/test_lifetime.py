"""A job's TrueStageSystem, and its whole memo, is freed as soon as the
caller drops it: the entry points leave no reference cycle behind that
only a full garbage collection would break."""

import gc
import weakref

import pytest

from truestages.game import GameInstance, PairTree, solve
from truestages.hierarchy import UpsetRep
from truestages.jump import DefaultOperator, JumpTrace
from truestages.ordinals import ZERO, parse_ordinal
from truestages.stages import TrueStageSystem
from truestages.universe import Universe
from truestages.wadge import wadge_tree

W = parse_ordinal("w")
FULL = PairTree(full=True)
ROOT_ONLY = PairTree.from_pairs([((), ())])


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _dies_with_caller(job) -> None:
    sys_ = TrueStageSystem(DefaultOperator())
    job(sys_)
    ref = weakref.ref(sys_)
    del sys_
    assert ref() is None


def test_wadge_tree_frees_the_system(no_gc):
    uni = Universe(3, 2)
    w1 = UpsetRep(W, frozenset(s for s in uni.all_seqs() if s[:1] == (1,)))
    w0 = UpsetRep(W, frozenset(s for s in uni.all_seqs() if s[:1] == (0,)))
    _dies_with_caller(lambda s: wadge_tree(s, w0, w1, W, uni))


@pytest.mark.parametrize("generators, status", [
    (frozenset({()}), "IWins"),
    (frozenset(), "Undetermined"),
])
def test_solve_frees_the_system(no_gc, generators, status):
    g = GameInstance(ZERO, UpsetRep(ZERO, generators), FULL, ROOT_ONLY, 2, 3)

    def job(sys_):
        assert solve(sys_, g).status == status

    _dies_with_caller(job)


def test_memoised_default_traces_are_columns():
    # Traces are most of a memo's bytes: a trace is one column holding an
    # int per event, with no tuple per event and no column of times.
    assert JumpTrace.__slots__ == ("codes",)
    sys_ = TrueStageSystem(DefaultOperator())
    for tau in Universe(3, 2).all_seqs():
        sys_.p(tau, parse_ordinal("w+1"))
    traces = [v[0] for k, v in sys_._memo.items() if k[0] is TrueStageSystem._trace_at]
    assert len(traces) > len(Universe(3, 2).all_seqs())
    for trace in traces:
        assert type(trace.codes) is tuple
        assert all(type(e) is int for e in trace.codes)
