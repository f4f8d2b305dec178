import functools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instance_tools import LAWFUL_OPERATORS, Rewriter, Rootless
from test_jump import straight_line_trace
from truestages import stages
from truestages.hierarchy import eval_at, upset_close
from truestages.jump import DefaultOperator
from truestages.ordinals import classify, fund_seq, parse_ordinal
from truestages.stages import Memo, TrueStageSystem, ts_verify
from truestages.universe import Universe

LEVELS = {s: parse_ordinal(s) for s in ["0", "1", "2", "3", "4", "5", "w", "w+1"]}


@pytest.fixture(scope="module")
def sys_():
    return TrueStageSystem(DefaultOperator())


def test_a_memo_hit_never_fills_again_and_get_never_fills():
    owner = TrueStageSystem(DefaultOperator())
    memo = Memo(owner)
    fills = []

    def fill(owner, n):
        fills.append(n)
        return (owner, n)

    assert memo.get((fill, 1)) is None
    assert fills == [] and not memo
    first = memo[fill, 1]
    assert first == (owner, 1)
    assert memo[fill, 1] is first
    assert memo.get((fill, 1)) is first
    assert fills == [1]


def test_level_zero_is_the_prefix_order(sys_):
    assert sys_.leq((1,), (1, 2), LEVELS["0"])
    assert sys_.leq((), (0, 1, 2), LEVELS["0"])
    assert not sys_.leq((1, 2), (1,), LEVELS["0"])
    assert not sys_.leq((1,), (2, 1), LEVELS["0"])


def test_successor_level_examples(sys_):
    assert sys_.leq((2,), (2, 2), LEVELS["1"])
    assert not sys_.leq((5,), (5, 0), LEVELS["1"])


def test_heights(sys_):
    for name in ["0", "1", "w", "w+1"]:
        assert sys_.height((), LEVELS[name]) == 0
    assert sys_.height((5, 0), LEVELS["1"]) == 1
    assert sys_.height((2, 2), LEVELS["0"]) == 2


def test_chains(sys_):
    assert sys_.chain((7,), LEVELS["0"]) == ((), (7,))
    assert sys_.chain((2, 2), LEVELS["1"]) == ((), (2,), (2, 2))
    assert sys_.chain((5, 0), LEVELS["1"]) == ((), (5, 0))


# Each oracle was worked out by hand from the occurrence-counting rule:
# the level-1 oracle for (2,) carries one segment (bound 3, nothing
# below), so it reads (3, 0), and so on up the ladder.
P_LADDER = {
    ("1", (2,)): 0, ("1", (2, 2)): 11,
    ("2", (2,)): 2, ("2", (2, 2)): 21,
    ("3", (2,)): 0, ("3", (2, 2)): 21,
    ("4", (2,)): 2, ("4", (2, 2)): 120,
    ("5", (2,)): 0, ("5", (2, 2)): 703,
    ("1", (2, 0)): 2, ("2", (2, 0)): 0,
}


def test_p_ladder(sys_):
    for (lvl, sigma), want in P_LADDER.items():
        assert sys_.p(sigma, LEVELS[lvl]) == want, (lvl, sigma)


def test_level_zero_p_matches_kernel(sys_):
    assert sys_.p((), LEVELS["0"]) == 0
    assert sys_.p((5,), LEVELS["0"]) == 15
    assert sys_.p((2, 2), LEVELS["0"]) == 7


def test_oracles(sys_):
    assert sys_.oracle((2,), LEVELS["1"]) == (3, 0)
    assert sys_.oracle((2, 2), LEVELS["1"]) == (3, 0, 7, 1, 3)
    assert sys_.oracle((2, 0), LEVELS["1"]) == (0, 0)
    assert sys_.oracle((), LEVELS["5"]) == ()


def segments(oracle):
    """Split an oracle above level 0 into its (bound, codes) segments."""
    out, i = [], 0
    while i < len(oracle):
        bound, n = oracle[i], oracle[i + 1]
        out.append((bound, oracle[i + 2: i + 2 + n]))
        i += 2 + n
    return out


def test_oracle_segment_examples(sys_):
    for name in ["0", "1", "3", "w"]:
        assert sys_.oracle((), LEVELS[name]) == ()
    assert [b for b, _ in segments(sys_.oracle((5,), LEVELS["1"]))] == [15]
    small = sys_.oracle((2,), LEVELS["1"])
    big = sys_.oracle((2, 2), LEVELS["1"])
    assert big[: len(small)] == small and len(big) > len(small)


def test_each_oracle_segment_is_filled_once(monkeypatch):
    # A segment is cut by the fill of its own trace's entry.
    fills = count_trace_fills(monkeypatch)
    sys_ = TrueStageSystem(DefaultOperator())
    for sigma in Universe(4, 2).all_seqs():
        sys_.oracle(sigma, LEVELS["w+1"])
    assert fills
    assert len(fills) == len(set(fills))


def test_limit_level_defers_to_height_index(sys_):
    lam = LEVELS["w"]
    for tau in Universe(3, 3).all_seqs():
        for i in range(len(tau) + 1):
            sigma = tau[:i]
            k = sys_.height(sigma, lam)
            want = sys_.leq(sigma, tau, parse_ordinal(str(k + 1)))
            assert sys_.leq(sigma, tau, lam) == want


def ref_leq(sigma, tau, alpha):
    """The relations straight from their definitions, with no memo and no
    chain: only ref_p is read."""
    if tau[: len(sigma)] != sigma:
        return False
    if sigma == tau:
        return True
    cls = classify(alpha)
    if cls.kind == "zero":
        return True
    if cls.kind == "successor":
        beta = cls.predecessor
        return ref_leq(sigma, tau, beta) and all(
            ref_p(rho, beta) >= ref_p(sigma, beta)
            for rho in (tau[:i] for i in range(len(sigma) + 1, len(tau) + 1))
            if ref_leq(rho, tau, beta)
        )
    return ref_leq(sigma, tau, fund_seq(alpha, ref_height(sigma, alpha)))


def ref_height(sigma, alpha):
    return sum(ref_leq(sigma[:i], sigma, alpha) for i in range(len(sigma)))


def ref_chain(tau, alpha):
    return tuple(tau[:i] for i in range(len(tau) + 1) if ref_leq(tau[:i], tau, alpha))


# The reference p and oracle call nothing on TrueStageSystem: traces come
# from cantor_pair, one event per oracle entry, and chains from ref_leq.
# The caches only spare recomputation; nothing else is shared.


@functools.cache
def ref_p(sigma, alpha):
    """The last code of the straight-line trace of sigma's reference
    oracle; 0 when the oracle is empty."""
    trace = straight_line_trace(ref_oracle(sigma, alpha))
    return trace[-1][0] if trace else 0


@functools.cache
def ref_oracle(sigma, alpha):
    """sigma at level 0.  Above it, for each prefix rho past the root on
    sigma's reference chain, the segment of rho one level down
    (successor) or at the fundamental-sequence member that rho's height
    picks (limit): the segment is p, the number of codes below p, then
    those codes in increasing order."""
    cls = classify(alpha)
    if cls.kind == "zero":
        return sigma
    out = []
    for rho in ref_chain(sigma, alpha)[1:]:
        level = (cls.predecessor if cls.kind == "successor"
                 else fund_seq(alpha, ref_height(rho, alpha)))
        bound = ref_p(rho, level)
        below = sorted(e for e, _ in straight_line_trace(ref_oracle(rho, level)) if e < bound)
        out += [bound, len(below), *below]
    return tuple(out)


REF_UNIVERSE = Universe(4, 2)
REF_LEVELS = ["0", "1", "2", "w", "w+1", "w+2", "w*2"]


@pytest.mark.parametrize("name", REF_LEVELS)
def test_relations_match_the_reference(sys_, name):
    alpha = parse_ordinal(name)
    seqs = REF_UNIVERSE.all_seqs()
    for tau in seqs:
        assert sys_.chain(tau, alpha) == ref_chain(tau, alpha), tau
        assert sys_.height(tau, alpha) == ref_height(tau, alpha), tau
        # The oracle holds every segment of tau's chain.
        assert sys_.oracle(tau, alpha) == ref_oracle(tau, alpha), tau
        for sigma in seqs:
            assert sys_.leq(sigma, tau, alpha) == ref_leq(sigma, tau, alpha), (sigma, tau)


@pytest.mark.parametrize("universe, name", [
    *((REF_UNIVERSE, name) for name in REF_LEVELS),
    (Universe(3, 2), "w*3"),
], ids=lambda v: f"{v.max_len}x{v.alphabet}" if isinstance(v, Universe) else v)
def test_p_and_oracle_match_the_reference(sys_, universe, name):
    alpha = parse_ordinal(name)
    for tau in universe.all_seqs():
        assert sys_.p(tau, alpha) == ref_p(tau, alpha), tau
        assert sys_.oracle(tau, alpha) == ref_oracle(tau, alpha), tau
        assert sys_.chain(tau, alpha) == ref_chain(tau, alpha), tau


@pytest.mark.parametrize("name", REF_LEVELS)
def test_eval_at_is_a_generator_below(sys_, name):
    alpha = parse_ordinal(name)
    seqs = REF_UNIVERSE.all_seqs()
    for gens in ([()], [(1,)], [(0, 1), (1, 1, 0)], [s for s in seqs if len(s) == 2]):
        u = upset_close(sys_, gens, alpha, REF_UNIVERSE)
        for x in seqs:
            want = any(sys_.leq(g, x, u.level) for g in u.generators)
            assert eval_at(sys_, u, x) == want, (gens, x)


SEQS = st.lists(st.integers(0, 2), max_size=4).map(tuple)
LEVEL_NAMES = st.sampled_from(["0", "1", "2", "3", "w", "w+1"])


@given(SEQS, SEQS, LEVEL_NAMES)
@settings(max_examples=150)
def test_leq_refines_prefix(sigma, tau, name):
    sys_ = _SHARED
    if sys_.leq(sigma, tau, LEVELS[name]):
        assert tau[: len(sigma)] == sigma


@given(SEQS, LEVEL_NAMES)
@settings(max_examples=100)
def test_oracle_segments_follow_chains(tau, name):
    """One segment per chain element past the root, each holding strictly
    increasing codes below its bound; a chain element's oracle is a
    prefix of tau's."""
    sys_ = _SHARED
    alpha = LEVELS[name]
    chain = sys_.chain(tau, alpha)
    oracle = sys_.oracle(tau, alpha)
    if alpha.is_zero():
        assert oracle == tau
        return
    segs = segments(oracle)
    assert len(segs) == len(chain) - 1
    for bound, codes in segs:
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert all(e < bound for e in codes)
    for rho in chain:
        assert oracle[: len(sys_.oracle(rho, alpha))] == sys_.oracle(rho, alpha)


@given(SEQS, st.sampled_from(["0", "1", "2", "w", "w+1", "w*2"]))
@settings(max_examples=100)
def test_a_chain_element_has_the_chain_prefix_that_ends_at_it(tau, name):
    """The correctness checker's successor clause rests on this: a node on
    a strongly correct node's chain is strongly correct too."""
    sys_ = _SHARED
    alpha = parse_ordinal(name)
    chain = sys_.chain(tau, alpha)
    for i, rho in enumerate(chain):
        assert sys_.chain(rho, alpha) == chain[: i + 1], (rho, tau)


_SHARED = TrueStageSystem(DefaultOperator())


def test_verifier_passes_on_small_universe():
    report = ts_verify(
        TrueStageSystem(DefaultOperator()),
        Universe(3, 2),
        [LEVELS[n] for n in ["0", "1", "2", "w"]],
    )
    assert report.all_passed, report.summary_lines()


def count_trace_fills(monkeypatch):
    """Record the (sigma, alpha) of every trace the memo fills."""
    filled = []

    def counting(self, sigma, alpha):
        filled.append((sigma, alpha))
        return fill(self, sigma, alpha)

    fill = TrueStageSystem._trace_at
    monkeypatch.setattr(TrueStageSystem, "_trace_at", counting)
    return filled


def count_fill_work(monkeypatch):
    """Record, for every trace fill as it ends, its (sigma, alpha), the
    oracles it joined and the operator runs it made itself; the work of
    the fills it ran for its oracle's parts is counted in theirs.  Also
    returns the [joins, runs] made outside any fill."""
    outside = [0, 0]
    done, open_fills = [], [outside]

    def fill(self, sigma, alpha):
        open_fills.append([0, 0])
        try:
            entry = real_fill(self, sigma, alpha)
        finally:
            joined, ran = open_fills.pop()
        done.append(((sigma, alpha), joined, ran))
        return entry

    def joined(parts):
        open_fills[-1][0] += 1
        return real_joined(parts)

    def checked(op, oracle):
        open_fills[-1][1] += 1
        return real_checked(op, oracle)

    real_fill, real_joined, real_checked = (
        TrueStageSystem._trace_at, stages._joined, stages.checked_trace)
    monkeypatch.setattr(TrueStageSystem, "_trace_at", fill)
    monkeypatch.setattr(stages, "_joined", joined)
    monkeypatch.setattr(stages, "checked_trace", checked)
    return done, outside


def test_p_builds_no_trace_when_the_operator_has_last_code(monkeypatch):
    done, outside = count_fill_work(monkeypatch)
    alpha = LEVELS["w+1"]
    reused = 0
    for tau in Universe(3, 2).all_seqs():
        sys_ = TrueStageSystem(DefaultOperator())
        done.clear()
        p = sys_.p(tau, alpha)
        # p is read from the memoised segments: no level-alpha trace is
        # filled for it, and only the fills of its parts build oracles.
        assert all(level != alpha for (_, level), _, _ in done)
        assert outside == [0, 0]
        # The trace filled later agrees with that p.  A fill builds its
        # oracle once when it runs the operator, and not at all when it
        # reuses the trace of an oracle made of the same segments; at
        # level 0 the oracle is sigma itself.
        assert sys_.trace_at(tau, alpha).p == p
        assert done[-1][0] == (tau, alpha)
        for (_, level), joined, ran in done:
            assert (joined, ran) in ([(0, 1)] if level.is_zero() else [(1, 1), (0, 0)])
        reused += done[-1][1:] == (0, 0)
    assert reused


def test_a_long_sequence_sweep_stays_small():
    # Memory gate for long sequences: every prefix pair of Universe(60, 1)
    # at level 3.  The memo is the system's only store and a p read builds
    # no oracle, so the sweep peaks near 2 MB; an oracle kept per p read
    # would take it past 7 MB.
    pairs = list(Universe(60, 1).prefix_pairs())
    alpha = LEVELS["3"]
    tracemalloc.start()
    try:
        sys_ = TrueStageSystem(DefaultOperator())
        for sigma, tau in pairs:
            sys_.leq(sigma, tau, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_an_operator_without_last_code_gives_p_through_a_checked_trace(monkeypatch):
    checked = []

    def counting(op, sigma):
        checked.append(tuple(sigma))
        return real(op, sigma)

    real = stages.checked_trace
    monkeypatch.setattr(stages, "checked_trace", counting)
    alpha = LEVELS["1"]
    for tau in Universe(3, 2).all_seqs():
        sys_ = TrueStageSystem(Rewriter())
        p = sys_.p(tau, alpha)
        oracle = sys_.oracle(tau, alpha)
        assert checked[-1] == oracle
        assert p == Rewriter().trace(oracle).p


# Stages whose oracles are made of the same segments share one checked
# trace; each check below reads every trace entry a sweep of
# Universe(4, 2) at these levels leaves in the memo, under the default
# operator and each lawful one.
SHARING_LEVELS = ["0", "1", "2", "w", "w+1", "w*2"]
EVERY_OPERATOR = pytest.mark.parametrize(
    "operator", [DefaultOperator, *LAWFUL_OPERATORS], ids=lambda op: op.__name__)


@functools.cache
def sharing_sweep(operator):
    """A system of the operator after reading the trace of every stage
    of Universe(4, 2) at SHARING_LEVELS; each trace entry of its memo,
    keyed by (sigma, alpha), with that stage's oracle; and every oracle
    the operator ran on."""
    ran = []

    def checked(op, oracle):
        ran.append(oracle)
        return real(op, oracle)

    real = stages.checked_trace
    sys_ = TrueStageSystem(operator())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stages, "checked_trace", checked)
        for name in SHARING_LEVELS:
            for sigma in Universe(4, 2).all_seqs():
                sys_.trace_at(sigma, parse_ordinal(name))
    entries = {(sigma, alpha): (entry, sys_.oracle(sigma, alpha))
               for (fill, sigma, alpha), entry in list(sys_._memo.items())
               if fill is TrueStageSystem._trace_at}
    return sys_, entries, ran


@EVERY_OPERATOR
def test_a_trace_is_the_operator_trace_of_its_oracle(operator):
    for (trace, _), oracle in sharing_sweep(operator)[1].values():
        assert trace.codes == operator().trace(oracle).codes


@EVERY_OPERATOR
def test_a_memoised_segment_is_the_cut_of_its_trace(operator):
    for (trace, segment), _ in sharing_sweep(operator)[1].values():
        below = sorted(code for code in trace.codes if code < trace.p)
        assert segment == (trace.p, len(below), *below)


@EVERY_OPERATOR
def test_stages_share_a_trace_only_when_their_oracles_are_equal(operator):
    entries = sharing_sweep(operator)[1]
    oracles = {}
    for (trace, _), oracle in entries.values():
        assert oracles.setdefault(id(trace), oracle) == oracle
    assert len(oracles) < len(entries)


@EVERY_OPERATOR
def test_the_operator_runs_once_per_distinct_list_of_oracle_parts(operator):
    # Level-0 fills share nothing: each runs the operator on sigma.
    sys_, entries, ran = sharing_sweep(operator)
    level_zero = [key for key in entries if key[1].is_zero()]
    parts = {tuple(sys_._parts(sigma, alpha))
             for sigma, alpha in entries if not alpha.is_zero()}
    assert len(parts) < len(entries) - len(level_zero)
    assert len(ran) == len(level_zero) + len(parts)


def test_verify_work_counts_are_pinned(monkeypatch):
    # Exact counts for one verify run: p without a trace saves 38 trace
    # fills and 1,236 jump events here, and sharing the traces of equal
    # oracle parts saves 356 events (181 operator runs, 4,568 events when
    # every fill ran the operator, 106 runs now).  Counts must not depend
    # on the string hash seed.
    filled = count_trace_fills(monkeypatch)
    events = []

    def counting(self, sigma):
        trace = real(self, sigma)
        events.append(len(trace.codes))
        return trace

    real = DefaultOperator.trace
    monkeypatch.setattr(DefaultOperator, "trace", counting)
    report = ts_verify(
        TrueStageSystem(DefaultOperator()), Universe(3, 2),
        [parse_ordinal(n) for n in ["0", "1", "w", "w+1", "w*2"]],
    )
    assert report.all_passed, report.summary_lines()
    assert (len(filled), len(events), sum(events)) == (181, 106, 4212)


def test_verifier_reports_corrupted_operator():
    report = ts_verify(
        TrueStageSystem(Rewriter()),
        Universe(3, 2),
        [LEVELS[n] for n in ["0", "1", "2"]],
    )
    assert not report.all_passed
    res = report.results["TS7-consistency"]
    assert not res.passed
    assert res.failures > 0
    assert res.counterexamples
    assert any("trace" in ce["detail"] for ce in res.counterexamples)
    # The data as given; only cli renders it.
    assert res.counterexamples[0] == {
        "alpha": LEVELS["0"], "sigma": (0, 0), "tau": (0, 0, 0),
        "detail": "jump trace not extended along the chain"}


class _Flipped(TrueStageSystem):
    """Gives the wrong leq answer on one (sigma, tau, level).  The
    relations are computed from chains, which stay right, so only the
    verifier reads the fault."""

    def __init__(self, sigma, tau, level):
        super().__init__(DefaultOperator())
        self.fault = (sigma, tau, parse_ordinal(level))

    def leq(self, sigma, tau, alpha):
        right = super().leq(sigma, tau, alpha)
        return right != ((tuple(sigma), tuple(tau), alpha) == self.fault)


# One planted fault per property: the flipped leq answer, and the
# failure the verifier must record for it.  Level w+1 is read only by
# the club check, and level 4 only by TS9.
PLANTED = {
    "TS1": (((0,), (1,), "0"), "related but not a prefix"),
    "TS2": (((0, 0), (0, 0, 0), "0"), "chain elements incomparable"),
    "TS5": (((1,), (1, 0), "w"), "related at the higher level only"),
    "TS7-consistency": (((1,), (1, 0), "1"), "successor formula disagrees"),
    "club": (((0,), (0, 0), "w+1"), "skipped an intermediate stage"),
    "TS3-finite": (((), (0,), "0"), "true stages incomparable"),
    "TS9-stabilization": (((), (0,), "4"), "answer flickers past the height"),
}


@pytest.mark.parametrize("prop", list(PLANTED))
def test_verifier_reports_each_planted_fault(prop):
    fault, detail = PLANTED[prop]
    report = ts_verify(
        _Flipped(*fault), Universe(3, 2), [LEVELS[n] for n in ["0", "1", "2", "w"]]
    )
    res = report.results[prop]
    assert not res.passed and not report.all_passed
    assert res.counterexamples
    assert any(ce["detail"] == detail for ce in res.counterexamples)
    line = f"{prop}: FAIL ({res.failures} of {res.checked} checks)"
    assert line in report.summary_lines()


def test_verifier_reports_a_chain_without_the_root():
    # The planted leq faults leave the chains right; this system drops
    # the root from every chain of a nonempty sequence at level 1.
    report = ts_verify(
        Rootless(DefaultOperator()), Universe(2, 2), [LEVELS["0"], LEVELS["1"]]
    )
    res = report.results["TS2"]
    assert "TS2: FAIL (6 of 28 checks)" in report.summary_lines()
    assert res.counterexamples
    assert all(ce["detail"] == "chain does not start at the root"
               for ce in res.counterexamples)


def test_report_lines_shape():
    report = ts_verify(
        TrueStageSystem(DefaultOperator()), Universe(2, 2),
        [LEVELS["0"], LEVELS["1"]],
    )
    lines = report.summary_lines()
    assert len(lines) == len(report.results)
    assert all(": pass" in line for line in lines)
