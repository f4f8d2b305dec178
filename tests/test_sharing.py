"""One TrueStageSystem or CorrectnessChecker shared by several threads
answers exactly as a fresh single-threaded one does.

Each thread sweeps every question in its own order, so the threads race
to fill the same memo entries.  A short switch interval makes the
interpreter hand over between threads far more often than it would.
"""

import sys
import threading
import time
from collections import Counter

from truestages.game import PRE_ROOT, CorrectnessChecker, GameInstance, PairTree, StrategyTable
from truestages.hierarchy import UpsetRep
from truestages.jump import DefaultOperator
from truestages.ordinals import parse_ordinal
from truestages.stages import Memo, TrueStageSystem
from truestages.universe import Universe

THREADS = 4
JOIN_TIMEOUT_S = 120


def answers_from_threads(ask, questions):
    """Ask every question from each of THREADS threads, each starting at
    its own offset and half of them sweeping backwards; returns every
    thread's answers."""
    answers = [{} for _ in range(THREADS)]
    errors = []
    start = threading.Barrier(THREADS, timeout=JOIN_TIMEOUT_S)

    def work(n):
        shift = n * len(questions) // THREADS
        order = questions[shift:] + questions[:shift]
        if n % 2:
            order.reverse()
        try:
            start.wait()
            for q in order:
                answers[n][q] = ask(*q)
        except Exception as exc:  # reported below; a silent thread hides a bug
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a worker thread did not finish"
    assert not errors, errors
    return answers


def test_racing_misses_fill_each_entry_once():
    # Threads that miss the same key together queue on the lock; each must
    # read the memo again under it, so no entry is filled twice.
    memo = Memo()
    fills = Counter()
    counting = threading.Lock()

    def fill(self, n):
        with counting:
            fills[n] += 1
        time.sleep(1e-3)
        return (n,)

    questions = [(n,) for n in range(16)]
    for got in answers_from_threads(lambda n: memo._memoized(fill, n), questions):
        assert got == {(n,): (n,) for n in range(16)}
    assert fills == Counter(range(16))


def test_shared_system_answers_like_a_fresh_one():
    levels = [parse_ordinal(s) for s in ("1", "w", "w+1")]
    pairs = list(Universe(4, 2).prefix_pairs())
    questions = [(sigma, tau, alpha) for alpha in levels for sigma, tau in pairs]
    shared = TrueStageSystem(DefaultOperator())

    def answers(system, sigma, tau, alpha):
        return (system.leq(sigma, tau, alpha), system.chain(tau, alpha),
                system.oracle(tau, alpha), system.p(tau, alpha))

    def ask(sigma, tau, alpha):
        return answers(shared, sigma, tau, alpha)

    fresh = TrueStageSystem(DefaultOperator())
    want = {q: answers(fresh, *q) for q in questions}
    for got in answers_from_threads(ask, questions):
        assert got == want


def test_shared_checker_answers_like_a_fresh_one():
    xi = parse_ordinal("w+1")
    game = GameInstance(
        xi, UpsetRep(xi, frozenset({(1,), (0, 1)})),
        PairTree(full=True), PairTree(full=True), alphabet=2, depth=4,
    )
    y = (0, 1, 1, 0)
    levels = [parse_ordinal(s) for s in ("0", "1", "w", "w+1")]
    nodes = [PRE_ROOT] + Universe(4, 2).all_seqs()
    questions = [(y, sigma, alpha) for alpha in levels for sigma in nodes]

    def checker():
        table = StrategyTable("I", 8, {}, fallback=lambda key: 0)
        return CorrectnessChecker(TrueStageSystem(DefaultOperator()), game, table)

    shared = checker()

    def ask(y, sigma, alpha):
        return shared.is_correct(y, sigma, alpha), shared.is_strongly_correct(y, sigma, alpha)

    fresh = checker()
    want = {
        (y, sigma, alpha): (fresh.is_correct(y, sigma, alpha),
                            fresh.is_strongly_correct(y, sigma, alpha))
        for y, sigma, alpha in questions
    }
    for got in answers_from_threads(ask, questions):
        assert got == want
