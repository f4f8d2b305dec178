"""Seeded job streams for the benchmark workloads.

A job is one in-process ``truestages.cli.main`` call together with the
reference data its report is checked against.  The reference comes from
what the generator drew (the chosen prefix patterns, the game length,
closed-form check counts), never from the code under test.

Every stream is block-randomised: each block holds every input shape of
the workload once, in a seeded order, with seeded details.  The mix of
shapes is therefore the same for every seed, and the seed only moves
the details inside a shape.  Inputs depend on the seed alone; nothing is
ever drawn again because the program rejected it.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator, Optional

WORKLOADS = ("verify-deep", "hk-wadge", "game")


@dataclasses.dataclass(frozen=True)
class Job:
    index: int
    kind: str  # verify, hk, wadge, solve or adversarial
    shape: str  # the input shape inside the kind, e.g. "k=3 xi=w"
    argv: tuple[str, ...]
    expect: dict  # reference data read by checks.check_report
    instance: Optional[dict] = None  # written to the file named in argv


def universe_seqs(max_len: int, alphabet: int) -> list[tuple[int, ...]]:
    """Every sequence up to max_len, shortest first, lexicographic."""
    return [
        s for n in range(max_len + 1)
        for s in itertools.product(range(alphabet), repeat=n)
    ]


def _blocks(rng: random.Random, shapes: list) -> Iterator:
    """Endless stream of the shapes, shuffled afresh in every block."""
    while True:
        block = list(shapes)
        rng.shuffle(block)
        yield from block


# -- verify-deep ---------------------------------------------------------

_FINITE = [str(n) for n in range(8)]
_VERIFY_TOPS = {
    # top level -> the levels that may join it in one job
    "7": _FINITE[:7],
    "w+1": _FINITE + ["w"],
    "w+3": _FINITE + ["w", "w+1", "w+2"],
    "w*2": _FINITE + ["w", "w+1", "w+2", "w+3"],
}
_VERIFY_SHAPES = [(top, many) for top in _VERIFY_TOPS for many in (False, True)]


def _verify_job(rng: random.Random, shape, index: int, inputs: str) -> Job:
    top, many = shape
    extra = rng.randint(2, 3) if many else rng.randint(0, 1)
    levels = rng.sample(_VERIFY_TOPS[top], extra) + [top]
    levels.sort(key=_level_rank)
    text = ",".join(levels)
    argv = ("verify", "--format", "json", "--max-len", "4", "--alphabet", "2",
            "--levels", text)
    expect = {"maxLen": 4, "alphabet": 2, "levels": len(levels)}
    return Job(index, "verify", f"top={top} m={len(levels)}", argv, expect)


def _level_rank(text: str) -> tuple:
    if text.startswith("w*"):
        return (2, 0)
    if text.startswith("w"):
        return (1, int(text[2:] or 0))
    return (0, int(text))


# -- hk-wadge ------------------------------------------------------------

_HK_ALPHAS = ["1", "2", "w", "w+1"]
_WADGE_SHAPES = [(lam, shape) for lam in ("w", "w*2") for shape in ((4, 2), (5, 2), (4, 3))]


def _hk_job(rng: random.Random, alpha: str, index: int, inputs: str) -> Job:
    seed = rng.randrange(1_000_000)
    argv = ("hk", "roundtrip", "--format", "json", "--seed", str(seed),
            "--max-len", "4", "--alphabet", "2", "--alpha", alpha)
    return Job(index, "hk", f"alpha={alpha}", argv, {"runs": 20})


def _wadge_job(rng: random.Random, shape, index: int, inputs: str) -> Job:
    """W1 holds every stage whose length-d prefix is one of the chosen
    patterns and W0 every other stage of length at least d, so the
    value at a maximal x is x[:d] in chosen."""
    lam, (max_len, alphabet) = shape
    depth = rng.choice([1, 1, 2])
    patterns = list(itertools.product(range(alphabet), repeat=depth))
    chosen = rng.sample(patterns, rng.randint(1, len(patterns) - 1))
    long_enough = [s for s in universe_seqs(max_len, alphabet) if len(s) >= depth]
    instance = {
        "lambda": lam,
        "maxLen": max_len,
        "alphabet": alphabet,
        "W1": {"level": lam,
               "generators": [list(s) for s in long_enough if s[:depth] in chosen]},
        "W0": {"level": lam,
               "generators": [list(s) for s in long_enough if s[:depth] not in chosen]},
    }
    path = f"{inputs}/job{index:05d}.json"
    expect = {"maxLen": max_len, "alphabet": alphabet, "depth": depth,
              "chosen": sorted(list(p) for p in chosen)}
    return Job(index, "wadge", f"lambda={lam} universe={max_len}x{alphabet}",
               ("wadge", "eval", "--format", "json", "--instance", path),
               expect, instance)


# -- game ----------------------------------------------------------------

# At k=3 the solver's search size depends mostly on how many generators
# of W have length 2, so a block holds each (3, xi) once per class of W,
# and each (2, xi) once with a class drawn at random.
_W_CLASSES = {"long": (0, 1, 3), "one-short": (1, 0, 2), "two-short": (2, 0, 1)}
_SOLVE_SHAPES = [(2, xi, None) for xi in ("0", "1", "2", "w")] + [
    (3, xi, w) for xi in ("0", "1", "2", "w") for w in _W_CLASSES
]
_ADVERSARIAL_SHAPES = [(xi, n) for xi in ("w", "w+1") for n in (6, 7, 8)]
_SHORT_SEQS = [list(s) for s in universe_seqs(2, 2)]
# Off the all-zero branch, so the all-zero play of player I is never in W.
_OFF_ZERO = {n: [list(s) for s in itertools.product(range(2), repeat=n) if 1 in s] for n in (2, 3)}


def _all_pairs(alphabet: int, length: int) -> list:
    return [
        [list(y), list(z)]
        for n in range(length + 1)
        for y in itertools.product(range(alphabet), repeat=n)
        for z in itertools.product(range(alphabet), repeat=n)
    ]


def _solve_job(rng: random.Random, shape, index: int, inputs: str) -> Job:
    """Both trees hold every pair of length at most k, so player II is
    never refuted before round k+1.  W has no generator on the all-zero
    branch, so the all-zero x of length k+1 stays outside W; every prefix
    of it is apparently true at the levels used here, so I refutes II at
    round k+1 by playing it, and the solver has to search the whole tree."""
    k, xi, w_class = shape
    w_class = w_class or rng.choice(list(_W_CLASSES))
    short, low, high = _W_CLASSES[w_class]
    gens = rng.sample(_OFF_ZERO[2], short) + rng.sample(_OFF_ZERO[3], rng.randint(low, high))
    pairs = _all_pairs(2, k)
    instance = {
        "xi": xi,
        "W": {"level": xi, "generators": gens},
        "T0": {"pairs": pairs},
        "T1": {"pairs": pairs},
        "bounds": {"alphabet": 2, "depth": k + 2},
    }
    path = f"{inputs}/job{index:05d}.json"
    return Job(index, "solve", f"k={k} xi={xi} W={w_class}",
               ("lsr", "solve", "--format", "json", "--instance", path),
               {"byTurn": k + 1}, instance)


def _adversarial_job(rng: random.Random, shape, index: int, inputs: str) -> Job:
    """Full trees against the constant-0 side I strategy (an empty
    pinned table, totalised by the CLI): player II survives every
    round, so the construction runs to depth |y| - 1."""
    xi, n = shape
    instance = {
        "xi": xi,
        "W": {"level": xi, "generators": rng.sample(_SHORT_SEQS, rng.randint(1, 3))},
        "T0": {"full": True},
        "T1": {"full": True},
        "bounds": {"alphabet": 2, "depth": n - 1},
        "y": [rng.randrange(2) for _ in range(n)],
        "strategy": {"side": "I", "depth": n, "moves": []},
    }
    path = f"{inputs}/job{index:05d}.json"
    return Job(index, "adversarial", f"xi={xi} |y|={n}",
               ("lsr", "adversarial", "--format", "json", "--instance", path),
               {"steps": n}, instance)


# -- streams -------------------------------------------------------------

_STREAMS = {
    # workload -> the kinds it alternates, each with its shapes and maker
    "verify-deep": [(_VERIFY_SHAPES, _verify_job)],
    "hk-wadge": [(_HK_ALPHAS, _hk_job), (_WADGE_SHAPES, _wadge_job)],
    "game": [(_SOLVE_SHAPES, _solve_job), (_ADVERSARIAL_SHAPES, _adversarial_job)],
}


def make_jobs(workload: str, seed: int, count: int, inputs: str) -> list[Job]:
    """The first count jobs of the workload's stream for this seed.

    Kinds alternate job by job; each kind draws its shapes from its own
    block-randomised stream.  Instance files are named under inputs.
    """
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    streams = [(_blocks(rng, shapes), maker) for shapes, maker in _STREAMS[workload]]
    jobs = []
    for index in range(count):
        shapes, maker = streams[index % len(streams)]
        jobs.append(maker(rng, next(shapes), index, inputs))
    return jobs
