"""Command-line front end.

One binary with per-task subcommands: verification suites, jump and
relation dumps, hierarchy conversions, decomposition trees, and the
separation game.  Every run emits a single report, as indented JSON or
as text lines with the same content, and identical flags always
produce identical bytes.  Exit status: 0 on success, 1 when a checked
property failed (the report lists counterexamples), 2 on usage or
input errors, 3 when the game solver exhausted its node budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys as _sys
from typing import Optional

from .game import (
    CorrectnessChecker,
    GameInstance,
    PairTree,
    PartialPlay,
    PlayTranscript,
    ResourceBoundError,
    StrategyTable,
    adversarial_play,
    referee,
    solve,
)
from .hierarchy import (
    ApproxFn,
    UpsetRep,
    WitnessFn,
    approx_limit,
    approx_to_witness,
    difference_value,
    dsets_to_witness,
    witness_to_dsets,
)
from .jump import DefaultOperator, enumerate_jump
from .ordinals import ParseError, parse_ordinal, render
from .stages import TrueStageSystem, ts_verify
from .universe import Universe, parse_seq, seq_str
from .wadge import DecompositionTree, decomposition_eval, wadge_tree


class InputError(Exception):
    """Unusable input: missing file, malformed JSON, bad notation."""


# Built once per process: parsing reads the parser and never changes it,
# and every default is immutable, so every call may share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truestages",
        description="true-stage relations, hierarchy conversions, and the separation game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        if "universe" in flags:
            p.add_argument("--max-len", type=int, default=3, dest="max_len")
            p.add_argument("--alphabet", type=int, default=2)
        if "levels" in flags:
            p.add_argument("--levels", default="0,1,2")
        if "alpha" in flags:
            p.add_argument("--alpha", default="1")
        if "eta" in flags:
            p.add_argument("--eta", default=None)
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)
        if "depth" in flags:
            p.add_argument("--depth", type=int, default=None)
        if "instance" in flags:
            p.add_argument("--instance", required=True)
        p.add_argument("--format", choices=["json", "text"], default="text")

    common(sub.add_parser("verify"), "universe", "levels")
    common(sub.add_parser("jump"), "universe")
    common(sub.add_parser("truestages"), "universe", "levels")

    hk = sub.add_parser("hk").add_subparsers(dest="action", required=True)
    common(hk.add_parser("roundtrip"), "universe", "alpha", "seed")
    common(hk.add_parser("convert"), "universe", "eta", "instance")

    wadge = sub.add_parser("wadge").add_subparsers(dest="action", required=True)
    common(wadge.add_parser("decompose"), "instance")
    common(wadge.add_parser("eval"), "instance")

    lsr = sub.add_parser("lsr").add_subparsers(dest="action", required=True)
    common(lsr.add_parser("solve"), "instance", "depth")
    common(lsr.add_parser("referee"), "instance")
    common(lsr.add_parser("separator"), "instance", "depth")
    common(lsr.add_parser("adversarial"), "instance", "depth")

    return parser


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"instance file is not valid JSON: {exc}") from exc
    return _object(data, "instance")


def _levels(text: str):
    try:
        return [parse_ordinal(part) for part in text.split(",") if part]
    except ParseError as exc:
        raise InputError(f"bad level notation: {exc}") from exc


def _notation(text: str):
    if type(text) is not str:
        raise InputError(f"bad notation {text!r}: expected a string")
    try:
        return parse_ordinal(text)
    except ParseError as exc:
        raise InputError(f"bad notation {text!r}: {exc}") from exc


def _naturals(values, field: str, below: Optional[int] = None) -> tuple:
    """The entries of an instance field as a tuple.  Each must be a
    natural, since the jump operator reads x, and less than `below` when
    it is given, since the game's moves are drawn from the alphabet."""
    for v in values:
        if type(v) is not int or v < 0 or (below is not None and v >= below):
            bound = "" if below is None else f" below {below}"
            raise InputError(f"{field} entries must be naturals{bound}, got {v!r}")
    return tuple(values)


def _stage(values, field: str, universe: Universe) -> tuple:
    """A stage of the universe: at most max_len moves, each below its
    alphabet."""
    x = _naturals(values, field, universe.alphabet)
    if len(x) > universe.max_len:
        raise InputError(f"{field} must have at most maxLen {universe.max_len} "
                         f"entries, got {seq_str(x)}")
    return x


def _count(v, field: str) -> int:
    """A count or bound, from the instance or the command line."""
    if type(v) is not int or v < 0:
        raise InputError(f"{field} must be a natural, got {v!r}")
    return v


def _object(data, field: str) -> dict:
    if type(data) is not dict:
        raise InputError(f"{field} must be an object, got {data!r}")
    return data


# -- JSON forms: each reader beside its writer; a reader checks every
# move against the alphabet as it reads it --------------------------------


def _upset_from_json(data: dict, field: str, alphabet: int) -> UpsetRep:
    data = _object(data, field)
    return UpsetRep(
        _notation(data["level"]),
        frozenset(_naturals(g, f"{field}.generators", alphabet)
                  for g in data["generators"]),
    )


def _upset_to_json(upset: UpsetRep) -> dict:
    return {
        "level": render(upset.level),
        "generators": sorted(list(g) for g in upset.generators),
    }


def _approx_from_json(data: dict, universe: Universe) -> ApproxFn:
    data = _object(data, "approx")
    table = _object(data["table"], "approx.table")
    keys = [_stage(parse_seq(k), "approx.table key", universe) for k in table]
    return ApproxFn(
        _notation(data["level"]),
        dict(zip(keys, _naturals(table.values(), "approx.table"))),
    )


def _approx_to_json(fn: ApproxFn) -> dict:
    return {
        "level": render(fn.level),
        "table": {seq_str(s): v for s, v in sorted(fn.table.items())},
    }


def _witness_to_json(witness: WitnessFn) -> dict:
    return {
        "eta": render(witness.eta),
        "table": {seq_str(s): render(v) for s, v in sorted(witness.table.items())},
    }


def _tree_to_json(tree: DecompositionTree) -> dict:
    data: dict = {
        "node": list(tree.node),
        "kind": tree.kind,
        "rank": tree.rank,
    }
    if tree.kind == "leaf":
        data["value"] = tree.value
        data["witnessLevel"] = render(tree.witness_level)
    else:
        data["separatorLevel"] = render(tree.separator_level)
        data["separators"] = [_upset_to_json(s) for s in tree.separators]
        data["children"] = [_tree_to_json(c) for c in tree.children]
    return data


def _pair_tree_from_json(data: dict, field: str, alphabet: int) -> PairTree:
    data = _object(data, field)
    full = data.get("full", False)
    if type(full) is not bool:
        raise InputError(f"{field}.full must be a boolean, got {full!r}")
    if full:
        return PairTree(full=True)
    read = functools.partial(_naturals, field=f"{field}.pairs", below=alphabet)
    return PairTree.from_pairs((read(y), read(z)) for y, z in data.get("pairs", []))


def _game_from_json(data: dict) -> GameInstance:
    bounds = _object(data["bounds"], "bounds")
    alphabet = _count(bounds["alphabet"], "bounds.alphabet")
    return GameInstance(
        xi=_notation(data["xi"]),
        w=_upset_from_json(data["W"], "W", alphabet),
        t0=_pair_tree_from_json(data["T0"], "T0", alphabet),
        t1=_pair_tree_from_json(data["T1"], "T1", alphabet),
        alphabet=alphabet,
        depth=_count(bounds["depth"], "bounds.depth"),
    )


def _strategy_from_json(data: dict, alphabet: int) -> StrategyTable:
    data = _object(data, "strategy")
    read = functools.partial(_naturals, field="strategy.moves", below=alphabet)
    side = data["side"]
    moves: dict = {}
    for key, move in data["moves"]:
        if side == "I":
            moves[tuple(map(read, key))] = read([move])[0]
        else:
            moves[read(key)] = read(move)
    return StrategyTable(side, _count(data["depth"], "strategy.depth"), moves)


def _strategy_to_json(table: StrategyTable) -> dict:
    if table.side == "I":
        moves = [
            [[list(p) for p in key], x] for key, x in sorted(table.moves.items())
        ]
    else:
        moves = [
            [list(key), list(yz)] for key, yz in sorted(table.moves.items())
        ]
    return {"side": table.side, "depth": table.depth, "moves": moves}


def _transcript_to_json(t: PlayTranscript) -> dict:
    return {
        "mode": t.mode,
        "outcome": t.outcome,
        "failedExtension": None if t.failed_extension is None else list(t.failed_extension),
        "steps": [
            {
                "index": s.index,
                "sigma": list(s.sigma),
                "stronglyCorrect": s.strongly_correct,
                "appendedMatches": s.appended_matches,
                "witnessSetMatches": s.witness_set_matches,
                "witnessConsistent": s.witness_consistent,
            }
            for s in t.steps
        ],
    }


def _fresh():
    return TrueStageSystem(DefaultOperator())


# -- subcommand bodies ----------------------------------------------------


def _run_verify(args):
    universe = Universe(args.max_len, args.alphabet)
    levels = _levels(args.levels)
    report = ts_verify(_fresh(), universe, levels)
    results = [
        {"property": r.name, "passed": r.passed, "checked": r.checked,
         "failures": r.failures}
        for r in report.results.values()
    ]
    failures = [
        {"property": r.name, **ce}
        for r in report.results.values()
        for ce in r.counterexamples
    ]
    config = {"maxLen": args.max_len, "alphabet": args.alphabet, "levels": args.levels}
    text = report.summary_lines() + [
        "counterexample: " + json.dumps(f, sort_keys=True) for f in failures
    ]
    return config, results, failures, text


def _run_jump(args):
    universe = Universe(args.max_len, args.alphabet)
    op = DefaultOperator()
    results = []
    text = []
    for sigma in universe.all_seqs():
        trace = enumerate_jump(op, sigma)
        results.append({
            "sigma": seq_str(sigma),
            "events": [[e, t] for e, t in trace.events],
            "p": trace.p,
        })
        shown = ",".join(f"{e}@{t}" for e, t in trace.events) or "-"
        text.append(f"{seq_str(sigma)} p={trace.p} events={shown}")
    config = {"maxLen": args.max_len, "alphabet": args.alphabet}
    return config, results, [], text


def _run_truestages(args):
    universe = Universe(args.max_len, args.alphabet)
    levels = _levels(args.levels)
    sys_ = _fresh()
    results = []
    text = []
    for alpha in levels:
        for sigma, tau in universe.prefix_pairs():
            related = int(sys_.leq(sigma, tau, alpha))
            results.append({
                "alpha": render(alpha),
                "sigma": seq_str(sigma),
                "tau": seq_str(tau),
                "related": related,
            })
            text.append(f"{render(alpha)}\t{seq_str(sigma)}\t{seq_str(tau)}\t{related}")
    config = {"maxLen": args.max_len, "alphabet": args.alphabet, "levels": args.levels}
    return config, results, [], text


def _run_hk_roundtrip(args):
    universe = Universe(args.max_len, args.alphabet)
    alpha = _notation(args.alpha)
    sys_ = _fresh()
    rng = random.Random(args.seed)
    results = []
    failures = []
    text = []
    for run in range(20):
        table = {s: rng.randrange(2) for s in universe.all_seqs()}
        fn = ApproxFn(alpha, table)
        eta, witness = approx_to_witness(sys_, fn, universe)
        family = witness_to_dsets(sys_, fn, witness, eta, alpha, universe)
        checked = 0
        mismatches = 0
        for x in universe.maximal():
            want, stable = approx_limit(sys_, fn, x)
            if not stable:
                continue
            checked += 1
            got = difference_value(sys_, family, eta, x)
            if got != want:
                mismatches += 1
                failures.append({
                    "run": run, "x": seq_str(x), "expected": want, "got": got,
                })
        results.append({
            "run": run, "eta": render(eta), "checked": checked,
            "mismatches": mismatches,
        })
        text.append(f"run={run} eta={render(eta)} checked={checked} mismatches={mismatches}")
    config = {
        "maxLen": args.max_len, "alphabet": args.alphabet,
        "alpha": args.alpha, "seed": args.seed,
    }
    return config, results, failures, text


def _run_hk_convert(args):
    universe = Universe(args.max_len, args.alphabet)
    data = _load_instance(args.instance)
    sys_ = _fresh()
    if "upsets" in data:
        alpha = _notation(data["alpha"])
        eta = _notation(args.eta if args.eta is not None else data["eta"])
        upsets = [_upset_from_json(u, "upsets", args.alphabet) for u in data["upsets"]]
        fn, witness = dsets_to_witness(sys_, upsets, eta, alpha, universe)
        result = {
            "direction": "dsets-to-witness",
            "approx": _approx_to_json(fn),
            "witness": _witness_to_json(witness),
        }
    elif "approx" in data:
        if args.eta is not None:
            raise InputError("--eta applies only to an 'upsets' instance; "
                             "an 'approx' instance's eta is computed")
        fn = _approx_from_json(data["approx"], universe)
        eta, witness = approx_to_witness(sys_, fn, universe)
        family = witness_to_dsets(sys_, fn, witness, eta, fn.level, universe)
        result = {
            "direction": "approx-to-witness",
            "eta": render(eta),
            "witness": _witness_to_json(witness),
            "family": [_upset_to_json(u) for u in family],
        }
    else:
        raise InputError("instance must carry either 'upsets' or 'approx'")
    config = {
        "maxLen": args.max_len, "alphabet": args.alphabet,
        "instance": args.instance, "eta": args.eta,
    }
    text = ["conversion: " + json.dumps(result, sort_keys=True)]
    return config, [result], [], text


def _wadge_setup(args):
    data = _load_instance(args.instance)
    lam = _notation(data["lambda"])
    universe = Universe(_count(data["maxLen"], "maxLen"),
                        _count(data["alphabet"], "alphabet"))
    w0 = _upset_from_json(data["W0"], "W0", universe.alphabet)
    w1 = _upset_from_json(data["W1"], "W1", universe.alphabet)
    sys_ = _fresh()
    return data, universe, sys_, wadge_tree(sys_, w0, w1, lam, universe)


def _run_wadge_decompose(args):
    _, _, _, tree = _wadge_setup(args)
    result = {"rank": tree.rank, "tree": _tree_to_json(tree)}
    config = {"instance": args.instance}
    text = [f"rank={tree.rank}", "tree: " + json.dumps(result["tree"], sort_keys=True)]
    return config, [result], [], text


def _run_wadge_eval(args):
    data, universe, sys_, tree = _wadge_setup(args)
    queries = [_stage(q, "queries", universe) for q in data.get("queries", [])]
    results = []
    text = []
    for x in queries or universe.maximal():
        value = int(decomposition_eval(sys_, tree, x))
        results.append({"x": seq_str(x), "value": value})
        text.append(f"{seq_str(x)}\t{value}")
    config = {"instance": args.instance}
    return config, results, [], text


def _game_setup(args):
    if getattr(args, "depth", None) is not None:  # lsr referee has no --depth
        _count(args.depth, "--depth")
    data = _load_instance(args.instance)
    return data, _game_from_json(data), _fresh()


def _total_table(table: StrategyTable) -> StrategyTable:
    # A solver table stops at positions player I has already won; a
    # constant extension keeps the induced plays total without touching
    # any position that matters for correctness.
    return StrategyTable(table.side, table.depth, dict(table.moves), fallback=lambda key: 0)


def _run_lsr_solve(args):
    data, game, sys_ = _game_setup(args)
    outcome = solve(sys_, game, depth=args.depth)
    result = {
        "status": outcome.status,
        "byTurn": outcome.by_turn,
        "strategy": _strategy_to_json(outcome.strategy),
    }
    config = {"instance": args.instance, "depth": args.depth}
    text = [f"status={outcome.status} byTurn={outcome.by_turn}",
            "strategy: " + json.dumps(result["strategy"], sort_keys=True)]
    return config, [result], [], text


def _run_lsr_referee(args):
    data, game, sys_ = _game_setup(args)
    try:
        raw = _object(data["play"], "play")
        play = PartialPlay(
            _naturals(raw["xs"], "play.xs", game.alphabet),
            tuple(_naturals((y, z), "play.yzs", game.alphabet) for y, z in raw["yzs"]),
        )
    except KeyError as exc:
        raise InputError(f"instance lacks a play field: {exc}") from exc
    verdict = referee(sys_, game, play)
    result = {
        "F": list(verdict.f_indices),
        "ybar": seq_str(verdict.ybar),
        "zbar": seq_str(verdict.zbar),
        "status": verdict.status,
    }
    config = {"instance": args.instance}
    text = [f"status={verdict.status} F={result['F']} "
            f"ybar={result['ybar']} zbar={result['zbar']}"]
    return config, [result], [], text


def _check_strategy(args, solve_depth, analyse, read_fields=lambda data, game: ()):
    """The shared body of the commands that analyse player I's strategy
    along the instance's y.

    The command's own fields are read by read_fields(data, game) before
    any solving.  The strategy is the instance's pinned side I table or,
    failing that, the one solve finds at solve_depth; without a win for
    player I the report is the solver status.  Otherwise
    analyse(checker, y, *fields) gives the result and its text lines.
    """
    data, game, sys_ = _game_setup(args)
    try:
        y = _naturals(data["y"], "y", game.alphabet)
    except KeyError as exc:
        raise InputError("instance lacks a y field") from exc
    fields = read_fields(data, game)
    config = {"instance": args.instance, "depth": args.depth}
    if "strategy" in data:
        table = _strategy_from_json(data["strategy"], game.alphabet)
    else:
        outcome = solve(sys_, game, depth=solve_depth)
        if outcome.status != "IWins":
            return config, [{"solver": outcome.status}], [], [f"solver={outcome.status}"]
        table = outcome.strategy
    checker = CorrectnessChecker(sys_, game, _total_table(table))
    result, text = analyse(checker, y, *fields)
    return config, [result], [], text


def _run_lsr_separator(args):
    def analyse(checker, y):
        found = checker.separator_evidence(y)
        sigma = None if found.sigma is None else seq_str(found.sigma)
        result = {"status": found.status, "sigma": sigma}
        return result, [f"status={found.status} sigma={sigma}"]

    return _check_strategy(args, args.depth, analyse)


def _run_lsr_adversarial(args):
    def read_fields(data, game):
        v = _naturals(data["v"], "v", game.alphabet) if "v" in data else None
        depth = args.depth if args.depth is not None else game.depth
        return v, depth, _count(data.get("searchBound", 3), "searchBound")

    def analyse(checker, y, v, depth, bound):
        transcript = adversarial_play(checker, y, v, depth, bound)
        result = _transcript_to_json(transcript)
        return result, [f"outcome={transcript.outcome} steps={len(transcript.steps)}",
                        "transcript: " + json.dumps(result, sort_keys=True)]

    return _check_strategy(args, None, analyse, read_fields)


_HANDLERS = {
    ("verify", None): _run_verify,
    ("jump", None): _run_jump,
    ("truestages", None): _run_truestages,
    ("hk", "roundtrip"): _run_hk_roundtrip,
    ("hk", "convert"): _run_hk_convert,
    ("wadge", "decompose"): _run_wadge_decompose,
    ("wadge", "eval"): _run_wadge_eval,
    ("lsr", "solve"): _run_lsr_solve,
    ("lsr", "referee"): _run_lsr_referee,
    ("lsr", "separator"): _run_lsr_separator,
    ("lsr", "adversarial"): _run_lsr_adversarial,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    action = getattr(args, "action", None)
    handler = _HANDLERS[(args.command, action)]
    name = args.command if action is None else f"{args.command} {action}"
    try:
        config, results, failures, text = handler(args)
    except (InputError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except ResourceBoundError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    report = {
        "command": name,
        "config": config,
        "results": results,
        "failures": failures,
    }
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"command: {name}")
        print("config: " + json.dumps(config, sort_keys=True))
        for line in text:
            print(line)
        if failures:
            print(f"failures: {len(failures)}")
    return 1 if failures else 0
