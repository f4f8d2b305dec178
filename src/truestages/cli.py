"""Command-line front end.

One binary with per-task subcommands: verification suites, jump and
relation dumps, hierarchy conversions, decomposition trees, and the
separation game.  Every run emits a single report, as indented JSON or
as text lines with the same content, and identical flags always
produce identical bytes.  Exit status: 0 on success, 1 when a checked
property failed (the report lists counterexamples), 2 on usage or
input errors, 3 when the game solver exhausted its node budget.

Each command is declared once, in build_parser, with its flags and its
handler.  A handler returns the report's results, its failures, and a
zero-argument callable that gives the text lines, which main calls only
for --format text; the report's config echoes every flag but --format.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys as _sys
from json.encoder import encode_basestring_ascii as _escape
from typing import Optional

from .game import (
    CorrectnessChecker,
    GameInstance,
    PairTree,
    PartialPlay,
    PlayTranscript,
    ResourceBoundError,
    SolveResult,
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
from .ordinals import (
    CeilingError, OrdinalNotation, ParseError, parse_ordinal, render, successor,
)
from .stages import TrueStageSystem, ts_verify
from .universe import InputError, Universe, parse_seq, seq_str
from .wadge import DecompositionTree, decomposition_eval, wadge_tree


# Built once per process: parsing reads the parser and never changes it,
# and every default is immutable, so every call may share it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truestages",
        description="true-stage relations, hierarchy conversions, and the separation game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, *flags):
        p.set_defaults(run=run)
        if "universe" in flags:
            p.add_argument("--max-len", type=int, default=3, dest="maxLen",
                           metavar="MAX_LEN")
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

    common(sub.add_parser("verify"), _run_verify, "universe", "levels")
    common(sub.add_parser("jump"), _run_jump, "universe")
    common(sub.add_parser("truestages"), _run_truestages, "universe", "levels")

    hk = sub.add_parser("hk").add_subparsers(dest="action", required=True)
    common(hk.add_parser("roundtrip"), _run_hk_roundtrip, "universe", "alpha", "seed")
    common(hk.add_parser("convert"), _run_hk_convert, "universe", "eta", "instance")

    wadge = sub.add_parser("wadge").add_subparsers(dest="action", required=True)
    common(wadge.add_parser("decompose"), _run_wadge_decompose, "instance")
    common(wadge.add_parser("eval"), _run_wadge_eval, "instance")

    lsr = sub.add_parser("lsr").add_subparsers(dest="action", required=True)
    common(lsr.add_parser("solve"), _run_lsr_solve, "instance", "depth")
    common(lsr.add_parser("referee"), _run_lsr_referee, "instance")
    common(lsr.add_parser("separator"), _run_lsr_separator, "instance", "depth")
    common(lsr.add_parser("adversarial"), _run_lsr_adversarial, "instance", "depth")

    return parser


def _load_instance(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read instance file: {exc}") from exc
    except InputError:
        raise
    except ValueError as exc:  # bad JSON or UTF-8, or an int too long to convert
        raise InputError(f"instance file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("instance file nests arrays or objects too deeply") from exc
    return _object(data, "instance")


def _unique_keys(pairs: list) -> dict:
    """A JSON object; json.load alone keeps a repeated key's last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise InputError(f"instance repeats the key {key!r} in one object")
        data[key] = value
    return data


def _levels(text: str):
    try:
        levels = [parse_ordinal(part) for part in text.split(",") if part]
    except ParseError as exc:
        raise InputError(f"bad level notation: {exc}") from exc
    if not levels:
        raise InputError(f"--levels names no level: {text!r}")
    return levels


def _notation(text: str, field: str):
    """An ordinal notation, from an instance field or a flag."""
    if type(text) is not str:
        raise InputError(f"{field} must be a notation string, got {text!r}")
    try:
        return parse_ordinal(text)
    except ParseError as exc:
        raise InputError(f"bad {field} notation {text!r}: {exc}") from exc


def _naturals(values, field: str, below: Optional[int] = None) -> tuple:
    """The entries of an instance list as a tuple.  Each must be a
    natural, since the jump operator reads x, and less than `below` when
    it is given, since the game's moves are drawn from the alphabet."""
    for v in _list(values, field):
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


def _positive(v, field: str) -> int:
    """A count that must be at least 1: an alphabet, a depth or a search bound."""
    if _count(v, field) == 0:
        raise InputError(f"{field} must be positive, got 0")
    return v


def _universe(max_len, alphabet, fields=("--max-len", "--alphabet")) -> Universe:
    """The stages of at most max_len moves below alphabet."""
    return Universe(_count(max_len, fields[0]), _positive(alphabet, fields[1]))


def _pair(value, field: str) -> list:
    """A two-element list: II's (y, z) answer, a tree's (y, z) pair of
    sequences, or a strategy's (key, move) entry."""
    if type(value) is not list or len(value) != 2:
        raise InputError(f"{field} entries must be pairs, got {value!r}")
    return value


def _object(data, field: str) -> dict:
    if type(data) is not dict:
        raise InputError(f"{field} must be an object, got {data!r}")
    return data


def _list(data, field: str) -> list:
    if type(data) is not list:
        raise InputError(f"{field} must be a list, got {data!r}")
    return data


def _required(data: dict, field: str):
    """The value of a required field, named by its dotted path; the
    path's last part is the field's key in data."""
    key = field.rpartition(".")[2]
    if key not in data:
        raise InputError(f"instance lacks the {field} field")
    return data[key]


# -- JSON forms: each reader beside its writer; a reader checks every
# move against the alphabet as it reads it --------------------------------


def _upset_from_json(data: dict, field: str, alphabet: int) -> UpsetRep:
    data = _object(data, field)
    generators = f"{field}.generators"
    return UpsetRep(
        _notation(_required(data, f"{field}.level"), f"{field}.level"),
        frozenset(_naturals(g, generators, alphabet)
                  for g in _list(_required(data, generators), generators)),
    )


def _upset_to_json(upset: UpsetRep) -> dict:
    return {
        "level": render(upset.level),
        "generators": sorted(list(g) for g in upset.generators),
    }


def _approx_from_json(data: dict, universe: Universe) -> ApproxFn:
    data = _object(data, "approx")
    table = _object(_required(data, "approx.table"), "approx.table")
    keys: dict = {}  # the stages in key order
    for k in table:
        try:
            stage = parse_seq(k)
        except ValueError as exc:
            raise InputError(f"bad approx.table key {k!r}: {exc}") from exc
        stage = _stage(list(stage), "approx.table key", universe)
        # Keys such as "[1]" and "[+1]" name one stage.
        if stage in keys:
            raise InputError(f"approx.table names the stage {seq_str(stage)} twice")
        keys[stage] = None
    level = _notation(_required(data, "approx.level"), "approx.level")
    table = dict(zip(keys, _naturals(list(table.values()), "approx.table")))
    # The function is total: every stage of the universe is a key.
    for stage in universe.all_seqs():
        if stage not in table:
            raise InputError(f"approx.table lacks the stage {seq_str(stage)}")
    return ApproxFn(level, table)


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
    field = f"{field}.pairs"
    read = functools.partial(_naturals, field=field, below=alphabet)
    pairs = (_pair(p, field) for p in _list(data.get("pairs", []), field))
    return PairTree.from_pairs((read(y), read(z)) for y, z in pairs)


def _game_from_json(data: dict) -> GameInstance:
    bounds = _object(_required(data, "bounds"), "bounds")
    alphabet = _positive(_required(bounds, "bounds.alphabet"), "bounds.alphabet")
    return GameInstance(
        xi=_notation(_required(data, "xi"), "xi"),
        w=_upset_from_json(_required(data, "W"), "W", alphabet),
        t0=_pair_tree_from_json(_required(data, "T0"), "T0", alphabet),
        t1=_pair_tree_from_json(_required(data, "T1"), "T1", alphabet),
        alphabet=alphabet,
        depth=_positive(_required(bounds, "bounds.depth"), "bounds.depth"),
    )


def _strategy_from_json(data: dict, alphabet: int) -> StrategyTable:
    data = _object(data, "strategy")
    field = "strategy.moves"
    read = functools.partial(_naturals, field=field, below=alphabet)
    side = _required(data, "strategy.side")
    if side not in ("I", "II"):
        raise InputError(f"strategy.side must be 'I' or 'II', got {side!r}")
    moves: dict = {}
    for entry in _list(_required(data, field), field):
        key, move = _pair(entry, field)
        if side == "I":
            history = tuple(read(_pair(p, field)) for p in _list(key, field))
            value = read([move])[0]
        else:
            history, value = read(key), read(_pair(move, field))
        if history in moves:
            raise InputError(f"{field} lists the key {key!r} twice")
        moves[history] = value
    depth = _count(_required(data, "strategy.depth"), "strategy.depth")
    return StrategyTable(side, depth, moves)


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


def _report_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for the
    values a report holds: dicts with str keys, lists, tuples, strs, ints,
    bools and None.  Anything else, such as a float, a set or a non-str
    key, raises TypeError, so a value that json would write some other
    way fails instead of changing the bytes.  json.dumps never uses its C
    encoder when it indents; this writes every piece into one list and
    joins it once."""
    parts: list = []
    _write_json(value, "\n", parts.append)
    return "".join(parts)


def _write_json(value, indent: str, put) -> None:
    """Write value as json does at this indent: a newline and the
    spaces of the enclosing container."""
    if isinstance(value, str):
        put(_escape(value))
    elif value is None:
        put("null")
    elif value is True:  # bool before int: True is an int
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = comma
        put(indent + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = indent + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {key!r}")
            put(sep + _escape(key) + ": ")
            _write_json(item, inner, put)
            sep = comma
        put(indent + "}")
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")


def _fresh():
    return TrueStageSystem(DefaultOperator())


# -- subcommand bodies ----------------------------------------------------


def _run_verify(args):
    universe = _universe(args.maxLen, args.alphabet)
    levels = _levels(args.levels)
    # The club check reads alpha+1 beside each level alpha.
    for alpha in levels:
        try:
            successor(alpha)
        except CeilingError as exc:
            raise InputError(str(exc)) from exc
    report = ts_verify(_fresh(), universe, levels)
    results = [
        {"property": r.name, "passed": r.passed, "checked": r.checked,
         "failures": r.failures}
        for r in report.results.values()
    ]
    failures = [
        {"property": r.name, **{
            k: render(v) if isinstance(v, OrdinalNotation) else
            list(v) if isinstance(v, tuple) else v
            for k, v in ce.items()}}
        for r in report.results.values()
        for ce in r.counterexamples
    ]
    return results, failures, lambda: report.summary_lines() + [
        "counterexample: " + json.dumps(f, sort_keys=True) for f in failures
    ]


def _run_jump(args):
    universe = _universe(args.maxLen, args.alphabet)
    op = DefaultOperator()
    results = []
    for sigma in universe.all_seqs():
        trace = enumerate_jump(op, sigma)
        results.append({
            "sigma": seq_str(sigma),
            "events": [[e, t] for e, t in trace.events],
            "p": trace.p,
        })
    return results, [], lambda: [
        f"{r['sigma']} p={r['p']} events="
        + (",".join(f"{e}@{t}" for e, t in r["events"]) or "-")
        for r in results
    ]


def _run_truestages(args):
    universe = _universe(args.maxLen, args.alphabet)
    levels = _levels(args.levels)
    sys_ = _fresh()
    results = [
        {
            "alpha": render(alpha),
            "sigma": seq_str(sigma),
            "tau": seq_str(tau),
            "related": int(sys_.leq(sigma, tau, alpha)),
        }
        for alpha in levels
        for sigma, tau in universe.prefix_pairs()
    ]
    return results, [], lambda: [
        f"{r['alpha']}\t{r['sigma']}\t{r['tau']}\t{r['related']}" for r in results
    ]


def _run_hk_roundtrip(args):
    universe = _universe(args.maxLen, args.alphabet)
    alpha = _notation(args.alpha, "--alpha")
    sys_ = _fresh()
    rng = random.Random(args.seed)
    results = []
    failures = []
    for run in range(20):
        table = {s: rng.randrange(2) for s in universe.all_seqs()}
        fn = ApproxFn(alpha, table)
        witness = approx_to_witness(sys_, fn, universe)
        family = witness_to_dsets(sys_, fn, witness, universe)
        checked = 0
        mismatches = 0
        for x in universe.maximal():
            want, stable = approx_limit(sys_, fn, x)
            if not stable:
                continue
            checked += 1
            got = difference_value(sys_, family, x)
            if got != want:
                mismatches += 1
                failures.append({
                    "run": run, "x": seq_str(x), "expected": want, "got": got,
                })
        results.append({
            "run": run, "eta": render(witness.eta), "checked": checked,
            "mismatches": mismatches,
        })
    return results, failures, lambda: [
        f"run={r['run']} eta={r['eta']} checked={r['checked']} mismatches={r['mismatches']}"
        for r in results
    ]


def _run_hk_convert(args):
    universe = _universe(args.maxLen, args.alphabet)
    data = _load_instance(args.instance)
    sys_ = _fresh()
    if "upsets" in data:
        alpha = _notation(_required(data, "alpha"), "alpha")
        eta = (_notation(args.eta, "--eta") if args.eta is not None
               else _notation(_required(data, "eta"), "eta"))
        upsets = [_upset_from_json(u, "upsets", args.alphabet)
                  for u in _list(data["upsets"], "upsets")]
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
        witness = approx_to_witness(sys_, fn, universe)
        family = witness_to_dsets(sys_, fn, witness, universe)
        result = {
            "direction": "approx-to-witness",
            "eta": render(witness.eta),
            "witness": _witness_to_json(witness),
            "family": [_upset_to_json(u) for _, u in family.sets],
        }
    else:
        raise InputError("instance must carry either 'upsets' or 'approx'")
    return [result], [], lambda: ["conversion: " + json.dumps(result, sort_keys=True)]


def _wadge_setup(args):
    data = _load_instance(args.instance)
    lam = _notation(_required(data, "lambda"), "lambda")
    universe = _universe(_required(data, "maxLen"), _required(data, "alphabet"),
                         ("maxLen", "alphabet"))
    w0 = _upset_from_json(_required(data, "W0"), "W0", universe.alphabet)
    w1 = _upset_from_json(_required(data, "W1"), "W1", universe.alphabet)
    sys_ = _fresh()
    return data, universe, sys_, wadge_tree(sys_, w0, w1, lam, universe)


def _run_wadge_decompose(args):
    _, _, _, tree = _wadge_setup(args)
    result = {"rank": tree.rank, "tree": _tree_to_json(tree)}
    return [result], [], lambda: [
        f"rank={tree.rank}", "tree: " + json.dumps(result["tree"], sort_keys=True)
    ]


def _run_wadge_eval(args):
    data, universe, sys_, tree = _wadge_setup(args)
    queries = [_stage(q, "queries", universe)
               for q in _list(data.get("queries", []), "queries")]
    results = [
        {"x": seq_str(x), "value": int(decomposition_eval(sys_, tree, x))}
        for x in queries or universe.maximal()
    ]
    return results, [], lambda: [f"{r['x']}\t{r['value']}" for r in results]


def _game_setup(args, depth=None):
    """The instance, its game and a fresh system, once the --depth flag
    (lsr referee has none) is checked."""
    if depth is not None:
        _positive(depth, "--depth")
    data = _load_instance(args.instance)
    return data, _game_from_json(data), _fresh()


def _run_lsr_solve(args):
    data, game, sys_ = _game_setup(args, args.depth)
    outcome = solve(sys_, game, depth=args.depth)
    result = {
        "status": outcome.status,
        "byTurn": outcome.by_turn,
        "strategy": _strategy_to_json(outcome.strategy),
    }
    return [result], [], lambda: [
        f"status={outcome.status} byTurn={outcome.by_turn}",
        "strategy: " + json.dumps(result["strategy"], sort_keys=True),
    ]


def _run_lsr_referee(args):
    data, game, sys_ = _game_setup(args)
    raw = _object(_required(data, "play"), "play")
    xs = _naturals(_required(raw, "play.xs"), "play.xs", game.alphabet)
    yzs = _list(_required(raw, "play.yzs"), "play.yzs")
    read = functools.partial(_naturals, field="play.yzs", below=game.alphabet)
    play = PartialPlay(xs, tuple(read(_pair(p, "play.yzs")) for p in yzs))
    verdict = referee(sys_, game, play)
    result = {
        "F": list(verdict.f_indices),
        "ybar": seq_str(verdict.ybar),
        "zbar": seq_str(verdict.zbar),
        "status": verdict.status,
    }
    return [result], [], lambda: [
        f"status={verdict.status} F={result['F']} "
        f"ybar={result['ybar']} zbar={result['zbar']}"
    ]


def _side_i_strategy(data: dict, game: GameInstance, sys_, depth) -> SolveResult:
    """Player I's strategy for the commands that analyse it along the
    instance's y: the instance's pinned table or, failing that, the one
    solve finds at depth.  Only an IWins result carries a strategy to
    analyse; otherwise the report is the solver status."""
    if "strategy" in data:
        return SolveResult("IWins", _strategy_from_json(data["strategy"], game.alphabet))
    return solve(sys_, game, depth=depth)


def _run_lsr_separator(args):
    data, game, sys_ = _game_setup(args, args.depth)
    y = _naturals(_required(data, "y"), "y", game.alphabet)
    outcome = _side_i_strategy(data, game, sys_, args.depth)
    if outcome.status != "IWins":
        return [{"solver": outcome.status}], [], lambda: [f"solver={outcome.status}"]
    found = CorrectnessChecker(sys_, game, outcome.strategy, y).separator_evidence()
    status = "NoneWithin" if found is None else "Evidence"
    sigma = None if found is None else seq_str(found)
    return [{"status": status, "sigma": sigma}], [], lambda: [
        f"status={status} sigma={sigma}"
    ]


def _run_lsr_adversarial(args):
    data, game, sys_ = _game_setup(args, args.depth)
    y = _naturals(_required(data, "y"), "y", game.alphabet)
    v = _naturals(data["v"], "v", game.alphabet) if "v" in data else None
    depth = args.depth if args.depth is not None else game.depth
    bound = _positive(data.get("searchBound", 3), "searchBound")
    outcome = _side_i_strategy(data, game, sys_, None)
    if outcome.status != "IWins":
        return [{"solver": outcome.status}], [], lambda: [f"solver={outcome.status}"]
    checker = CorrectnessChecker(sys_, game, outcome.strategy, y)
    transcript = adversarial_play(checker, v, depth, bound)
    result = _transcript_to_json(transcript)
    return [result], [], lambda: [
        f"outcome={transcript.outcome} steps={len(transcript.steps)}",
        "transcript: " + json.dumps(result, sort_keys=True),
    ]


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The report echoes every flag of the command but --format.
    config = dict(vars(args))
    name = " ".join(filter(None, (config.pop("command"), config.pop("action", None))))
    del config["run"], config["format"]
    try:
        results, failures, text = args.run(args)
    except InputError as exc:
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
        print(_report_json(report))
    else:
        print(f"command: {name}")
        print("config: " + json.dumps(config, sort_keys=True))
        for line in text():
            print(line)
        if failures:
            print(f"failures: {len(failures)}")
    return 1 if failures else 0
