import collections
import functools
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from instance_tools import Selfless
from test_golden import COMMANDS, DIGESTS, INSTANCES, report_digest, write_instances
from test_stages import _Rewriter
from truestages import cli, game, hierarchy, wadge
from truestages.jump import ContractViolationError, DefaultOperator, JumpTrace
from truestages.stages import TrueStageSystem
from truestages.universe import Universe, seq_str

QUICKWIN = {
    "xi": "0",
    "W": {"level": "0", "generators": [[]]},
    "T0": {"full": True},
    "T1": {"pairs": [[[], []]]},
    "bounds": {"alphabet": 2, "depth": 3},
    "play": {"xs": [0, 1], "yzs": [[0, 0], [1, 0]]},
    "y": [0, 0, 0, 0],
    "v": [0, 0, 0, 0],
    "searchBound": 3,
}


@pytest.fixture(scope="module")
def quickwin_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "quickwin.json"
    path.write_text(json.dumps(QUICKWIN))
    return str(path)


@pytest.fixture(scope="module")
def wadge_file(tmp_path_factory):
    uni = Universe(3, 3)
    path = tmp_path_factory.mktemp("cli") / "wadge.json"
    path.write_text(json.dumps({
        "lambda": "w",
        "maxLen": 3,
        "alphabet": 3,
        "W0": {"level": "w",
               "generators": sorted(list(s) for s in uni.all_seqs()
                                    if s and s[0] == 2)},
        "W1": {"level": "w",
               "generators": sorted(list(s) for s in uni.all_seqs()
                                    if s and s[0] in (0, 1))},
        "queries": [[0, 2, 1], [2, 0, 0]],
    }))
    return str(path)


@pytest.fixture(scope="module")
def hk_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "hk.json"
    path.write_text(json.dumps({
        "alpha": "1",
        "eta": "3",
        "upsets": [
            {"level": "1", "generators": [[0]]},
            {"level": "1", "generators": [[0], [1]]},
            {"level": "1", "generators": [[]]},
        ],
    }))
    return str(path)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes -----------------------------------------------------------


def test_verify_runs_clean(capsys):
    code, out, _ = run_main(capsys, "verify", "--max-len", "3",
                            "--alphabet", "2", "--levels", "0,1")
    assert code == 0
    assert "command: verify" in out
    assert "TS1: pass" in out


def test_shared_parser_keeps_its_defaults(capsys):
    """The parser is built once per process, so one call's flags must not
    become a later call's values."""
    assert cli.build_parser() is cli.build_parser()
    _, out, _ = run_main(capsys, "verify", "--max-len", "2", "--levels", "0",
                         "--format", "json")
    assert json.loads(out)["config"]["maxLen"] == 2
    _, out, _ = run_main(capsys, "verify", "--levels", "0", "--format", "json")
    assert json.loads(out)["config"]["maxLen"] == 3


def test_missing_instance_exits_two(capsys):
    code, _, err = run_main(capsys, "lsr", "solve", "--instance", "missing.json")
    assert code == 2
    assert "cannot read instance file" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_main(capsys, "wadge", "eval", "--instance", str(bad))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv, message", [
    (["truestages", "--max-len", "2", "--alphabet", "2", "--levels", "0,zz"],
     "bad level notation"),
    # A verification of no level would pass every property on 0 checks.
    (["verify", "--levels", ","], "--levels names no level"),
    (["truestages", "--levels", ","], "--levels names no level"),
    # verify's club check reads alpha+1 beside each level, and the
    # ceiling has no successor.
    (["verify", "--max-len", "1", "--alphabet", "2", "--levels", "0,w^w"],
     "notation w^w+1 exceeds the ceiling w^w"),
], ids=["notation", "verify-none", "truestages-none", "verify-ceiling"])
def test_bad_level_notation_exits_two(capsys, argv, message):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("action", ["separator", "adversarial"])
def test_lsr_without_y_exits_two(capsys, tmp_path, action):
    inst = tmp_path / "no-y.json"
    inst.write_text(json.dumps({k: v for k, v in QUICKWIN.items() if k != "y"}))
    code, out, err = run_main(capsys, "lsr", action, "--instance", str(inst))
    assert code == 2
    assert out == ""
    assert "instance lacks the y field" in err


def test_input_errors_exit_two_with_one_line(capsys, tmp_path, hk_file):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    no_play = tmp_path / "no-play.json"
    no_play.write_text(json.dumps({k: v for k, v in QUICKWIN.items() if k != "play"}))
    approx = tmp_path / "hk-approx.json"
    approx.write_text(json.dumps(INSTANCES["hk-approx.json"]))
    # An object field given as an array is bad input, not an internal bug.
    tree_list = tmp_path / "tree-list.json"
    tree_list.write_text(json.dumps({**INSTANCES["solve.json"], "T0": [1]}))
    table_list = tmp_path / "table-list.json"
    table_list.write_text(json.dumps({"approx": {"level": "w+1", "table": [1]}}))
    # A tree is full only when its "full" is the JSON true.
    full_string = tmp_path / "full-string.json"
    full_string.write_text(json.dumps({**INSTANCES["solve.json"], "T0": {"full": "no"}}))
    cases = [
        (["hk", "roundtrip", "--alpha", "w+"],
         "error: bad --alpha notation 'w+': expected a term (at position 2)\n"),
        (["hk", "convert", "--instance", str(empty)],
         "error: instance must carry either 'upsets' or 'approx'\n"),
        (["lsr", "referee", "--instance", str(no_play)],
         "error: instance lacks the play field\n"),
        (["hk", "convert", "--instance", hk_file, "--eta", "2"],
         "error: index 2 is beyond the copy of 2\n"),
        (["hk", "convert", "--instance", hk_file, "--eta", "0"],
         "error: eta must be positive\n"),
        (["lsr", "solve", "--instance", str(tree_list)],
         "error: T0 must be an object, got [1]\n"),
        (["hk", "convert", "--instance", str(table_list)],
         "error: approx.table must be an object, got [1]\n"),
        (["lsr", "solve", "--instance", str(full_string)],
         "error: T0.full must be a boolean, got 'no'\n"),
    ] + [
        # An approx instance's eta is the rank of its mind-change tree.
        (["hk", "convert", "--instance", str(approx), "--eta", eta],
         "error: --eta applies only to an 'upsets' instance; "
         "an 'approx' instance's eta is computed\n")
        for eta in ["5", "zz"]
    ]

    # Every pair is a two-element list; a side I key entry of another
    # shape would never match a history and so would silently mean 0.
    def strategy(side, entry):
        return {"strategy": {"side": side, "depth": 3, "moves": [entry]}}

    pairs = [
        ("separator", strategy("I", [[[0]], 1]), "strategy.moves", "[0]"),
        ("separator", strategy("I", [[[0, 1, 1]], 1]), "strategy.moves", "[0, 1, 1]"),
        ("referee", {"play": {"xs": [0], "yzs": [[0]]}}, "play.yzs", "[0]"),
        ("referee", {"play": {"xs": [0], "yzs": [0]}}, "play.yzs", "0"),
        ("solve", {"T0": {"pairs": [[[0]]]}}, "T0.pairs", "[[0]]"),
        ("solve", {"T0": {"pairs": [5]}}, "T0.pairs", "5"),
        ("separator", strategy("I", [[], 0, 1]), "strategy.moves", "[[], 0, 1]"),
        ("adversarial", strategy("II", [[0], [0, 1, 1]]), "strategy.moves", "[0, 1, 1]"),
    ]
    for n, (action, fields, field, shown) in enumerate(pairs):
        inst = tmp_path / f"pair-{n}.json"
        inst.write_text(json.dumps({**QUICKWIN, **fields}))
        cases.append((["lsr", action, "--instance", str(inst)],
                      f"error: {field} entries must be pairs, got {shown}\n"))
    for argv, message in cases:
        code, out, err = run_main(capsys, *argv)
        assert (code, out, err) == (2, "", message)


def negative_query(data):
    return {**data, "queries": [[0, -1]]}


def play_x(bad):
    return lambda data: {**data, "play": {"xs": [0, bad], "yzs": [[0, 0], [1, 0]]}}


def negative_move(data):
    return {**data, "strategy": {"side": "I", "depth": 3, "moves": [[[], -1]]}}


def with_fields(**fields):
    return lambda data: {**data, **fields}


side_two_strategy = with_fields(strategy={"side": "II", "depth": 3, "moves": []})


def approx_value(value):
    return with_fields(approx={"level": "w+1", "table": {"[]": value}})


@pytest.mark.parametrize("command, edit, message", [
    (["wadge", "eval"], negative_query,
     "queries entries must be naturals below 3, got -1"),
    (["lsr", "referee"], play_x(-1),
     "play.xs entries must be naturals below 2, got -1"),
    (["lsr", "referee"], play_x(1.5),
     "play.xs entries must be naturals below 2, got 1.5"),
    (["lsr", "referee"], play_x(True),
     "play.xs entries must be naturals below 2, got True"),
    (["lsr", "referee"], play_x("0"),
     "play.xs entries must be naturals below 2, got '0'"),
    (["lsr", "separator"], negative_move,
     "strategy.moves entries must be naturals below 2, got -1"),
    (["lsr", "adversarial"], negative_move,
     "strategy.moves entries must be naturals below 2, got -1"),
    (["lsr", "solve"], with_fields(bounds={"alphabet": True, "depth": 3}),
     "bounds.alphabet must be a natural, got True"),
    (["lsr", "solve"], with_fields(bounds={"alphabet": 2, "depth": 2.5}),
     "bounds.depth must be a natural, got 2.5"),
    (["lsr", "adversarial"], with_fields(searchBound=-1),
     "searchBound must be a natural, got -1"),
    (["lsr", "solve", "--depth", "-2"], with_fields(),
     "--depth must be a natural, got -2"),
    (["lsr", "adversarial", "--depth", "-1"], with_fields(),
     "--depth must be a natural, got -1"),
    (["hk", "convert"], approx_value(1.9),
     "approx.table entries must be naturals, got 1.9"),
    (["hk", "convert"], approx_value("1"),
     "approx.table entries must be naturals, got '1'"),
    (["lsr", "separator"], side_two_strategy,
     "correctness analysis needs a side I strategy"),
    (["lsr", "adversarial"], side_two_strategy,
     "correctness analysis needs a side I strategy"),
    (["hk", "convert"],
     with_fields(alpha="1", eta="3", upsets=[{"level": "2", "generators": [[0]]}]),
     "expected level 1, got 2"),
    (["hk", "convert"], with_fields(approx={"level": "w+1", "table": {"0,1": 0}}),
     "bad approx.table key '0,1': expected a bracketed sequence, got '0,1'"),
    (["lsr", "solve", "--depth", "0"], with_fields(),
     "--depth must be positive, got 0"),
    (["lsr", "separator", "--depth", "0"], with_fields(),
     "--depth must be positive, got 0"),
    (["lsr", "adversarial", "--depth", "0"], with_fields(),
     "--depth must be positive, got 0"),
    (["lsr", "solve"], with_fields(bounds={"alphabet": 2, "depth": 0}),
     "bounds.depth must be positive, got 0"),
    (["lsr", "solve"], with_fields(bounds={"alphabet": 0, "depth": 3}),
     "bounds.alphabet must be positive, got 0"),
    (["hk", "convert", "--alphabet", "0"], with_fields(),
     "--alphabet must be positive, got 0"),
    (["hk", "convert", "--max-len", "-1"], with_fields(),
     "--max-len must be a natural, got -1"),
    (["wadge", "eval"], with_fields(alphabet=0),
     "alphabet must be positive, got 0"),
    (["wadge", "decompose"], with_fields(maxLen=-1),
     "maxLen must be a natural, got -1"),
    (["lsr", "adversarial"], with_fields(searchBound=0),
     "searchBound must be positive, got 0"),
    (["lsr", "solve"], with_fields(xi="1", W={"level": "2", "generators": [[]]}),
     "W lives at level 2, expected 1"),
    (["wadge", "decompose"],
     lambda data: {**data, "W0": {"level": "w",
                                  "generators": data["W0"]["generators"] + [[0]]}},
     "W0 and W1 overlap at [0]"),
    (["wadge", "decompose"], with_fields(maxLen=2, W1={"level": "w", "generators": [[0]]}),
     "maximal sequence [1,0] is uncovered"),
    (["wadge", "decompose"], with_fields(**{"lambda": "1"}),
     "1 is not a limit level"),
    (["hk", "convert"],
     with_fields(alpha="0", eta="2", upsets=[{"level": "0", "generators": [[]]},
                                             {"level": "0", "generators": [[0]]}]),
     "family is not increasing: set 0 (index 0) is not contained in set 1 (index 1)"),
    (["hk", "convert"],
     with_fields(approx={"level": "0", "table": {
         seq_str(s): 2 if s == () else 0 for s in Universe(3, 2).all_seqs()}}),
     "two-valued approximation required, got 2 at []"),
    (["wadge", "decompose"],
     lambda data: {**data, "W0": {**data["W0"], "level": "w+1"}},
     "W0 lives at level w+1, expected w"),
    (["lsr", "referee"], with_fields(play={"xs": [0], "yzs": []}),
     "player I has made 1 moves but player II has made 0"),
    (["lsr", "referee"], with_fields(play={"xs": [], "yzs": []}),
     "referee needs at least one completed round"),
    (["lsr", "solve"], with_fields(T0={"pairs": [[[0], [0, 1]]]}),
     "pair lengths differ: [0], [0,1]"),
    (["wadge", "eval"], with_fields(queries=[[]]),
     "0 separators match [] at node []"),
], ids=["eval-negative", "referee-negative", "referee-float", "referee-bool",
        "referee-string", "separator-negative", "adversarial-negative",
        "solve-alphabet-bool", "solve-depth-float", "adversarial-search-bound",
        "solve-depth-flag", "adversarial-depth-flag", "convert-table-float",
        "convert-table-string", "separator-side-two", "adversarial-side-two",
        "convert-upset-level", "convert-key-unbracketed", "solve-depth-zero",
        "separator-depth-zero", "adversarial-depth-zero", "solve-bounds-depth-zero",
        "solve-bounds-alphabet-zero", "convert-alphabet-zero",
        "convert-max-len-negative", "eval-alphabet-zero", "decompose-max-len-negative",
        "adversarial-search-bound-zero", "solve-w-level", "decompose-overlap",
        "decompose-uncovered", "decompose-successor-lambda", "convert-not-increasing",
        "convert-not-two-valued", "decompose-w0-level", "referee-unanswered",
        "referee-no-round", "solve-pair-lengths", "eval-undecided-query"])
def test_non_natural_x_entries_exit_two(capsys, tmp_path, wadge_file, command,
                                        edit, message):
    # The jump operator reads x, so an x entry that is not a natural is
    # bad input, not a broken trace contract; so is a count or an
    # approximation value that is not a natural, an alphabet, a depth or
    # a search bound of 0, a strategy or an upset of the wrong kind, and
    # an instance whose parts do not fit together, which the library
    # rejects.
    if command[0] == "wadge":
        with open(wadge_file) as fh:
            data = json.load(fh)
    else:
        data = QUICKWIN
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(edit(data)))
    code, out, err = run_main(capsys, *command, "--instance", str(inst))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def plus_generator(upset, gen):
    return {**upset, "generators": upset["generators"] + [gen]}


HK_UPSETS = INSTANCES["hk-dsets.json"]["upsets"]
HK_APPROX = INSTANCES["hk-approx.json"]["approx"]


def plus_stage(key):
    return {"approx": {**HK_APPROX, "table": {**HK_APPROX["table"], key: 0}}}


@pytest.mark.parametrize("command, instance, edit, message", [
    (["lsr", "adversarial"], "adversarial.json", {"y": [0, -1, 1, 0, 1, 0]},
     "y entries must be naturals below 2, got -1"),
    (["lsr", "referee"], "mismatch.json",
     {"play": {"xs": [0, 1, 1], "yzs": [[0, 1], [0, -1], [1, 1]]}},
     "play.yzs entries must be naturals below 2, got -1"),
    (["lsr", "separator"], "adversarial.json", {"y": [0, 5, 0]},
     "y entries must be naturals below 2, got 5"),
    (["lsr", "adversarial"], "adversarial-t1.json", {"v": [0, -1, 1, 0, 1, 0]},
     "v entries must be naturals below 2, got -1"),
    (["lsr", "referee"], "mismatch.json",
     {"play": {"xs": [0, 5, 1], "yzs": [[0, 1], [0, 0], [1, 1]]}},
     "play.xs entries must be naturals below 2, got 5"),
    (["lsr", "adversarial"], "adversarial.json",
     {"strategy": {"side": "I", "depth": 6, "moves": [[[], 7]]}},
     "strategy.moves entries must be naturals below 2, got 7"),
    (["hk", "convert"], "hk-dsets.json",
     {"upsets": [plus_generator(HK_UPSETS[0], [-1, 7])] + HK_UPSETS[1:]},
     "upsets.generators entries must be naturals below 2, got -1"),
    (["wadge", "decompose"], "wadge.json",
     {"W1": plus_generator(INSTANCES["wadge.json"]["W1"], ["x"])},
     "W1.generators entries must be naturals below 2, got 'x'"),
    (["lsr", "solve"], "solve.json",
     {"W": plus_generator(INSTANCES["solve.json"]["W"], [5])},
     "W.generators entries must be naturals below 2, got 5"),
    (["lsr", "solve"], "solve.json", {"T0": {"pairs": [[[0], [9]]]}},
     "T0.pairs entries must be naturals below 2, got 9"),
    (["lsr", "adversarial"], "adversarial.json",
     {"strategy": {"side": "I", "depth": 6, "moves": [[[[0, 9]], 1]]}},
     "strategy.moves entries must be naturals below 2, got 9"),
    (["wadge", "eval"], "wadge.json", {"queries": [[0, 5, 1, 1]]},
     "queries entries must be naturals below 2, got 5"),
    (["wadge", "eval"], "wadge.json", {"queries": [[1, 5, 0, 0]]},
     "queries entries must be naturals below 2, got 5"),
    (["wadge", "eval"], "wadge.json", {"queries": [[0, 1, 1, 1, 1, 1, 1]]},
     "queries must have at most maxLen 4 entries, got [0,1,1,1,1,1,1]"),
    (["hk", "convert"], "hk-approx.json", plus_stage("[-1]"),
     "approx.table key entries must be naturals below 2, got -1"),
    (["hk", "convert"], "hk-approx.json", plus_stage("[7,7]"),
     "approx.table key entries must be naturals below 2, got 7"),
    (["hk", "convert"], "hk-approx.json", plus_stage("[0,0,0,0]"),
     "approx.table key must have at most maxLen 3 entries, got [0,0,0,0]"),
    (["hk", "convert"], "hk-approx.json", plus_stage("[x]"),
     "bad approx.table key '[x]': invalid literal for int() with base 10: 'x'"),
    (["hk", "convert"], "hk-approx.json", plus_stage("[1.5]"),
     "bad approx.table key '[1.5]': invalid literal for int() with base 10: '1.5'"),
], ids=["adversarial-y", "referee-yzs", "separator-y", "adversarial-v",
        "referee-xs", "adversarial-strategy", "convert-generator",
        "decompose-generator", "solve-generator", "solve-tree-pair",
        "adversarial-strategy-key", "eval-query-answered",
        "eval-query-no-separator", "eval-query-too-long", "convert-key-negative",
        "convert-key-outside", "convert-key-too-long",
        "convert-key-letter", "convert-key-float"])
def test_entries_outside_the_alphabet_exit_two(capsys, tmp_path, command,
                                               instance, edit, message):
    # Every move is drawn from the alphabet: x entries and side I
    # strategy moves and keys as well as II's y, z and v entries, the
    # generators and tree pairs that the instance states in moves, and
    # wadge eval's queries and hk convert's approx table keys, which are
    # stages of at most maxLen moves.
    inst = tmp_path / instance
    inst.write_text(json.dumps({**INSTANCES[instance], **edit}))
    code, out, err = run_main(capsys, *command, "--instance", str(inst))
    assert (code, out, err) == (2, "", f"error: {message}\n")


class DuplicateCodeOperator:
    """Enumerates code 4 at every time, so every trace of length 2 or
    more repeats a code."""

    def trace(self, sigma):
        return JumpTrace((4,) * len(sigma))


class LastCodeDuplicateOperator(DuplicateCodeOperator):
    """Repeats codes as above, but reads p as the default operator does,
    so no p builds a trace."""

    last_code = DefaultOperator.last_code


@pytest.mark.parametrize("operator, argv", [
    (DuplicateCodeOperator, ["jump", "--max-len", "2", "--alphabet", "2"]),
    # The first failing trace is one that only TS7's extension check reads.
    (DuplicateCodeOperator, ["verify", "--max-len", "2", "--levels", "0"]),
    # The first failing trace is filled for an oracle segment.
    (LastCodeDuplicateOperator, ["verify", "--max-len", "2", "--levels", "2"]),
], ids=["jump", "verify-ts7", "verify-segment"])
def test_jump_dump_checks_the_trace_contract(monkeypatch, operator, argv):
    # An operator bug is internal, not bad input: it must not become exit 2.
    monkeypatch.setattr(cli, "DefaultOperator", operator)
    with pytest.raises(ContractViolationError, match="duplicate code"):
        cli.main(argv)


def test_chain_without_its_own_play_is_internal(monkeypatch, tmp_path, quickwin_file):
    # A stage system that breaks TS2 is a defect, not bad input: it must
    # not become exit 2, at a limit level either.
    limit = tmp_path / "quickwin-w.json"
    limit.write_text(json.dumps(
        {**QUICKWIN, "xi": "w", "W": {"level": "w", "generators": [[]]}}))
    monkeypatch.setattr(cli, "_fresh", lambda: Selfless(DefaultOperator()))
    for instance in (quickwin_file, str(limit)):
        with pytest.raises(ContractViolationError, match="does not end at"):
            cli.main(["lsr", "solve", "--instance", instance])


@pytest.mark.parametrize("name, command, instance", [
    ("dsets_to_witness", ["hk", "convert"], "hk_file"),
    ("wadge_tree", ["wadge", "decompose"], "wadge_file"),
    ("solve", ["lsr", "solve"], "quickwin_file"),
])
def test_an_internal_value_error_is_not_exit_two(request, monkeypatch, name, command,
                                                 instance):
    # Only InputError means bad input: any other ValueError, even one from
    # a library call that rejects bad instances, is a defect and must
    # propagate.
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, name, broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(command + ["--instance", request.getfixturevalue(instance)])


def test_an_internal_key_error_is_not_exit_two(monkeypatch):
    # Every reader checks keys and types by field name, so a KeyError
    # from inside a command is a defect and must propagate.
    def broken(op, sigma):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "enumerate_jump", broken)
    with pytest.raises(KeyError, match="internal"):
        cli.main(["jump", "--max-len", "2", "--alphabet", "2"])


@pytest.mark.parametrize("action", ["solve", "separator", "adversarial"])
def test_exhausted_solver_budget_exits_three(capsys, monkeypatch, quickwin_file, action):
    # Running out of budget is neither a failed property nor bad input.
    monkeypatch.setattr(cli, "solve", functools.partial(game.solve, max_nodes=2))
    code, out, err = run_main(capsys, "lsr", action, "--instance", quickwin_file)
    assert code == 3
    assert out == ""
    assert err == "error: solver exceeded 2 referee evaluations\n"


def test_exit_one_when_a_check_fails(capsys, monkeypatch):
    # The tampering operator breaks trace extension, so the real verify
    # body assembles a failure report from ts_verify's counterexamples.
    monkeypatch.setattr(cli, "DefaultOperator", _Rewriter)
    code, out, _ = run_main(capsys, "verify", "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert len(failures) == 5
    assert {f["property"] for f in failures} == {"TS7-consistency"}
    code, out, _ = run_main(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert "TS7-consistency: FAIL (19 of 171 checks)" in lines
    assert sum(l.startswith("counterexample: ") for l in lines) == 5
    assert "failures: 5" in lines


def test_roundtrip_failure_report(capsys, monkeypatch):
    # Flipping every difference-hierarchy answer makes every stable
    # point a mismatch, so the real roundtrip body reports failures.
    real = cli.difference_value
    monkeypatch.setattr(cli, "difference_value", lambda *a: 1 - real(*a))
    code, out, _ = run_main(capsys, "hk", "roundtrip", "--format", "json")
    assert code == 1
    failures = json.loads(out)["failures"]
    assert len(failures) == 73
    assert failures[0] == {"expected": 1, "got": 0, "run": 0, "x": "[0,0,0]"}
    code, out, _ = run_main(capsys, "hk", "roundtrip")
    assert code == 1
    lines = out.splitlines()
    assert "run=0 eta=7 checked=4 mismatches=4" in lines
    assert lines[-1] == "failures: 73"


# Each golden command that reads an instance, and the instance it reads.
INSTANCE_OF = {name: argv[argv.index("--instance") + 1]
               for name, argv in COMMANDS.items() if "--instance" in argv}
WRONG_TYPES = [None, True, 1.5, "x", [1], {"a": 1}]
BAD_NOTATIONS = ["", "w+", "zz", "w^", "01", "w*0"]
MISSING = "<missing>"


def paths(node, prefix=()):
    """The path to every value inside a JSON document, the root's too."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from paths(child, prefix + (key,))


def value_at(data, path):
    return functools.reduce(lambda node, key: node[key], path, data)


def field_name(path):
    """The dotted name an error gives the value at path: its object keys,
    without list indices or the stage keys of approx.table, a map."""
    keys = [key for key in path if type(key) is str]
    if keys[:2] == ["approx", "table"]:
        keys = keys[:2]
    return ".".join(keys) or "instance"


@st.composite
def mutations(draw):
    """A golden command and one invalid change to its instance: a value
    of the wrong JSON type, a negative or out-of-alphabet move, a missing
    key, or malformed notation text.  No change is a larger valid bound,
    so no run searches a larger game than its golden instance."""
    name = draw(st.sampled_from(sorted(INSTANCE_OF)))
    data = INSTANCES[INSTANCE_OF[name]]
    path = draw(st.sampled_from(list(paths(data))))
    value = value_at(data, path)
    options = [st.sampled_from([w for w in WRONG_TYPES if type(w) is not type(value)])]
    if type(value) is int:
        options.append(st.just(-1))
        if path and type(path[-1]) is int:
            # An entry of a list is a move, never a count; every golden
            # alphabet is 2.
            options.append(st.integers(2, 9))
    if type(value) is str:
        options.append(st.sampled_from(BAD_NOTATIONS))
    if path and type(path[-1]) is str:
        options.append(st.just(MISSING))
    return name, path, draw(st.one_of(options))


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=300, deadline=None)
@example(mutation=("lsr-solve", ("T0",), [1]))
@example(mutation=("hk-convert-approx", ("approx", "table"), [1]))
# A list field given as a non-list, and a missing required key.
@example(mutation=("lsr-separator", ("y",), 5))
@example(mutation=("lsr-solve", ("W", "generators"), 5))
@example(mutation=("lsr-referee", ("play", "yzs"), 5))
@example(mutation=("wadge-eval", ("queries",), {"a": 1}))
@example(mutation=("hk-convert-dsets", ("upsets",), "x"))
@example(mutation=("lsr-adversarial", ("strategy", "moves"), None))
@example(mutation=("lsr-solve", ("bounds", "depth"), MISSING))
@example(mutation=("lsr-solve", ("xi",), MISSING))
@example(mutation=("lsr-referee", ("play", "xs"), MISSING))
@example(mutation=("wadge-eval", ("W1", "level"), MISSING))
@example(mutation=("lsr-adversarial", ("strategy", "side"), MISSING))
@example(mutation=("hk-convert-approx", ("approx", "table", "[0,1]"), MISSING))
@given(mutations())
def test_malformed_instances_fail_cleanly(mutation_dir, mutation):
    # Bad input exits 2 with one error line that names the field; it
    # never escapes main as a traceback.
    name, path, value = mutation
    # A JSON round trip, not deepcopy: solve.json's trees share one pairs
    # list, and a mutation must change only the field it names.
    data = json.loads(json.dumps(INSTANCES[INSTANCE_OF[name]]))
    if not path:
        data = value
    elif value == MISSING:
        del value_at(data, path[:-1])[path[-1]]
    else:
        value_at(data, path[:-1])[path[-1]] = value
    inst = mutation_dir / INSTANCE_OF[name]
    inst.write_text(json.dumps(data))
    argv = [str(inst) if a == INSTANCE_OF[name] else a for a in COMMANDS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
        assert field_name(path) in err.getvalue()


# -- report content -------------------------------------------------------


def test_json_envelope_keys(capsys):
    code, out, _ = run_main(capsys, "jump", "--max-len", "2",
                            "--alphabet", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "config", "results", "failures"}
    assert report["command"] == "jump"
    assert report["failures"] == []
    assert {"sigma": "[]", "events": [], "p": 0} in report["results"]


# Strings that json escapes: quotes, backslashes, controls, non-ASCII
# and lone surrogates, mixed into arbitrary text.
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'),
                              st.characters()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_TEXT
    | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@example(value={"": [], "b": {}, "a": ((), [[{"\u00e9\"": [None, True, -1, 2**70]}]])})
@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    # The running interpreter's json is the reference; each value is also
    # written four containers deep.
    for v in (value, {"d": [({"e": value},)]}):
        assert cli._report_json(v) == json.dumps(v, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, [0, {"a": 2.0}], {1, 2}, {"a": frozenset()}, {1: "a"}, [{"a": {0: 1}}],
])
def test_report_writer_refuses_what_json_might_write_otherwise(value):
    with pytest.raises(TypeError):
        cli._report_json(value)


def test_json_reports_never_call_json_dumps(tmp_path, monkeypatch):
    write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps was called for a JSON report")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    for name in sorted(COMMANDS):
        assert report_digest(name, "json") == DIGESTS[name, "json"], name


def test_relation_dump_lines(capsys):
    code, out, _ = run_main(capsys, "truestages", "--max-len", "2",
                            "--alphabet", "2", "--levels", "0,1")
    assert code == 0
    lines = [l for l in out.splitlines() if "\t" in l]
    assert "0\t[]\t[]\t1" in lines
    for line in lines:
        parts = line.split("\t")
        assert len(parts) == 4
        assert parts[3] in ("0", "1")


def test_roundtrip_reports_no_mismatches(capsys):
    code, out, _ = run_main(capsys, "hk", "roundtrip", "--seed", "7",
                            "--max-len", "3", "--alphabet", "2",
                            "--alpha", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 20
    assert all(r["mismatches"] == 0 for r in report["results"])


def test_convert_family_to_witness(capsys, hk_file):
    code, out, _ = run_main(capsys, "hk", "convert", "--instance", hk_file,
                            "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["direction"] == "dsets-to-witness"
    assert result["witness"]["eta"] == "3"


def test_convert_approx_to_witness(capsys, tmp_path):
    uni = Universe(2, 2)
    table = {s: (1 if sum(s) % 2 else 0) for s in uni.all_seqs()}
    inst = tmp_path / "approx.json"
    inst.write_text(json.dumps({
        "approx": {
            "level": "1",
            "table": {"[" + ",".join(map(str, s)) + "]": v
                      for s, v in table.items()},
        },
    }))
    code, out, _ = run_main(capsys, "hk", "convert", "--instance", str(inst),
                            "--max-len", "2", "--alphabet", "2",
                            "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["direction"] == "approx-to-witness"
    assert result["family"]


def test_wadge_eval_answers(capsys, wadge_file):
    code, out, _ = run_main(capsys, "wadge", "eval",
                            "--instance", wadge_file, "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert {"x": "[0,2,1]", "value": 1} in results
    assert {"x": "[2,0,0]", "value": 0} in results


def count_calls(monkeypatch, owner, name, counts, active=lambda: True):
    """Replace owner.name with a wrapper that counts its calls in counts[name]
    while active() holds."""
    fn = getattr(owner, name)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if active():
            counts[name] += 1
        return fn(*args, **kwargs)

    counts[name] = 0
    monkeypatch.setattr(owner, name, counted)


# sha256 of the report of ROUNDTRIP_ARGV, recorded before the hierarchy
# layer read chains in place of pairs and per-upset lookups.
ROUNDTRIP_ARGV = ["hk", "roundtrip", "--max-len", "4", "--alphabet", "2",
                  "--alpha", "w+1", "--seed", "3", "--format", "json"]
ROUNDTRIP_DIGEST = "6806d78e6e1df2d992c1967afbe078f9f9e62f6ce386bda837befbbb3f54e718"


def test_roundtrip_reads_chains_not_pairs(capsys, monkeypatch):
    # The witness laws walk each stage's chain and difference_value reads
    # one chain per level, so neither asks leq or eval_at anything.
    counts = {}
    count_calls(monkeypatch, TrueStageSystem, "leq", counts)
    count_calls(monkeypatch, hierarchy, "eval_at", counts)
    code, out, _ = run_main(capsys, *ROUNDTRIP_ARGV)
    assert code == 0
    assert counts == {"leq": 0, "eval_at": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == ROUNDTRIP_DIGEST


def test_roundtrip_work_counts_are_pinned(capsys, monkeypatch):
    # Exact counts for one roundtrip run: the mind-change tree and the
    # witness table share one read of each stage's chain (2,864 chain
    # calls when the table read every chain again), and each of the 20
    # conversions walks the copy of eta once, since its family carries
    # the copy indices that difference_value reads (134 copies when each
    # point that some set holds took its own, 180 when every stable
    # point did).  The count is of the public chain, which is every read
    # the hierarchy layer makes; the stage system's own reads subscript
    # its memo (2,244 calls when they went through chain).  Counts must
    # not depend on the string hash seed.
    counts = {}
    count_calls(monkeypatch, TrueStageSystem, "chain", counts)
    count_calls(monkeypatch, hierarchy, "enum_copy", counts)
    code, out, _ = run_main(capsys, *ROUNDTRIP_ARGV)
    assert code == 0
    assert counts == {"chain": 1864, "enum_copy": 20}
    assert hashlib.sha256(out.encode()).hexdigest() == ROUNDTRIP_DIGEST


def test_roundtrip_memo_entries_are_pinned(capsys, monkeypatch):
    # Each fill writes one memo entry, so the entries per fill kind count
    # the fills of one roundtrip run exactly: how a hit is served must not
    # change what is filled.  Counts must not depend on the string hash
    # seed.
    systems = []
    real = cli._fresh

    def fresh():
        systems.append(real())
        return systems[-1]

    monkeypatch.setattr(cli, "_fresh", fresh)
    code, out, _ = run_main(capsys, *ROUNDTRIP_ARGV)
    assert code == 0
    assert len(systems) == 1
    kinds = collections.Counter(fill.__name__ for fill, *_ in systems[0]._memo)
    assert kinds == {"_chain": 205, "_p": 155, "_trace_at": 133}
    assert hashlib.sha256(out.encode()).hexdigest() == ROUNDTRIP_DIGEST


def test_wadge_eval_walk_reads_one_chain_per_node(capsys, monkeypatch, wadge_file):
    # Building the tree still asks eval_at; the walk itself never does.
    counts = {"walks": 0}
    walking = []
    real_walk = cli.decomposition_eval

    def walk(*args):
        counts["walks"] += 1
        walking.append(True)
        try:
            return real_walk(*args)
        finally:
            walking.pop()

    monkeypatch.setattr(cli, "decomposition_eval", walk)
    count_calls(monkeypatch, wadge, "eval_at", counts, active=lambda: bool(walking))
    code, out, _ = run_main(capsys, "wadge", "eval",
                            "--instance", wadge_file, "--format", "json")
    assert code == 0
    assert counts == {"walks": 2, "eval_at": 0}


def test_wadge_decompose_reports_rank(capsys, wadge_file):
    code, out, _ = run_main(capsys, "wadge", "decompose",
                            "--instance", wadge_file, "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["rank"] == 1
    assert result["tree"]["kind"] == "internal"


def test_lsr_solve_and_referee(capsys, quickwin_file):
    code, out, _ = run_main(capsys, "lsr", "solve",
                            "--instance", quickwin_file, "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["status"] == "IWins"
    assert result["byTurn"] == 1

    code, out, _ = run_main(capsys, "lsr", "referee",
                            "--instance", quickwin_file, "--format", "json")
    assert code == 0
    verdict = json.loads(out)["results"][0]
    assert verdict["status"] == "IWon"
    assert verdict["F"] == [1, 2]


def test_lsr_separator_and_adversarial(capsys, quickwin_file):
    code, out, _ = run_main(capsys, "lsr", "separator",
                            "--instance", quickwin_file, "--format", "json")
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result == {"status": "Evidence", "sigma": "[]"}

    code, out, _ = run_main(capsys, "lsr", "adversarial",
                            "--instance", quickwin_file, "--format", "json")
    assert code == 0
    transcript = json.loads(out)["results"][0]
    assert transcript["outcome"] == "PlayerIWon"
    assert transcript["failedExtension"] == [0]


# -- process-level behavior -----------------------------------------------


def run_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "truestages", *argv],
        capture_output=True,
    )


def test_module_runs_as_script():
    proc = run_process("verify", "--max-len", "2", "--alphabet", "2",
                       "--levels", "0,1")
    assert proc.returncode == 0
    assert b"TS1: pass" in proc.stdout


def test_repeat_runs_are_byte_identical(quickwin_file):
    argv = ("lsr", "solve", "--instance", quickwin_file, "--format", "json")
    first = run_process(*argv)
    second = run_process(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
