"""Report bytes pinned across commits.

The digests below were recorded from an earlier commit whose reports
are the reference; a refactor that keeps every report byte-identical
keeps them.  Instances are written to fixed relative paths and the CLI
runs from their directory, so the paths echoed in ``config`` are the
same on every machine.  Every subcommand is pinned; separator and
adversarial also on a game whose solve is Undetermined, and adversarial
also with a witness v, so that both of its modes are pinned; hk convert
also with three infinite etas, so that the enumeration of the copy below
eta is pinned.  A change that alters a report on purpose must record the
new digests and say why.
"""

import hashlib
import io
import itertools
import json
from contextlib import redirect_stdout

import pytest

from truestages import cli

SEQS = [list(s) for n in range(5) for s in itertools.product((0, 1), repeat=n)]
PAIRS = [[list(y), list(z)] for y in itertools.product((0, 1), repeat=2)
         for z in itertools.product((0, 1), repeat=2)]


def y_only(v):
    """Every pair of length at most 5 whose y-entries all equal v."""
    return [[list(y), list(z)] for n in range(6)
            for y in itertools.product((v,), repeat=n)
            for z in itertools.product((0, 1), repeat=n)]


INSTANCES = {
    # W1 holds every stage that starts with 1 and W0 every other nonempty
    # stage, so the pair covers the universe and eval answers x[0] == 1.
    "wadge.json": {
        "lambda": "w*2",
        "maxLen": 4,
        "alphabet": 2,
        "W1": {"level": "w*2", "generators": [s for s in SEQS if s[:1] == [1]]},
        "W0": {"level": "w*2", "generators": [s for s in SEQS if s[:1] == [0]]},
        "queries": [[0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 1, 0], [1, 0, 0, 0]],
    },
    "solve.json": {
        "xi": "w",
        "W": {"level": "w", "generators": [[0, 1], [1, 1, 0]]},
        "T0": {"pairs": PAIRS},
        "T1": {"pairs": PAIRS},
        "bounds": {"alphabet": 2, "depth": 4},
    },
    "adversarial.json": {
        "xi": "w+1",
        "W": {"level": "w+1", "generators": [[1], [0, 1]]},
        "T0": {"full": True},
        "T1": {"full": True},
        "bounds": {"alphabet": 2, "depth": 5},
        "y": [0, 1, 1, 0, 1, 0],
        "strategy": {"side": "I", "depth": 6, "moves": []},
    },
    # adversarial.json with a witness v, so the play runs in T1 mode: it
    # starts at the least separator evidence and appends v's entries.
    "adversarial-t1.json": {
        "xi": "w+1",
        "W": {"level": "w+1", "generators": [[0, 0]]},
        "T0": {"full": True},
        "T1": {"full": True},
        "bounds": {"alphabet": 2, "depth": 5},
        "y": [0, 1, 1, 0, 1, 0],
        "v": [0, 1, 1, 0, 1, 0],
        "strategy": {"side": "I", "depth": 6, "moves": []},
    },
    # II must answer y = 0 while x has no 1 and y = 1 after it, so the
    # first y entry commits II and player I wins by round 2.
    "mismatch.json": {
        "xi": "w",
        "W": {"level": "w", "generators": [[0] * k + [1] for k in range(5)]},
        "T0": {"pairs": y_only(0)},
        "T1": {"pairs": y_only(1)},
        "bounds": {"alphabet": 2, "depth": 3},
        "y": [0, 1, 1, 0],
        "play": {"xs": [0, 1, 1], "yzs": [[0, 1], [0, 0], [1, 1]]},
    },
    # Both trees are full, so II survives every play and solve is
    # Undetermined: separator and adversarial report the solver status.
    "undetermined.json": {
        "xi": "1",
        "W": {"level": "1", "generators": [[1]]},
        "T0": {"full": True},
        "T1": {"full": True},
        "bounds": {"alphabet": 2, "depth": 2},
        "y": [0, 1],
        "v": [1, 0],
    },
    "hk-dsets.json": {
        "alpha": "w",
        "eta": "3",
        "upsets": [
            {"level": "w", "generators": [[0, 1]]},
            {"level": "w", "generators": [[0, 1], [1, 1]]},
            {"level": "w", "generators": [[]]},
        ],
    },
    # An infinite eta: the copies of w+1, w*2 and w^2+1 all start w, 0,
    # 1, so the family is increasing under each and every conversion
    # walks the enumeration below eta.
    "hk-dsets-inf.json": {
        "alpha": "w",
        "eta": "w+1",
        "upsets": [
            {"level": "w", "generators": [[]]},
            {"level": "w", "generators": [[0, 1]]},
            {"level": "w", "generators": [[0, 1], [1, 1]]},
        ],
    },
    "hk-approx.json": {
        "approx": {
            "level": "w+1",
            "table": {"[" + ",".join(map(str, s)) + "]": (sum(s) + len(s) // 2) % 2
                      for s in SEQS if len(s) <= 3},
        },
    },
}

COMMANDS = {
    "verify": ["verify", "--max-len", "4", "--alphabet", "2",
               "--levels", "0,1,w,w+1,w*2"],
    "hk-roundtrip": ["hk", "roundtrip", "--seed", "7", "--max-len", "3",
                     "--alphabet", "2", "--alpha", "w+1"],
    "wadge-eval": ["wadge", "eval", "--instance", "wadge.json"],
    "lsr-solve": ["lsr", "solve", "--instance", "solve.json"],
    "lsr-adversarial": ["lsr", "adversarial", "--instance", "adversarial.json"],
    "lsr-adversarial-t1": ["lsr", "adversarial", "--instance",
                           "adversarial-t1.json"],
    "jump": ["jump", "--max-len", "4", "--alphabet", "2"],
    "truestages": ["truestages", "--max-len", "3", "--alphabet", "2",
                   "--levels", "0,1,w,w+1"],
    "hk-convert-dsets": ["hk", "convert", "--instance", "hk-dsets.json"],
    "hk-convert-approx": ["hk", "convert", "--instance", "hk-approx.json"],
    "hk-convert-inf-w+1": ["hk", "convert", "--instance", "hk-dsets-inf.json",
                           "--eta", "w+1"],
    "hk-convert-inf-w*2": ["hk", "convert", "--instance", "hk-dsets-inf.json",
                           "--eta", "w*2"],
    "hk-convert-inf-w^2+1": ["hk", "convert", "--instance", "hk-dsets-inf.json",
                             "--eta", "w^2+1"],
    "wadge-decompose": ["wadge", "decompose", "--instance", "wadge.json"],
    "lsr-referee": ["lsr", "referee", "--instance", "mismatch.json"],
    "lsr-separator": ["lsr", "separator", "--instance", "mismatch.json",
                      "--depth", "3"],
    "lsr-separator-undetermined": ["lsr", "separator", "--instance",
                                   "undetermined.json"],
    "lsr-adversarial-undetermined": ["lsr", "adversarial", "--instance",
                                     "undetermined.json"],
}

# sha256 of (exit code, report bytes), per command and format.
DIGESTS = {
    ('hk-convert-approx', 'json'): "d5bc95ea2830b721e3f331ac13612d4adb3a569d7a07cbfb30b65881588d6c77",
    ('hk-convert-approx', 'text'): "3f4ea6259b52cb55067ea2566ac7f81b646150e95ab087270f8663bd4454bee3",
    ('hk-convert-dsets', 'json'): "457432cf5e190871ec0ce4c6f23f9a94774e38d8adced6f3b4ca916db810595d",
    ('hk-convert-dsets', 'text'): "d51aa4ca0170ead90b6f506974f289088688bdf307004734de0577473b0eb705",
    ('hk-convert-inf-w*2', 'json'): "31f4eb524d22c70d1763866a5cb10bd623aa611c2c3c3ef1cb4373d332bbf7cf",
    ('hk-convert-inf-w*2', 'text'): "cc6ac103a080f03031101e52059046314cb47d18f63784c3885cc6323aaf7ef7",
    ('hk-convert-inf-w+1', 'json'): "cff08ca35c5e89010c68cff30a5a6ca1e9593b3ffff36551eadd989ab0e6d3fe",
    ('hk-convert-inf-w+1', 'text'): "399babda7e1f82ef0d77a3937e72452c551ac7456e5e07e1a841a639119c9b73",
    ('hk-convert-inf-w^2+1', 'json'): "644da639538c5caf74ac4f74e5ee677f278f30f8b5e9709712fc585514194ee5",
    ('hk-convert-inf-w^2+1', 'text'): "3927c102b7a65832d3779b127c124a94e800a72959f73a0115d960401c2719bf",
    ('hk-roundtrip', 'json'): "777a72e75414317e999753ad47f7b6a89279233a553484fb91d93318238f78d5",
    ('hk-roundtrip', 'text'): "732327c7cf21fc76d87edc1494f8fc499796a2eff561aba3ed65bcf04a496535",
    ('jump', 'json'): "dfe01d35814fce1176575cf115d2187dc711ed601653a6b7759b70d265c45275",
    ('jump', 'text'): "8afc47b991adbf2f2f2eed8b36b35f48c0e361a63f98d4292a05000d14772762",
    ('lsr-adversarial', 'json'): "306a37e7a3b9b21a20bc6c3cc1587bec1647defdd7b7d7b0b39a7436ecfa6705",
    ('lsr-adversarial', 'text'): "4decfd5618f4fd7062d3963744c7e33482b8a16482086342379b710759504b25",
    ('lsr-adversarial-t1', 'json'): "da930537335b360ebc965fde0556f8b24d90c6dd685d6218eb56745c17661f8e",
    ('lsr-adversarial-t1', 'text'): "34474f3aedc862b3b8aa4e05376c31a8ebe1db7f1367b917300a2b463ce791b9",
    ('lsr-adversarial-undetermined', 'json'): "c5edf8207f8105cf006a087964b613732cb6403b281b5445ad2d2c5ed5b1cd08",
    ('lsr-adversarial-undetermined', 'text'): "6e19e22279d8d980034d92ad32d44933a0c3aa8b9e1dd090f6eeec2d8534cf4a",
    ('lsr-referee', 'json'): "57a4a6843a44f521fb5f069c754894433cd5dd77e845ad681d4bb3c10377c442",
    ('lsr-referee', 'text'): "6dcfa19cba9fda2bb637a502258091b45d52f5fb07358e22038456f93adbb0f9",
    ('lsr-separator', 'json'): "5fb5b855fda12ab4755c9e738d475bfdea98b94cec2b0970d5823757f04deb0f",
    ('lsr-separator', 'text'): "5fa0b88c8a0615303660ef4e0519b1e0749103c5cb9ea472d8169de8b8dd26ab",
    ('lsr-separator-undetermined', 'json'): "80a86959ed14cbb6ad91bb11cc17be17cc1e29a04c4f1d977ddc1c2f9cc93860",
    ('lsr-separator-undetermined', 'text'): "c11469b3b25cf052367564070d77e6a649c598eae6a2d0e200b2df389f6d5139",
    ('lsr-solve', 'json'): "a191d2215d8c12f41b4e0881f03f9553c7c969449b94dfdd538de01dfbb16c4d",
    ('lsr-solve', 'text'): "50caf899629948851ea90f481cda6e91c4586640a4bcba23fd5a25fb4b609f16",
    ('truestages', 'json'): "b013c5f657e13b93ab4fc2e1a8a7d7808de1871c502c24564a843ae98cbdcc19",
    ('truestages', 'text'): "e6b0788ab487bdbdfad86e1fd4c1c473a6c7789ead5235cd8e0879e11a81dd36",
    ('verify', 'json'): "147fa926238d9dfa66c30735ec2f08775d416e4ae0b82bf56dd733a37c4d2ed9",
    ('verify', 'text'): "53c1c9b2f5d740e17695952eb41d7cb23d86d1f4289003cc198a590faeb9135a",
    ('wadge-decompose', 'json'): "656ba2585a378a96ed4d9c85396a1d3eda11327aa76f067f1119ffb65d43ea95",
    ('wadge-decompose', 'text'): "1aa1ac956188c757992f83f37037d7d82ede76b4ba21a999a96a64635bf1f281",
    ('wadge-eval', 'json'): "c28a04f20ea8bce405e099f34a2c63ed7166dd61274ab050f30249cb27f1da76",
    ('wadge-eval', 'text'): "2a4040147fc2ab8ef0cdfaf1d390cb6813318ab218b3010946c20ab8425031b8",
}


def report_digest(name: str, fmt: str) -> str:
    """Run one command in the current directory; digest its exit code and
    report.  The instance files must already be there."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(COMMANDS[name] + ["--format", fmt])
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def write_instances(directory) -> None:
    for filename, data in INSTANCES.items():
        (directory / filename).write_text(json.dumps(data))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_pinned_digests(name, fmt, tmp_path, monkeypatch):
    write_instances(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert report_digest(name, fmt) == DIGESTS[name, fmt]
