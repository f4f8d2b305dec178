"""Report bytes pinned across commits.

The digests below were recorded from an earlier commit whose reports
are the reference; a refactor that keeps every report byte-identical
keeps them.  Instances are written to fixed relative paths and the CLI
runs from their directory, so the paths echoed in ``config`` are the
same on every machine.  A change that alters a report on purpose must
record the new digests and say why.
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
}

COMMANDS = {
    "verify": ["verify", "--max-len", "4", "--alphabet", "2",
               "--levels", "0,1,w,w+1,w*2"],
    "hk-roundtrip": ["hk", "roundtrip", "--seed", "7", "--max-len", "3",
                     "--alphabet", "2", "--alpha", "w+1"],
    "wadge-eval": ["wadge", "eval", "--instance", "wadge.json"],
    "lsr-solve": ["lsr", "solve", "--instance", "solve.json"],
    "lsr-adversarial": ["lsr", "adversarial", "--instance", "adversarial.json"],
}

# sha256 of (exit code, report bytes), per command and format.
DIGESTS = {
    ('hk-roundtrip', 'json'): "777a72e75414317e999753ad47f7b6a89279233a553484fb91d93318238f78d5",
    ('hk-roundtrip', 'text'): "732327c7cf21fc76d87edc1494f8fc499796a2eff561aba3ed65bcf04a496535",
    ('lsr-adversarial', 'json'): "306a37e7a3b9b21a20bc6c3cc1587bec1647defdd7b7d7b0b39a7436ecfa6705",
    ('lsr-adversarial', 'text'): "4decfd5618f4fd7062d3963744c7e33482b8a16482086342379b710759504b25",
    ('lsr-solve', 'json'): "a191d2215d8c12f41b4e0881f03f9553c7c969449b94dfdd538de01dfbb16c4d",
    ('lsr-solve', 'text'): "50caf899629948851ea90f481cda6e91c4586640a4bcba23fd5a25fb4b609f16",
    ('verify', 'json'): "147fa926238d9dfa66c30735ec2f08775d416e4ae0b82bf56dd733a37c4d2ed9",
    ('verify', 'text'): "53c1c9b2f5d740e17695952eb41d7cb23d86d1f4289003cc198a590faeb9135a",
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
