"""Reference checks for job reports.

Every expectation is derived from the job's own inputs: closed-form
check counts for the verifier, the prefix patterns the generator drew
for decomposition trees, the game length for the solver.  None of it
is computed by the package under test.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

from workloads import Job

_COMMANDS = {
    "verify": "verify",
    "hk": "hk roundtrip",
    "wadge": "wadge eval",
    "solve": "lsr solve",
    "adversarial": "lsr adversarial",
}


def universe_counts(max_len: int, alphabet: int) -> tuple[int, int]:
    """(N, P): the number of sequences up to max_len, and the number of
    (prefix, sequence) pairs, counting each sequence as its own prefix."""
    n = sum(alphabet ** i for i in range(max_len + 1))
    p = sum(alphabet ** i * (i + 1) for i in range(max_len + 1))
    return n, p


def check_report(job: Job, exit_code: int, output: str) -> Optional[str]:
    """None when the report is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("command") != _COMMANDS[job.kind]:
        return f"command {report.get('command')!r} in the report"
    if report.get("failures"):
        return f"{len(report['failures'])} failures listed"
    results = report.get("results")
    if not isinstance(results, list):
        return "no results list"
    return _CHECKS[job.kind](job.expect, results)


def _check_verify(expect: dict, results: list) -> Optional[str]:
    by_name = {r["property"]: r for r in results}
    failing = [name for name, r in by_name.items() if not r["passed"]]
    if failing:
        return f"properties failed: {failing}"
    m = expect["levels"]
    n, p = universe_counts(expect["maxLen"], expect["alphabet"])
    want = {"TS1": m * n * n, "TS5": (m - 1) * p}
    for name, count in want.items():
        got = by_name.get(name, {}).get("checked")
        if got != count:
            return f"{name} checked {got}, expected {count}"
    return None


def _check_hk(expect: dict, results: list) -> Optional[str]:
    if [r.get("run") for r in results] != list(range(expect["runs"])):
        return f"{len(results)} runs reported, expected {expect['runs']}"
    bad = [r["run"] for r in results if r.get("mismatches") != 0]
    if bad:
        return f"mismatches in runs {bad}"
    return None


def _check_wadge(expect: dict, results: list) -> Optional[str]:
    depth = expect["depth"]
    chosen = {tuple(p) for p in expect["chosen"]}
    maximal = list(itertools.product(range(expect["alphabet"]), repeat=expect["maxLen"]))
    want = [
        {"x": "[" + ",".join(map(str, x)) + "]", "value": int(x[:depth] in chosen)}
        for x in maximal
    ]
    if len(results) != len(want):
        return f"{len(results)} values, expected {len(want)}"
    for got, ref in zip(results, want):
        if got != ref:
            return f"value {got} where {ref} was expected"
    return None


def _check_solve(expect: dict, results: list) -> Optional[str]:
    if len(results) != 1:
        return f"{len(results)} results"
    r = results[0]
    if r.get("status") != "IWins" or r.get("byTurn") != expect["byTurn"]:
        return (f"status {r.get('status')} byTurn {r.get('byTurn')}, "
                f"expected IWins by {expect['byTurn']}")
    return None


def _check_adversarial(expect: dict, results: list) -> Optional[str]:
    if len(results) != 1:
        return f"{len(results)} results"
    r = results[0]
    steps = r.get("steps", [])
    if r.get("outcome") != "ReachedDepth" or len(steps) != expect["steps"]:
        return (f"outcome {r.get('outcome')} after {len(steps)} steps, "
                f"expected ReachedDepth after {expect['steps']}")
    for step in steps:
        if not (step["stronglyCorrect"] and step["witnessSetMatches"]):
            return f"step {step['index']} is not strongly correct with a matching witness set"
    if not all(step["appendedMatches"] for step in steps[1:]):
        return "an appended entry does not match"
    return None


_CHECKS = {
    "verify": _check_verify,
    "hk": _check_hk,
    "wadge": _check_wadge,
    "solve": _check_solve,
    "adversarial": _check_adversarial,
}
