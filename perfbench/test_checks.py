"""Self-tests for the benchmark's reference checks and its JSON contract.

    python3 -m pytest -q perfbench/test_checks.py

Each test starts from a report that passes its check, mutates one field
the way a broken program would, and requires the check to reject it.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _first(workload: str, kind: str) -> workloads.Job:
    return next(j for j in workloads.make_jobs(workload, 3, 16, "in") if j.kind == kind)


def _report(command: str, results: list) -> dict:
    return {"command": command, "config": {}, "results": results, "failures": []}


def _verify_report(job):
    m = job.expect["levels"]
    n, p = checks.universe_counts(4, 2)
    counts = {"TS1": m * n * n, "TS2": 1, "TS5": (m - 1) * p}
    return _report("verify", [
        {"property": name, "passed": True, "checked": c, "failures": 0}
        for name, c in counts.items()
    ])


def _wadge_report(job):
    e = job.expect
    chosen = {tuple(p) for p in e["chosen"]}
    return _report("wadge eval", [
        {"x": "[" + ",".join(map(str, x)) + "]", "value": int(x[:e["depth"]] in chosen)}
        for x in itertools.product(range(e["alphabet"]), repeat=e["maxLen"])
    ])


def _adversarial_report(job):
    n = job.expect["steps"]
    return _report("lsr adversarial", [{
        "mode": "T0", "outcome": "ReachedDepth", "failedExtension": None,
        "steps": [
            {"index": i, "sigma": [0] * i, "stronglyCorrect": True,
             "appendedMatches": None if i == 0 else True,
             "witnessSetMatches": True, "witnessConsistent": None}
            for i in range(n)
        ],
    }])


CASES = {
    "verify": ("verify-deep", _verify_report, [
        lambda r: r["results"][0].update(checked=r["results"][0]["checked"] - 1),
        lambda r: r["results"][2].update(checked=r["results"][2]["checked"] + 1),
        lambda r: r["results"][1].update(passed=False),
        lambda r: r.update(failures=[{"property": "TS1"}]),
    ]),
    "hk": ("hk-wadge", lambda job: _report("hk roundtrip", [
        {"run": i, "eta": "1", "checked": 4, "mismatches": 0} for i in range(20)
    ]), [
        lambda r: r["results"][7].update(mismatches=1),
        lambda r: r["results"].pop(),
    ]),
    "wadge": ("hk-wadge", _wadge_report, [
        lambda r: r["results"][0].update(value=1 - r["results"][0]["value"]),
        lambda r: r["results"].pop(),
        lambda r: r.update(command="wadge decompose"),
    ]),
    "solve": ("game", lambda job: _report("lsr solve", [
        {"status": "IWins", "byTurn": job.expect["byTurn"], "strategy": {}}
    ]), [
        lambda r: r["results"][0].update(byTurn=r["results"][0]["byTurn"] - 1),
        lambda r: r["results"][0].update(status="Undetermined", byTurn=None),
    ]),
    "adversarial": ("game", _adversarial_report, [
        lambda r: r["results"][0].update(outcome="BoundExhausted"),
        lambda r: r["results"][0]["steps"].pop(),
        lambda r: r["results"][0]["steps"][2].update(stronglyCorrect=False),
        lambda r: r["results"][0]["steps"][1].update(witnessSetMatches=False),
        lambda r: r["results"][0]["steps"][3].update(appendedMatches=False),
    ]),
}


def test_mutated_reports_fail_their_check():
    for kind, (workload, build, mutations) in CASES.items():
        job = _first(workload, kind)
        good = build(job)
        assert checks.check_report(job, 0, json.dumps(good)) is None, kind
        assert checks.check_report(job, 1, json.dumps(good)) is not None, kind
        assert checks.check_report(job, 0, "not json") is not None, kind
        for mutate in mutations:
            bad = copy.deepcopy(good)
            mutate(bad)
            assert checks.check_report(job, 0, json.dumps(bad)) is not None, (kind, bad)


def test_inputs_depend_on_the_seed_alone():
    for workload in workloads.WORKLOADS:
        a = workloads.make_jobs(workload, 5, 40, "in")
        assert a == workloads.make_jobs(workload, 5, 40, "in")
        assert a != workloads.make_jobs(workload, 6, 40, "in")


def test_every_shape_appears_once_per_block():
    jobs = workloads.make_jobs("game", 1, 32, "in")
    solves = {j.shape for j in jobs if j.kind == "solve" and j.shape.startswith("k=3")}
    assert len(solves) == 12


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    emitted = [(name, unit, better) for name, unit, better, _, shown in run.LAYER_METRICS
               if shown]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == emitted


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
