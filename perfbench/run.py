"""Benchmark for the truestages command line.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: a worker process sends
in-process ``truestages.cli.main`` jobs one after another, checks every
report against a reference computed from the generated inputs, and
hashes it for the byte-determinism check.  The package is imported from
``src`` of the checkout this file lives in; without it the benchmark
exits with status 2 and prints no result.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it sends a fixed job list untraced and then traced, and
reports per-layer counts and self times plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this
file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # set-ups per measured run; setup_s is their median
WORKER_TIMEOUT_S = 150
FAILURES_SHOWN = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- per-layer metrics -----------------------------------------------------

def _calls(name):
    return lambda t: t["stats"].get(name, [0, 0.0, 0.0])[0]


def _self(name):
    return lambda t: t["stats"].get(name, [0, 0.0, 0.0])[2]


def _incl(name):
    return lambda t: t["stats"].get(name, [0, 0.0, 0.0])[1]


def _layer(layer):
    return lambda t: t["layer_self_s"][layer]


def _counter(name):
    return lambda t: t["counters"].get(name, 0)


def _repeat_ratio(name):
    def ratio(t):
        calls = t["counters"].get(name + ".calls", 0)
        return t["counters"].get(name + ".repeats", 0) / calls if calls else 0.0
    return ratio


# (metric, unit, better, value from the traced run, in the JSON result).
# Times of layers that are idle on some workload read 0 there on every run;
# they are printed in the summary but kept out of the JSON result.
LAYER_METRICS = [
    ("ordinals.render.calls", "count", "lower", _calls("ordinals.render"), True),
    ("ordinals.render.self_s", "s", "lower", _self("ordinals.render"), True),
    ("ordinals.compare.calls", "count", "lower", _calls("ordinals.compare"), True),
    ("ordinals.fund_seq.calls", "count", "lower", _calls("ordinals.fund_seq"), True),
    ("ordinals.enum_copy.calls", "count", "lower", _calls("ordinals.enum_copy"), True),
    ("ordinals.self_s", "s", "lower", _layer("ordinals"), True),
    ("jump.trace.calls", "count", "lower", _calls("jump.trace"), True),
    ("jump.trace.self_s", "s", "lower", _self("jump.trace"), True),
    ("jump.enumerate_jump.self_s", "s", "lower", _self("jump.enumerate_jump"), True),
    ("jump.events", "count", "lower", _counter("jump.events"), True),
    ("jump.max_oracle_len", "count", "lower", _counter("jump.max_oracle_len"), True),
    ("jump.trace.repeat_ratio", "ratio", "lower", _repeat_ratio("jump.trace"), True),
    ("universe.all_seqs.calls", "count", "lower", _calls("universe.all_seqs"), True),
    ("universe.all_seqs.self_s", "s", "lower", _self("universe.all_seqs"), False),
    ("stages.leq.calls", "count", "lower", _calls("stages.leq"), True),
    ("stages.leq.self_s", "s", "lower", _self("stages.leq"), True),
    ("stages.leq.hit_ratio", "ratio", "higher", _repeat_ratio("stages.leq"), True),
    ("stages.trace_at.calls", "count", "lower", _calls("stages.trace_at"), True),
    ("stages.height.calls", "count", "lower", _calls("stages.height"), True),
    ("stages.chain.calls", "count", "lower", _calls("stages.chain"), True),
    ("stages.guess.calls", "count", "lower", _calls("stages.guess"), True),
    ("stages.ts_verify.s", "s", "lower", _incl("stages.ts_verify"), False),
    ("stages.self_s", "s", "lower", _layer("stages"), True),
    ("hierarchy.eval_at.calls", "count", "lower", _calls("hierarchy.eval_at"), True),
    ("hierarchy.eval_at.self_s", "s", "lower", _self("hierarchy.eval_at"), False),
    ("hierarchy.approx_to_witness.s", "s", "lower", _incl("hierarchy.approx_to_witness"), False),
    ("hierarchy.witness_to_dsets.s", "s", "lower", _incl("hierarchy.witness_to_dsets"), False),
    ("hierarchy.difference_value.s", "s", "lower", _incl("hierarchy.difference_value"), False),
    ("hierarchy.self_s", "s", "lower", _layer("hierarchy"), False),
    ("wadge.wadge_tree.s", "s", "lower", _incl("wadge.wadge_tree"), False),
    ("wadge.decomposition_eval.calls", "count", "lower", _calls("wadge.decomposition_eval"), True),
    ("wadge.decomposition_eval.s", "s", "lower", _incl("wadge.decomposition_eval"), False),
    ("wadge.self_s", "s", "lower", _layer("wadge"), False),
    ("game.referee.calls", "count", "lower", _calls("game.referee"), True),
    ("game.referee.self_s", "s", "lower", _self("game.referee"), False),
    ("game.referee.repeat_ratio", "ratio", "lower", _repeat_ratio("game.referee"), True),
    ("game.solve.s", "s", "lower", _incl("game.solve"), False),
    ("game.solve.referee_calls", "count", "lower", _counter("game.solve.referee_calls"), True),
    ("game.checker.is_correct.calls", "count", "lower", _calls("game.checker.is_correct"), True),
    ("game.checker.is_strongly_correct.calls", "count", "lower",
     _calls("game.checker.is_strongly_correct"), True),
    ("game.adversarial_play.s", "s", "lower", _incl("game.adversarial_play"), False),
    ("game.separator_evidence.s", "s", "lower", _incl("game.checker.separator_evidence"), False),
    ("game.self_s", "s", "lower", _layer("game"), False),
    ("cli.main.self_s", "s", "lower", _self("cli.main"), True),
    ("cli.report_bytes", "bytes", "lower", lambda t: t["report_bytes"], True),
    ("cli.exit_nonzero", "count", "lower", lambda t: t["exit_nonzero"], True),
    ("tracing.overhead", "ratio", "lower",
     lambda t: t["traced_s"] / t["untraced_s"], True),
]

END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


# -- running a worker ------------------------------------------------------

class WorkerError(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str):
    """Start one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, WORKER_TIMEOUT_S)
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{workload} worker failed with status {proc.returncode}")
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def run_timed(workload: str, seed: int, seconds: float, mode: str):
    """Run a worker; returns (set-up seconds at reference speed, raw set-up
    seconds, result).  The host-speed loop is timed just before the start."""
    loop = statistics.median(hostspeed.loop_seconds() for _ in range(3))
    setup, res = run_worker(workload, seed, seconds, mode)
    return hostspeed.scale(setup, loop), setup, res


def measure(workload: str, seed: int, seconds: float) -> dict:
    setups = [run_timed(workload, seed, seconds, "setup")[:2]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, raw_setup, res = run_timed(workload, seed, seconds, "measure")
    setups.append((setup, raw_setup))
    raw = res["latencies_s"]
    lat = hostspeed.scaled_times(raw, res["loops_s"])
    n = len(lat)
    return {
        "attempted": res["attempted"],
        "failures": res["failures"],
        "metrics": {
            "jobs_per_s": n / sum(lat),
            "job_p50_ms": 1000 * percentile(lat, 0.5),
            "job_p90_ms": 1000 * percentile(lat, 0.9),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        },
        "raw": {
            "jobs_per_s": n / res["wall_s"],
            "job_p50_ms": 1000 * percentile(raw, 0.5),
            "job_p90_ms": 1000 * percentile(raw, 0.9),
            "setup_s": statistics.median(r for _, r in setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        },
        "counts": {
            "jobs_per_s": f"{n} jobs in {res['wall_s']:.2f} s",
            "job_p50_ms": f"{n} jobs",
            "job_p90_ms": f"{n} jobs, {n - math.ceil(0.9 * n)} above",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "1 process",
        },
        "host_speed": hostspeed.REFERENCE_S / statistics.median(res["loops_s"]),
        "passes": len(lat) / res["pool"],
        "pool": res["pool"],
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    _, res = run_worker(workload, seed, seconds, "trace")
    values = {name: fn(res) for name, _, _, fn, _ in LAYER_METRICS}
    return {
        "attempted": res["attempted"],
        "failures": res["failures"],
        "metrics": values,
        "trace": res,
    }


# -- printing ----------------------------------------------------------------

def print_measured(workload: str, out: dict) -> None:
    attempted, failed = out["attempted"], len(out["failures"])
    print(f"[{workload}] end-to-end, closed loop, 1 client; host speed "
          f"x{out['host_speed']:.3f} of the reference")
    print(f"  {'metric':<14} {'reference':>12} {'measured':>12}")
    units = dict(END_TO_END)
    for name, value in out["metrics"].items():
        print(f"  {name:<14} {value:>12.4f} {out['raw'][name]:>12.4f} {units[name]:<7} "
              f"({out['counts'][name]})")
    print(f"  {'failed_ratio':<14} {failed / attempted:>12.4f} {'ratio':<7} "
          f"({failed} of {attempted} jobs)")
    print(f"  {out['passes']:.2f} passes over a pool of {out['pool']} jobs")


def print_traced(workload: str, out: dict) -> None:
    res = out["trace"]
    print(f"[{workload}] traced: {res['jobs']} jobs, untraced {res['untraced_s']:.2f} s, "
          f"traced {res['traced_s']:.2f} s at reference speed, "
          f"overhead x{out['metrics']['tracing.overhead']:.2f}")
    print(f"  spans: {res['spans_seen']} recorded, {res['spans_written']} written to "
          f"{res['spans_path']}")
    units = {name: unit for name, unit, _, _, _ in LAYER_METRICS}
    for name, value in out["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print_shares([(workload, res["layer_self_s"])])


def print_shares(rows) -> None:
    print("  self-time share by layer")
    print("  " + f"{'workload':<12}" + "".join(f"{layer:>10}" for layer in tracer.LAYERS))
    for workload, layer_self in rows:
        total = sum(layer_self.values()) or 1.0
        print("  " + f"{workload:<12}" + "".join(
            f"{100 * layer_self[layer] / total:>9.1f}%" for layer in tracer.LAYERS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "truestages", "cli.py")):
        print(f"error: no truestages sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for name in names:
            if args.trace:
                outs[name] = trace(name, args.seed, args.seconds)
                print_traced(name, outs[name])
            else:
                outs[name] = measure(name, args.seed, args.seconds)
                print_measured(name, outs[name])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace and len(names) > 1:
        print_shares([(name, out["trace"]["layer_self_s"]) for name, out in outs.items()])
    failures = [f for out in outs.values() for f in out["failures"]]
    for line in failures[:FAILURES_SHOWN]:
        print(f"  failed: {line}")
    if args.trace:
        units = {name: unit for name, unit, _, _, shown in LAYER_METRICS if shown}
    else:
        units = dict(END_TO_END)
    metrics = {}
    for name, out in outs.items():
        for metric, value in out["metrics"].items():
            if metric in units:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(out["attempted"] for out in outs.values()),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
