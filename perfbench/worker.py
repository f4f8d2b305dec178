"""One workload in one process: a closed loop of in-process CLI jobs.

Started by run.py with the checkout root as working directory.  The
worker imports the package from the checkout's ``src``, generates the
workload's inputs from the seed, writes the instance files, and prints
``READY`` once set up; run.py times set-up up to that line.  In a
measured run it then cycles through the job pool, one job after
another, until the time is up, and prints one JSON line with per-job latencies and failures.  In a
traced run it sends a fixed job list twice, untraced and traced, and
prints the per-layer counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import checks
import hostspeed
import tracer as tracing
import workloads

OUT_DIR = ".perfbench"
# Whole blocks of every stream (see workloads.py), so each pass over the
# pool sends the same mix of shapes.
POOL_JOBS = 96  # the measured loop cycles through this many jobs
TRACE_JOBS = 48  # a traced run sends the first this many, untraced and then traced


def _emit(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from truestages import cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if where != os.path.abspath(src):
        raise SystemExit(f"truestages was imported from {where}, not from {src}")
    return cli


class Runner:
    """Runs jobs through cli.main and checks each report."""

    def __init__(self, cli, digests: dict):
        self.cli = cli
        self.digests = digests  # job_key -> sha256 of its report
        self.attempted = 0
        self.failures: list[str] = []
        self.report_bytes = 0
        self.exit_nonzero = 0

    def run(self, job: workloads.Job) -> float:
        """Run one job; returns its time to a verdict in seconds."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
        except Exception:  # a crash is a failed job; the loop goes on
            took = time.perf_counter() - start
            last = traceback.format_exc().strip().splitlines()[-1]
            self.failures.append(f"job {job.index} ({job.shape}): raised {last}")
            return took
        took = time.perf_counter() - start
        report = out.getvalue()
        self.report_bytes += len(report.encode())
        if code != 0:
            self.exit_nonzero += 1
        reason = checks.check_report(job, code, report)
        if reason is None:
            digest = hashlib.sha256(report.encode()).hexdigest()
            known = self.digests.setdefault(job_key(job), digest)
            if known != digest:
                reason = "report bytes differ from an earlier run of the same job"
        if reason is not None:
            detail = err.getvalue().strip().splitlines()
            self.failures.append(f"job {job.index} ({job.shape}): {reason}"
                                 + (f" [{detail[-1]}]" if detail else ""))
        return took


def job_key(job: workloads.Job) -> str:
    """Digest of a job's flags and instance: equal keys must give equal reports."""
    text = json.dumps([job.argv, job.instance], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def write_inputs(jobs, inputs: str) -> None:
    os.makedirs(inputs, exist_ok=True)
    for job in jobs:
        if job.instance is not None:
            with open(f"{inputs}/job{job.index:05d}.json", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(job.instance))


def measured_loop(runner: Runner, jobs, seconds: float) -> dict:
    """Cycle through the jobs until the time is up, timing the host-speed
    loop before the first job and after every job."""
    latencies = []
    loops = [hostspeed.loop_seconds()]
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        latencies.append(runner.run(jobs[i % len(jobs)]))
        loops.append(hostspeed.loop_seconds())
        i += 1
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "loops_s": loops,
        "pool": len(jobs),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _leq_key(tr, args):
    self, sigma, tau, alpha = args
    tr.repeat("stages.leq", (id(self), tuple(sigma), tuple(tau), alpha))


def _trace_pre(tr, args):
    sigma = tuple(args[1])
    tr.repeat("jump.trace", sigma)
    tr.counters["jump.max_oracle_len"] = max(tr.counters.get("jump.max_oracle_len", 0),
                                             len(sigma))


def _trace_post(tr, args, result):
    tr.count("jump.events", len(result.events))


def _referee_pre(tr, args):
    _, game, play = args
    tr.repeat("game.referee", (id(game), play.xs, play.yzs))
    if tr.stats["game.solve"].active:
        tr.count("game.solve.referee_calls")


HOOKS = {
    "stages.leq": (_leq_key, None),
    "jump.trace": (_trace_pre, _trace_post),
    "game.referee": (_referee_pre, None),
}


def _timed_pass(runner: Runner, jobs, tr=None) -> float:
    """Run every job once; returns the summed job time at reference host
    speed, so that host drift between passes does not skew their ratio."""
    times, loops = [], [hostspeed.loop_seconds()]
    for job in jobs:
        if tr is not None:
            tr.start_job(job.index)
        times.append(runner.run(job))
        loops.append(hostspeed.loop_seconds())
    return sum(hostspeed.scaled_times(times, loops))


def traced_runs(cli, runner: Runner, jobs, spans_path: str) -> dict:
    untraced = _timed_pass(runner, jobs)
    bytes_untraced, nonzero_untraced = runner.report_bytes, runner.exit_nonzero

    from truestages import game, hierarchy, jump, ordinals, stages, universe, wadge

    modules = {"ordinals": ordinals, "jump": jump, "universe": universe, "stages": stages,
               "hierarchy": hierarchy, "wadge": wadge, "game": game, "cli": cli}
    tr = tracing.Tracer()
    tr.install(modules, HOOKS)
    try:
        traced = _timed_pass(runner, jobs, tr)
    finally:
        tr.uninstall()
    written = tr.write_spans(spans_path)
    stats = {name: [s.calls, s.incl, s.self_s] for name, s in tr.stats.items()}
    return {
        "jobs": len(jobs),
        "untraced_s": untraced,
        "traced_s": traced,
        "stats": stats,
        "counters": tr.counters,
        "layer_self_s": tr.layer_self(),
        "report_bytes": runner.report_bytes - bytes_untraced,
        "exit_nonzero": runner.exit_nonzero - nonzero_untraced,
        "spans_seen": tr.spans_seen,
        "spans_written": written,
        "spans_path": spans_path,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = ap.parse_args()
    root = os.getcwd()

    cli = import_package(root)
    tag = f"{args.workload}-seed{args.seed}"
    inputs = f"{OUT_DIR}/inputs/{tag}"
    count = TRACE_JOBS if args.mode == "trace" else POOL_JOBS
    jobs = workloads.make_jobs(args.workload, args.seed, count, inputs)
    write_inputs(jobs, inputs)
    _emit("READY")
    if args.mode == "setup":
        shutil.rmtree(inputs, ignore_errors=True)
        return 0

    digest_path = f"{OUT_DIR}/digests/{tag}.json"
    os.makedirs(os.path.dirname(digest_path), exist_ok=True)
    try:
        with open(digest_path, encoding="utf-8") as fh:
            digests = json.load(fh)
    except FileNotFoundError:
        digests = {}
    runner = Runner(cli, digests)
    try:
        if args.mode == "measure":
            result = measured_loop(runner, jobs, args.seconds)
        else:
            os.makedirs(f"{OUT_DIR}/spans", exist_ok=True)
            result = traced_runs(cli, runner, jobs, f"{OUT_DIR}/spans/{tag}.tsv")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(digest_path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True)
    result.update(attempted=runner.attempted, failures=runner.failures)
    _emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
