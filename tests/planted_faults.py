"""Planted faults: does the tier-1 suite catch each one?

Run from the repository root, for every fault or for the named ones:

    python tests/planted_faults.py [NAME ...]

Each fault is one textual edit to one file of the package.  For each,
the script copies src, tests, README.md and pyproject.toml into a fresh
temporary directory and applies the edit there.  It runs the fault's
named catcher alone first; when no catcher is named, or the named one
passes, it runs the tier-1 suite with -x, so a caught fault stops at its
first failing test.  Progress goes to stderr; stdout gets a markdown
table of every fault, the test that should catch it, whether that test
failed and the test that caught it, and then the faults that survived.
The exit status is 0 whatever survives, and 2 when a fault's
text is no longer found exactly once in its file, so that a stale list
shows.  The name does not match test_*.py, so pytest does not collect
this file.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
TIMEOUT_S = 900  # a fault that makes the suite hang counts as caught


@dataclasses.dataclass(frozen=True)
class Fault:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    catcher: Optional[str]  # the test that should fail; None when none can
    note: str = ""


FAULTS = [
    Fault("suffix-minimum-strict", "src/truestages/stages.py",
          "if floor is None or p <= floor:", "if floor is None or p < floor:",
          "tests/test_acceptance.py::test_criterion_01_verification_suite"),
    Fault("segment-bound-off-by-one", "src/truestages/stages.py",
          "n = bisect_left(ordered, bound)", "n = bisect_left(ordered, bound + 1)",
          "tests/test_cli.py::test_exit_one_when_a_check_fails"),
    Fault("last-code-off-by-one", "src/truestages/jump.py",
          "return cantor_pair(i, sum([part.count(i) for part in parts]) - 1)",
          "return cantor_pair(i, sum([part.count(i) for part in parts]))",
          "tests/test_jump.py::test_last_code_is_the_p_of_the_checked_trace"),
    Fault("ts9-window-1", "src/truestages/stages.py",
          "_TS9_WINDOW = 4", "_TS9_WINDOW = 1",
          "tests/test_stages.py::test_verify_work_counts_are_pinned",
          "only the pinned work counts see it: no verdict changes"),
    Fault("solver-cut-one-round-early", "src/truestages/game.py",
          "if bar == n + 1:", "if bar == n:",
          "tests/test_game.py::test_solve_node_count_is_pinned"),
    Fault("successor-correctness-always-true", "src/truestages/game.py",
          "return self.sys.chain(xs, alpha) == self.sys.chain(xs, beta)", "return True",
          "tests/test_game.py::test_checker_matches_straight_line_reference"),
    Fault("leq-drops-the-stage-itself", "src/truestages/stages.py",
          "tuple(sigma) in self._memo[TrueStageSystem._chain, tuple(tau), alpha]",
          "tuple(sigma) in self._memo[TrueStageSystem._chain, tuple(tau), alpha][:-1]",
          "tests/test_stages.py::test_relations_match_the_reference"),
    Fault("difference-value-largest-index", "src/truestages/hierarchy.py",
          "for nu, u in family.ascending:", "for nu, u in family.sets:",
          "tests/test_hierarchy.py::test_difference_value_is_the_least_index_on_random_families",
          "copy order is notation order for a finite eta, so only a family over w+k sees it"),
    Fault("witness-steps-skip-law-ii", "src/truestages/hierarchy.py",
          "if not (ot > os or (f[sigma] != f[tau] and ot >= os) or sigma in failed):",
          "if not (ot > os or sigma in failed):",
          "tests/test_hierarchy.py::test_witness_laws_list_every_violation_in_pair_order"),
    Fault("witness-walk-forgets-failed-step", "src/truestages/hierarchy.py",
          "(f[sigma] != f[tau] and ot >= os) or sigma in failed):",
          "(f[sigma] != f[tau] and ot >= os)):",
          "tests/test_hierarchy.py::test_a_failed_step_is_walked_from_every_stage_above_it"),
    Fault("grade-ignores-x-opinion", "src/truestages/game.py",
          "if rho and (not in_w or eval_at(sys, g.w, rho))", "if rho",
          "tests/test_acceptance.py::test_criterion_06_referee_matches_transcription"),
    Fault("oracle-drops-first-segment", "src/truestages/stages.py",
          "for rho in memo[TrueStageSystem._chain, tuple(sigma), alpha][1:]:",
          "for rho in memo[TrueStageSystem._chain, tuple(sigma), alpha][2:]:",
          "tests/test_cli.py::test_exit_one_when_a_check_fails"),
    Fault("wadge-separator-one-level-up", "src/truestages/wadge.py",
          "level = fund_seq(lam, k + 1)", "level = fund_seq(lam, k + 2)",
          "tests/test_golden.py::test_report_bytes_match_pinned_digests"),
    Fault("zero-correct-without-parent-check", "src/truestages/game.py",
          "        if not self._memo[CorrectnessChecker._is_correct, sigma[:-1], ZERO]:\n"
          "            return False\n", "",
          "tests/test_game.py::test_checker_matches_reference_on_random_games"),
    Fault("checker-skips-y-check", "src/truestages/game.py",
          "        if len(self.y) < len(sigma):\n"
          "            raise ValueError(f\"need {len(sigma)} values of y, got {len(self.y)}\")\n",
          "", "tests/test_game.py::test_correctness_needs_enough_y"),
    Fault("extension-room-one-short", "src/truestages/game.py",
          "room = min(search_bound - 1, len(self.y) - len(sigma))",
          "room = min(search_bound - 2, len(self.y) - len(sigma))",
          "tests/test_game.py::test_extend_search_bound_edge"),
    Fault("extend-level-zero-shortcut", "src/truestages/game.py",
          "            raise ValueError(\"sigma is not 0-correct\")\n",
          "            raise ValueError(\"sigma is not 0-correct\")\n"
          "        if classify(alpha).kind == \"zero\":\n"
          "            return sigma\n",
          "tests/test_game.py::test_extend_at_level_zero_returns_sigma"),
    Fault("limit-chain-index-plus-one", "src/truestages/stages.py",
          "fund_seq(alpha, self.height(rho, alpha))]",
          "fund_seq(alpha, self.height(rho, alpha) + 1)]",
          "tests/test_cli.py::test_roundtrip_memo_entries_are_pinned",
          "only the pinned memo entries see it: TS9 makes the index immaterial to every verdict"),
    Fault("trace-key-drops-last-part", "src/truestages/stages.py",
          'key = pack(f"{len(parts)}Q", *map(id, parts))',
          'key = pack(f"{len(parts) - 1}Q", *map(id, parts[:-1]))',
          "tests/test_stages.py::test_a_trace_is_the_operator_trace_of_its_oracle"),
    Fault("segment-interned-by-fingerprint", "src/truestages/stages.py",
          "if other == segment:", "if other[:2] == segment[:2]:",
          "tests/test_stages.py::test_a_memoised_segment_is_the_cut_of_its_trace"),
    Fault("memo-miss-skips-reread", "src/truestages/stages.py",
          "hit = self.get(key)", "hit = None",
          "tests/test_sharing.py::test_racing_misses_fill_each_entry_once"),
    Fault("wadge-stall-is-internal", "src/truestages/wadge.py",
          'raise InputError(\n            f"undecided stage',
          'raise ValueError(\n            f"undecided stage',
          "tests/test_cli.py::test_non_natural_x_entries_exit_two[decompose-stall]"),
    Fault("approx-stage-named-twice", "src/truestages/cli.py",
          "        if stage in keys:\n"
          "            raise InputError(f\"approx.table names the stage {seq_str(stage)} twice\")\n",
          "", "tests/test_cli.py::test_entries_outside_the_alphabet_exit_two[convert-key-twice]"),
    Fault("report-keys-unsorted", "src/truestages/cli.py",
          "for key, item in sorted(value.items()):", "for key, item in value.items():",
          "tests/test_cli.py::test_report_writer_matches_json_dumps"),
    Fault("report-strings-not-ascii-escaped", "src/truestages/cli.py",
          "from json.encoder import encode_basestring_ascii as _escape",
          "from json.encoder import encode_basestring as _escape",
          "tests/test_cli.py::test_report_writer_matches_json_dumps"),
]


def stale(fault: Fault) -> bool:
    """Whether the fault's text is not found exactly once in its file."""
    return (ROOT / fault.path).read_text(encoding="utf-8").count(fault.old) != 1


def plant(fault: Fault, where: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, where / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, where / name)
    if stale(fault):
        raise LookupError(f"{fault.name}: {fault.old!r} is not found exactly once "
                          f"in {fault.path}")
    target = where / fault.path
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(fault.old, fault.new), encoding="utf-8")


def run_tests(where: Path, *selection: str) -> Optional[str]:
    """The first failing test's id, "timeout", or None when all pass;
    the whole suite when no tests are selected.  tests/test_fault_list.py
    is left out: in a planted copy the fault's text is gone by design, so
    that file would catch every fault."""
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--ignore=tests/test_fault_list.py",
            *selection]
    try:
        proc = subprocess.run(argv, cwd=where, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return f"exit {proc.returncode}"


def main(names: list[str]) -> int:
    chosen = [f for f in FAULTS if not names or f.name in names]
    unknown = set(names) - {f.name for f in FAULTS}
    if unknown:
        print(f"unknown faults: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    rows = []
    for fault in chosen:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="planted-") as tmp:
            try:
                plant(fault, Path(tmp))
            except LookupError as exc:
                print(f"stale fault list: {exc}", file=sys.stderr)
                return 2
            caught = run_tests(Path(tmp), fault.catcher) if fault.catcher else None
            named = "(none)" if not fault.catcher else "yes" if caught else "**no**"
            if caught is None:
                caught = run_tests(Path(tmp))
        print(f"{fault.name}: {caught or 'SURVIVED'} ({time.perf_counter() - start:.0f} s)",
              file=sys.stderr)
        rows.append((fault, named, caught))
    print("| planted fault | should be caught by | named catcher failed | caught by |")
    print("| --- | --- | --- | --- |")
    for fault, named, caught in rows:
        print(f"| `{fault.name}` | {fault.catcher or '(none)'} | {named} "
              f"| {caught or '**survived**'} |")
    survivors = [(f, c) for f, _, c in rows if c is None]
    print()
    print(f"{len(survivors)} of {len(rows)} planted faults survived"
          + (":" if survivors else "."))
    for fault, _ in survivors:
        print(f"- `{fault.name}` in {fault.path}" + (f": {fault.note}" if fault.note else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
