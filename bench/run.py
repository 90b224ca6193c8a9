"""Layered benchmark for the choiceless-lab command line.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One closed-loop client: a worker process imports the
package, answers a fixed warm-up request, then sends the workload's
seeded request list through ``cli.dispatch``, pass after pass.  The
number of passes is ``--seconds`` over the workload's nominal pass time,
so two versions of the program compared at one setting do the same work.
Every verdict is checked against an answer the benchmark fixed before
timing.  Times are restated at a reference host speed (see ``speed.py``);
the wall-clock figures are in the report.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass in fresh workers and prints the per-layer
metrics.  The second-to-last line of output is a full report; the last
line is the summary ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers
import spans
import workloads
from speed import at_reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(BENCH, "worker.py")

# set-ups per untraced run, half of the extra ones before the timed worker
# and half after it, so they sample the host at two times; setup_s is
# their median
SETUPS = 7
# a run must end within 180 s; everything it starts is stopped by then
RUN_BUDGET_S = 170.0
# the timed loop stops after a pass that ends past this many times --seconds
CAP_FACTOR = 4

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong verdict)."""


def _launch(job: dict, workdir: str, tag: str, deadline: float):
    """Run one worker to completion; returns (set-up seconds, result)."""
    job = dict(job, result_path=os.path.join(workdir, f"result-{tag}.json"))
    job_path = os.path.join(workdir, f"job-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, WORKER, job_path], stdout=subprocess.PIPE, text=True, cwd=ROOT
    ) as proc:
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - started
            proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {tag} failed (exit {code}, said {ready.strip()!r})")
    with open(job["result_path"], encoding="utf-8") as handle:
        return setup, json.load(handle)


def _job(plan: workloads.Plan, passes: int, cap_seconds: float = 0.0, traced=False, trace_path=None) -> dict:
    """A worker job; the power.bgs X tables are read back only by workers
    that time untraced passes."""
    checks = plan.x_checks if passes and not traced else []
    return {
        "src": SRC,
        "passes": passes,
        "cap_seconds": cap_seconds,
        "traced": traced,
        "trace_path": trace_path,
        "warmup": plan.warmup.argv,
        "requests": [r.argv for r in plan.requests],
        "labels": ["warmup"] + [f"{r.command} {r.family}/{r.size}" for r in plan.requests],
        "x_checks": [[program, path, idx] for _, program, path, idx, _ in checks],
    }


def _is_correct(request: workloads.Request, record) -> bool:
    _, code, payload = record[:3]
    return code == 0 and all(payload.get(k) == v for k, v in request.expect.items())


class _Tally:
    """Checks records against the plan and counts error kinds per command."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.errors: dict = {}  # command -> kind -> count
        self.problems: list = []  # harness-level checks that failed

    def _error(self, command: str, kind: str):
        kinds = self.errors.setdefault(command, {})
        kinds[kind] = kinds.get(kind, 0) + 1

    def warmup(self, record):
        if not _is_correct(self.plan.warmup, record):
            self.problems.append(f"warm-up answered {record[1]} {record[2]!r}")

    def records(self, records) -> int:
        """Tally timed records; returns the number answered correctly."""
        good = 0
        for record in records:
            request = self.plan.requests[record[0] - 1]
            self.attempted += 1
            if _is_correct(request, record):
                good += 1
                continue
            self.failed += 1
            if record[1] != 0:
                self._error(request.command, record[2].get("kind", "unknown"))
            else:
                self._error(request.command, "wrong-verdict")
        return good

    def x_tables(self, tables):
        for (index, _, _, _, expected), got in zip(self.plan.x_checks, tables, strict=True):
            if got != expected:
                self.problems.append(f"power.bgs X table of request {index + 1} differs from the mod-2 power")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _latency_summary(latencies) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it (nearest rank): the eleventh-largest sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 10:
        tail, percentile, beyond = ordered[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, percentile, beyond = ordered[-1], 100.0, 0
    return {
        "p50_s": statistics.median(ordered),
        "tail_s": tail,
        "tail_percentile": percentile,
        "samples": n,
        "samples_beyond_tail": beyond,
    }


def _at_reference(records) -> list:
    """Each record's latency restated at the reference speed."""
    return [at_reference(latency, before, after) for _, _, _, latency, before, after in records]


def _by_family(plan, records) -> dict:
    out: dict = {}
    for record in records:
        request = plan.requests[record[0] - 1]
        out.setdefault(f"{request.family}/{request.size}", []).append(record[3])
    return {key: statistics.median(values) for key, values in sorted(out.items())}


def timed_run(plan, passes: int, cap_seconds: float, setups: int, workdir: str, deadline: float):
    tally = _Tally(plan)
    setup_times = []  # (wall seconds, at the reference speed)

    def launch(job, tag):
        setup, result = _launch(job, workdir, tag, deadline)
        setup_times.append((setup, at_reference(setup, *result["setup_reference"])))
        tally.warmup(result["warmup"])
        return result

    for k in range(setups // 2):
        launch(_job(plan, 0), f"setup{k}")
    result = launch(_job(plan, passes, cap_seconds), "timed")
    for k in range(setups // 2, setups - 1):
        launch(_job(plan, 0), f"setup{k}")
    records = result["records"]
    good = tally.records(records)
    tally.x_tables(result["x_tables"])
    latencies = _at_reference(records)
    latency = _latency_summary(latencies)
    metrics = {
        "verdicts_per_s": good / sum(latencies),
        "latency_p50_s": latency["p50_s"],
        "latency_tail_s": latency["tail_s"],
        "setup_s": statistics.median(s for _, s in setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    report = {
        "passes": len(result["pass_walls"]),
        "requests_per_pass": len(plan.requests),
        "loop_wall_s": result["loop_wall"],
        "pass_walls_s": result["pass_walls"],
        "error_rate": tally.failed / tally.attempted,
        "errors_by_command": tally.errors,
        "latency": latency,
        "wall": dict(
            _latency_summary([r[3] for r in records]),
            verdicts_per_s=good / result["loop_wall"],
            setup_s=statistics.median(w for w, _ in setup_times),
        ),
        "setup_runs_s": setup_times,
        "median_latency_by_family_s": _by_family(plan, records),
    }
    return tally, metrics, END_TO_END_UNITS, report


def traced_run(plan, workdir: str, deadline: float, trace_path: str):
    tally = _Tally(plan)
    _, plain = _launch(_job(plan, 1), workdir, "untraced", deadline)
    _, traced = _launch(_job(plan, 1, traced=True, trace_path=trace_path), workdir, "traced", deadline)
    for result in (plain, traced):
        tally.warmup(result["warmup"])
        tally.records(result["records"])
    tally.x_tables(plain["x_tables"])
    if traced["still_traced"]:
        tally.problems.append(f"attributes left traced: {traced['still_traced']}")
    overhead = sum(_at_reference(traced["records"])) / sum(_at_reference(plain["records"]))
    metrics = layers.compute(spans.Spans.load(trace_path), plan.requests, overhead)
    report = {
        "trace_file": os.path.relpath(trace_path, ROOT),
        "untraced_pass_s": plain["pass_walls"][0],
        "traced_pass_s": traced["pass_walls"][0],
        "error_rate": tally.failed / tally.attempted,
        "errors_by_command": tally.errors,
    }
    return tally, metrics, layers.UNITS, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest instance of each family, one pass")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "choiceless_lab", "__init__.py")):
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        plan = workloads.build(args.workload, args.seed, workdir, SRC, smoke=args.smoke)
        if args.trace:
            trace_path = os.path.join(WORK, f"trace-{args.workload}.json")
            tally, metrics, units, report = traced_run(plan, workdir, deadline, trace_path)
        else:
            setups = 1 if args.smoke else SETUPS
            passes = 1 if args.smoke else max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            cap = CAP_FACTOR * args.seconds
            tally, metrics, units, report = timed_run(plan, passes, cap, setups, workdir, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke,
        problems=tally.problems, **report,
    )
    summary = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
