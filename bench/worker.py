"""One benchmark worker: a single process and thread serving one workload.

Run as ``python3 worker.py JOB.json``.  The worker imports the package
from the source tree named in the job, answers the warm-up request and
prints ``ready``; the parent times set-up up to that line.  It then makes
the job's number of whole passes over the request list (none for a
set-up job), stopping early after a pass that ends past the job's time
cap.  With tracing on, every request (the warm-up included) is traced and
the spans are written out at the end.  Results go to the job's result
file as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from speed import reference_loop


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _x_table(program_path, input_path, index_names) -> list:
    """Run power.bgs through the public API and read back its X table."""
    from choiceless_lab.bgs import parse_program, parse_structure, run
    from choiceless_lab.hfset import TRUE

    with open(program_path, encoding="utf-8") as handle:
        program = parse_program(handle.read())
    with open(input_path, encoding="utf-8") as handle:
        structure = parse_structure(handle.read())
    state = run(program, structure).final_state
    by_name = structure.by_name
    return [
        [1 if state.read("X", (by_name[i], by_name[j])) is TRUE else 0 for j in index_names]
        for i in index_names
    ]


def main(job_path: str) -> int:
    start_reference = reference_loop()
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    src = job["src"]
    sys.path.insert(0, src)
    from choiceless_lab import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported choiceless_lab from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if job["traced"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    def call(request_id, argv):
        """[request id, exit code, result or error, latency, reference
        loop time before, reference loop time after]"""
        if tracer is not None:
            tracer.request_id = request_id
        before = reference_loop()
        started = time.perf_counter()
        code, report = cli.dispatch(argv)
        latency = time.perf_counter() - started
        return [request_id, code, report.get("result", report.get("error")), latency, before, reference_loop()]

    # request id 0 is the warm-up; timed requests are numbered from 1
    warmup = call(0, job["warmup"])
    print("ready", flush=True)
    # the set-up the parent times ends with the warm-up's closing loop
    out = {"warmup": warmup, "setup_reference": [start_reference, warmup[5]]}
    if job["passes"]:
        records = []
        pass_walls = []
        loop_start = time.perf_counter()
        cap = loop_start + job["cap_seconds"]
        while len(pass_walls) < job["passes"]:
            pass_start = time.perf_counter()
            for index, argv in enumerate(job["requests"], start=1):
                records.append(call(index, argv))
            pass_walls.append(time.perf_counter() - pass_start)
            if time.perf_counter() >= cap:
                break
        out["loop_wall"] = time.perf_counter() - loop_start
        out["pass_walls"] = pass_walls
        out["records"] = records
        out["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.restore()
        out["still_traced"] = spans.traced_attributes()
        tracer.dump(job["trace_path"], job["labels"])
    out["x_tables"] = [_x_table(*check) for check in job.get("x_checks", [])]
    with open(job["result_path"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
