"""Checks on the benchmark's own bookkeeping.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _package_attributes() -> dict:
    """Every module attribute and patched-class member of the package."""
    from choiceless_lab.linalg.intmatrix import IntMatrix
    from choiceless_lab.multipede import Multipede2

    out = {}
    for module in spans._package_modules():
        for attribute, value in vars(module).items():
            out[(module.__name__, attribute)] = value
    for cls in (IntMatrix, Multipede2):
        for attribute, value in vars(cls).items():
            out[(cls.__qualname__, attribute)] = value
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The smoke requests of every workload, dispatched in-process under a
    tracer; returns the loaded spans, the attributes before tracing, and
    what was rebound while tracing was on."""
    from choiceless_lab import cli

    plans = [
        workloads.build(w, 5, str(tmp_path_factory.mktemp(w)), run.SRC, smoke=True)
        for w in workloads.WORKLOADS
    ]
    before = _package_attributes()
    tracer = spans.Tracer()
    tracer.install()
    try:
        from choiceless_lab.bgs import interp
        from choiceless_lab.linalg import intmatrix

        rebound = {
            "cli.parse_structure": cli.parse_structure,
            "bgs.interp.make_set": interp.make_set,
            "linalg.intmatrix.nonsingular_square": intmatrix.nonsingular_square,
        }
        request_id = 0
        for plan in plans:
            for request in plan.requests:
                request_id += 1
                tracer.request_id = request_id
                code, _ = cli.dispatch(request.argv)
                assert code == 0
    finally:
        tracer.restore()
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    tracer.dump(path)
    return spans.Spans.load(path), before, rebound


def test_from_imports_are_rebound_while_tracing(traced):
    _, _, rebound = traced
    for name, value in rebound.items():
        assert getattr(value, "__bench_traced__", False), name


def test_spans_nest_and_no_self_time_is_negative(traced):
    trace, _, _ = traced
    assert len(trace.start) > 100
    last_child_end: dict = {}
    for i, p in enumerate(trace.parent):
        assert trace.start[i] <= trace.end[i]
        assert trace.self_ns[i] >= 0
        if p < 0:
            continue
        assert trace.start[p] <= trace.start[i] <= trace.end[i] <= trace.end[p]
        assert trace.request[i] == trace.request[p]
        # siblings are recorded in call order and never overlap
        assert trace.start[i] >= last_child_end.get(p, trace.start[p])
        last_child_end[p] = trace.end[i]


def test_self_times_sum_to_the_root_span(traced):
    trace, _, _ = traced
    roots = trace.roots()
    assert {trace.names[trace.name[i]] for i in roots} == {"cli.dispatch"}
    assert len({trace.request[i] for i in roots}) == len(roots)
    for root in roots:
        request = trace.request[root]
        total = sum(s for s, r in zip(trace.self_ns, trace.request) if r == request)
        assert total == trace.end[root] - trace.start[root]


def test_restore_puts_every_original_back(traced):
    _, before, _ = traced
    assert spans.traced_attributes() == []
    after = _package_attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_agrees_with_the_oracles(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", trace],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    units = layers.UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == units


def _leibniz(grid) -> int:
    n = len(grid)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= grid[i][j]
        total += term
    return total


def _brute_matching(edges) -> int:
    return max(
        (k for k in range(len(edges) + 1) for chosen in itertools.combinations(edges, k)
         if len({a for a, _ in chosen}) == k == len({b for _, b in chosen})),
        default=0,
    )


def test_oracles_against_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 5)
        grid = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert oracle.bareiss_det(grid) == _leibniz(grid)
    for _ in range(60):
        na, nb = rng.randrange(1, 5), rng.randrange(1, 5)
        edges = [(a, b) for a in range(na) for b in range(nb) if rng.random() < 0.4]
        adjacency = {a: [b for x, b in edges if x == a] for a in range(na)}
        assert oracle.max_matching(range(na), adjacency) == _brute_matching(edges)
    assert oracle.first_primes(6) == [2, 3, 5, 7, 11, 13]
    assert oracle.mod2_power([[1, 1], [0, 1]], 3) == [[1, 1], [0, 1]]
    assert not oracle.gf2_solvable([0b11, 0b11], [0, 1])
    assert oracle.gf2_solvable([0b11, 0b01], [0, 1])
    assert layers.size_exponent([(s, s**3) for s in (10, 20, 40)]) == pytest.approx(3.0)
