"""Per-layer metrics of one traced pass.

Every metric is computed on every workload; a layer that does not run on
a workload reports zero calls and zero time there.  Self time is a span's
duration minus the part its child spans cover.  Size exponents are the
least-squares slope of log time against log size over the requests of
one instance family.
"""

from __future__ import annotations

import math

# name -> unit, in report order
UNITS = {
    "cli.dispatch.self_s": "s",
    "bgs.parse_structure.self_s": "s",
    "bgs.parse_structure.atoms": "count",
    "bgs.parse_program.self_s": "s",
    "bgs.run.steps": "count",
    "bgs.run.peak_active": "count",
    "bgs.run.us_per_step.power": "us/step",
    "bgs.run.us_per_step.parity": "us/step",
    "bgs.run.size_exponent.parity": "slope",
    "bgs.collect_updates.self_s": "s",
    "bgs.collect_updates.updates": "count",
    "bgs.fire.self_s": "s",
    "bgs.fire.clash_ratio": "ratio",
    "hfset.make_set.calls": "count",
    "hfset.make_set.self_s": "s",
    "hfset.make_set.new_ratio": "ratio",
    "hfset.transitive_closure.calls": "count",
    "hfset.transitive_closure.self_s": "s",
    "hfset.transitive_closure.elements": "count",
    "matching.graph_from_structure.self_s": "s",
    "matching.stable_coloring.self_s": "s",
    "matching.stable_coloring.blocks": "count",
    "matching.stable_coloring.size_exponent": "slope",
    "matching.quotient.self_s": "s",
    "matching.quotient.edges": "count",
    "matching.path_algorithm.self_s": "s",
    "matching.decide_complete_matching.per_request": "calls/request",
    "linalg.parse_matrix.self_s": "s",
    "linalg.zp.self_s": "s",
    "linalg.mat_mul.calls": "count",
    "linalg.mat_mul.self_s": "s",
    "linalg.mat_mul.dense_ops": "count",
    "linalg.mat_mul.ns_per_op": "ns/op",
    "linalg.mat_mul.size_exponent": "slope",
    "linalg.mat_mul.share": "ratio",
    "linalg.mat_pow.calls": "count",
    "linalg.mat_pow.self_s": "s",
    "linalg.nonsingular_square.calls": "count",
    "linalg.reduce_mod.self_s": "s",
    "linalg.gaussian.calls": "count",
    "linalg.gaussian.self_s": "s",
    "linalg.gaussian.size_exponent": "slope",
    "multipede.from_structure_lenient.self_s": "s",
    "multipede.validate.self_s": "s",
    "multipede.is_odd.self_s": "s",
    "multipede.feet_of.calls": "count",
    "multipede.feet_of.self_s": "s",
    "multipede.feet_of.share": "ratio",
    "multipede.iso3_decide.self_s": "s",
    "multipede.iso3_decide.size_exponent": "slope",
    "cfi.from_structure.self_s": "s",
    "cfi.recognize_and_classify.self_s": "s",
    "cfi.isomorphic_gadgets.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def size_exponent(points) -> float:
    """Slope of log(time) against log(size); 0 without two distinct sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def compute(spans, requests, overhead_ratio: float) -> dict:
    """Metric name -> value for one traced pass.  ``requests`` are the
    plan's requests; request id i >= 1 is ``requests[i - 1]`` and id 0 is
    the warm-up, which counts towards totals but not towards fits."""

    def ids(family=None, command=None):
        return {
            i
            for i, r in enumerate(requests, start=1)
            if (family is None or r.family == family) and (command is None or r.command == command)
        }

    def calls(name, among=None):
        return sum(v[0] for r, v in spans.per_request(name).items() if among is None or r in among)

    def self_s(name, among=None):
        return sum(v[1] for r, v in spans.per_request(name).items() if among is None or r in among) / 1e9

    def whole_s(name, among):
        return sum(v[2] for r, v in spans.per_request(name).items() if r in among) / 1e9

    def fit(name, among, whole=False):
        per = spans.per_request(name)
        return size_exponent(
            (requests[r - 1].size, per[r][2 if whole else 1]) for r in among if r in per
        )

    power, parity, path = ids("power"), ids("parity"), ids("path", "solve matching")
    gf2, pedes = ids("gf2"), ids("multipede3")
    max_size = ids(command="solve matching --max-size")
    count = spans.count
    return {
        "cli.dispatch.self_s": self_s("cli.dispatch"),
        "bgs.parse_structure.self_s": self_s("bgs.parse_structure"),
        "bgs.parse_structure.atoms": count("bgs.parse_structure.atoms"),
        "bgs.parse_program.self_s": self_s("bgs.parse_program"),
        "bgs.run.steps": count("bgs.run.steps"),
        "bgs.run.peak_active": count("bgs.run.peak_active"),
        "bgs.run.us_per_step.power": 1e6 * _ratio(whole_s("bgs.run", power), count("bgs.run.steps", power)),
        "bgs.run.us_per_step.parity": 1e6 * _ratio(whole_s("bgs.run", parity), count("bgs.run.steps", parity)),
        # the interpreter's work happens in the spans beneath bgs.run, so
        # this fit uses the whole run
        "bgs.run.size_exponent.parity": fit("bgs.run", parity, whole=True),
        "bgs.collect_updates.self_s": self_s("bgs.collect_updates"),
        "bgs.collect_updates.updates": count("bgs.collect_updates.updates"),
        "bgs.fire.self_s": self_s("bgs.fire"),
        "bgs.fire.clash_ratio": _ratio(count("bgs.fire.clashes"), count("bgs.fire.nonempty")),
        "hfset.make_set.calls": calls("hfset.make_set"),
        "hfset.make_set.self_s": self_s("hfset.make_set"),
        "hfset.make_set.new_ratio": _ratio(count("hfset.make_set.new"), calls("hfset.make_set")),
        "hfset.transitive_closure.calls": calls("hfset.transitive_closure"),
        "hfset.transitive_closure.self_s": self_s("hfset.transitive_closure"),
        "hfset.transitive_closure.elements": count("hfset.transitive_closure.elements"),
        "matching.graph_from_structure.self_s": self_s("matching.graph_from_structure"),
        "matching.stable_coloring.self_s": self_s("matching.stable_coloring"),
        "matching.stable_coloring.blocks": count("matching.stable_coloring.blocks"),
        "matching.stable_coloring.size_exponent": fit("matching.stable_coloring", path),
        "matching.quotient.self_s": self_s("matching.quotient"),
        "matching.quotient.edges": count("matching.quotient.edges"),
        "matching.path_algorithm.self_s": self_s("matching.path_algorithm"),
        "matching.decide_complete_matching.per_request": _ratio(
            calls("matching.decide_complete_matching", max_size), len(max_size)
        ),
        "linalg.parse_matrix.self_s": self_s("linalg.parse_matrix"),
        "linalg.zp.self_s": self_s("linalg.zp"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.mat_mul.dense_ops": count("linalg.mat_mul.dense_ops"),
        "linalg.mat_mul.ns_per_op": 1e9 * _ratio(self_s("linalg.mat_mul"), count("linalg.mat_mul.dense_ops")),
        "linalg.mat_mul.size_exponent": fit("linalg.mat_mul", gf2),
        "linalg.mat_mul.share": _ratio(self_s("linalg.mat_mul", gf2), whole_s("cli.dispatch", gf2)),
        "linalg.mat_pow.calls": calls("linalg.mat_pow"),
        "linalg.mat_pow.self_s": self_s("linalg.mat_pow"),
        "linalg.nonsingular_square.calls": calls("linalg.nonsingular_square"),
        "linalg.reduce_mod.self_s": self_s("linalg.reduce_mod"),
        "linalg.gaussian.calls": calls("linalg.gaussian"),
        "linalg.gaussian.self_s": self_s("linalg.gaussian"),
        "linalg.gaussian.size_exponent": fit("linalg.gaussian", pedes),
        "multipede.from_structure_lenient.self_s": self_s("multipede.from_structure_lenient"),
        "multipede.validate.self_s": self_s("multipede.validate"),
        "multipede.is_odd.self_s": self_s("multipede.is_odd"),
        "multipede.feet_of.calls": calls("multipede.feet_of"),
        "multipede.feet_of.self_s": self_s("multipede.feet_of"),
        "multipede.feet_of.share": _ratio(self_s("multipede.feet_of", pedes), whole_s("cli.dispatch", pedes)),
        "multipede.iso3_decide.self_s": self_s("multipede.iso3_decide"),
        "multipede.iso3_decide.size_exponent": fit("multipede.iso3_decide", pedes),
        "cfi.from_structure.self_s": self_s("cfi.from_structure"),
        "cfi.recognize_and_classify.self_s": self_s("cfi.recognize_and_classify"),
        "cfi.isomorphic_gadgets.self_s": self_s("cfi.isomorphic_gadgets"),
        "trace.overhead_ratio": overhead_ratio,
    }
