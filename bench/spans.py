"""Span tracing by rebinding the package's public functions.

A :class:`Tracer` replaces each target function with a wrapper that
records one span per call: its name, start and end (integer nanoseconds),
the enclosing span and the current request id.  Counts are taken at the
same boundaries from the call's arguments and result.  Spans live in
flat arrays while the run lasts and are written out once at the end.

Targets are rebound wherever the package holds them: the defining module,
every module that imported the name with ``from ... import``, and the
class for methods.  :meth:`Tracer.restore` puts every original back, so an
untraced run in the same process measures unpatched code.  No file of the
package changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "choiceless_lab"


def _atoms(args, result):
    return {"atoms": len(result.atoms)}


def _run(args, result):
    return {"steps": result.steps, "peak_active": result.peak_active}


def _updates(args, result):
    return {"updates": len(result)}


def _fire(args, result):
    # fire returns its input state unchanged exactly when a non-empty
    # update set clashes (an empty one is a no-op and not counted)
    if not len(args[1]):
        return {}
    return {"nonempty": 1, "clashes": 1 if result is args[0] else 0}


class _FirstSeen:
    """Counts results not returned before by this target in the run.  A
    class, so that each tracer starts with an empty history."""

    def __init__(self):
        self.seen: dict = {}  # id -> result; holding it keeps the id unique

    def __call__(self, args, result):
        if id(result) in self.seen:
            return {}
        self.seen[id(result)] = result
        return {"new": 1}


def _elements(args, result):
    return {"elements": len(result)}


def _blocks(args, result):
    return {"blocks": len(result.a_blocks) + len(result.b_blocks)}


def _edges(args, result):
    return {"edges": len(result.edges)}


def _dense_ops(args, result):
    _, m, n = args[:3]
    return {"dense_ops": len(m.rows) * len(m.cols) * len(n.cols)}


# (span name, defining module, attribute path, counter).  The span name is
# the per-layer metric prefix; two functions may share one name.  A counter
# maps (args, result) to increments; a class is instantiated per tracer.
TARGETS = (
    ("cli.dispatch", "choiceless_lab.cli", "dispatch", None),
    ("bgs.parse_structure", "choiceless_lab.bgs.structures", "parse_structure", _atoms),
    ("bgs.parse_program", "choiceless_lab.bgs.parser", "parse_program", None),
    ("bgs.run", "choiceless_lab.bgs.interp", "run", _run),
    ("bgs.collect_updates", "choiceless_lab.bgs.interp", "collect_updates", _updates),
    ("bgs.fire", "choiceless_lab.bgs.interp", "fire", _fire),
    ("hfset.make_set", "choiceless_lab.hfset", "make_set", _FirstSeen),
    ("hfset.transitive_closure", "choiceless_lab.hfset", "transitive_closure", _elements),
    ("matching.graph_from_structure", "choiceless_lab.matching", "graph_from_structure", None),
    ("matching.stable_coloring", "choiceless_lab.matching", "stable_coloring", _blocks),
    ("matching.quotient", "choiceless_lab.matching", "quotient", _edges),
    ("matching.path_algorithm", "choiceless_lab.matching", "path_algorithm", None),
    ("matching.decide_complete_matching", "choiceless_lab.matching", "decide_complete_matching", None),
    ("linalg.parse_matrix", "choiceless_lab.linalg.matio", "parse_matrix", None),
    ("linalg.zp", "choiceless_lab.linalg.fields", "zp", None),
    ("linalg.mat_mul", "choiceless_lab.linalg.matrix", "mat_mul", _dense_ops),
    ("linalg.mat_pow", "choiceless_lab.linalg.matrix", "mat_pow", None),
    ("linalg.nonsingular_square", "choiceless_lab.linalg.matrix", "nonsingular_square", None),
    ("linalg.reduce_mod", "choiceless_lab.linalg.intmatrix", "IntMatrix.reduce_mod", None),
    ("linalg.gaussian", "choiceless_lab.linalg.matrix", "rank_gaussian", None),
    ("linalg.gaussian", "choiceless_lab.linalg.matrix", "solve_gaussian", None),
    ("multipede.from_structure_lenient", "choiceless_lab.multipede", "from_structure_lenient", None),
    ("multipede.validate", "choiceless_lab.multipede", "validate", None),
    ("multipede.is_odd", "choiceless_lab.multipede", "is_odd", None),
    ("multipede.feet_of", "choiceless_lab.multipede", "Multipede2.feet_of", None),
    ("multipede.iso3_decide", "choiceless_lab.multipede", "iso3_decide", None),
    ("cfi.from_structure", "choiceless_lab.cfi", "from_structure", None),
    ("cfi.recognize_and_classify", "choiceless_lab.cfi", "recognize_and_classify", None),
    ("cfi.isomorphic_gadgets", "choiceless_lab.cfi", "isomorphic_gadgets", None),
)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records spans and counts for calls to the target functions."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.counts: dict = {}  # (request id, "span.key") -> total
        self.request_id = -1
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Rebind every target wherever the loaded package refers to it."""
        for span_name, module_name, path, counter in self.targets:
            owner = importlib.import_module(module_name)
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            if span_name not in self.names:
                self.names.append(span_name)
            wrapper = self._wrap(self.names.index(span_name), span_name, original, counter)
            if outer:
                self._patch(owner, leaf, wrapper)
            for module in _package_modules():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attribute, wrapper)

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------- recording

    def _wrap(self, name_id, span_name, fn, counter):
        tracer = self
        stack = self._stack
        if isinstance(counter, type):
            counter = counter()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.start.append(perf_counter_ns())
            tracer.end.append(0)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.request.append(tracer.request_id)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                counts = tracer.counts
                request = tracer.request_id
                for key, value in counter(args, result).items():
                    slot = (request, f"{span_name}.{key}")
                    counts[slot] = counts.get(slot, 0) + value
            return result

        traced.__bench_traced__ = True
        return traced

    def dump(self, path, labels=()) -> None:
        """Write the trace; ``labels[i]`` describes request id ``i``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "labels": list(labels),
                    "names": self.names,
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "request": self.request.tolist(),
                    "counts": [[r, k, v] for (r, k), v in self.counts.items()],
                },
                handle,
            )


def traced_attributes() -> list:
    """Every package module or class attribute that still holds a wrapper."""
    found = []
    for module in _package_modules():
        for attribute, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{module.__name__}.{attribute}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, inner in vars(value).items():
                    if getattr(inner, "__bench_traced__", False):
                        found.append(f"{module.__name__}.{attribute}.{member}")
    return found


# ------------------------------------------------------------ analysis


class Spans:
    """A loaded trace with each span's self time, totalled per span name
    and request."""

    def __init__(self, data: dict):
        self.names = data["names"]
        self.start = data["start"]
        self.end = data["end"]
        self.name = data["name"]
        self.parent = data["parent"]
        self.request = data["request"]
        self.counts = {(r, k): v for r, k, v in data["counts"]}
        covered = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        # children of one span run one after another in a single thread,
        # so the part of a span they cover is the sum of their durations
        self.self_ns = [self.end[i] - self.start[i] - covered[i] for i in range(len(self.start))]
        self._totals: dict = {}  # (span name, request) -> [calls, self ns, whole ns]
        for i, n in enumerate(self.name):
            slot = self._totals.setdefault((self.names[n], self.request[i]), [0, 0, 0])
            slot[0] += 1
            slot[1] += self.self_ns[i]
            slot[2] += self.end[i] - self.start[i]

    @staticmethod
    def load(path) -> "Spans":
        with open(path, encoding="utf-8") as handle:
            return Spans(json.load(handle))

    def roots(self) -> list:
        return [i for i, p in enumerate(self.parent) if p < 0]

    def per_request(self, span_name: str) -> dict:
        """Request id -> [calls, self ns, whole ns] for one span name."""
        return {r: v for (n, r), v in self._totals.items() if n == span_name}

    def count(self, key: str, requests=None) -> int:
        """Total of one counter, over all requests or the given ones."""
        return sum(
            v for (r, k), v in self.counts.items() if k == key and (requests is None or r in requests)
        )
