"""Plain classes against the frozen dataclasses they replace.

Each value-equal class of the package is a ``Record``.  Its twin here is a
frozen dataclass of the same name and fields, and the two must agree on
``==``, ``!=``, ``hash`` and ``repr`` over random field values.  The
identity-equal classes are equal only to themselves, as ``eq=False``
dataclasses were.  A record takes its field values positionally, and a
class with no constructor of its own rejects a wrong count.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choiceless_lab
from choiceless_lab.bgs.interp import RunOutcome, State
from choiceless_lab.bgs.syntax import (
    App,
    Compr,
    Cond,
    Forall,
    Lit,
    Par,
    Program,
    RunBounds,
    Skip,
    Update,
    Var,
)
from choiceless_lab.cfi import complete_graph
from choiceless_lab.linalg.fields import zp
from choiceless_lab.linalg.intmatrix import IntMatrix
from choiceless_lab.linalg.matrix import FieldMatrix
from choiceless_lab.matching import BipartiteGraph, StableColoring
from choiceless_lab.multipede import Multipede2, Multipede3, random_multipede
from choiceless_lab.record import Record
from choiceless_lab.structures import InputStructure

_VALUE_CLASSES = (
    Var, Lit, App, Compr, Skip, Update, Cond, Forall, Par, RunBounds, StableColoring, RunOutcome
)


def _twin(cls):
    """The frozen dataclass ``cls`` was, compared on the same fields."""
    fields = list(cls._fields)
    if cls is RunOutcome:
        fields.append(("final_state", object, dataclasses.field(default=None, compare=False, repr=False)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


_TWINS = {cls: _twin(cls) for cls in _VALUE_CLASSES}

# few distinct values, so that equal fields are drawn often; records nest
_leaves = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.none(),
    st.sampled_from(["x", "y", ""]),
    st.frozensets(st.integers(0, 2), max_size=2),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.tuples(inner, inner), st.builds(Var, inner), st.builds(Lit, inner)),
    max_leaves=4,
)


def _fields_of(cls):
    return st.tuples(*[_values] * len(cls._fields))


@st.composite
def _two_of(draw, cls):
    """Two field tuples for ``cls``: the second often equal to the first."""
    first = draw(_fields_of(cls))
    return first, draw(st.one_of(st.just(first), _fields_of(cls)))


@pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_value_classes_agree_with_their_dataclass_twins(cls, data):
    twin = _TWINS[cls]
    u, v = data.draw(_two_of(cls))
    a, b = cls(*u), cls(*v)
    ta, tb = twin(*u), twin(*v)
    assert (a == b) == (ta == tb) == (u == v)
    assert (a != b) == (ta != tb)
    assert hash(a) == hash(ta)
    assert repr(a) == repr(ta)
    # a record is never equal to its twin, nor to another class's record
    assert a != ta and not (ta == a)
    other = data.draw(st.sampled_from([c for c in _VALUE_CLASSES if c is not cls]))
    w = data.draw(_fields_of(other))
    assert not a == other(*w) and not ta == _TWINS[other](*w)


@settings(max_examples=100, deadline=None)
@given(_fields_of(RunOutcome), st.integers(), st.integers())
def test_run_outcome_equality_ignores_the_final_state(fields, s, t):
    a, b = RunOutcome(*fields, s), RunOutcome(*fields, t)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.final_state == s and "final_state" not in repr(a)


def _records() -> list:
    """Every ``Record`` subclass in the package, each module imported."""
    for info in pkgutil.walk_packages(choiceless_lab.__path__, "choiceless_lab."):
        if info.name != "choiceless_lab.__main__":  # it runs the command line
            importlib.import_module(info.name)
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("choiceless_lab.") and cls not in found:
                found.append(cls)
                todo.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


_RECORDS = _records()
_SHARED = [cls for cls in _RECORDS if "__init__" not in vars(cls)]


def test_only_records_that_do_more_than_assign_write_a_constructor():
    assert set(_RECORDS) >= {*_VALUE_CLASSES, FieldMatrix}
    assert set(_RECORDS) - set(_SHARED) == {App, RunBounds, RunOutcome, FieldMatrix}


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_built_positionally_holds_its_values_in_field_order(cls):
    values = tuple(object() for _ in cls._fields)
    extra = ()
    if cls is FieldMatrix:  # nonzero entries, which it keeps as given
        values = (zp(3), frozenset({0}), frozenset({1}), {(0, 1): 2})
    elif cls is RunOutcome:
        extra = (object(),)
    record = cls(*values, *extra)
    assert record._values() == values
    if extra:
        assert record.final_state is extra[0]


@pytest.mark.parametrize("cls", _SHARED, ids=lambda cls: cls.__qualname__)
def test_the_shared_constructor_rejects_a_wrong_count(cls):
    n = len(cls._fields)
    for count in (n - 1, n + 1) if n else (1,):
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__} takes {n} values, got {count}$"):
            cls(*range(count))


@dataclasses.dataclass(frozen=True)
class _FieldMatrixTwin:
    """``FieldMatrix`` as a frozen dataclass, zero entries dropped."""

    field: object
    rows: frozenset
    cols: frozenset
    entries: dict

    def __post_init__(self):
        if not all(self.entries.values()):
            object.__setattr__(self, "entries", {k: v for k, v in self.entries.items() if v})


_entries = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(_entries, _entries, st.sampled_from([3, 5]))
def test_field_matrix_drops_zero_entries_as_its_twin(entries, others, q):
    idx = frozenset(range(2))
    m, n = FieldMatrix(zp(3), idx, idx, entries), FieldMatrix(zp(q), idx, idx, others)
    tm, tn = _FieldMatrixTwin(zp(3), idx, idx, entries), _FieldMatrixTwin(zp(q), idx, idx, others)
    assert m.entries == tm.entries == {k: v for k, v in entries.items() if v}
    if all(entries.values()):
        assert m.entries is entries  # kept as given
    assert (m == n) == (tm == tn) and (m != n) == (tm != tn)
    with pytest.raises(TypeError):  # a dict field: unhashable, as the twin
        hash(m)


def _identity_pairs():
    """Two instances built from the same fields, per identity-equal class."""
    structure = InputStructure.build(["a", "b"], {"R": [("a", "b")]})
    pede = random_multipede(4, 2, seed=1)
    carrier = pede.segments, pede.feet, pede.segment_of, pede.hyperedges, pede.positives
    program = (Skip(), RunBounds((1,), (1,)), {}, {}, frozenset())
    return {
        "InputStructure": [
            InputStructure(structure.atoms, structure.relations, structure.functions, structure.arities)
            for _ in "ab"
        ],
        "BaseGraph": [complete_graph(3) for _ in "ab"],
        "BipartiteGraph": [BipartiteGraph.build({"a"}, {"b"}, {("a", "b")}) for _ in "ab"],
        "Multipede2": [Multipede2(*carrier) for _ in "ab"],
        "Multipede3": [Multipede3(*carrier, pede.segment_order, pede.shoe) for _ in "ab"],
        "IntMatrix": [IntMatrix.from_int_entries({(0, 0): 1}) for _ in "ab"],
        "State": [State(structure) for _ in "ab"],
        "Program": [Program(*program) for _ in "ab"],
    }


@pytest.mark.parametrize("name", sorted(_identity_pairs()))
def test_identity_classes_are_equal_only_to_themselves(name):
    a, b = _identity_pairs()[name]
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == object.__hash__(a)


def test_properties_are_cached():
    structure = InputStructure.build(["a", "b"])
    assert structure.by_name is structure.by_name
    graph = complete_graph(3)
    assert graph.incident("v0") == graph._incidence["v0"]
