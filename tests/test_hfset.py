"""Canonical set layer: identities, extensionality, ordinals."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import hfset
from choiceless_lab.bgs import parse_program, run
from choiceless_lab.hfset import (
    EMPTY,
    Atom,
    card,
    make_set,
    ordinal,
    ordinal_value,
    pair,
    the_unique,
    transitive_closure,
    union_all,
)
from choiceless_lab.structures import InputStructure

from oracles import hf_model, is_atom, ordered_pair


@pytest.fixture()
def atoms():
    return [Atom(f"a{i}") for i in range(4)]


def depth2_universe(two_atoms):
    """All values of depth <= 2 over the given two atoms, by enumeration."""
    level0 = list(two_atoms)
    level1 = [make_set(c) for r in range(3) for c in itertools.combinations(level0, r)]
    pool = level0 + level1
    level2 = [
        make_set(c)
        for r in range(len(pool) + 1)
        for c in itertools.combinations(pool, r)
    ]
    out = []
    for v in level0 + level1 + level2:
        if v not in out:
            out.append(v)
    return out


def test_make_set_dedupes_and_ignores_order(atoms):
    a, b = atoms[0], atoms[1]
    assert make_set([a, a]) is make_set([a])
    assert make_set([a, b]) is make_set([b, a])
    assert make_set([]) is EMPTY


def test_pair_examples(atoms):
    a, b = atoms[0], atoms[1]
    assert pair(a, b) is make_set([a, b])
    assert pair(a, a) is make_set([a])


def test_ordered_pair_coding(atoms):
    a, b = atoms[0], atoms[1]
    assert ordered_pair(a, b) is make_set([make_set([a]), make_set([a, b])])
    assert ordered_pair(a, a) is make_set([make_set([a])])
    assert ordered_pair(ordinal(0), ordinal(1)) is not ordered_pair(ordinal(1), ordinal(0))
    # the pair-of-pairs construction gives the same canonical value
    assert make_set([pair(a, a), pair(a, b)]) is ordered_pair(a, b)


def test_union_examples(atoms):
    a, b, c = atoms[:3]
    assert union_all(make_set([make_set([a]), make_set([b, c])])) is make_set([a, b, c])
    assert union_all(EMPTY) is EMPTY
    assert union_all(a) is EMPTY
    # union of a pair of sets is their union
    s = make_set([a, b])
    t = make_set([b, c])
    assert union_all(pair(s, t)) is make_set([a, b, c])


@pytest.mark.parametrize("n", range(1, 11))
def test_union_of_ordinal_is_predecessor(n):
    # check by enumeration: members of the union are exactly 0..n-2
    u = union_all(ordinal(n))
    expected = make_set([ordinal(k) for k in range(n - 1)])
    assert u is expected
    assert u is ordinal(n - 1)


def test_the_unique(atoms):
    a, b = atoms[0], atoms[1]
    assert the_unique(make_set([a])) is a
    assert the_unique(EMPTY) is ordinal(0)
    assert the_unique(make_set([a, b])) is ordinal(0)
    assert the_unique(a) is ordinal(0)


def test_card(atoms):
    a = atoms[0]
    assert card(make_set([a, make_set([a])])) is ordinal(2)
    assert card(a) is ordinal(0)
    assert card(ordinal(7)) is ordinal(7)


def test_card_of_ordinals_up_to_1000():
    for n in range(1001):
        assert card(ordinal(n)) is ordinal(n)
    assert ordinal_value(ordinal(1000)) == 1000


def test_arithmetic_via_card():
    def add_via_card(a, b):
        """Ordinal addition as the cardinality of ``a`` joined with a tagged
        disjoint copy ``{<0, x> : x in b}``."""
        tagged = [ordered_pair(EMPTY, x) for x in b.members]
        return card(make_set(tuple(a.members) + tuple(tagged)))

    def mul_via_card(a, b):
        """Ordinal multiplication as the cardinality of the coded cartesian
        product ``{<x, y> : x in a, y in b}``."""
        return card(make_set([ordered_pair(x, y) for y in b.members for x in a.members]))

    # oracle: enumerate the constructed union / product sets directly
    for a, b in [(2, 3), (0, 5), (5, 0), (4, 4), (7, 1)]:
        tagged = {ordered_pair(ordinal(0), x) for x in ordinal(b).members}
        assert tagged.isdisjoint(set(ordinal(a).members))
        assert len(set(ordinal(a).members) | tagged) == a + b
        assert add_via_card(ordinal(a), ordinal(b)) is ordinal(a + b)
    for a, b in [(0, 5), (3, 4), (4, 3), (1, 9), (6, 6)]:
        prod = {
            ordered_pair(x, y)
            for x in ordinal(a).members
            for y in ordinal(b).members
        }
        assert len(prod) == a * b
        assert mul_via_card(ordinal(a), ordinal(b)) is ordinal(a * b)


def test_transitive_closure(atoms):
    a = atoms[0]
    assert transitive_closure(a) == frozenset([a])
    nested = make_set([make_set([a])])
    assert transitive_closure(nested) == frozenset([nested, make_set([a]), a])
    for n in range(11):
        assert len(transitive_closure(ordinal(n))) == n + 1


def test_section_identities_exhaustive_depth2():
    """pair/ordered_pair/union_all/the_unique identities over every value of
    depth <= 2 built from two atoms."""
    a0, a1 = Atom("u"), Atom("v")
    values = depth2_universe([a0, a1])
    assert len(values) > 60
    for x in values:
        assert pair(x, x) is make_set([x])
        assert the_unique(make_set([x])) is x
        assert union_all(pair(x, x)) is (x if not is_atom(x) else EMPTY)
    for x, y in itertools.product(values[:24], values[:24]):
        assert ordered_pair(x, y) is make_set([pair(x, x), pair(x, y)])
        if not is_atom(x) and not is_atom(y):
            joint = make_set(tuple(x.members) + tuple(y.members))
            assert union_all(pair(x, y)) is joint


@st.composite
def hf_values(draw, depth=2):
    atoms = [Atom("h0"), Atom("h1")]
    if depth == 0:
        return draw(st.sampled_from(atoms))
    kids = draw(st.lists(hf_values(depth=depth - 1), max_size=4))
    if draw(st.booleans()) and depth > 0:
        return make_set(kids)
    return draw(st.sampled_from(atoms))


@settings(max_examples=200, deadline=None)
@given(st.lists(hf_values(), max_size=6), st.lists(hf_values(), max_size=6))
def test_extensionality(p, q):
    sp, sq = make_set(p), make_set(q)
    if set(sp.members) == set(sq.members):
        assert sp is sq
    if sp is sq:
        assert set(p) <= set(sq.members) and set(q) <= set(sp.members)


def test_concurrent_interning_yields_identical_values():
    import threading

    atoms = [Atom(f"t{i}") for i in range(6)]
    results = [[] for _ in range(8)]

    def worker(slot):
        for k in range(200):
            results[slot].append(make_set(atoms[: (k % 6) + 1]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(200):
        canon = results[0][k]
        assert all(results[i][k] is canon for i in range(8))


def test_equality_cost_is_depth_independent_after_interning():
    # benchmarked, not asserted: equality is an identity check, so deep and
    # shallow comparisons should cost the same order of magnitude
    import time

    shallow = ordinal(1)
    deep = ordinal(400)
    t0 = time.perf_counter()
    for _ in range(20000):
        shallow is shallow  # noqa: B015
    t_shallow = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(20000):
        deep is deep  # noqa: B015
    t_deep = time.perf_counter() - t0
    print(f"eq cost shallow={t_shallow:.4f}s deep={t_deep:.4f}s")


def test_interning_shares_structure():
    rng = random.Random(7)
    atoms = [Atom(f"s{i}") for i in range(3)]
    built = []
    for _ in range(200):
        picks = [rng.choice(atoms) for _ in range(rng.randrange(4))]
        built.append(make_set(picks))
    for x in built:
        for y in built:
            if set(x.members) == set(y.members):
                assert x is y


def test_deep_chains_build_without_recursion():
    # two 3000-deep singleton chains differ only at the bottom; telling them
    # apart must not recurse through their depth
    def chain(atom):
        x = atom
        for _ in range(3000):
            x = make_set([x])
        return x

    a, b = Atom("a"), Atom("b")
    x, y = chain(a), chain(b)
    both = pair(x, y)
    assert len(both.members) == 2
    assert chain(a) is x and chain(b) is y


_MODEL_ATOMS = [Atom("m0"), Atom("m1"), Atom("m2")]

# a description is an atom index or a list of descriptions
descriptions = st.recursive(
    st.integers(0, len(_MODEL_ATOMS) - 1),
    lambda kids: st.lists(kids, max_size=4),
    max_leaves=12,
)


def build(desc, rng=None):
    """Build the value a description names, listing members in a shuffled
    order (with one repeat) at every level when ``rng`` is given."""
    if isinstance(desc, int):
        return _MODEL_ATOMS[desc]
    parts = [build(d, rng) for d in desc]
    if rng is not None and parts:
        parts.append(rng.choice(parts))
        rng.shuffle(parts)
    return make_set(parts)


def described(desc):
    """The model a description names, computed without building it."""
    if isinstance(desc, int):
        return _MODEL_ATOMS[desc].name
    return frozenset(described(d) for d in desc)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(descriptions, max_size=5),
    st.lists(descriptions, max_size=5),
    st.integers(0, 2**32),
)
def test_interning_agrees_with_nested_frozenset_model(p, r, seed):
    rng = random.Random(seed)
    # q lists the same values as p in shuffled order, built first so that
    # the sets new to this example are interned from q's order
    q = build(p, rng)
    sp, sr = build(p), build(r)
    assert sp is q
    assert (sp is sr) == (hf_model(sp) == hf_model(sr))
    assert hf_model(sp) == described(p)


def von_neumann_model(n, memo):
    """The nested-frozenset model of ordinal n, k + 1 = k | {k} from the
    empty set, each step made canonical in ``memo`` as ``hf_model`` does."""
    model = memo.setdefault(frozenset(), frozenset())
    for _ in range(n):
        model = model | {model}
        model = memo.setdefault(model, model)
    return model


def ordinal_by_comprehension(n):
    """Ordinal n as the set-machine value ``{ x : x in n+1 : not (x = n) }``."""
    program = parse_program(
        f"#steps 2\n#active {n + 2}\n"
        f"do in parallel N := {{ x : x in {n + 1} : not (x = {n}) }}; Halt := true enddo"
    )
    outcome = run(program, InputStructure.build(["a"]))
    return outcome.final_state.read("N", ())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.integers(0, 2**32))
def test_ordinal_is_one_object_however_built(n, seed):
    rng = random.Random(seed)
    listed = [ordinal(k) for k in range(n)] + [ordinal(rng.randrange(n)) for _ in range(n and 3)]
    rng.shuffle(listed)
    atoms = [Atom(f"c{i}") for i in range(n)]
    canonical = ordinal(n)
    for built in (
        make_set(listed),
        union_all(ordinal(n + 1)),
        card(make_set(atoms)),
        ordinal_by_comprehension(n),
    ):
        assert built is canonical
    assert ordinal_value(canonical) == n
    memo: dict = {}
    assert hf_model(canonical, memo) is von_neumann_model(n, memo)


def test_ordinal_membership_compares_numbers():
    for n in range(12):
        for k in range(12):
            assert (ordinal(k) in ordinal(n)) == (k < n)
        assert Atom("z") not in ordinal(n)
        assert make_set([ordinal(1)]) not in ordinal(n)


def test_sets_of_ordinals_that_are_not_ordinals():
    for members in ([ordinal(0), ordinal(2)], [ordinal(1)], [ordinal(5)]):
        s = make_set(members)
        assert ordinal_value(s) is None
        assert repr(s).startswith("{")
        assert make_set(reversed(members)) is s


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 8), max_size=8), st.integers(0, 2**32))
def test_sets_mixing_ordinals_and_atoms_intern_in_any_order(picks, seed):
    # a negative pick names an atom, any other an ordinal
    values = [_MODEL_ATOMS[-p - 1] if p < 0 else ordinal(p) for p in picks]
    shuffled = values + values[:2]
    random.Random(seed).shuffle(shuffled)
    s = make_set(values)
    assert make_set(shuffled) is s
    assert hf_model(s) == frozenset(hf_model(v) for v in values)
    numbers = set(picks)
    if numbers == set(range(len(numbers))):
        assert s is ordinal(len(numbers))
    else:
        assert ordinal_value(s) is None
