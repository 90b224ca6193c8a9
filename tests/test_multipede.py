"""Multipede axioms, oddness, rigidity, and the isomorphism decider."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab.errors import ValidationError
from choiceless_lab.linalg.fields import zp
from choiceless_lab.linalg.matrix import FieldMatrix, rank_gaussian, solve_gaussian
from choiceless_lab.multipede import (
    Multipede3,
    _parities,
    _triple_at,
    from_structure,
    from_structure_lenient,
    is_odd,
    iso3_decide,
    random_multipede,
    shoe_expansions,
    to_structure,
    validate,
)
from choiceless_lab.structures import InputStructure, parse_structure, write_structure

from helpers import run_child
from oracles import (
    automorphism_count,
    brute_force_iso,
    even_difference_pairwise,
    flip_feet,
    iso3_by_base_matching,
    left_foot,
    random_multipede_listing,
    right_foot,
)


def pede_from(segments, hyperedges, seed=0, order=None) -> Multipede3:
    """Deterministic multipede with given hyperedges; each positivity class
    is the four triples whose count of ``b`` feet has the parity of three
    sides drawn by a seeded generator."""
    rng = random.Random(seed)
    positives = set()
    for h in hyperedges:
        parity = [rng.choice("ab") for _ in h].count("b") % 2
        positives.update(
            frozenset(map(str.__add__, h, sides))
            for sides in itertools.product("ab", repeat=3)
            if sides.count("b") % 2 == parity
        )
    return Multipede3(
        tuple(segments),
        tuple(f"{s}{side}" for s in segments for side in "ab"),
        {f"{s}{side}": s for s in segments for side in "ab"},
        frozenset(map(frozenset, hyperedges)),
        frozenset(positives),
        tuple(order or segments),
    )


# ------------------------------------------------------------- validation


def test_generator_output_is_valid():
    for seed in range(10):
        m = random_multipede(7, 9, seed=seed)
        assert validate(m) == []


def test_generator_determinism():
    m1 = random_multipede(6, 5, seed=4)
    m2 = random_multipede(6, 5, seed=4)
    assert m1.positives == m2.positives
    assert m1.segment_order == m2.segment_order
    assert m1.hyperedges == m2.hyperedges


def test_generator_infeasible_parameters():
    with pytest.raises(ValidationError):
        random_multipede(4, 5, seed=0)  # only four 3-subsets exist


def test_triple_at_unranks_the_listing():
    for n in range(16):
        listing = list(itertools.combinations(range(n), 3))
        assert [_triple_at(rank, n) for rank in range(len(listing))] == listing


def _sweep():
    """(n, k, seed) over n = 1..12, 20, 40 and 80, from no hyperedge to
    every triple where there are at most 240, and seeds 0 to 5."""
    for n in [*range(1, 13), 20, 40, 80]:
        total = math.comb(n, 3)
        ks = {0, 1, n // 2, n, 2 * n, 3 * n, total // 2, total}
        for k in sorted(k for k in ks if k <= min(total, 240)):
            for seed in range(6):
                yield n, k, seed


def _digest(m) -> list:
    text = write_structure(to_structure(m))
    return [hashlib.sha256(text.encode()).hexdigest(), is_odd(m)]


_SWEEP_CHILD = """
import hashlib, json, sys
from choiceless_lab.multipede import is_odd, random_multipede, to_structure
from choiceless_lab.structures import write_structure
out = []
for n, k, seed in json.loads(sys.argv[1]):
    m = random_multipede(n, k, seed)
    text = write_structure(to_structure(m))
    out.append([hashlib.sha256(text.encode()).hexdigest(), is_odd(m)])
print(json.dumps(out))
"""


def test_generator_matches_the_listing_generator():
    """Unranking sampled positions and picking classes by parity writes
    the file that listing every triple and expanding representatives
    wrote, under any hash seed."""
    cases = list(_sweep())
    expected = []
    for n, k, seed in cases:
        m, old = random_multipede(n, k, seed), random_multipede_listing(n, k, seed)
        assert write_structure(to_structure(m)) == write_structure(to_structure(old)), (n, k, seed)
        assert is_odd(m) == is_odd(old), (n, k, seed)
        assert shoe_expansions(m)[0].shoe == shoe_expansions(old)[0].shoe
        expected.append(_digest(old))
    for hash_seed in "01":
        child = run_child(["-c", _SWEEP_CHILD, json.dumps(cases)], hash_seed)
        assert json.loads(child.stdout) == expected, hash_seed


def test_generator_lists_no_triples():
    tracemalloc.start()
    try:
        random_multipede(300, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_validate_four_of_eight_violation():
    m = pede_from(["s0", "s1", "s2"], [("s0", "s1", "s2")])
    broken = Multipede3(
        m.segments,
        m.feet,
        m.segment_of,
        m.hyperedges,
        frozenset(list(m.positives)[:3]),
        m.segment_order,
    )
    kinds = {v[0] for v in validate(broken)}
    assert "four-of-eight" in kinds


def test_validate_even_difference_violation():
    m = pede_from(["s0", "s1", "s2"], [("s0", "s1", "s2")])
    positives = set(m.positives)
    rep = next(iter(positives))
    seg = m.segment_of[sorted(rep, key=str)[0]]
    f1, f2 = m.feet_of(seg)
    swapped = frozenset((f2 if f == f1 else f1 if f == f2 else f) for f in rep)
    positives.add(swapped)  # odd symmetric difference with rep
    broken = Multipede3(
        m.segments, m.feet, m.segment_of, m.hyperedges, frozenset(positives), m.segment_order
    )
    kinds = {v[0] for v in validate(broken)}
    assert "even-difference" in kinds
    assert "four-of-eight" in kinds  # five triples on one hyperedge


@st.composite
def mutated_multipedes(draw) -> Multipede3:
    """A random valid multipede with up to five faults: a positive triple
    dropped, a foot swapped for its partner in one, a positive triple
    grown by a partner foot, a random foot set of one to four feet made
    positive, a foot moved to another segment, a name given a segment but
    not listed as a foot, or a foot swapped in a positive triple for such
    a name."""
    n = draw(st.integers(3, 7))
    m = random_multipede(n, draw(st.integers(0, math.comb(n, 3))), seed=draw(st.integers(0, 10**6)))
    positives, segment_of = set(m.positives), dict(m.segment_of)
    feet = sorted(m.feet)
    for _ in range(draw(st.integers(0, 5))):
        fault = draw(st.sampled_from(["drop", "swap", "grow", "add", "move", "name", "stray"]))
        listed = sorted(positives, key=sorted)
        if fault == "drop" and listed:
            positives.discard(draw(st.sampled_from(listed)))
        elif fault in ("swap", "grow") and listed:
            p = draw(st.sampled_from(listed))
            feet_in_p = sorted(p & m.segment_of.keys())  # strays have no partner
            if feet_in_p:
                f = draw(st.sampled_from(feet_in_p))
                a, b = m.feet_of(m.segment_of[f])
                partner = b if f == a else a
                positives.add(p - {f} | {partner} if fault == "swap" else p | {partner})
        elif fault == "add":
            positives.add(frozenset(draw(st.lists(st.sampled_from(feet), min_size=1, max_size=4))))
        elif fault == "move":
            segment_of[draw(st.sampled_from(feet))] = draw(st.sampled_from(m.segments))
        elif fault == "name":
            segment_of[f"name{len(segment_of)}"] = draw(st.sampled_from(m.segments))
        elif fault == "stray" and listed:
            p = draw(st.sampled_from(listed))
            f = draw(st.sampled_from(sorted(p)))
            stray = f"stray{len(segment_of)}"
            segment_of[stray] = segment_of[f]
            positives.add(p - {f} | {stray})
    return replace(m, positives=frozenset(positives), segment_of=segment_of)


@settings(max_examples=400, deadline=None)
@given(mutated_multipedes())
def test_even_difference_violations_match_the_pairwise_check(m):
    """``validate`` tests pairs of a hyperedge's positive triples only when
    their parities of last-listed feet can differ; its even-difference
    witnesses are those of testing every pair."""
    report = validate(m)
    assert [v for v in report if v[0] == "even-difference"] == even_difference_pairwise(m)
    assert report == sorted(report)


# ----------------------------------------------------------------- oddness


def test_is_odd_examples():
    single = pede_from(["s0", "s1", "s2"], [("s0", "s1", "s2")])
    assert not is_odd(single)  # {s0, s1} meets the hyperedge evenly
    bare = pede_from(["s0"], [])
    assert not is_odd(bare)
    full4 = pede_from(
        ["s0", "s1", "s2", "s3"],
        list(itertools.combinations(["s0", "s1", "s2", "s3"], 3)),
    )
    assert is_odd(full4)


def test_is_odd_matches_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(3, 8)
        k = rng.randrange(0, min(12, n * (n - 1) * (n - 2) // 6) + 1)
        m = random_multipede(n, k, seed=rng.randrange(10**6))
        # brute force over all nonempty segment sets
        segs = list(m.segments)
        expected = True
        for r in range(1, n + 1):
            for combo in itertools.combinations(segs, r):
                x = set(combo)
                if all(len(x & h) % 2 == 0 for h in m.hyperedges):
                    expected = False
                    break
            if not expected:
                break
        assert is_odd(m) == expected


# ------------------------------------------------------------ automorphisms


def test_automorphism_count_examples():
    full4 = pede_from(
        ["s0", "s1", "s2", "s3"],
        list(itertools.combinations(["s0", "s1", "s2", "s3"], 3)),
    )
    assert automorphism_count(full4) == 1
    single = pede_from(["s0", "s1", "s2"], [("s0", "s1", "s2")])
    assert automorphism_count(single) == 4
    for n in (1, 3, 5):
        bare = pede_from([f"s{i}" for i in range(n)], [])
        assert automorphism_count(bare) == 2**n


def test_automorphism_count_matches_flip_enumeration():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randrange(3, 7)
        k = rng.randrange(0, min(8, n * (n - 1) * (n - 2) // 6) + 1)
        m = random_multipede(n, k, seed=rng.randrange(10**6))
        count = 0
        for r in range(n + 1):
            for combo in itertools.combinations(m.segments, r):
                x = set(combo)
                if all(len(x & h) % 2 == 0 for h in m.hyperedges):
                    count += 1
        assert automorphism_count(m) == count


def test_automorphism_count_past_sixteen_segments():
    big = pede_from([f"s{i}" for i in range(17)], [])
    assert automorphism_count(big) == 2**17


def test_oddness_iff_rigid():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(3, 8)
        k = rng.randrange(0, min(12, n * (n - 1) * (n - 2) // 6) + 1)
        m = random_multipede(n, k, seed=rng.randrange(10**6))
        assert is_odd(m) == (automorphism_count(m) == 1)


# ------------------------------------------------------------- isomorphism


def test_iso3_identical_yes():
    m = random_multipede(6, 8, seed=2)
    a, _ = shoe_expansions(m)
    assert iso3_decide(a, a)
    assert brute_force_iso(a, a)


def test_iso3_foot_flip_yes():
    m = random_multipede(6, 8, seed=3)
    flipped_seg = m.segment_order[2]
    a, _ = shoe_expansions(m)
    b = flip_feet(a, [flipped_seg])
    assert iso3_decide(a, b)
    assert brute_force_iso(a, b)


def test_iso3_first_segment_flip_matches_shoe_transfer():
    # flipping the first segment is an isomorphism exactly when the shoe
    # moves along with it
    m = random_multipede(6, 9, seed=5)
    if not is_odd(m):
        m = random_multipede(6, 11, seed=6)
    assert is_odd(m)
    twin = flip_feet(m, [m.first_segment])
    a_left, a_right = shoe_expansions(m)
    b_left, b_right = shoe_expansions(twin)
    # same shoe name: not isomorphic (the unique candidate flips the shoe)
    assert not iso3_decide(a_left, b_left)
    # shoe on the other foot: the flip itself is the isomorphism
    assert iso3_decide(a_left, b_right)


def test_iso3_dependent_rows_twist_no():
    segments = [f"s{i}" for i in range(1, 7)]
    hyperedges = [
        ("s1", "s2", "s3"),
        ("s1", "s4", "s5"),
        ("s2", "s4", "s6"),
        ("s3", "s5", "s6"),
    ]
    m = pede_from(segments, hyperedges, seed=7)
    # twist positivity at exactly the lexicographically first hyperedge:
    # rows sum to zero over GF(2) but the defect vector does not
    first = frozenset({"s1", "s2", "s3"})
    club = {p for p in m.positives if {m.segment_of[f] for f in p} == set(first)}
    others = m.positives - club
    f1, f2 = m.feet_of("s1")
    swapped = frozenset(
        frozenset((f2 if f == f1 else f1 if f == f2 else f) for f in p) for p in club
    )
    twisted = Multipede3(
        m.segments, m.feet, m.segment_of, m.hyperedges, others | swapped, m.segment_order
    )
    a, _ = shoe_expansions(m)
    b = replace(twisted, shoe=a.shoe)
    assert validate(b) == []
    assert not iso3_decide(a, b)
    assert not brute_force_iso(a, b)


def test_iso_deciders_agree_with_brute_force():
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        n = rng.randrange(3, 9)
        k = rng.randrange(1, min(14, n * (n - 1) * (n - 2) // 6) + 1)
        m = random_multipede(n, k, seed=rng.randrange(10**6))
        a, a_other = shoe_expansions(m)
        style = rng.randrange(4)
        if style == 0:
            b = a
        elif style == 1:
            flips = [s for s in m.segments if rng.random() < 0.5]
            b = flip_feet(a, flips)
        elif style == 2:
            twin = random_multipede(n, k, seed=rng.randrange(10**6))
            b, _ = shoe_expansions(twin)
        else:
            b = a_other
        expected = brute_force_iso(a, b)
        assert iso3_decide(a, b) == expected
        checked += 1


def test_rigid_odd_multipedes_have_distinct_shoe_expansions():
    rng = random.Random(53)
    found = 0
    while found < 12:
        n = rng.randrange(4, 10)
        k = min(2 * n, n * (n - 1) * (n - 2) // 6)
        m = random_multipede(n, k, seed=rng.randrange(10**6))
        if not is_odd(m):
            continue
        assert automorphism_count(m) == 1
        left, right = shoe_expansions(m)
        assert not iso3_decide(left, right)
        assert not brute_force_iso(left, right)
        found += 1


def test_shoe_must_sit_on_first_segment():
    m = random_multipede(5, 4, seed=9)
    other_seg_foot = m.feet_of(m.segment_order[1])[0]
    first = m.first_segment
    assert validate(replace(m, shoe=other_seg_foot)) == [("shoe-segment", other_seg_foot)]
    assert validate(replace(m, shoe=first)) == [("shoe-foot", first)]
    assert validate(replace(m, shoe=m.feet_of(first)[1])) == []


# ------------------------------------------------------------ structure io


def test_structure_roundtrip():
    m = random_multipede(5, 5, seed=13)
    shod, _ = shoe_expansions(m)
    back = from_structure(to_structure(shod))
    assert back.segment_order == m.segment_order
    assert back.hyperedges == m.hyperedges
    assert back.positives == m.positives
    assert back.shoe == shod.shoe
    assert iso3_decide(shod, back)


_SEGMENT_ORDER = "rel Leq/2: (s0,s0) (s0,s1) (s1,s1)\n"


@pytest.mark.parametrize(
    "leq",
    [
        "(s0,s0) (s0,s1) (s1,s0)",  # s1 <= s0 in place of s1 <= s1
        "(s0,s1) (s0,s0a) (s1,s1)",  # a foot in place of s0 <= s0
        "(s0,s0) (s0,s1)",  # s1 <= s1 missing
        "(s0,s0) (s0,s1) (s1,s0) (s1,s1)",  # both ways
    ],
)
def test_leq_must_be_the_segment_order(leq):
    text = write_structure(to_structure(pede_from(["s0", "s1"], [])))
    assert _SEGMENT_ORDER in text
    pede = from_structure_lenient(parse_structure(text))
    assert pede.segment_order == ("s0", "s1")
    bad = text.replace(_SEGMENT_ORDER, f"rel Leq/2: {leq}\n")
    with pytest.raises(ValidationError, match="Leq is not a linear order"):
        from_structure_lenient(parse_structure(bad))


def test_s_must_give_each_foot_one_segment():
    # with a second segment for s0a, which one the decoder kept would
    # follow the relation's iteration order
    text = write_structure(to_structure(pede_from(["s0", "s1"], [])))
    bad = text.replace("(s0a,s0)", "(s0a,s0) (s0a,s1)")
    assert bad != text
    with pytest.raises(ValidationError, match="S must assign one segment"):
        from_structure_lenient(parse_structure(bad))


def relisted(structure, name, tuples):
    """``structure`` with the relation ``name`` listing ``tuples``."""
    relations = {**structure.relations, name: tuples}
    return InputStructure.build(structure.atoms, relations, arities=structure.arities)


def test_hyper_and_positive_must_list_every_ordering():
    structure = to_structure(shoe_expansions(random_multipede(6, 6, seed=3))[0])
    hyper, positive = structure.relations["Hyper"], structure.relations["Positive"]
    assert (len(hyper), len(positive)) == (36, 144)
    one_way = [t for t in hyper if list(t) == sorted(t)]
    for name, tuples in (("Hyper", one_way), ("Positive", sorted(positive)[1:])):
        with pytest.raises(ValidationError, match=f"{name} must list every ordering"):
            from_structure_lenient(relisted(structure, name, tuples))


def test_repeated_members_listed_every_way_reach_validate():
    """A triple with a repeated member, in each of its orderings, is read
    as its member set and reported by ``validate``; one ordering short, it
    is refused."""
    structure = to_structure(pede_from(["s0", "s1", "s2"], [("s0", "s1", "s2")]))
    degenerate = {"Hyper": ("s0", "s0", "s1"), "Positive": ("s0a", "s1b", "s1b")}
    for name, triple in degenerate.items():
        orderings = set(itertools.permutations(triple))
        tuples = structure.relations[name] | orderings
        pede = from_structure_lenient(relisted(structure, name, tuples))
        shape = "hyperedge-shape" if name == "Hyper" else "positive-shape"
        assert (shape, tuple(sorted(set(triple)))) in validate(pede)
        with pytest.raises(ValidationError, match=f"{name} must list every ordering"):
            from_structure_lenient(relisted(structure, name, tuples - {min(orderings)}))


# ------------------------------------------- packed rows against elimination

GF2 = zp(2)


def incidence_triples(m: Multipede3) -> list:
    """Hyperedges as sorted triples of segment order positions."""
    position = {s: i for i, s in enumerate(m.segment_order)}
    return sorted(tuple(sorted(position[s] for s in h)) for h in m.hyperedges)


def incidence_field_matrix(rows, n) -> FieldMatrix:
    """Each row, a tuple of column positions, holds ones there."""
    return FieldMatrix(
        GF2, frozenset(rows), frozenset(range(n)), {(row, c): 1 for row in rows for c in row}
    )


def rank_by_elimination(m: Multipede3) -> int:
    rows = incidence_triples(m)
    n = len(m.segment_order)
    return rank_gaussian(incidence_field_matrix(rows, n), rows, list(range(n)))


def iso_by_elimination(a: Multipede3, b: Multipede3) -> bool:
    """The shod isomorphism system A x = v, x_0 = 0, solved by ordered
    Gaussian elimination over GF(2)."""
    n = len(a.segment_order)
    rows = incidence_triples(a)
    if n != len(b.segment_order) or rows != incidence_triples(b):
        return False
    mu = {}
    for sa, sb in zip(a.segment_order, b.segment_order):
        mu[left_foot(a, sa)] = left_foot(b, sb)
        mu[right_foot(a, sa)] = right_foot(b, sb)
    position = {s: i for i, s in enumerate(a.segment_order)}
    rhs = {}
    for p in a.positives:
        # every triple of a positivity class has the same defect
        row = tuple(sorted(position[a.segment_of[f]] for f in p))
        rhs[row] = int(frozenset(mu[f] for f in p) not in b.positives)
    rows.append((0,))  # x_0 = 0 keeps the shoe on its foot
    system = incidence_field_matrix(rows, n)
    return solve_gaussian(system, rhs, rows, list(range(n))) is not None


def twist(m: Multipede3, hyperedges) -> Multipede3:
    """Swap the positivity class on each of the given hyperedges."""
    positives = set(m.positives)
    for h in hyperedges:
        f1, f2 = m.feet_of(min(h))
        club = {p for p in positives if {m.segment_of[f] for f in p} == h}
        positives -= club
        positives |= {frozenset({f2 if f == f1 else f1 if f == f2 else f for f in p}) for p in club}
    return replace(m, positives=frozenset(positives))


def rename(m: Multipede3, rng: random.Random) -> Multipede3:
    """The same shod multipede under fresh segment and foot names, drawn
    so that the names' string order is shuffled too."""
    seg_names = rng.sample(range(max(100, len(m.segments))), len(m.segments))
    foot_names = rng.sample(range(max(100, len(m.feet))), len(m.feet))
    seg = {s: f"g{k}" for s, k in zip(m.segments, seg_names)}
    foot = {f: f"f{k}" for f, k in zip(m.feet, foot_names)}
    return Multipede3(
        tuple(seg[s] for s in m.segments),
        tuple(foot[f] for f in m.feet),
        {foot[f]: seg[s] for f, s in m.segment_of.items()},
        frozenset(frozenset(seg[s] for s in h) for h in m.hyperedges),
        frozenset(frozenset(foot[f] for f in p) for p in m.positives),
        tuple(seg[s] for s in m.segment_order),
        foot[m.shoe],
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 20),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
def test_packed_rank_matches_elimination_under_renaming(n, k, style, seed):
    rng = random.Random(seed)
    k = min(k, n * (n - 1) * (n - 2) // 6)
    m = random_multipede(n, k, seed=rng.randrange(10**6))
    a, a_other = shoe_expansions(m)
    if style == 0:
        b = a
    elif style == 1:
        b = flip_feet(a, [s for s in m.segments if rng.random() < 0.5])
    elif style == 2:
        twisted = twist(a, [h for h in sorted(m.hyperedges, key=sorted) if rng.random() < 0.3])
        b = flip_feet(twisted, rng.sample(m.segments, 1))
    else:
        b = a_other
    rank = rank_by_elimination(m)
    verdicts = (is_odd(m), automorphism_count(m), iso3_decide(a, b))
    assert verdicts == (rank == n, 2 ** (n - rank), iso_by_elimination(a, b))
    a2, b2 = rename(a, rng), rename(b, rng)
    assert (is_odd(a2), automorphism_count(a2), iso3_decide(a2, b2)) == verdicts


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(0, 20),
    st.sampled_from(["flip", "shoe", "twist"]),
    st.integers(0, 2**32 - 1),
)
def test_parity_bits_match_the_base_matching_under_renaming(n, k, style, seed):
    """b is a with the feet flipped on random segments, the other shoe
    expansion, or a with one hyperedge's positive class switched; fresh
    names reverse the two feet's name order on random segments."""
    rng = random.Random(seed)
    m = random_multipede(n, min(k, math.comb(n, 3)), seed=rng.randrange(10**6))
    a, a_other = shoe_expansions(m)
    if style == "flip":
        b = flip_feet(a, [s for s in m.segments if rng.random() < 0.5])
    elif style == "shoe":
        b = a_other
    else:
        hyperedges = sorted(m.hyperedges, key=sorted)
        b = twist(a, rng.sample(hyperedges, min(1, len(hyperedges))))
    a, b = rename(a, rng), rename(b, rng)
    verdict = iso3_decide(a, b)
    assert verdict == iso3_by_base_matching(a, b)
    if n <= 6:
        assert verdict == brute_force_iso(a, b)


def _rank_by_xor(rows) -> int:
    """GF(2) rank of rows packed as ints, as the decider counted it before
    it read pivots."""
    pivots: dict = {}  # leading bit -> reduced row
    for row in rows:
        while row and row.bit_length() - 1 in pivots:
            row ^= pivots[row.bit_length() - 1]
        if row:
            pivots[row.bit_length() - 1] = row
    return len(pivots)


def iso3_by_two_ranks(a: Multipede3, b: Multipede3) -> bool:
    """The decider before one elimination: the system A x = v, x_0 = 0 is
    solvable exactly when appending v as bit n leaves the rank unchanged
    (Rouché–Capelli)."""
    n = len(a.segment_order)
    pa, pb = _parities(a), _parities(b)
    if n != len(b.segment_order) or pa.keys() != pb.keys():
        return False
    shoe = 1  # x_0 = 0 keeps the shoe on its foot
    augmented = [row | (pa[row] ^ pb[row]) << n for row in pa]
    return _rank_by_xor(augmented + [shoe]) == _rank_by_xor([*pa, shoe])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(0, 150),
    st.sampled_from(["flip", "twist", "shoe"]),
    st.integers(0, 2**32 - 1),
)
def test_one_elimination_matches_two_ranks_under_renaming(n, k, style, seed):
    """Shod multipedes of up to 60 segments, past where ``brute_force_iso``
    reaches: b is a with the feet flipped on random segments, with a few
    hyperedges' positive classes switched too, or the other shoe
    expansion; both get fresh names.  ``iso3_decide`` agrees with the two
    ranks it replaced, and ``is_odd`` with ordered Gaussian elimination."""
    rng = random.Random(seed)
    m = random_multipede(n, min(k, math.comb(n, 3)), seed=rng.randrange(10**6))
    a, a_other = shoe_expansions(m)
    b = flip_feet(a, [s for s in m.segments if rng.random() < 0.5])
    if style == "twist":
        hyperedges = sorted(m.hyperedges, key=sorted)
        b = twist(b, rng.sample(hyperedges, min(rng.randrange(4), len(hyperedges))))
    elif style == "shoe":
        b = a_other
    a, b = rename(a, rng), rename(b, rng)
    assert iso3_decide(a, b) == iso3_by_two_ranks(a, b)
    assert is_odd(a) == (rank_by_elimination(m) == n)
