"""Command line: round trips, exit statuses, report determinism."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import cli, multipede
from choiceless_lab.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    dispatch,
)
from choiceless_lab.linalg import intmatrix, sampling
from choiceless_lab.linalg.primes import sieve_first_primes
from choiceless_lab.structures import parse_structure, write_structure

from helpers import largest_admitted, power_structure, run_child, twin_gadget
from oracles import flip_feet


def invoke(argv, capsys):
    code, report = dispatch(argv)
    capsys.readouterr()  # keep test output clean
    return code, report


def test_gen_and_solve_matching_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.str"
    code, report = invoke(
        [
            "gen",
            "bipartite",
            "--na",
            "3",
            "--nb",
            "3",
            "--density",
            "0.9",
            "--seed",
            "7",
            "--file",
            str(path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert path.exists()
    code, report = invoke(["solve", "matching", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"]["verdict"] in ("yes", "no")
    code, report = invoke(["solve", "matching", "--input", str(path), "--max-size"], capsys)
    assert code == EXIT_OK
    assert 0 <= report["result"]["max_matching"] <= 3


def test_solve_matching_gang_instance(tmp_path, capsys):
    text = (
        "atoms: a1 a2 a3 a4 b1 b2 b3 b4\n"
        "rel InA/1: (a1) (a2) (a3) (a4)\n"
        "rel InB/1: (b1) (b2) (b3) (b4)\n"
        "rel R/2: (a2,b1) (a2,b2) (a1,b3) (a1,b4) (a3,b3) (a3,b4) (a4,b3) (a4,b4)\n"
    )
    path = tmp_path / "gang.str"
    path.write_text(text)
    code, report = invoke(["solve", "matching", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "no"
    code, report = invoke(["solve", "matching", "--input", str(path), "--max-size"], capsys)
    assert report["result"]["max_matching"] == 3


def test_solve_matching_on_a_long_path_stays_fast(tmp_path, capsys):
    # a path needs a refinement round per vertex pair, so a coloring that
    # reads every vertex each round is quadratic here
    n = 4000
    atoms = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    edges = [(f"a{i}", f"b{i}") for i in range(n)] + [(f"a{i + 1}", f"b{i}") for i in range(n - 1)]
    path = tmp_path / "path.str"
    path.write_text(
        f"atoms: {' '.join(atoms)}\n"
        f"rel InA/1: {' '.join(f'({a})' for a in atoms[:n])}\n"
        f"rel InB/1: {' '.join(f'({b})' for b in atoms[n:])}\n"
        f"rel R/2: {' '.join(f'({a},{b})' for a, b in edges)}\n"
    )
    started = time.monotonic()
    code, report = invoke(["solve", "matching", "--input", str(path), "--max-size"], capsys)
    assert time.monotonic() - started < 2
    assert (code, report["result"]["max_matching"]) == (EXIT_OK, n)


def test_gen_cfi_classify_roundtrip(tmp_path, capsys):
    # twist_size counts the twist set, so a repeated vertex counts once
    for twist, size in (("even", 0), ("odd", 1), ("v0,v1", 2), ("v0,v0", 1), ("v1,v0,v1,v2", 3)):
        path = tmp_path / f"cfi_{twist}.str"
        code, report = invoke(
            ["gen", "cfi", "--m", "2", "--twist", twist, "--file", str(path)], capsys
        )
        assert code == EXIT_OK
        assert report["result"]["twist_size"] == size
        code, report = invoke(["solve", "cfi-classify", "--input", str(path)], capsys)
        assert code == EXIT_OK
        assert report["result"]["class"] == size % 2


# sha256 of the files `gen cfi --m M --twist TWIST [--pad]` writes: a change
# to the construction or to the writer that moves a byte of them fails here
_GADGET_FILE_DIGESTS = {
    (2, "even", False): "3e348c604c2c47c4f54e2e8a349d45d0820e16e6c021a68b56a78746ca852940",
    (2, "even", True): "9ca50f8460936c745ea148536aa2b4fc99b1e07cc311efc2fa0f8e66f935b8ca",
    (2, "odd", False): "0bc855f7fdf64bc5249ce497172a1e00875387d77ab92de0eaf42f54168184c4",
    (2, "odd", True): "5556d2640deea917d7c7814a60f27693b86d0bbe3246d16fd61dd4da3d0e928b",
    (3, "even", False): "a0f9e9494dd704c87e60d3b77a791753eecd31e04855957d9c14a7cb38f9a33d",
    (3, "even", True): "f56477f0ad4df6e49f2d3825eedbbb6c3e1115bff45ee9f642ed16dc3978986f",
    (3, "odd", False): "d1b378784e183dad9779d7356336bb1923913affeb5d93fc3942298ac2688f08",
    (3, "odd", True): "00c835db628459b0f1eecdb63b9a0fff5ae184df01c3cccdb7e07998d473b955",
    (4, "even", False): "ff14f52d4ef9a96a8945bbcc7a0c3be00ffadbbcc0610786785683f724541681",
    (4, "even", True): "a16877743bf7ebec4127d1c042604ea122aefc3c23116d96b58436c54b5ab133",
    (4, "odd", False): "ded6760e34dd9bfc08f8ee3c0bcecf86003a18cc83faa424a09b54693b518b29",
    (4, "odd", True): "70b4c3ab96469346f53778d9b7685472628edcc3163cea8d6295044ee65d2c64",
}


def test_gen_cfi_files_are_pinned(tmp_path, capsys):
    path = tmp_path / "g.str"
    for (m, twist, padded), digest in _GADGET_FILE_DIGESTS.items():
        pad = ["--pad"] if padded else []
        code, _ = invoke(["gen", "cfi", "--m", str(m), "--twist", twist, *pad, "--file", str(path)], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (m, twist, padded)


# (segments, hyperedges, seed) -> sha256 of the file ``gen multipede --shoe`` writes
_SHOD_FILE_DIGESTS = {
    (1, 0, 2): "4e97405220609cb3e9c8564e20513afe04a30fcc0a564c1a90c0c8d166518f96",
    (6, 8, 3): "54d709a261b035155a420241ebdda7f1390f55771c552824e6c7fc47c1d6ac99",
    (40, 60, 1): "e22a5efe8be02601b1c7ba079a146742e5a77329e8e4096223b7f6c12cf53163",
}


def test_gen_multipede_shod_files_are_pinned(tmp_path, capsys):
    path = tmp_path / "m.str"
    for (n, k, seed), digest in _SHOD_FILE_DIGESTS.items():
        argv = ["gen", "multipede", "--segments", str(n), "--hyperedges", str(k), "--seed", str(seed)]
        code, _ = invoke([*argv, "--shoe", "--file", str(path)], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (n, k, seed)


def test_gen_cfi_padded_and_iso(tmp_path, capsys):
    a = tmp_path / "a.str"
    b = tmp_path / "b.str"
    invoke(["gen", "cfi", "--m", "2", "--twist", "odd", "--file", str(a)], capsys)
    invoke(["gen", "cfi", "--m", "2", "--twist", "v0,v1,v2", "--file", str(b)], capsys)
    code, report = invoke(["iso", "cfi", "--a", str(a), "--b", str(b)], capsys)
    assert code == EXIT_OK
    assert report["result"]["isomorphic"] is True
    padded = tmp_path / "p.str"
    code, report = invoke(
        ["gen", "cfi", "--m", "2", "--twist", "even", "--pad", "--file", str(padded)],
        capsys,
    )
    assert code == EXIT_OK
    assert report["result"]["padding"] == 16
    code, report = invoke(["solve", "cfi-classify", "--input", str(padded)], capsys)
    assert report["result"]["class"] == 0


def test_iso_cfi_rejects_twin_blocks(tmp_path, capsys):
    twin = tmp_path / "twin.str"
    plain = tmp_path / "plain.str"
    twin.write_text(write_structure(twin_gadget()))
    invoke(["gen", "cfi", "--m", "4", "--twist", "even", "--file", str(plain)], capsys)
    code, report = invoke(["iso", "cfi", "--a", str(twin), "--b", str(plain)], capsys)
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"


def test_gen_multipede_validate_and_iso(tmp_path, capsys):
    a = tmp_path / "a.str"
    code, report = invoke(
        [
            "gen",
            "multipede",
            "--segments",
            "5",
            "--hyperedges",
            "6",
            "--seed",
            "3",
            "--shoe",
            "--file",
            str(a),
        ],
        capsys,
    )
    assert code == EXIT_OK
    code, report = invoke(["validate", "multipede", "--input", str(a)], capsys)
    assert code == EXIT_OK
    assert report["result"]["valid"] is True
    assert report["result"]["has_shoe"] is True
    code, report = invoke(["iso", "multipede3", "--a", str(a), "--b", str(a)], capsys)
    assert code == EXIT_OK
    assert report["result"]["isomorphic"] is True
    code, report = invoke(["iso", "multipede4", "--a", str(a), "--b", str(a)], capsys)
    assert code == EXIT_OK
    assert report["result"]["isomorphic"] is True


def test_validate_multipede_rejects_leq_that_is_not_the_segment_order(tmp_path, capsys):
    # every segment has the right number of Leq successors, but s1 <= s1
    # is replaced by s1 <= s0
    path = tmp_path / "p.str"
    path.write_text(
        "atoms: s0 s1 s0a s0b s1a s1b\n"
        "rel Segment/1: (s0) (s1)\n"
        "rel Foot/1: (s0a) (s0b) (s1a) (s1b)\n"
        "rel S/2: (s0a,s0) (s0b,s0) (s1a,s1) (s1b,s1)\n"
        "rel Hyper/3:\nrel Positive/3:\nrel Shoe/1:\n"
        "rel Leq/2: (s0,s0) (s0,s1) (s1,s0)\n"
    )
    code, report = invoke(["validate", "multipede", "--input", str(path)], capsys)
    assert code == EXIT_PARSE
    assert "Leq is not a linear order" in report["error"]["message"]


def test_positive_on_a_non_foot_is_a_violation(tmp_path, capsys):
    """A Positive tuple naming a segment is reported, not looked up."""
    path = tmp_path / "p.str"
    argv = ["gen", "multipede", "--segments", "3", "--hyperedges", "1", "--seed", "1"]
    code, _ = invoke(argv + ["--shoe", "--file", str(path)], capsys)
    assert code == EXIT_OK
    orderings = " ".join(f"({','.join(t)})" for t in itertools.permutations(("s00", "s01a", "s02a")))
    text = path.read_text().replace("rel Positive/3:", f"rel Positive/3: {orderings}")
    path.write_text(text)
    code, report = invoke(["validate", "multipede", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"]["valid"] is False
    assert report["result"]["violations"] == [["positive-image", "('s00', 's01a', 's02a')"]]
    code, report = invoke(["iso", "multipede3", "--a", str(path), "--b", str(path)], capsys)
    assert code == EXIT_PARSE
    assert "positive-image" in report["error"]["message"]


def test_multipede_listing_a_triple_one_way_exits_parse(tmp_path, capsys):
    """``Hyper`` with one ordering per hyperedge, and ``Positive`` with one
    ordering missing, are refused by ``validate`` and ``iso``."""
    path = tmp_path / "m.str"
    argv = ["gen", "multipede", "--segments", "6", "--hyperedges", "6", "--seed", "3", "--shoe"]
    code, _ = invoke(argv + ["--file", str(path)], capsys)
    assert code == EXIT_OK
    lines = path.read_text().splitlines(keepends=True)
    for name in ("Hyper", "Positive"):
        (index,) = [i for i, line in enumerate(lines) if line.startswith(f"rel {name}/3:")]
        tuples = lines[index].split(": ", 1)[1].split()
        if name == "Hyper":
            kept = [t for t in tuples if t[1:-1].split(",") == sorted(t[1:-1].split(","))]
            assert len(kept) * 6 == len(tuples) == 36
        else:
            kept = tuples[1:]
        one_way = tmp_path / f"{name}.str"
        one_way.write_text("".join(lines[:index] + [f"rel {name}/3: {' '.join(kept)}\n"] + lines[index + 1 :]))
        for check in (["validate", "multipede", "--input"], ["iso", "multipede3", "--b", str(path), "--a"]):
            code, report = invoke(check + [str(one_way)], capsys)
            assert code == EXIT_PARSE, (name, check)
            assert f"{name} must list every ordering" in report["error"]["message"]


def test_iso_multipede4_answers_past_sixteen_segments(tmp_path, capsys):
    a = tmp_path / "a.str"
    code, report = invoke(
        [
            "gen",
            "multipede",
            "--segments",
            "20",
            "--hyperedges",
            "40",
            "--seed",
            "1",
            "--shoe",
            "--file",
            str(a),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert report["result"]["odd"] is True  # rigid, so a first-segment flip is no isomorphism
    shod = multipede.from_structure(parse_structure(a.read_text()))
    b = tmp_path / "b.str"
    b.write_text(write_structure(multipede.to_structure(flip_feet(shod, [shod.first_segment]))))
    answers = []
    for other in (a, b):
        verdicts = []
        for kind in ("multipede3", "multipede4"):
            code, report = invoke(["iso", kind, "--a", str(a), "--b", str(other)], capsys)
            assert code == EXIT_OK
            verdicts.append(report["result"]["isomorphic"])
        assert verdicts[0] == verdicts[1]
        answers.append(verdicts[0])
    assert answers == [True, False]


def test_iso_takes_no_force(tmp_path, capsys):
    a = tmp_path / "a.str"
    invoke(
        ["gen", "multipede", "--segments", "4", "--hyperedges", "3", "--seed", "9", "--shoe", "--file", str(a)],
        capsys,
    )
    for kind in ("multipede3", "multipede4", "cfi"):
        code, _ = invoke(["iso", kind, "--a", str(a), "--b", str(a), "--force"], capsys)
        assert code == EXIT_USAGE


def test_validate_structure(tmp_path, capsys):
    path = tmp_path / "s.str"
    path.write_text("atoms: x y\nrel E/2: (x,y)\n")
    code, report = invoke(["validate", "structure", "--input", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"]["atoms"] == 2
    assert report["result"]["symbols"]["E"]["tuples"] == 1


def test_solve_det_field_methods(tmp_path, capsys):
    path = tmp_path / "m.mat"
    path.write_text("field 2\nrows r0 r1\nsquare\nr0 r1 1\nr1 r0 1\nr1 r1 1\n")
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"] == {"method": "power", "nonsingular": True}
    code, report = invoke(
        ["solve", "det", "--matrix", str(path), "--method", "gauss"], capsys
    )
    assert report["result"]["rank"] == 2
    assert report["result"]["nonsingular"] is True


def _write_field_matrix(path, q, rows, cols, entries):
    lines = [f"field {q}", "rows " + " ".join(rows), "cols " + " ".join(cols)]
    lines += [f"{i} {j} {v}" for (i, j), v in entries.items()]
    path.write_text("\n".join(lines) + "\n")


def _both_methods(path, capsys) -> list:
    """The results of ``solve det`` by power and by gauss on ``path``."""
    results = []
    for method in ("power", "gauss"):
        code, report = invoke(["solve", "det", "--matrix", str(path), "--method", method], capsys)
        assert code == EXIT_OK
        results.append(report["result"])
    return results


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_solve_det_methods_agree_on_unequal_index_sets(tmp_path, capsys, q, shape):
    """An I-by-J matrix with |I| != |J| has no inverse: power and gauss
    both call it singular, though its rank is the smaller size."""
    rows = [f"r{i}" for i in range(shape[0])]
    cols = [f"c{j}" for j in range(shape[1])]
    entries = {(rows[k], cols[k]): 1 for k in range(2)}
    entries[rows[-1], cols[-1]] = q - 1
    path = tmp_path / "rect.mat"
    _write_field_matrix(path, q, rows, cols, entries)
    power, gauss = _both_methods(path, capsys)
    assert power == {"method": "power", "nonsingular": False}
    assert gauss == {"method": "gauss", "rank": 2, "nonsingular": False}


def test_solve_det_gf2_matrix_of_integer_determinant_two(tmp_path, capsys):
    """Rows 110, 011, 101 have determinant 2 over Z: over GF(2) both
    methods call them singular, rank 2, square and as an I-by-J matrix,
    under every renaming of the rows."""
    grid = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    path = tmp_path / "det2.mat"
    for names in itertools.permutations(["x", "y", "z"]):
        for cols in (names, ("c0", "c1", "c2")):
            entries = {(names[i], cols[j]): 1 for i in range(3) for j in range(3) if grid[i][j]}
            _write_field_matrix(path, 2, sorted(names), sorted(cols), entries)
            power, gauss = _both_methods(path, capsys)
            assert power == {"method": "power", "nonsingular": False}
            assert gauss == {"method": "gauss", "rank": 2, "nonsingular": False}


def test_solve_det_integer_crt(tmp_path, capsys):
    path = tmp_path / "z.mat"
    path.write_text("ring Z\nrows i0 i1\nsquare\ni0 i0 2\ni1 i1 3\n")
    code, report = invoke(
        ["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys
    )
    assert code == EXIT_OK
    assert report["result"]["nonsingular"] is True
    assert report["result"]["prime_divisors"][:2] == [2, 3]
    assert report["result"]["determinant_zero"] is False
    singular = tmp_path / "sing.mat"
    singular.write_text("ring Z\nrows i0 i1\nsquare\ni0 i0 2\ni0 i1 4\ni1 i0 1\ni1 i1 2\n")
    code, report = invoke(
        ["solve", "det", "--matrix", str(singular), "--prime-divisors"], capsys
    )
    assert report["result"]["nonsingular"] is False
    assert report["result"]["determinant_zero"] is True


def test_solve_det_prime_divisors_scans_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = intmatrix._power_sums

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(intmatrix, "_power_sums", counting)
    # singular, digit count 3: n = 3, so the scan covers the first 18 primes
    path = tmp_path / "sing.mat"
    path.write_text("ring Z\nrows i0 i1\nsquare\ni0 i0 2\ni0 i1 4\ni1 i0 1\ni1 i1 2\n")
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_OK
    assert list(report["result"]) == ["method", "nonsingular", "prime_divisors", "determinant_zero"]
    assert report["result"]["determinant_zero"] is True
    assert report["result"]["nonsingular"] is False
    assert len(calls) == 1
    assert report["result"]["prime_divisors"] == sieve_first_primes(2 * 3 * 3)
    calls.clear()
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert report["result"] == {"method": "crt", "nonsingular": False}
    assert len(calls) == 1


def _write_int_matrix(path, rows):
    lines = ["ring Z", "rows " + " ".join(f"i{k}" for k in range(len(rows))), "square"]
    for i, row in enumerate(rows):
        lines += [f"i{i} i{j} {v}" for j, v in enumerate(row) if v]
    path.write_text("\n".join(lines) + "\n")


def test_solve_det_decides_wide_entries_at_once(tmp_path, capsys):
    """A singular 2x2 matrix of 1000-bit entries: the verdict sieves no
    primes, where a scan of this width would list 2 * 1000**2 of them."""
    big = 2**1000 - 3
    path = tmp_path / "wide.mat"
    _write_int_matrix(path, [[big, 2 * big], [big + 1, 2 * big + 2]])
    started = time.monotonic()
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert time.monotonic() - started < 1
    assert code == EXIT_OK
    assert report["result"] == {"method": "crt", "nonsingular": False}


def test_prime_divisors_guard_bounds_the_scan_width(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(intmatrix, "SCAN_MAX_WIDTH", 4)
    path = tmp_path / "z.mat"
    _write_int_matrix(path, [[15, 0], [0, 1]])  # digit count 4
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_OK
    assert report["result"]["prime_divisors"] == [3, 5]
    _write_int_matrix(path, [[16, 0], [0, 1]])  # digit count 5
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_GUARD
    assert "det.scan_width" in report["error"]["message"]
    # the verdict alone scans no primes, so the guard does not apply
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"] == {"method": "crt", "nonsingular": True}


def test_prime_divisors_refusals_reach_neither_the_sieve_nor_a_product(
    tmp_path, capsys, monkeypatch
):
    """A matrix past the scan width, past the work guard, or past both is
    refused before the sieve and before any product; past both, the
    refusal names the scan width, which is checked first."""
    calls = []
    monkeypatch.setattr(intmatrix, "sieve_first_primes", lambda k: calls.append("sieve"))
    monkeypatch.setattr(intmatrix, "_power_sums", lambda m: calls.append("products"))
    width = intmatrix.SCAN_MAX_WIDTH + 1
    past_work = largest_admitted(9) + 1
    past_both = largest_admitted(width) + 1
    cases = [
        ([[2**width - 1]], "det.scan_width"),
        ([[2**8 + i + j for j in range(past_work)] for i in range(past_work)], "det.max_work"),
        ([[2**width - 1 - i - j for j in range(past_both)] for i in range(past_both)],
         "det.scan_width"),
    ]
    path = tmp_path / "z.mat"
    for rows, guard in cases:
        _write_int_matrix(path, rows)
        code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
        assert code == EXIT_GUARD
        assert guard in report["error"]["message"]
    assert calls == []


@pytest.mark.parametrize("past", ["digits", "dimension"])
def test_prime_divisors_one_step_past_the_guard_exits_at_once(tmp_path, capsys, past):
    width = intmatrix.SCAN_MAX_WIDTH + 1
    if past == "digits":
        rows = [[2**width - 1]]
    else:
        rows = [[int(i == j) for j in range(width)] for i in range(width)]
    path = tmp_path / "z.mat"
    _write_int_matrix(path, rows)
    started = time.monotonic()
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_GUARD
    assert report["error"]["kind"] == "guard"
    assert time.monotonic() - started < 1


def test_prime_divisors_at_the_guard_lists_the_whole_scan(tmp_path, capsys):
    path = tmp_path / "z.mat"
    _write_int_matrix(path, [[2**intmatrix.SCAN_MAX_WIDTH - 1]])
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_OK
    # 2**256 - 1 is the product of the Fermat numbers F0 .. F7
    assert report["result"]["prime_divisors"][:3] == [3, 5, 17]


@pytest.mark.parametrize("digits", [9, intmatrix.SCAN_MAX_WIDTH])
def test_determinant_one_step_past_the_work_guard_exits_at_once(tmp_path, capsys, digits):
    """The first n the determinant's work guard refuses, at the default
    entry bound of ``gen matrix`` and at the widest entries the prime scan
    admits: a verdict would take seconds, and both routes refuse it at
    once."""
    n = largest_admitted(digits) + 1
    path = tmp_path / "z.mat"
    _write_int_matrix(path, [[2 ** (digits - 1) + i + j for j in range(n)] for i in range(n)])
    for extra in ([], ["--prime-divisors"]):
        started = time.monotonic()
        code, report = invoke(["solve", "det", "--matrix", str(path), *extra], capsys)
        assert time.monotonic() - started < 1
        assert code == EXIT_GUARD
        assert "det.max_work" in report["error"]["message"]


# every .mat rejection: (text, line the error names, or None at end of input)
_BAD_MATRIX_TEXTS = {
    "missing ring header": ("rows a\nsquare\n", None),
    "field order not a number": ("field two\nrows a\nsquare\n", 1),
    "field header without an order": ("field\nrows a\nsquare\n", 1),
    "no field of that order": ("field 6\nrows a\nsquare\n", 1),
    "ring other than Z": ("ring Q\nrows a\nsquare\n", 1),
    "field then ring": ("field 2\nring Z\nrows a\nsquare\na a 3\n", 2),
    "second field header": ("field 2\nfield 3\nrows a\nsquare\n", 2),
    "second rows header": ("field 2\nrows a b\nrows a\nsquare\na a 1\n", 3),
    "second cols header": ("field 2\nrows a\ncols a\ncols b\nb b 1\n", 4),
    "second square flag": ("field 2\nrows a\nsquare\nsquare\n", 4),
    "missing rows header": ("field 2\nsquare\n", None),
    "missing cols header": ("field 2\nrows a\n", None),
    "row name twice": ("field 2\nrows a a\nsquare\n", 2),
    "column name twice": ("field 2\nrows a b\ncols x x\n", 3),
    "square flag with other columns": ("field 2\nrows a\ncols b\nsquare\n", 4),
    "integer matrix not square": ("ring Z\nrows a\ncols a\n", 1),
    "unrecognized line": ("field 2\nrows a\nsquare\na a\n", 4),
    "entry outside the index sets": ("field 2\nrows a\nsquare\na b 1\n", 4),
    "entry not a number": ("field 3\nrows a\nsquare\na a x\n", 4),
    "entry not below the order": ("field 3\nrows a b\nsquare\nb b 5\n", 4),
    "negative field entry": ("field 3\nrows a\nsquare\na a -1\n", 4),
    "signed zero field entry": ("field 3\nrows a b\nsquare\na a -0\na b 1\nb a 1\n", 4),
    "field cell listed twice": ("field 2\nrows a\nsquare\na a 1\na a 0\n", 5),
    "integer cell listed twice": ("ring Z\nrows a\nsquare\na a 1\na a 2\n", 5),
}


@pytest.mark.parametrize("case", list(_BAD_MATRIX_TEXTS))
def test_malformed_matrix_files_exit_parse_at_their_line(tmp_path, capsys, case):
    text, line = _BAD_MATRIX_TEXTS[case]
    path = tmp_path / "bad.mat"
    path.write_text(text)
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert code == EXIT_PARSE
    message = report["error"]["message"]
    if line is None:
        assert " at line " not in message
    else:
        assert message.endswith(f" at line {line}"), message


def test_gen_matrix_and_experiment(tmp_path, capsys):
    path = tmp_path / "r.mat"
    code, _ = invoke(
        ["gen", "matrix", "--q", "2", "--n", "4", "--seed", "5", "--file", str(path)],
        capsys,
    )
    assert code == EXIT_OK
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert code == EXIT_OK
    code, report = invoke(
        [
            "experiment",
            "det-frequency",
            "--q",
            "2",
            "--n",
            "10",
            "--trials",
            "400",
            "--seed",
            "1",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert 0.1 < report["result"]["fraction"] < 0.5


def test_bgs_run_cli(tmp_path, capsys):
    program = tmp_path / "flag.bgs"
    program.write_text(
        "#steps 3\n#active 10 2\n"
        "do in parallel\n"
        "  Output := 0 in { 0 : v in Atoms : Mark(v) };\n"
        "  Halt := true\n"
        "enddo\n"
    )
    structure = tmp_path / "in.str"
    structure.write_text("atoms: x y\nrel Mark/1: (y)\n")
    code, report = invoke(
        ["bgs", "run", "--program", str(program), "--input", str(structure)], capsys
    )
    assert code == EXIT_OK
    assert report["result"]["verdict"] == "accept"
    assert report["result"]["steps"] == 1


def test_bgs_run_dynamic_symbol_in_structure_exits_parse(tmp_path, capsys):
    program = tmp_path / "mark.bgs"
    program.write_text(
        "#steps 3\n#active 10 2\ndo in parallel Mark := 1; Halt := true enddo\n"
    )
    structure = tmp_path / "in.str"
    structure.write_text("atoms: x y\nrel Mark/0:\n")
    code, report = invoke(
        ["bgs", "run", "--program", str(program), "--input", str(structure)], capsys
    )
    assert code == EXIT_PARSE
    assert "dynamic symbol 'Mark'" in report["error"]["message"]


def test_one_parser_serves_every_dispatch(tmp_path, capsys):
    """The same requests, made twice in one process, give the same reports:
    reading a command's flags leaves nothing behind for the next request."""
    program = tmp_path / "flag.bgs"
    program.write_text(
        "#steps 3\n#active 10 2\ndo in parallel Output := true; Halt := true enddo\n"
    )
    structure = tmp_path / "in.str"
    structure.write_text("atoms: x y\n")
    matrix = tmp_path / "m.mat"
    matrix.write_text("field 2\nrows r0 r1\nsquare\nr0 r1 1\nr1 r0 1\n")
    argvs = [
        ["solve", "nonsense"],
        ["bgs", "run", "--program", str(program), "--input", str(structure)],
        ["solve", "det", "--matrix", str(matrix)],
    ]
    shared = [invoke(argv, capsys) for argv in argvs]
    fresh = [invoke(argv, capsys) for argv in argvs]
    assert [code for code, _ in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK]
    for (code, report), (fresh_code, fresh_report) in zip(shared, fresh):
        report.pop("timing_seconds")
        fresh_report.pop("timing_seconds")
        assert (code, report) == (fresh_code, fresh_report)


def test_exit_statuses(tmp_path, capsys):
    code, report = invoke(["solve", "nonsense"], capsys)
    assert code == EXIT_USAGE
    assert report["error"]["kind"] == "usage"

    bad = tmp_path / "bad.str"
    bad.write_text("nonsense line\n")
    code, report = invoke(["solve", "matching", "--input", str(bad)], capsys)
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"

    code, report = invoke(["solve", "matching", "--input", str(tmp_path / "nope.str")], capsys)
    assert code == EXIT_PARSE

    big = tmp_path / "big.str"
    for m in ("5", "7"):
        code, report = invoke(
            ["gen", "cfi", "--m", m, "--twist", "even", "--pad", "--file", str(big)],
            capsys,
        )
        assert code == EXIT_GUARD
        assert report["error"]["kind"] == "guard"
    assert not big.exists()

    # unpadded, the pre-order is quadratic in the block vertices
    started = time.monotonic()
    code, report = invoke(["gen", "cfi", "--m", "9", "--twist", "even", "--file", str(big)], capsys)
    assert code == EXIT_GUARD
    assert "structure.max_m" in report["error"]["message"]
    assert time.monotonic() - started < 1
    assert not big.exists()

    code, report = invoke(
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--file", str(tmp_path / "x.str")],
        capsys,
    )
    assert code == EXIT_USAGE  # seed is mandatory


@pytest.mark.parametrize("m", [13, 20, 2000])
@pytest.mark.parametrize("pad, guard", [([], "structure.max_m"), (["--pad"], "pad.max_m")])
def test_gen_cfi_refuses_m_before_building(tmp_path, capsys, m, pad, guard):
    # at m = 13 building the gadget before the check took seconds, and the
    # time doubles per m
    path = tmp_path / "g.str"
    started = time.monotonic()
    code, report = invoke(["gen", "cfi", "--m", str(m), "--twist", "even", *pad, "--file", str(path)], capsys)
    assert time.monotonic() - started < 1
    assert code == EXIT_GUARD
    assert f"guard '{guard}': requested {m}" in report["error"]["message"]
    assert not path.exists()


@pytest.mark.parametrize("module", ["choiceless_lab", "choiceless_lab.cli"])
def test_module_forms_run_the_console_script(tmp_path, module):
    path = tmp_path / "s.str"
    path.write_text("atoms: a b\n")
    done = run_child(["-m", module, "validate", "structure", "--input", str(path)], check=False)
    assert done.returncode == EXIT_OK, done.stdout + done.stderr
    assert json.loads(done.stdout)["result"]["atoms"] == 2
    done = run_child(["-m", module], check=False)
    assert done.returncode == EXIT_USAGE, done.stdout + done.stderr
    assert json.loads(done.stdout)["error"]["kind"] == "usage"


def _gen_multipede(tmp_path, capsys, segments, hyperedges):
    path = tmp_path / "m.str"
    argv = ["gen", "multipede", "--segments", str(segments), "--hyperedges", str(hyperedges)]
    code, report = invoke(argv + ["--seed", "1", "--file", str(path)], capsys)
    return code, report, path


def test_gen_multipede_guard_bounds_the_tuples_written(tmp_path, capsys, monkeypatch):
    # 6 segments list 5 * 6 + 21 tuples before their hyperedges, 30 each
    monkeypatch.setattr(multipede, "STRUCTURE_MAX_TUPLES", 5 * 6 + 21 + 30 * 10)
    code, report, path = _gen_multipede(tmp_path, capsys, 6, 10)
    assert code == EXIT_OK
    path.unlink()
    code, report, path = _gen_multipede(tmp_path, capsys, 6, 11)
    assert code == EXIT_GUARD
    assert "multipede.max_tuples" in report["error"]["message"]
    assert not path.exists()


@pytest.mark.parametrize("segments", [100, 994, 995])
def test_gen_multipede_one_step_past_the_guard_exits_at_once(tmp_path, capsys, segments):
    """The largest request the guard admits on this many segments, plus
    one hyperedge (995 segments admit none)."""
    fixed = 5 * segments + segments * (segments + 1) // 2
    hyperedges = (multipede.STRUCTURE_MAX_TUPLES - fixed) // 30 + 1
    started = time.monotonic()
    code, report, path = _gen_multipede(tmp_path, capsys, segments, max(hyperedges, 0))
    assert code == EXIT_GUARD
    assert report["error"]["kind"] == "guard"
    assert time.monotonic() - started < 1
    assert not path.exists()


def _gen_matrix(tmp_path, capsys, n, *ring):
    path = tmp_path / "m.mat"
    argv = ["gen", "matrix", *ring, "--n", str(n), "--seed", "1", "--file", str(path)]
    code, report = invoke(argv, capsys)
    return code, report, path


def test_gen_matrix_guard_bounds_the_entries_written(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MATRIX_MAX_ENTRIES", 16)
    code, report, path = _gen_matrix(tmp_path, capsys, 4)
    assert code == EXIT_OK
    path.unlink()
    code, report, path = _gen_matrix(tmp_path, capsys, 5)
    assert code == EXIT_GUARD
    assert "matrix.max_entries" in report["error"]["message"]
    assert not path.exists()


@pytest.mark.parametrize("ring", [("--q", "2"), ()], ids=["gf2", "z"])
def test_gen_matrix_one_past_the_guard_exits_at_once(tmp_path, capsys, ring):
    """The smallest n whose n^2 entries the guard refuses."""
    n = math.isqrt(cli.MATRIX_MAX_ENTRIES) + 1
    started = time.monotonic()
    code, report, path = _gen_matrix(tmp_path, capsys, n, *ring)
    assert code == EXIT_GUARD
    assert report["error"]["kind"] == "guard"
    assert time.monotonic() - started < 1
    assert not path.exists()


def test_gen_matrix_digit_guard_bounds_the_digits_written(tmp_path, capsys, monkeypatch):
    """n^2 times the digit count of --max-abs: 4 x 4 entries of 3 digits
    are admitted at a bound of 48 and refused at 47, and of 4 digits at 48."""
    monkeypatch.setattr(cli, "MATRIX_MAX_DIGITS", 48)
    code, _, path = _gen_matrix(tmp_path, capsys, 4, "--max-abs", "999")
    assert code == EXIT_OK
    path.unlink()
    code, report, path = _gen_matrix(tmp_path, capsys, 4, "--max-abs", "1000")
    assert code == EXIT_GUARD
    assert "matrix.max_digits" in report["error"]["message"]
    assert not path.exists()
    monkeypatch.setattr(cli, "MATRIX_MAX_DIGITS", 47)
    code, _, path = _gen_matrix(tmp_path, capsys, 4)  # the default bound, 256
    assert code == EXIT_GUARD
    assert not path.exists()


def test_gen_matrix_one_past_the_digit_guard_exits_at_once(tmp_path, capsys):
    """n = 800 at the default bound is admitted; one more digit is not, and
    neither is the widest --max-abs argparse reads, 4,300 digits, at n = 22."""
    assert 800**2 * len("256") <= cli.MATRIX_MAX_DIGITS < 800**2 * len("1000")
    for n, max_abs in ((800, "1000"), (22, "9" * 4300)):
        started = time.monotonic()
        code, report, path = _gen_matrix(tmp_path, capsys, n, "--max-abs", max_abs)
        assert code == EXIT_GUARD
        assert report["error"]["kind"] == "guard"
        assert time.monotonic() - started < 1
        assert not path.exists()


def _experiment(capsys, n):
    argv = ["experiment", "det-frequency", "--q", "3", "--n", str(n), "--trials", "1"]
    return invoke(argv + ["--seed", "1"], capsys)


def test_experiment_guard_admits_the_largest_matrix(capsys, monkeypatch):
    """The largest n the entry guard admits reaches the experiment, which
    is stubbed: one trial at n = 800 would eliminate for minutes."""
    drawn = []
    monkeypatch.setattr(sampling, "frequency_experiment", lambda field, n, *rest: drawn.append(n) or 0.0)
    n = math.isqrt(cli.MATRIX_MAX_ENTRIES)
    code, _ = _experiment(capsys, n)
    assert code == EXIT_OK
    assert drawn == [n]


def test_experiment_one_past_the_guard_exits_at_once(capsys):
    started = time.monotonic()
    code, report = _experiment(capsys, math.isqrt(cli.MATRIX_MAX_ENTRIES) + 1)
    assert code == EXIT_GUARD
    assert "matrix.max_entries" in report["error"]["message"]
    assert time.monotonic() - started < 1


def _gen_bipartite(tmp_path, capsys, na, nb, density, seed=1):
    path = tmp_path / "g.str"
    argv = ["gen", "bipartite", "--na", str(na), "--nb", str(nb), "--density", str(density)]
    code, report = invoke(argv + ["--seed", str(seed), "--file", str(path)], capsys)
    return code, report, path


# sha256 of the files `gen bipartite --na NA --nb NB --density D --seed S`
# writes, as they were before its guards: admitted arguments keep them
_BIPARTITE_FILE_DIGESTS = {
    (300, 300, 0.02, 1): "568addab4fa0f0795f503e39e1d708ace6dade8560772549d7e46f68062e695e",
    (40, 60, 0.3, 5): "85c2f530b70dab1208cafee89116f7d43d4f29674b747bc400c89504e17333df",
    (7, 0, 0.5, 2): "b794c6fa30142d8a8de46baa281dae4cb7e57c5f2f65235c3ed7f6fd8c534cef",
}


def test_gen_bipartite_files_are_pinned(tmp_path, capsys):
    for args, digest in _BIPARTITE_FILE_DIGESTS.items():
        code, _, path = _gen_bipartite(tmp_path, capsys, *args)
        assert code == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, args


def test_gen_bipartite_guards_admit_their_bounds(tmp_path, capsys):
    """na * nb draws at the draw bound, and na + nb atoms plus the expected
    na * nb * density edges at the bound on what is written."""
    assert cli.BIPARTITE_MAX_DRAWS == 2000 * 5000
    code, report, path = _gen_bipartite(tmp_path, capsys, 2000, 5000, 0)
    assert code == EXIT_OK
    assert report["result"]["edges"] == 0
    path.unlink()
    assert cli.BIPARTITE_MAX_WRITTEN == 2 + 74_999 + 2 * 74_999 // 2
    code, report, path = _gen_bipartite(tmp_path, capsys, 2, 74_999, 0.5)
    assert code == EXIT_OK
    assert 0 < report["result"]["edges"] < 2 * 74_999
    assert path.exists()


@pytest.mark.parametrize(
    "na, nb, density, guard",
    [
        (1, cli.BIPARTITE_MAX_DRAWS + 1, 0, "bipartite.max_draws"),
        (2, 74_999, 0.500001, "bipartite.max_written"),  # one expected edge past
        (0, cli.BIPARTITE_MAX_WRITTEN + 1, 0, "bipartite.max_written"),
        (1, 1_000_000, 0, "bipartite.max_written"),  # a million atoms, no draw past
        (2000, 2000, 0.5, "bipartite.max_written"),  # 7.8 s before the guard
    ],
)
def test_gen_bipartite_past_a_guard_exits_at_once(tmp_path, capsys, na, nb, density, guard):
    started = time.monotonic()
    code, report, path = _gen_bipartite(tmp_path, capsys, na, nb, density)
    assert code == EXIT_GUARD
    assert guard in report["error"]["message"]
    assert time.monotonic() - started < 1
    assert not path.exists()


def _broken_multipede_text() -> str:
    """A shod multipede missing one positive triple on each of four
    hyperedges: four violations, which sets hold in no fixed order."""
    m = multipede.random_multipede(8, 12, seed=5)
    positives = set(m.positives)
    for h in sorted(m.hyperedges, key=sorted)[:4]:
        on_h = [p for p in positives if {m.segment_of[f] for f in p} == h]
        positives.remove(min(on_h, key=sorted))
    broken = multipede.Multipede3(
        m.segments,
        m.feet,
        m.segment_of,
        m.hyperedges,
        frozenset(positives),
        m.segment_order,
        m.feet_of(m.first_segment)[0],
    )
    return write_structure(multipede.to_structure(broken))


_FUNCTIONS_AS_GUARDS = """#steps 2
#active 10
do in parallel
  if F then Halt := true endif;
  if G then Halt := true endif;
  if H then Output := true endif
enddo
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """A report that names one of several faults names the same one, and
    lists several in the same order, under every hash seed."""
    files = {
        "pede.str": _broken_multipede_text(),
        "unknown.str": "atoms: a b\nrel E/2: (a,x1) (a,x2) (b,x3) (x4,b) (x5,a)\n",
        "fgh.str": "atoms: a b\nfun F/0: ()->a\nfun G/0: ()->a\nfun H/0: ()->b\n",
        "fgh.bgs": _FUNCTIONS_AS_GUARDS,
        "edges.str": (
            "atoms: a1 a2 b1 b2 c1 c2\nrel InA/1: (a1) (a2)\nrel InB/1: (b1) (b2)\n"
            "rel R/2: (a1,b1) (b1,a1) (c1,c2) (a2,c1) (b2,a2) (c2,b2)\n"
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    pede, unknown, fgh, program, edges = (str(tmp_path / name) for name in files)
    commands = [
        (["validate", "multipede", "--input", pede], "four-of-eight"),
        (["iso", "multipede3", "--a", pede, "--b", pede], "four-of-eight"),
        (["validate", "structure", "--input", unknown], "unknown atom 'x1'"),
        (["bgs", "run", "--program", program, "--input", fgh], "symbol 'F' used as a relation"),
        (["solve", "matching", "--input", edges], "edge ('a2', 'c1') leaves"),
    ]
    first = {}
    for argv, expected in commands:
        reports = []
        for seed in "01234":
            child = ["-m", "choiceless_lab", *argv]
            report = json.loads(run_child(child, seed, check=False).stdout)
            report.pop("timing_seconds")
            reports.append(report)
        assert all(report == reports[0] for report in reports), argv
        assert expected in json.dumps(reports[0]), argv
        first[argv[1]] = reports[0]
    assert len(first["multipede"]["result"]["violations"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "multipede", "--segments", "0", "--hyperedges", "0", "--seed", "1"],
        ["gen", "multipede", "--segments", "0", "--hyperedges", "0", "--seed", "1", "--shoe"],
        ["gen", "multipede", "--segments", "4", "--hyperedges", "-1", "--seed", "1"],
        ["experiment", "det-frequency", "--q", "2", "--n", "3", "--trials", "0", "--seed", "1"],
        ["experiment", "det-frequency", "--q", "2", "--n", "-1", "--trials", "5", "--seed", "1"],
        ["experiment", "det-frequency", "--q", "3", "--n", "-3", "--trials", "5", "--seed", "1"],
        ["gen", "cfi", "--m", "0", "--twist", "even"],
        ["gen", "cfi", "--m", "1", "--twist", "odd"],
        ["gen", "matrix", "--n", "3", "--max-abs", "-1", "--seed", "1"],
        ["gen", "matrix", "--n", "-2", "--seed", "1"],
        ["gen", "matrix", "--q", "2", "--n", "-2", "--seed", "1"],
        ["gen", "bipartite", "--na", "-2", "--nb", "2", "--seed", "1"],
        ["gen", "bipartite", "--na", "2", "--nb", "-2", "--seed", "1"],
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--density", "2", "--seed", "1"],
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--density", "-1", "--seed", "1"],
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--density", "nan", "--seed", "1"],
    ],
)
def test_out_of_range_counts_exit_parse_and_write_nothing(tmp_path, capsys, argv):
    path = tmp_path / "m.str"
    if argv[0] == "gen":
        argv = argv + ["--file", str(path)]
    code, report = invoke(argv, capsys)
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    assert list(tmp_path.iterdir()) == []


def test_bgs_run_bad_budget_header_exits_parse(tmp_path, capsys):
    program = tmp_path / "bad.bgs"
    program.write_text("#steps 1.5\n#active 10\nHalt := true\n")
    structure = tmp_path / "in.str"
    structure.write_text("atoms: x\n")
    code, report = invoke(
        ["bgs", "run", "--program", str(program), "--input", str(structure)], capsys
    )
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    assert "line 1" in report["error"]["message"]


_LONG = "9" * 5000

# input file suffix, text, and where the error must say it is
_BAD_DECIMALS = {
    "arity of 5,000 digits": (".str", f"atoms: a\nrel R/{_LONG}:\n", " at line 2"),
    "field order of 5,000 digits": (".mat", f"field {_LONG}\nrows a\nsquare\n", " at line 1"),
    "field order not an ASCII digit": (".mat", "field \u00b2\nrows a\nsquare\n", " at line 1"),
    "budget of 5,000 digits": (".bgs", f"#steps {_LONG}\n#active 9\nHalt := true\n", " at line 1"),
    "literal of 5,000 digits": (".bgs", f"#steps 1\n#active 9\nN := {_LONG}\n", " at line 3, column 6"),
}


@pytest.mark.parametrize("case", list(_BAD_DECIMALS))
def test_decimals_past_the_digit_rule_exit_parse_at_their_place(tmp_path, capsys, case):
    suffix, text, where = _BAD_DECIMALS[case]
    path = tmp_path / f"in{suffix}"
    path.write_text(text, encoding="utf-8")
    structure = tmp_path / "atoms.str"
    structure.write_text("atoms: x\n")
    argv = {
        ".str": ["validate", "structure", "--input", str(path)],
        ".mat": ["solve", "det", "--matrix", str(path)],
        ".bgs": ["bgs", "run", "--program", str(path), "--input", str(structure)],
    }[suffix]
    code, report = invoke(argv, capsys)
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    assert "at most 4300 ASCII digits" in report["error"]["message"]
    assert report["error"]["message"].endswith(where)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="an interpreter with no limit on int digits"
)
def test_decimal_past_the_interpreters_own_limit_exits_parse(tmp_path):
    """Under ``PYTHONINTMAXSTRDIGITS=640``, ``int`` converts at most 640
    digits, so a 1,000-digit entry is a parse error at its line, not an
    internal error; without the variable the same file is read."""
    path = tmp_path / "m.mat"
    path.write_text(f"ring Z\nrows a\nsquare\na a {'7' * 1000}\n")
    child = ["-m", "choiceless_lab", "solve", "det", "--matrix", str(path)]
    done = run_child(child, check=False, env={"PYTHONINTMAXSTRDIGITS": "640"})
    report = json.loads(done.stdout)
    assert done.returncode == EXIT_PARSE, done.stdout + done.stderr
    assert report["error"]["kind"] == "parse"
    assert "at most 640 ASCII digits" in report["error"]["message"]
    assert report["error"]["message"].endswith(" at line 4")
    done = run_child(child, check=False)
    assert done.returncode == EXIT_OK, done.stdout + done.stderr


@pytest.mark.parametrize(
    "order, status",
    [
        ("1000000000000000003", EXIT_OK),  # a prime
        ("1000000016000000063", EXIT_PARSE),  # 1000000007 * 1000000009
        ("18446744073709551557", EXIT_OK),  # the largest prime below 2**64
        ("18446744073709551616", EXIT_GUARD),  # 2**64
    ],
)
def test_field_order_is_decided_at_once(tmp_path, capsys, order, status):
    path = tmp_path / "m.mat"
    path.write_text(f"field {order}\nrows a\nsquare\na a 5\n")
    started = time.monotonic()
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert time.monotonic() - started < 1
    assert code == status
    if status == EXIT_OK:
        assert report["result"]["nonsingular"] is True
    elif status == EXIT_GUARD:
        assert "field.max_order" in report["error"]["message"]


def test_report_determinism_modulo_timing(tmp_path, capsys):
    path = tmp_path / "g.str"
    invoke(
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--seed", "1", "--file", str(path)],
        capsys,
    )
    _, r1 = invoke(["solve", "matching", "--input", str(path)], capsys)
    _, r2 = invoke(["solve", "matching", "--input", str(path)], capsys)
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "g.str"
    invoke(
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--seed", "1", "--file", str(path)],
        capsys,
    )
    out = tmp_path / "report.json"
    code, _ = invoke(
        ["--out", str(out), "solve", "matching", "--input", str(path)], capsys
    )
    assert code == EXIT_OK
    loaded = json.loads(out.read_text())
    assert loaded["result"]["verdict"] in ("yes", "no")


def test_out_to_missing_directory_reports_on_stdout(tmp_path, capsys):
    path = tmp_path / "g.str"
    invoke(
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--seed", "1", "--file", str(path)],
        capsys,
    )
    out = tmp_path / "missing" / "report.json"
    code, report = dispatch(["--out", str(out), "solve", "matching", "--input", str(path)])
    assert code == EXIT_PARSE
    assert report["error"]["kind"] == "parse"
    assert "cannot write" in report["error"]["message"]
    assert json.loads(capsys.readouterr().out) == report


def test_gen_file_to_missing_directory_exits_parse(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (
        ["gen", "bipartite", "--na", "2", "--nb", "2", "--seed", "1"],
        ["gen", "cfi", "--m", "2", "--twist", "odd"],
        ["gen", "multipede", "--segments", "4", "--hyperedges", "3", "--seed", "9"],
        ["gen", "matrix", "--q", "2", "--n", "3", "--seed", "1"],
    ):
        code, report = invoke(argv + ["--file", str(missing / "x")], capsys)
        assert code == EXIT_PARSE
        assert report["error"]["message"].startswith(f"cannot write {missing / 'x'}")
    assert not missing.exists()


def _report_text(report) -> bytes:
    """The bytes a fresh write of ``report`` gives."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _many_symbols(tmp_path):
    path = tmp_path / "many.str"
    path.write_text("atoms: a\n" + "".join(f"rel R{i}/1: (a)\n" for i in range(40)))
    return ["validate", "structure", "--input", str(path)]


def test_out_rewrites_a_longer_report_in_place(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, long = invoke(["--out", str(out)] + _many_symbols(tmp_path), capsys)
    assert code == EXIT_OK
    inode = out.stat().st_ino
    short = tmp_path / "one.str"
    short.write_text("atoms: a\n")
    code, report = invoke(["validate", "structure", "--input", str(short), "--out", str(out)], capsys)
    assert code == EXIT_OK
    assert len(_report_text(report)) < len(_report_text(long))
    assert out.read_bytes() == _report_text(report)
    assert out.stat().st_ino == inode


def test_out_follows_a_symlink_and_hard_links_see_the_report(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("x" * 10_000)
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(target)
    os.link(target, hard)
    code, report = invoke(["--out", str(link)] + _many_symbols(tmp_path), capsys)
    assert code == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == hard.read_bytes() == _report_text(report)


def test_out_to_a_device_or_fifo_is_written_and_not_truncated(tmp_path, capsys):
    code, _ = invoke(["--out", os.devnull] + _many_symbols(tmp_path), capsys)
    assert code == EXIT_OK
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, report = invoke(["--out", str(fifo)] + _many_symbols(tmp_path), capsys)
    reader.join(timeout=10)
    assert code == EXIT_OK
    assert received == [_report_text(report)]


@pytest.mark.parametrize("kind", ["read-only", "directory"])
def test_out_that_cannot_be_written_reports_on_stdout(tmp_path, capsys, kind):
    out = tmp_path / "report.json"
    if kind == "directory":
        out.mkdir()
    else:
        out.write_text("old")
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            pytest.skip("this user writes through a read-only mode")
    code, report = dispatch(["--out", str(out)] + _many_symbols(tmp_path))
    assert code == EXIT_PARSE
    assert report["error"]["message"].startswith(f"cannot write {out}")
    assert json.loads(capsys.readouterr().out) == report
    assert out.is_dir() if kind == "directory" else out.read_text() == "old"


def test_gen_file_over_a_larger_file_equals_a_fresh_one(tmp_path, capsys):
    over, fresh = tmp_path / "over.str", tmp_path / "fresh.str"
    gen = ["gen", "cfi", "--twist", "odd", "--m"]
    for argv in (["4", "--pad", "--file", over], ["2", "--file", over], ["2", "--file", fresh]):
        assert invoke(gen + list(map(str, argv)), capsys)[0] == EXIT_OK
    assert over.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize(
    "argv, data",
    [
        (["validate", "structure", "--input"], b"atoms: a \xff b\n"),
        (["solve", "det", "--matrix"], b"field 2\nrows a \xff\nsquare\na a 1\n"),
    ],
    ids=["structure", "matrix"],
)
def test_input_that_is_not_utf8_exits_parse(tmp_path, capsys, argv, data):
    path = tmp_path / "in"
    path.write_bytes(data)
    code, report = invoke(argv + [str(path)], capsys)
    assert code == EXIT_PARSE
    assert report["error"]["message"].startswith(f"cannot read {path}: ")


@pytest.mark.parametrize("arity", [3_000_000, 30_000_000])
def test_function_of_huge_arity_is_not_total_at_once(tmp_path, capsys, arity):
    """3^arity tuples are needed; the count is never raised to the arity,
    and the message shows the power unevaluated."""
    path = tmp_path / "f.str"
    path.write_text(f"atoms: a b c\nfun F/{arity}:\n")
    started = time.monotonic()
    code, report = invoke(["validate", "structure", "--input", str(path)], capsys)
    assert time.monotonic() - started < 1
    assert code == EXIT_PARSE
    assert report["error"]["message"] == (
        f"function F must be total on the universe (0 of 3^{arity} tuples)"
    )


def test_gen_matrix_without_q_is_an_integer_matrix(tmp_path, capsys):
    path = tmp_path / "z.mat"
    code, _ = invoke(["gen", "matrix", "--n", "3", "--seed", "1", "--file", str(path)], capsys)
    assert code == EXIT_OK
    assert path.read_text().startswith("ring Z\n")
    code, report = invoke(["solve", "det", "--matrix", str(path), "--prime-divisors"], capsys)
    assert code == EXIT_OK
    assert report["result"]["method"] == "crt"
    code, report = invoke(["solve", "det", "--matrix", str(path)], capsys)
    assert code == EXIT_OK
    assert report["result"]["method"] == "crt"
    for method in ("crt", "power", "gauss"):
        code, _ = invoke(["solve", "det", "--matrix", str(path), "--method", method], capsys)
        assert code == EXIT_USAGE


def test_max_abs_needs_an_integer_matrix(tmp_path, capsys):
    path = tmp_path / "m.mat"
    argv = ["gen", "matrix", "--n", "3", "--max-abs", "2", "--seed", "1", "--file", str(path)]
    code, report = invoke(["gen", "matrix", "--q", "3"] + argv[2:], capsys)
    assert code == EXIT_USAGE
    assert report["error"]["message"] == "--max-abs needs an integer matrix"
    assert not path.exists()
    code, _ = invoke(argv, capsys)
    assert code == EXIT_OK
    entries = [int(line.split()[-1]) for line in path.read_text().splitlines()[3:]]
    assert len(entries) <= 9 and all(abs(v) <= 2 for v in entries)


def test_removed_options_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "x"
    for argv in (
        ["gen", "cfi", "--m", "2", "--twist", "even", "--pad", "--force", "--file", str(path)],
        ["gen", "matrix", "--ring", "Z", "--n", "3", "--seed", "1", "--file", str(path)],
    ):
        code, report = invoke(argv, capsys)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in report["error"]["message"]
    assert not path.exists()


def test_solve_cfi_classify_rejects_one_way_adjacency(tmp_path, capsys):
    path = tmp_path / "one_way.str"
    invoke(["gen", "cfi", "--m", "2", "--twist", "odd", "--file", str(path)], capsys)
    lines = path.read_text().splitlines(keepends=True)
    (index,) = [i for i, line in enumerate(lines) if line.startswith("rel Adj/2:")]
    tuples = lines[index].split(": ", 1)[1].split()
    kept = [t for t in tuples if t[1:-1].split(",")[0] < t[1:-1].split(",")[1]]
    assert len(kept) * 2 == len(tuples)
    lines[index] = "rel Adj/2: " + " ".join(kept) + "\n"
    path.write_text("".join(lines))
    code, report = invoke(["solve", "cfi-classify", "--input", str(path)], capsys)
    assert code == EXIT_PARSE
    assert "Adj is not symmetric" in report["error"]["message"]


def test_generated_multipede_file_reparses_bytewise(tmp_path, capsys):
    a = tmp_path / "a.str"
    b = tmp_path / "b.str"
    args = ["gen", "multipede", "--segments", "4", "--hyperedges", "3", "--seed", "9"]
    invoke(args + ["--file", str(a)], capsys)
    invoke(args + ["--file", str(b)], capsys)
    assert a.read_text() == b.read_text()


# ------------------------------------------------------------ command table

# every command's options as the three-level argparse tree declared them:
# flag -> (required, type, choices, default, store_true, help)
_REQ = (True, None, None, None, False, None)
_REQ_INT = (True, int, None, None, False, None)
_STORE_TRUE = (False, None, None, False, True, None)
_OLD_TREE = {
    ("bgs", "run"): {"--program": _REQ, "--input": _REQ},
    ("gen", "cfi"): {
        "--m": _REQ_INT,
        "--twist": (True, None, None, None, False, "even, odd, or a comma list of base vertices"),
        "--pad": _STORE_TRUE,
        "--file": (True, None, None, None, False, "structure file to write"),
    },
    ("gen", "multipede"): {
        "--segments": _REQ_INT,
        "--hyperedges": _REQ_INT,
        "--seed": _REQ_INT,
        "--shoe": _STORE_TRUE,
        "--file": _REQ,
    },
    ("gen", "bipartite"): {
        "--na": _REQ_INT,
        "--nb": _REQ_INT,
        "--density": (False, float, None, 0.5, False, None),
        "--seed": _REQ_INT,
        "--file": _REQ,
    },
    ("gen", "matrix"): {
        "--q": (False, int, None, None, False, "field order (omit for ring Z)"),
        "--n": _REQ_INT,
        "--max-abs": (False, int, None, None, False, "entry bound for ring Z (default 256)"),
        "--seed": _REQ_INT,
        "--file": _REQ,
    },
    ("solve", "matching"): {"--input": _REQ, "--max-size": _STORE_TRUE},
    ("solve", "det"): {
        "--matrix": _REQ,
        "--method": (False, None, ["power", "gauss"], None, False, "field matrices only"),
        "--prime-divisors": _STORE_TRUE,
    },
    ("solve", "cfi-classify"): {"--input": _REQ},
    ("iso", "multipede3"): {"--a": _REQ, "--b": _REQ},
    ("iso", "multipede4"): {"--a": _REQ, "--b": _REQ},
    ("iso", "cfi"): {"--a": _REQ, "--b": _REQ},
    ("experiment", "det-frequency"): {
        "--q": _REQ_INT,
        "--n": _REQ_INT,
        "--trials": _REQ_INT,
        "--seed": _REQ_INT,
    },
    ("validate", "multipede"): {"--input": _REQ},
    ("validate", "structure"): {"--input": _REQ},
}


_KEYWORDS = {"required", "type", "choices", "default", "action", "help"}


def test_command_table_keeps_the_old_tree_options():
    assert sorted(cli._COMMANDS) == sorted(_OLD_TREE)
    for command, options in _OLD_TREE.items():
        declared = {}
        for flag, spec in cli._COMMANDS[command][1].items():
            assert set(spec) <= _KEYWORDS, (command, flag)
            store_true = spec.get("action") == "store_true"
            assert store_true or "action" not in spec, (command, flag)
            declared[flag] = (
                spec.get("required", False),
                spec.get("type"),
                spec.get("choices"),
                spec.get("default", False if store_true else None),
                store_true,
                spec.get("help"),
            )
        assert declared == options, command
    assert cli._COMMON["--out"] == {"help": "write the JSON report here instead of stdout"}
    assert cli._COMMON["-h"] is cli._COMMON["--help"]


def test_no_command_imports_argparse(tmp_path):
    """Every command, in one fresh process, leaves argparse unimported."""
    argvs = _requests(tmp_path, 1)
    assert {tuple(argv[:2]) for argv in argvs} == set(cli._COMMANDS)
    script = (
        "import json, sys\n"
        "from choiceless_lab import cli\n"
        "codes = [cli.dispatch(argv)[0] for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'argparse' in sys.modules]))\n"
    )
    out = ["--out", str(tmp_path / "report.json")]
    child = run_child(["-c", script, json.dumps([out + argv for argv in argvs])])
    assert json.loads(child.stdout.splitlines()[-1]) == [[EXIT_OK] * len(argvs), False]


def test_importing_the_cli_imports_no_argparse():
    check = "import sys, choiceless_lab.cli; print('argparse' in sys.modules)"
    assert run_child(["-c", check]).stdout.split() == ["False"]


# ------------------------------------------------- the flag reader's oracle


class _Refused(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)

    def _get_values(self, action, arg_strings):
        # the reader gives "--flag=--" the value "--", as argparse 3.13
        # does, where 3.10 to 3.12 drop the "--" and read the flag as []
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _oracle_parser(command: tuple) -> _OracleParser:
    """The argparse parser each command had, built from the table."""
    parser = _OracleParser(prog="choiceless-lab " + " ".join(command))
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    for flag, options in cli._COMMANDS[command][1].items():
        parser.add_argument(flag, **options)
    return parser


def _argparse_reads(command: tuple, argv: list):
    """What the argparse parser reads from ``argv``: ("ok", its
    namespace), ("usage", its message) or ("exit", status)."""
    parser = _oracle_parser(command)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", _shown(vars(parser.parse_args(argv)))
    except _Refused as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


def _reads(command: tuple, argv: list):
    """The same for :func:`cli._read_flags`."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", _shown(vars(cli._read_flags(command, argv)))
    except cli._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code


def _shown(namespace: dict) -> dict:
    """Each value as its type and repr, so that NaN equals NaN."""
    return {name: (type(value), repr(value)) for name, value in namespace.items()}


# values: ints and floats good and bad, negative numbers (which argparse
# takes as values, "-1e3" and "-inf" excepted), choices, unknown words
_VALUES = [
    "3", "-2", "0", "007", " 4", "1_0", "+5", "-\u0663", "-5\n", "0.5", "-0.5",
    "-.5", "nan", "-inf", "1e3", "-1e3", "x", "", "3.5", "power", "gauss", "crt",
    "a.str", "-", "-x", "-5 x", "bogus", "--bogus", "--",
]
# forms argparse reads specially: help in clusters, explicit values of
# flags that take none
_ODD = ["-h", "--help", "-hh", "-hx", "-hhx", "-h=", "-h=h", "--help=x", "--he", "--=x", "---x"]


def _argvs(command: tuple):
    """Argument vectors for ``command``: half of them start with a valid
    value of every required flag; then come flags, --out and prefixes of
    them (some shared by several flags), with a value, an ``=value`` or
    alone, and values and odd forms alone."""
    flags = ["--out", *cli._COMMANDS[command][1]]
    required = [[flag, "3"] for flag, spec in cli._COMMANDS[command][1].items() if spec.get("required")]
    names = st.sampled_from(flags) | st.builds(
        lambda flag, cut: flag[: max(3, len(flag) - cut)], st.sampled_from(flags), st.integers(0, 8)
    )
    values = st.sampled_from(_VALUES) | st.text("-=h.1x ", max_size=4)
    pieces = st.one_of(
        st.tuples(names, values),
        st.builds(lambda name, value: (f"{name}={value}",), names, values),
        st.tuples(names | values | st.sampled_from(_ODD)),
    )
    return st.builds(
        lambda valid, drawn: sum(required, []) * valid + [word for piece in drawn for word in piece],
        st.booleans(),
        st.lists(pieces, max_size=5),
    )


# the reader reads as argparse did on Python 3.10 to 3.12.1, "--flag=--"
# aside (see _OracleParser); argparse 3.13 runs the -h of "-hx" before
# refusing the x
_AS_PINNED = pytest.mark.skipif(
    _argparse_reads(("solve", "det"), ["--matrix", "m.mat", "-hx"])
    != ("usage", "argument -h/--help: ignored explicit argument 'x'"),
    reason="this Python's argparse reads some forms otherwise than the one the reader pins",
)
# one command per table of flags: commands that share a table read alike
_TABLES = {id(flags): command for command, (_, flags) in reversed(cli._COMMANDS.items())}
_ARGVS = {command: _argvs(command) for command in _TABLES.values()}


@_AS_PINNED
@pytest.mark.parametrize("command", sorted(_ARGVS), ids=" ".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_reader_reads_as_argparse_did(command, data):
    """Each argument vector gives the namespace, the usage message or the
    help exit that the command's argparse parser gave."""
    argv = data.draw(_ARGVS[command], label="argv")
    assert _reads(command, argv) == _argparse_reads(command, argv)


@pytest.mark.parametrize(
    "command, argv",
    [
        (("solve", "det"), ["--ma=m.mat", "--me", "gauss", "--matrix=n.mat", "--p", "--o=-1"]),
        (("gen", "bipartite"), ["--na", "-3", "--nb=2", "--d", "1e3", "--seed", "-0", "--f", "g"]),
        (("solve", "det"), ["--method", "gauss"]),
        (("gen", "matrix"), ["--n", "1.5", "--seed", "1", "--file", "m"]),
        (("gen", "bipartite"), ["--na", "2", "--nb", "2", "--density", "half"]),
        (("solve", "det"), ["--matrix", "m.mat", "--method", "crt"]),
        (("solve", "det"), ["--m", "m.mat"]),
        (("solve", "det"), ["--matrix"]),
        (("solve", "det"), ["--matrix", "m.mat", "--out", "--bogus"]),
        (("solve", "det"), ["--matrix", "m.mat", "--prime-divisors=yes"]),
        (("solve", "det"), ["--matrix", "m.mat", "stray", "--", "--method"]),
        (("solve", "det"), ["--matrix", "m.mat", "-hh"]),
    ],
    ids=str,
)
@_AS_PINNED
def test_flag_reader_cases(command, argv):
    """A namespace, each usage message and the help exit at least once,
    whatever the draws above."""
    assert _reads(command, argv) == _argparse_reads(command, argv)


@pytest.mark.parametrize(
    "out", [["--out", "{}"], ["--out={}"], ["--o", "{}"], ["--ou={}"]], ids=" ".join
)
@pytest.mark.parametrize("after", [False, True], ids=["before", "after"])
def test_out_on_either_side_of_the_command(tmp_path, capsys, out, after):
    matrix = tmp_path / "m.mat"
    matrix.write_text("ring Z\nrows a b\nsquare\na a 2\nb b 3\n")
    report_path = tmp_path / "report.json"
    out = [arg.format(report_path) for arg in out]
    command = ["solve", "det", "--matrix", str(matrix)]
    argv = command + out if after else out + command
    code, report = dispatch(argv)
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(report_path.read_text()) == report
    assert report["result"] == {"method": "crt", "nonsingular": True}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "nonsense"], "unknown command 'solve nonsense'"),
        (["nonsense", "det", "--matrix", "m.mat"], "unknown command 'nonsense det'"),
        (["solve"], "unknown command 'solve'"),
        (["--out", "x.json"], "unknown command ''"),
        ([], "unknown command ''"),
        (["solve", "det"], "the following arguments are required: --matrix"),
        (["gen", "cfi", "--m", "3", "--file", "x.str"], "required: --twist"),
    ],
)
def test_usage_errors(capsys, argv, message):
    code, report = dispatch(argv)
    assert code == EXIT_USAGE
    assert report["error"]["kind"] == "usage"
    assert message in report["error"]["message"]
    if "unknown command" in message:
        assert "solve det, solve cfi-classify" in report["error"]["message"]
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "det", "--matrix=--"], EXIT_PARSE),
        (["--out=--", "solve", "det", "--matrix", "--"], EXIT_USAGE),
        (["gen", "matrix", "--n=--", "--seed", "1", "--file", "m.mat"], EXIT_USAGE),
        (["gen", "matrix", "--n", "2", "--seed", "1", "--file=--"], EXIT_OK),
    ],
)
def test_a_double_dash_value_is_a_value(tmp_path, monkeypatch, capsys, argv, code):
    """``--flag=--`` gives the flag the value ``--``: a file of that
    name, which is missing or written, or a number that is none."""
    monkeypatch.chdir(tmp_path)
    got, report = dispatch(argv)
    assert got == code
    assert json.loads(capsys.readouterr().out) == report
    if code != EXIT_OK:
        assert report["error"]["kind"] != "internal"
        assert "--" in report["error"]["message"]
    else:
        assert (tmp_path / "--").read_text().startswith("ring")


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["solve", "det", "--help"], "usage: choiceless-lab solve det [-h] [--out OUT] --matrix"),
        (["--help"], "usage: choiceless-lab [--out OUT] <command> ..."),
        (["solve", "-h"], "usage: choiceless-lab [--out OUT] <command> ..."),
    ],
)
def test_help_prints_usage_and_exits_zero(capsys, argv, usage):
    with pytest.raises(SystemExit) as stop:
        dispatch(argv)
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith(usage)


@pytest.mark.parametrize("command", list(cli._COMMANDS), ids=" ".join)
def test_command_help_lists_every_flag(capsys, command):
    """``--help`` prints argparse's usage line, unwrapped, then one line per
    option with its help text."""
    with pytest.raises(SystemExit) as stop:
        dispatch([*command, "--help"])
    assert stop.value.code == EXIT_OK
    usage, *lines = capsys.readouterr().out.splitlines()
    assert usage.split() == _oracle_parser(command).format_usage().split()
    flags = {"-h": cli._COMMON["-h"], "--out": cli._COMMON["--out"], **cli._COMMANDS[command][1]}
    assert len(lines) == len(flags)
    for line, (flag, spec) in zip(lines, flags.items()):
        assert line.startswith(f"  {flag}"), line
        assert line.endswith(spec.get("help", line)), line


# ----------------------------------------------------- the collector's pause


@pytest.fixture
def collector():
    """Record each collection that starts, with the collector's state as the
    test found it restored afterwards."""
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.callbacks.append(callback)
    yield started
    gc.callbacks.remove(callback)
    (gc.enable if was_enabled else gc.disable)()


def _watch_handler(monkeypatch, collector, command) -> dict:
    """Wrap ``command``'s handler: the dict returned gets whether the
    collector was enabled when the handler started, and the generations of
    the collections that started while it ran."""
    handler, options = cli._COMMANDS[command]
    seen = {}

    def watched(args):
        before = len(collector)
        seen["enabled"] = gc.isenabled()
        try:
            return handler(args)
        finally:
            seen["started"] = collector[before:]

    monkeypatch.setitem(cli._COMMANDS, command, (watched, options))
    return seen


def test_no_collection_starts_inside_a_large_handler(tmp_path, capsys, monkeypatch, collector):
    """A 150-segment multipede pair and the padded m = 4 gadget make tens of
    thousands of tuples that die by reference count, and no collection
    starts while their handlers run (without the pause, six start while the
    multipede pair is decided)."""
    pede = multipede.random_multipede(150, 225, 5)
    shod = multipede.Multipede3(
        pede.segments,
        pede.feet,
        pede.segment_of,
        pede.hyperedges,
        pede.positives,
        pede.segment_order,
        pede.feet_of(pede.first_segment)[0],
    )
    a, b, gadget = tmp_path / "a.str", tmp_path / "b.str", tmp_path / "c4.str"
    a.write_text(write_structure(multipede.to_structure(shod)))
    flipped = flip_feet(shod, pede.segment_order[1::2])
    b.write_text(write_structure(multipede.to_structure(flipped)))
    gen = ["gen", "cfi", "--m", "4", "--twist", "odd", "--pad", "--file", str(gadget)]
    assert invoke(gen, capsys)[0] == EXIT_OK
    runs = [
        (("iso", "multipede3"), ["--a", str(a), "--b", str(b)], "isomorphic"),
        (("solve", "cfi-classify"), ["--input", str(gadget)], "class"),
    ]
    gc.enable()
    for command, options, key in runs:
        seen = _watch_handler(monkeypatch, collector, command)
        code, report = invoke([*command, *options], capsys)
        assert code == EXIT_OK and key in report["result"]
        assert seen == {"enabled": False, "started": []}, command
    assert gc.isenabled()


def _pause_cases(tmp_path):
    """(argv, exit status) per way a handler can end."""
    good, bad = tmp_path / "good.str", tmp_path / "bad.str"
    good.write_text("atoms: a b\nrel E/2: (a,b)\n")
    bad.write_text("atoms: a\nnonsense line\n")
    matrix = ["gen", "matrix", "--seed", "1", "--file", str(tmp_path / "m.mat")]
    return {
        "success": (["validate", "structure", "--input", str(good)], EXIT_OK),
        "usage": ([*matrix, "--n", "2", "--q", "2", "--max-abs", "3"], EXIT_USAGE),
        "parse": (["validate", "structure", "--input", str(bad)], EXIT_PARSE),
        "guard": ([*matrix, "--n", "801"], EXIT_GUARD),
        "internal": (["validate", "structure", "--input", str(good)], cli.EXIT_INTERNAL),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", ["success", "usage", "parse", "guard", "internal"])
def test_collector_is_left_as_found(tmp_path, capsys, monkeypatch, collector, enabled, case):
    """Each handler runs with the collector paused, and however it ends the
    collector is left enabled or disabled as dispatch found it."""
    argv, status = _pause_cases(tmp_path)[case]
    command = tuple(argv[:2])
    if case == "internal":

        def broken(args):
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli._COMMANDS, command, (broken, cli._COMMANDS[command][1]))
    seen = _watch_handler(monkeypatch, collector, command)
    (gc.enable if enabled else gc.disable)()
    code, report = invoke(argv, capsys)
    assert gc.isenabled() is enabled
    assert code == status, report
    assert seen == {"enabled": False, "started": []}


def _power_text(n: int, r: int) -> str:
    rows = [[(i * 7 + j * 3) % 5 < 2 for j in range(n)] for i in range(n)]
    return write_structure(power_structure(rows, r))


# a clash on Mode in every step after the first
_CLASHING = (
    "#steps 4\n#active 10 1\n"
    "if Mode = 0 then do in parallel\n"
    "  do forall x in Atoms, B(x) := x enddo;\n"
    "  Mode := 1\n"
    "enddo else do in parallel\n"
    "  Mode := 2;\n"
    "  Mode := 3\n"
    "enddo endif\n"
)


def _requests(root, size: int) -> list:
    """Argument vectors for every command, the deciders on inputs that grow
    about tenfold from size 1 to size 10; the generators write the inputs."""
    folder = root / str(size)
    folder.mkdir()
    f = lambda name: str(folder / name)  # noqa: E731
    programs = Path(cli.__file__).parent / "programs"
    Path(f("power.str")).write_text(_power_text(3 + 3 * (size > 1), 5 + 200 * (size > 1)))
    Path(f("atoms.str")).write_text("atoms: " + " ".join(f"x{i}" for i in range(5 * size)) + "\n")
    Path(f("clash.bgs")).write_text(_CLASHING)
    m = "3" if size == 1 else "6"
    n = {1: ("4", "3"), 10: ("13", "10")}[size]
    return [
        ["gen", "multipede", "--segments", str(10 * size), "--hyperedges", str(15 * size),
         "--seed", "1", "--shoe", "--file", f("p.str")],
        ["gen", "cfi", "--m", m, "--twist", "odd", "--file", f("c.str")],
        ["gen", "bipartite", "--na", str(6 * size), "--nb", str(6 * size), "--density",
         str(0.4 / size), "--seed", "1", "--file", f("g.str")],
        ["gen", "matrix", "--q", "3", "--n", n[0], "--seed", "1", "--file", f("f.mat")],
        ["gen", "matrix", "--n", n[1], "--seed", "1", "--file", f("z.mat")],
        ["solve", "matching", "--input", f("g.str")],
        ["solve", "matching", "--input", f("g.str"), "--max-size"],
        ["solve", "det", "--matrix", f("f.mat")],
        ["solve", "det", "--matrix", f("f.mat"), "--method", "gauss"],
        ["solve", "det", "--matrix", f("z.mat")],
        ["solve", "det", "--matrix", f("z.mat"), "--prime-divisors"],
        ["solve", "cfi-classify", "--input", f("c.str")],
        ["iso", "multipede3", "--a", f("p.str"), "--b", f("p.str")],
        ["iso", "multipede4", "--a", f("p.str"), "--b", f("p.str")],
        ["iso", "cfi", "--a", f("c.str"), "--b", f("c.str")],
        ["experiment", "det-frequency", "--q", "2", "--n", n[0], "--trials", "10", "--seed", "1"],
        ["validate", "multipede", "--input", f("p.str")],
        ["validate", "structure", "--input", f("p.str")],
        ["bgs", "run", "--program", str(programs / "power.bgs"), "--input", f("power.str")],
        ["bgs", "run", "--program", str(programs / "parity.bgs"), "--input", f("atoms.str")],
        ["bgs", "run", "--program", str(programs / "doubling.bgs"), "--input", f("atoms.str")],
        ["bgs", "run", "--program", f("clash.bgs"), "--input", f("atoms.str")],
    ]


def _refusals(root) -> list:
    """A request refused with each of the usage, guard and parse statuses."""
    return [
        ["solve", "det", "--matrix", "m.mat", "--method", "crt"],
        ["gen", "cfi", "--m", "13", "--twist", "even", "--file", str(root / "c.str")],
        ["validate", "structure", "--input", str(root / "missing.str")],
    ]


def test_requests_leave_no_more_cyclic_garbage_than_their_report(tmp_path, capsys):
    """Once each command has run (a first use imports modules, which leaves
    a few cyclic objects once), a request, refused or not, leaves the
    collector nothing: the handlers, the flag reader and the report writer
    make no reference cycle, so pausing the collector around the handlers
    frees nothing later than it would have been freed."""
    small, large = _requests(tmp_path, 1), _requests(tmp_path, 10)
    assert {tuple(argv[:2]) for argv in small} == set(cli._COMMANDS)
    out = ["--out", str(tmp_path / "report.json")]
    for argv in small:  # the warm-up
        assert dispatch(out + argv)[0] == EXIT_OK, argv
    refused = _refusals(tmp_path)
    verdicts = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in small + large + refused:
            gc.collect()
            code, report = dispatch(out + argv)
            assert gc.collect() == 0, argv
            assert (code == EXIT_OK) is (argv not in refused), report
            if argv[0] == "bgs":
                verdicts.append((Path(argv[3]).stem, report["result"]["verdict"]))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert verdicts == [
        ("power", "accept"), ("parity", "accept"), ("doubling", "bound-exceeded"),
        ("clash", "bound-exceeded"), ("power", "accept"), ("parity", "reject"),
        ("doubling", "bound-exceeded"), ("clash", "bound-exceeded"),
    ]


# ---------------------------------------------------------- report writer

_JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**200), 10**200)
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, math.nan, math.inf, -math.inf, 1e300, 5e-324])
    | st.text()
    | st.text("\x00\x1f\\\"\u00e9\u2028\U0001f600 a", max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(value=_JSON_LIKE)
def test_report_writer_writes_as_json_dumps(value):
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, b"x", object(), {"a": [1, {2}]}, {"a": 1j}])
def test_report_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._json(value)


def test_every_commands_report_is_the_json_dumps_text(tmp_path, capsys):
    """For a report of every command, and of a refusal of each kind, the
    text written is exactly what ``json.dumps`` writes of the report."""
    report_path = tmp_path / "report.json"
    for argv in _requests(tmp_path, 1) + _refusals(tmp_path):
        for out in ([], ["--out", str(report_path)]):
            code, report = dispatch(out + argv)
            printed = capsys.readouterr().out
            # a usage error is found before --out is read
            written = report_path.read_text(encoding="utf-8") if out and code != EXIT_USAGE else printed
            assert written == json.dumps(report, sort_keys=True, indent=2) + "\n", argv
