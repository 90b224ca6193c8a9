"""Command line front end.

Every invocation produces one JSON report on stdout (or at --out) that
echoes the full invocation, so results are reproducible byte for byte
apart from the timing field.  Randomized commands require an explicit
seed.  Resource guards exit with a distinct status; no option lifts them.

Exit statuses: 0 ok, 2 usage, 3 parse/validation, 4 guard, 5 internal.

Each invocation is a fresh process, so this module imports at load time
only what every command needs, and each handler imports the code it runs
when it is called, from the module that defines it: ``solve det`` loads
no interpreter and ``bgs run`` no linear algebra.  ``parse_structure``
and ``write_structure`` stay module-level names, read from
``structures``, because most commands read or write a structure and a
benchmark tracer rebinds ``parse_structure`` in every module that holds
it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .errors import ChoicelessLabError, GuardExceeded, ParseError, ValidationError
from .structures import parse_structure, write_structure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_GUARD = 4
EXIT_INTERNAL = 5

# gen matrix draws and writes n^2 entries, and each trial of experiment
# det-frequency draws as many: the largest matrix admitted, n = 800, is
# written in 1.1 s over GF(2) and 2.2 s over Z on a 2-core VM
MATRIX_MAX_ENTRIES = 640_000
# over Z an entry has up to as many digits as --max-abs: n^2 times that
# digit count admits n = 800 at the default bound of 256 (8.8 MB, 2.9 s on
# a 2-core VM), and n = 21 at the 4,300 digits --max-abs takes (1.9 MB)
MATRIX_MAX_DIGITS = 1_920_000
# gen bipartite draws one number per pair of sides, then builds and writes
# every atom and every edge drawn: a draw costs about 0.08 us, an atom 6 us
# and an edge 3 us, so the draws and the atoms plus expected edges are
# bounded apart; the largest request both admit takes about 2 s on a
# 2-core VM (10 million draws, 150,000 atoms)
BIPARTITE_MAX_DRAWS = 10_000_000
BIPARTITE_MAX_WRITTEN = 150_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    """The command tree: every leaf names its handler."""
    parser = _Parser(prog="choiceless-lab")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler):
        command = group.add_parser(name)
        command.set_defaults(handler=handler)
        return command

    bgs_sub = sub.add_parser("bgs").add_subparsers(dest="action", required=True)
    bgs_run = leaf(bgs_sub, "run", _cmd_bgs_run)
    bgs_run.add_argument("--program", required=True)
    bgs_run.add_argument("--input", required=True)

    gen_sub = sub.add_parser("gen").add_subparsers(dest="target", required=True)
    g_cfi = leaf(gen_sub, "cfi", _cmd_gen_cfi)
    g_cfi.add_argument("--m", type=int, required=True)
    g_cfi.add_argument("--twist", required=True, help="even, odd, or a comma list of base vertices")
    g_cfi.add_argument("--pad", action="store_true")
    g_cfi.add_argument("--file", required=True, help="structure file to write")
    g_multi = leaf(gen_sub, "multipede", _cmd_gen_multipede)
    g_multi.add_argument("--segments", type=int, required=True)
    g_multi.add_argument("--hyperedges", type=int, required=True)
    g_multi.add_argument("--seed", type=int, required=True)
    g_multi.add_argument("--shoe", action="store_true")
    g_multi.add_argument("--file", required=True)
    g_bip = leaf(gen_sub, "bipartite", _cmd_gen_bipartite)
    g_bip.add_argument("--na", type=int, required=True)
    g_bip.add_argument("--nb", type=int, required=True)
    g_bip.add_argument("--density", type=float, default=0.5)
    g_bip.add_argument("--seed", type=int, required=True)
    g_bip.add_argument("--file", required=True)
    g_mat = leaf(gen_sub, "matrix", _cmd_gen_matrix)
    g_mat.add_argument("--q", type=int, help="field order (omit for ring Z)")
    g_mat.add_argument("--n", type=int, required=True)
    g_mat.add_argument("--max-abs", type=int, help="entry bound for ring Z (default 256)")
    g_mat.add_argument("--seed", type=int, required=True)
    g_mat.add_argument("--file", required=True)

    solve_sub = sub.add_parser("solve").add_subparsers(dest="problem", required=True)
    s_match = leaf(solve_sub, "matching", _cmd_solve_matching)
    s_match.add_argument("--input", required=True)
    s_match.add_argument("--max-size", action="store_true")
    s_det = leaf(solve_sub, "det", _cmd_solve_det)
    s_det.add_argument("--matrix", required=True)
    s_det.add_argument("--method", choices=["power", "gauss"], help="field matrices only")
    s_det.add_argument("--prime-divisors", action="store_true")
    s_cfi = leaf(solve_sub, "cfi-classify", _cmd_solve_cfi_classify)
    s_cfi.add_argument("--input", required=True)

    iso_sub = sub.add_parser("iso").add_subparsers(dest="kind", required=True)
    # a 4-multipede's power-set sort is padding, so both kinds share a decider
    for kind, handler in (
        ("multipede3", _cmd_iso_multipede),
        ("multipede4", _cmd_iso_multipede),
        ("cfi", _cmd_iso_cfi),
    ):
        pair = leaf(iso_sub, kind, handler)
        pair.add_argument("--a", required=True)
        pair.add_argument("--b", required=True)

    exp_sub = sub.add_parser("experiment").add_subparsers(dest="experiment", required=True)
    freq = leaf(exp_sub, "det-frequency", _cmd_experiment)
    freq.add_argument("--q", type=int, required=True)
    freq.add_argument("--n", type=int, required=True)
    freq.add_argument("--trials", type=int, required=True)
    freq.add_argument("--seed", type=int, required=True)

    val_sub = sub.add_parser("validate").add_subparsers(dest="what", required=True)
    leaf(val_sub, "multipede", _cmd_validate_multipede).add_argument("--input", required=True)
    leaf(val_sub, "structure", _cmd_validate_structure).add_argument("--input", required=True)

    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


# ------------------------------------------------------------ subcommands


def _cmd_bgs_run(args) -> dict:
    from .bgs.interp import run
    from .bgs.parser import parse_program

    program = parse_program(_read(args.program))
    structure = parse_structure(_read(args.input))
    outcome = run(program, structure)
    return {
        "verdict": outcome.verdict,
        "steps": outcome.steps,
        "peak_active": outcome.peak_active,
        "output": outcome.output,
    }


def _cmd_gen_cfi(args) -> dict:
    from . import cfi

    if args.m < 2:
        raise ValidationError("m must be at least 2")  # K2 gadgets classify as not-CFI
    cfi.check_m(args.m, args.pad)
    base = cfi.complete_graph(args.m + 1)
    if args.twist == "even":
        twist = []
    elif args.twist == "odd":
        twist = [base.vertices[0]]
    else:
        twist = [t.strip() for t in args.twist.split(",") if t.strip()]
    structure = cfi.build_twisted(base, twist)
    unpadded = len(structure.atoms)
    if args.pad:
        structure = cfi.pad(structure)
    _write(args.file, write_structure(structure))
    return {
        "file": args.file,
        "vertices": len(structure.atoms),
        "padding": len(structure.atoms) - unpadded,
        "twist_size": len(set(twist)),
    }


def _cmd_gen_multipede(args) -> dict:
    from . import multipede

    pede = multipede.random_multipede(args.segments, args.hyperedges, args.seed)
    emitted = multipede.shoe_expansions(pede)[0] if args.shoe else pede
    _write(args.file, write_structure(multipede.to_structure(emitted)))
    return {
        "file": args.file,
        "segments": args.segments,
        "hyperedges": args.hyperedges,
        "odd": multipede.is_odd(pede),
        "shoe": bool(args.shoe),
    }


def _cmd_gen_bipartite(args) -> dict:
    import math
    import random

    from . import matching

    if args.na < 0 or args.nb < 0:
        raise ValidationError("side sizes must not be negative")
    if not 0 <= args.density <= 1:  # NaN fails too
        raise ValidationError("density must lie in [0, 1]")
    draws = args.na * args.nb
    if draws > BIPARTITE_MAX_DRAWS:
        raise GuardExceeded("bipartite.max_draws", BIPARTITE_MAX_DRAWS, draws)
    written = args.na + args.nb + math.ceil(draws * args.density)  # expected
    if written > BIPARTITE_MAX_WRITTEN:
        raise GuardExceeded("bipartite.max_written", BIPARTITE_MAX_WRITTEN, written)
    rng = random.Random(args.seed)
    a = [f"a{i}" for i in range(args.na)]
    b = [f"b{j}" for j in range(args.nb)]
    edges = [(x, y) for x in a for y in b if rng.random() < args.density]
    graph = matching.BipartiteGraph.build(a, b, edges)
    _write(args.file, write_structure(matching.graph_to_structure(graph)))
    return {"file": args.file, "na": args.na, "nb": args.nb, "edges": len(edges)}


def _check_matrix_size(n: int) -> None:
    """Refuse, before anything is drawn, an n-by-n matrix whose n^2 entries
    ``matrix.max_entries`` does not admit."""
    if n < 0:
        raise ValidationError("size must not be negative")
    if n**2 > MATRIX_MAX_ENTRIES:
        raise GuardExceeded("matrix.max_entries", MATRIX_MAX_ENTRIES, n**2)


def _cmd_gen_matrix(args) -> dict:
    import random

    from .linalg.fields import gf
    from .linalg.intmatrix import IntMatrix
    from .linalg.matio import write_field_matrix, write_int_matrix
    from .linalg.sampling import random_matrix

    if args.q is not None and args.max_abs is not None:
        raise _UsageError("--max-abs needs an integer matrix")
    _check_matrix_size(args.n)
    if args.q is not None:
        text = write_field_matrix(random_matrix(gf(args.q), args.n, args.seed))
    else:
        max_abs = 256 if args.max_abs is None else args.max_abs
        if max_abs < 0:
            raise ValidationError("--max-abs must not be negative")
        digits = args.n**2 * len(str(max_abs))
        if digits > MATRIX_MAX_DIGITS:
            raise GuardExceeded("matrix.max_digits", MATRIX_MAX_DIGITS, digits)
        rng = random.Random(args.seed)
        entries = {
            (f"i{i}", f"i{j}"): rng.randrange(-max_abs, max_abs + 1)
            for i in range(args.n)
            for j in range(args.n)
        }
        text = write_int_matrix(IntMatrix.from_int_entries(entries))
    _write(args.file, text)
    return {"file": args.file, "n": args.n}


def _cmd_solve_matching(args) -> dict:
    from . import matching

    graph = matching.graph_from_structure(parse_structure(_read(args.input)))
    if args.max_size:
        return {"max_matching": matching.max_matching_size(graph)}
    verdict = matching.decide_complete_matching(graph)
    return {"verdict": "yes" if verdict else "no"}


def _cmd_solve_det(args) -> dict:
    from .linalg.intmatrix import nonsingular_int, prime_scan
    from .linalg.matio import parse_matrix
    from .linalg.matrix import nonsingular_rect, nonsingular_square, rank_gaussian

    kind, m = parse_matrix(_read(args.matrix))
    if kind == "int":
        if args.method:
            raise _UsageError("--method needs a field matrix")
        if not args.prime_divisors:
            return {"method": "crt", "nonsingular": nonsingular_int(m)}
        det, divisors = prime_scan(m)
        return {
            "method": "crt",
            "nonsingular": det != 0,
            "prime_divisors": divisors,
            "determinant_zero": det == 0,
        }
    if args.prime_divisors:
        raise _UsageError("--prime-divisors needs an integer matrix")
    if args.method != "gauss":
        decide = nonsingular_square if m.square else nonsingular_rect
        return {"method": "power", "nonsingular": decide(m)}
    rows = sorted(m.rows, key=str)
    cols = sorted(m.cols, key=str)
    rank = rank_gaussian(m, rows, cols)
    return {
        "method": "gauss",
        "rank": rank,
        "nonsingular": rank == len(rows) and len(rows) == len(cols),
    }


def _cmd_solve_cfi_classify(args) -> dict:
    from . import cfi

    structure = cfi.from_structure(parse_structure(_read(args.input)))
    return {"class": cfi.recognize_and_classify(structure)}


def _cmd_iso_cfi(args) -> dict:
    from . import cfi

    a = cfi.from_structure(parse_structure(_read(args.a)))
    b = cfi.from_structure(parse_structure(_read(args.b)))
    return {"isomorphic": cfi.isomorphic_gadgets(a, b)}


def _cmd_iso_multipede(args) -> dict:
    from . import multipede

    shod_a = multipede.from_structure(parse_structure(_read(args.a)))
    shod_b = multipede.from_structure(parse_structure(_read(args.b)))
    return {"isomorphic": multipede.iso3_decide(shod_a, shod_b)}


def _cmd_experiment(args) -> dict:
    from .linalg.fields import gf
    from .linalg.sampling import frequency_experiment

    _check_matrix_size(args.n)  # every trial draws n^2 entries
    fraction = frequency_experiment(gf(args.q), args.n, args.trials, args.seed)
    return {"fraction": fraction, "trials": args.trials}


def _cmd_validate_multipede(args) -> dict:
    from . import multipede

    structure = parse_structure(_read(args.input))
    pede, shoe = multipede.from_structure_lenient(structure)
    violations = multipede.validate(pede)
    intact = not violations and bool(pede.segments)
    return {
        "valid": not violations,
        "violations": [list(map(str, v)) for v in violations],
        "odd": multipede.is_odd(pede) if intact else None,
        "has_shoe": shoe is not None,
    }


def _cmd_validate_structure(args) -> dict:
    structure = parse_structure(_read(args.input))
    return {
        "atoms": len(structure.atoms),
        "symbols": {
            name: {
                "kind": "rel" if name in structure.relations else "fun",
                "arity": structure.arities[name],
                "tuples": len(
                    structure.relations.get(name, structure.functions.get(name, ()))
                ),
            }
            for name in sorted(structure.arities)
        },
    }


# built once per process, after the handlers it names: parse_args leaves
# the parser as it found it
_PARSER = _build_parser()


def _emit(report: dict, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def dispatch(argv) -> tuple:
    """Route an argument vector; returns (exit status, report dict)."""
    envelope = {
        "tool": "choiceless-lab",
        "version": __version__,
        "invocation": {"argv": list(argv)},
    }
    started = time.monotonic()
    out_path = None
    try:
        args = _PARSER.parse_args(argv)
        out_path = args.out
        report = dict(envelope, result=args.handler(args))
        report["timing_seconds"] = round(time.monotonic() - started, 6)
        _emit(report, out_path)
        return EXIT_OK, report
    except _UsageError as exc:
        code, kind = EXIT_USAGE, "usage"
        message = str(exc)
    except GuardExceeded as exc:
        code, kind = EXIT_GUARD, "guard"
        message = str(exc)
    except (ParseError, ValidationError) as exc:
        code, kind = EXIT_PARSE, "parse"
        message = str(exc)
    except ChoicelessLabError as exc:
        code, kind = EXIT_INTERNAL, "internal"
        message = str(exc)
    except Exception as exc:  # pragma: no cover - defensive
        code, kind = EXIT_INTERNAL, "internal"
        message = f"{type(exc).__name__}: {exc}"
    report = dict(envelope)
    report["error"] = {"kind": kind, "message": message}
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    try:
        _emit(report, out_path)
    except ParseError:  # --out itself cannot be written
        _emit(report, None)
    return code, report


def main() -> None:
    code, _ = dispatch(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
