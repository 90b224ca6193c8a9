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

Each handler runs with the cyclic garbage collector paused
(:func:`~choiceless_lab.structures.collector_paused`), which is left as
it was found however the handler ends.  That is safe because no command
makes a reference cycle: structures, tables, matrices, sets and machine
states hold strings, numbers and one another, never themselves.  What a
handler made and dropped is freed by reference counts when it returns,
and each freed object lowers the allocation count that would start the
next collection, so a large input costs no collection at all: a multipede
file's tens of thousands of fresh tuples would otherwise be traversed by
collections that can find nothing.  The flag reader and the report
writer (:func:`_json`) make no cycle either, so a request leaves the
collector nothing to free.

Commands are one flat table, ``_COMMANDS``, of each command's handler and
flags, and :func:`_read_flags` reads a command's flags straight from it,
with the forms and usage messages that :mod:`argparse` has on Python 3.10
to 3.12, without importing it; ``--flag=--`` gives the flag the value
``--``, as argparse does from 3.13 on.  ``--out`` may stand on either
side of the command (:func:`_split`).

``--out`` and every ``gen ... --file`` go through :func:`_write`, which
follows a symlink, writes over an existing regular file in place and cuts
it to the new length; a FIFO or a device is written but never truncated.
Nothing is synced: a crash mid-write can leave the new bytes over the old
file's tail.
"""

from __future__ import annotations

import os
import re
import stat
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .errors import ChoicelessLabError, GuardExceeded, ParseError, ValidationError
from .structures import collector_paused, parse_structure, write_structure

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


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` over the file at ``path``, then cut a regular file
    after it; truncating to zero first would make ext4 flush it on close."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            left = memoryview(data)
            while left:
                left = left[os.write(fd, left):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
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
    from .linalg.intmatrix import IntMatrix, nonsingular_int, prime_scan
    from .linalg.matio import parse_matrix
    from .linalg.matrix import nonsingular_rect, nonsingular_square, rank_gaussian

    m = parse_matrix(_read(args.matrix))
    if isinstance(m, IntMatrix):
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

    a = multipede.from_structure(parse_structure(_read(args.a)))
    b = multipede.from_structure(parse_structure(_read(args.b)))
    return {"isomorphic": multipede.iso3_decide(a, b)}


def _cmd_experiment(args) -> dict:
    from .linalg.fields import gf
    from .linalg.sampling import frequency_experiment

    _check_matrix_size(args.n)  # every trial draws n^2 entries
    fraction = frequency_experiment(gf(args.q), args.n, args.trials, args.seed)
    return {"fraction": fraction, "trials": args.trials}


def _cmd_validate_multipede(args) -> dict:
    from . import multipede

    structure = parse_structure(_read(args.input))
    pede = multipede.from_structure_lenient(structure)
    violations = multipede.validate(pede)
    intact = not violations and bool(pede.segments)
    return {
        "valid": not violations,
        "violations": [list(map(str, v)) for v in violations],
        "odd": multipede.is_odd(pede) if intact else None,
        "has_shoe": pede.shoe is not None,
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


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true", "default": False}
_INPUT = {"--input": _REQUIRED}
_PAIR = {"--a": _REQUIRED, "--b": _REQUIRED}

# (group, command) -> (handler, {flag: its add_argument keywords})
_COMMANDS = {
    ("bgs", "run"): (_cmd_bgs_run, {"--program": _REQUIRED, "--input": _REQUIRED}),
    ("gen", "cfi"): (_cmd_gen_cfi, {
        "--m": _INT, "--twist": dict(_REQUIRED, help="even, odd, or a comma list of base vertices"),
        "--pad": _FLAG, "--file": dict(_REQUIRED, help="structure file to write"),
    }),
    ("gen", "multipede"): (_cmd_gen_multipede, {
        "--segments": _INT, "--hyperedges": _INT, "--seed": _INT, "--shoe": _FLAG,
        "--file": _REQUIRED,
    }),
    ("gen", "bipartite"): (_cmd_gen_bipartite, {
        "--na": _INT, "--nb": _INT, "--density": {"type": float, "default": 0.5},
        "--seed": _INT, "--file": _REQUIRED,
    }),
    ("gen", "matrix"): (_cmd_gen_matrix, {
        "--q": {"type": int, "help": "field order (omit for ring Z)"}, "--n": _INT,
        "--max-abs": {"type": int, "help": "entry bound for ring Z (default 256)"},
        "--seed": _INT, "--file": _REQUIRED,
    }),
    ("solve", "matching"): (_cmd_solve_matching, {"--input": _REQUIRED, "--max-size": _FLAG}),
    ("solve", "det"): (_cmd_solve_det, {
        "--matrix": _REQUIRED,
        "--method": {"choices": ["power", "gauss"], "help": "field matrices only"},
        "--prime-divisors": _FLAG,
    }),
    ("solve", "cfi-classify"): (_cmd_solve_cfi_classify, _INPUT),
    # a 4-multipede's power-set sort is padding, so both kinds share a decider
    ("iso", "multipede3"): (_cmd_iso_multipede, _PAIR),
    ("iso", "multipede4"): (_cmd_iso_multipede, _PAIR),
    ("iso", "cfi"): (_cmd_iso_cfi, _PAIR),
    ("experiment", "det-frequency"): (_cmd_experiment, {
        "--q": _INT, "--n": _INT, "--trials": _INT, "--seed": _INT,
    }),
    ("validate", "multipede"): (_cmd_validate_multipede, _INPUT),
    ("validate", "structure"): (_cmd_validate_structure, _INPUT),
}

# the options every command has, before its own, in argparse's order
_HELP = {"action": "help", "help": "show this help message and exit"}
_COMMON = {
    "-h": _HELP,
    "--help": _HELP,
    "--out": {"help": "write the JSON report here instead of stdout"},
}
# argparse reads an unknown argument that looks like this as a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, options: dict):
    """What argparse reads ``arg`` as: None for a value, else the option
    string it names (None for an unknown option) and its ``=`` value (None
    if it has none).  A prefix of a ``--`` option names the one option it
    starts, and is an error if it starts several."""
    if arg in options:
        return arg, None
    if arg[:1] != "-" or len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    if arg[1] == "-":
        found = [(flag, value if eq else None) for flag in options if flag.startswith(name)]
    else:  # of the one-dash options, -h alone, which takes the rest as its value
        found = [("-h", arg[2:])] if arg[:2] == "-h" else []
    if len(found) > 1:
        matches = ", ".join(flag for flag, _ in found)
        raise _UsageError(f"ambiguous option: {arg} could match {matches}")
    if found:
        return found[0]
    if _NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def _usage(command: tuple, options: dict) -> str:
    """The usage line, then one line per option with its help text."""
    words, lines = [], [f"  -h, --help  {_HELP['help']}"]
    for flag, spec in options.items():
        if spec is _HELP:
            continue
        if "action" in spec:
            shown = flag
        elif "choices" in spec:
            shown = f"{flag} {{{','.join(spec['choices'])}}}"
        else:
            shown = f"{flag} {flag[2:].replace('-', '_').upper()}"
        words.append(shown if spec.get("required") else f"[{shown}]")
        lines.append(f"  {shown}  {spec['help']}" if "help" in spec else f"  {shown}")
    return "\n".join([f"usage: choiceless-lab {' '.join(command)} [-h] {' '.join(words)}", *lines])


def _read_flags(command: tuple, argv: list) -> SimpleNamespace:
    """``argv``'s values of ``--out`` and the command's flags, each under
    its name with ``-`` read as ``_``, as argparse reads them from the
    table: ``--flag value`` or ``--flag=value``, a flag or a unique prefix
    of one, the last of a repeated flag, a store-true flag as True, an
    absent one as its default.  ``-h`` or ``--help`` prints the usage and
    exits 0; every other misuse raises :class:`_UsageError` with
    argparse's message."""
    options = {**_COMMON, **_COMMANDS[command][1]}
    # argparse reads each argument before the first "--" (a prefix that
    # starts several options is an error there), then takes the options in
    # order; "--" and what follows it are no option's value
    end = argv.index("--") if "--" in argv else len(argv)
    read = [_option(arg, options) for arg in argv[:end]]
    given, extras, at = {}, [], 0
    while at < end:
        if read[at] is None or read[at][0] is None:  # a value no option took, an unknown option
            extras.append(argv[at])
            at += 1
            continue
        flag, value = read[at]
        spec = options[flag]
        at += 1
        if "action" in spec:
            if flag == "-h" and value:  # -hh is -h -h; what follows the h's is left over
                value = value.lstrip("h") or None
            if value is not None:
                name = "-h/--help" if spec is _HELP else flag
                raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
            if spec is _HELP:
                print(_usage(command, options))
                raise SystemExit(EXIT_OK)
            given[flag] = True
            continue
        if value is None:
            if at == end or read[at] is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            value = argv[at]
            at += 1
        convert = spec.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                message = f"argument {flag}: invalid {convert.__name__} value: {value!r}"
                raise _UsageError(message) from None
        choices = spec.get("choices")
        if choices is not None and value not in choices:
            listing = ", ".join(map(repr, choices))
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {listing})")
        given[flag] = value
    missing = [flag for flag, spec in options.items() if spec.get("required") and flag not in given]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    extras += argv[end:]
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**{
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in options.items()
        if spec is not _HELP
    })


def _split(argv) -> tuple:
    """The command words, the first two arguments that are not ``--out``
    (or a prefix of it, such as ``--o``) or its value, and the others."""
    words, rest, at = [], list(argv), 0
    while len(words) < 2 and at < len(rest):
        flag, inline, _ = rest[at].partition("=")
        if len(flag) > 2 and "--out".startswith(flag):
            at += 1 if inline else 2
        else:
            words.append(rest.pop(at))
    return tuple(words), rest


_INFINITY = float("inf")


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes
    it, for dicts with str keys, lists, tuples, str, int, bool, None and
    float; any other value raises TypeError.  ``indent`` is the newline and
    indentation before the line that holds ``value``'s closing bracket."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json(item, inner) for item in value])}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict, out_path):
    text = _json(report) + "\n"
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
        command, rest = _split(argv)
        if command not in _COMMANDS:
            listing = ", ".join(map(" ".join, _COMMANDS))
            if "-h" in argv or "--help" in argv:
                print(f"usage: choiceless-lab [--out OUT] <command> ...\ncommands: {listing}")
                raise SystemExit(EXIT_OK)
            raise _UsageError(f"unknown command {' '.join(command)!r}; the commands are {listing}")
        args = _read_flags(command, rest)
        out_path = args.out
        with collector_paused():
            result = _COMMANDS[command][0](args)
        report = dict(envelope, result=result)
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
