"""Matrix file format.

Header declares the ring, then the index sets, then sparse entries::

    field 2          // or: ring Z
    rows r0 r1
    cols c0 c1       // may be omitted together with "square"
    square           // marks an I-square matrix (cols default to rows)
    r0 c0 1
    r1 c1 1

Omitted entries are zero, and each header and each cell is listed at
most once.  Field entries are canonical element indices, unsigned; ring
entries are decimal integers (possibly negative).  Integer matrices must
be square.
Every decimal (the field order, an entry) is ASCII digits, at most 4,300
of them, with a ``-`` before a negative entry.

Each file is read in one pass over its lines: the headers in line order,
then every entry at once, column by column.  Only when that check fails
are the entries read one by one, to name the first bad one and its line.
"""

from __future__ import annotations

from itertools import compress, count
from operator import not_

from ..errors import DECIMAL_MAX_DIGITS, ParseError, ValidationError, read_decimal
from .fields import gf
from .intmatrix import IntMatrix
from .matrix import FieldMatrix

__all__ = ["parse_matrix", "write_field_matrix", "write_int_matrix"]

_HEADERS = frozenset({"field", "ring", "rows", "cols", "square"})
# a line of three fields is an entry unless it starts with one of these
_HEADS_OF_THREE = _HEADERS - {"square"}
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_matrix(text: str):
    """Returns a FieldMatrix or an IntMatrix.  This is the
    only check on a matrix from outside, so it checks the whole format;
    every error that belongs to a line names it."""
    lines = text.splitlines()
    if "//" in text:
        lines = [line.split("//", 1)[0] for line in lines]
    split = list(map(str.split, lines))
    is_entry = [len(parts) == 3 and parts[0] not in _HEADS_OF_THREE for parts in split]
    field = rows = cols = None
    square = False
    header_line: dict = {}  # header -> line number
    for line_no in compress(count(1), map(not_, is_entry)):
        parts = split[line_no - 1]
        if not parts:
            continue
        head = parts[0]
        if head in _HEADERS and (head != "square" or len(parts) == 1):
            key = "ring" if head == "field" else head
            if key in header_line:
                raise ParseError(f"second {key} header, after line {header_line[key]}", line_no)
            header_line[key] = line_no
        if head == "field":
            if len(parts) != 2:
                raise ParseError("field header needs one numeric order", line_no)
            q = read_decimal(parts[1], "field order", line_no)
            try:
                field = gf(q)
            except ValidationError as exc:
                raise ParseError(str(exc), line_no) from None
        elif head == "ring":
            if parts[1:] != ["Z"]:
                raise ParseError("only ring Z is supported", line_no)
        elif head == "rows":
            rows = parts[1:]
        elif head == "cols":
            cols = parts[1:]
        elif head == "square" and len(parts) == 1:
            square = True
        else:
            raise ParseError(f"unrecognized line {lines[line_no - 1].strip()!r}", line_no)
    if "ring" not in header_line:
        raise ParseError("missing field/ring header")
    if rows is None:
        raise ParseError("missing rows header")
    if cols is None:
        if not square:
            raise ParseError("missing cols header (or square flag)")
        cols = rows
    for head, names in (("rows", rows), ("cols", cols)):
        if len(set(names)) != len(names):
            raise ParseError("duplicate index names", header_line[head])
    if square and set(rows) != set(cols):
        raise ParseError("square matrices need rows == cols", header_line["square"])
    if field is None and not square:
        raise ParseError("integer matrices must carry the square flag", header_line["ring"])
    row_set, col_set = frozenset(rows), frozenset(cols)
    entries = list(compress(split, is_entry))
    cells = _checked_at_once(field, row_set, col_set, entries)
    if cells is None:  # the first bad entry names the error, at its line
        cells = {}
        for (i, j, v), line_no in zip(entries, compress(count(1), is_entry)):
            if i not in row_set or j not in col_set:
                raise ParseError(f"entry ({i}, {j}) outside the index sets", line_no)
            if (i, j) in cells:
                raise ParseError(f"entry ({i}, {j}) listed twice", line_no)
            sign = "-" if v.startswith("-") else ""  # ring entries may be negative
            value = read_decimal(v[len(sign) :], "entry value", line_no)
            if field is not None and (sign or value >= q):  # -0 is no element index either
                raise ParseError(f"entry {sign}{value} is not an element index below {q}", line_no)
            cells[(i, j)] = -value if sign else value
    if field is None:
        return IntMatrix.from_int_entries(cells, index_set=row_set)
    return FieldMatrix(field, row_set, col_set, cells)


def _checked_at_once(field, row_set, col_set, entries):
    """The cells, when every entry passes each check column by column; else
    None."""
    i, j, v = zip(*entries) if entries else ((), (), ())
    digits = "".join(v) if field is not None else "".join(v).replace("-", "")
    known = row_set.issuperset(i) and col_set.issuperset(j)
    if not (known and digits.isascii() and (digits or "0").isdigit()):
        return None
    if field is not None and len(digits) == len(v):  # one digit an entry
        values = list(digits.encode().translate(_DIGIT_VALUES))
    elif max(map(len, v), default=0) > DECIMAL_MAX_DIGITS:
        return None  # past the limit, or a legal "-" and 4,300 digits: read one by one
    else:
        try:  # a misplaced "-", or past the interpreter's digits
            values = list(map(int, v))
        except ValueError:
            return None
    cells = dict(zip(zip(i, j), values))
    if len(cells) < len(values) or field is not None and max(values, default=0) >= field.order:
        return None  # a cell listed twice, or a value that is no element
    return cells


def _index_line(head: str, names) -> str:
    """The header line listing an index set, once every name is one that
    ``parse_matrix`` reads back as that name."""
    texts = sorted(map(str, names))
    for text in texts:
        if text in _HEADERS or "//" in text or text.split() != [text]:
            raise ValidationError(f"index name {text!r} cannot be written to a matrix file")
    if len(set(texts)) < len(texts):
        raise ValidationError(f"two {head} names would be written alike")
    return " ".join([head, *texts])


def _entry_lines(entries: dict) -> list:
    """One ``i j v`` line per entry, in the order of the names' texts."""
    cells = sorted(entries, key=lambda pair: (str(pair[0]), str(pair[1])))
    return [f"{i} {j} {entries[(i, j)]}" for (i, j) in cells]


def write_field_matrix(m: FieldMatrix) -> str:
    lines = [f"field {m.field.order}", _index_line("rows", m.rows)]
    lines.append("square" if m.square else _index_line("cols", m.cols))
    return "\n".join(lines + _entry_lines(m.entries)) + "\n"


def write_int_matrix(m: IntMatrix) -> str:
    lines = ["ring Z", _index_line("rows", m.index_set), "square"]
    return "\n".join(lines + _entry_lines(m.entries)) + "\n"
