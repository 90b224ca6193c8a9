"""Matrix file format.

Header declares the ring, then the index sets, then sparse entries::

    field 2          // or: ring Z
    rows r0 r1
    cols c0 c1       // may be omitted together with "square"
    square           // marks an I-square matrix (cols default to rows)
    r0 c0 1
    r1 c1 1

Omitted entries are zero, and each header and each cell is listed at
most once.  Field entries are canonical element indices; ring entries are
decimal integers (possibly negative).  Integer matrices must be square.
Every decimal (the field order, an entry) is ASCII digits, at most 4,300
of them, with a ``-`` before a negative entry.

Text in the layout the writers and ``gen matrix`` use (the headers on the
first three lines, then one ``i j v`` line per entry, fields one space
apart, no ``//``) is read in bulk, its entries checked column by column.
Any other text, and any that fails a check there, goes to the line reader,
which holds every error message and line number.
"""

from __future__ import annotations

from ..errors import DECIMAL_MAX_DIGITS, ParseError, ValidationError, read_decimal
from .fields import gf
from .intmatrix import IntMatrix
from .matrix import FieldMatrix

__all__ = ["parse_matrix", "write_field_matrix", "write_int_matrix"]

_HEADERS = frozenset({"field", "ring", "rows", "cols", "square"})


def parse_matrix(text: str):
    """Returns a FieldMatrix or an IntMatrix.  This is the
    only check on a matrix from outside, so it checks the whole format;
    every error that belongs to a line names it."""
    return _read_bulk(text) or _read_lines(text)


def _read_bulk(text: str):
    """The matrix in the written layout, or None for the line reader."""
    lines = text.split("\n")
    if len(lines) < 4 or lines.pop() or "//" in text or not "".join(lines[:3]).isprintable():
        return None
    try:
        empty = _read_lines("\n".join(lines[:3]))
    except ParseError:
        return None
    field = getattr(empty, "field", None)
    rows, cols = (empty.index_set,) * 2 if field is None else (empty.rows, empty.cols)
    cells = [line.split(" ") for line in lines[3:]]
    columns = list(zip(*cells)) or [(), (), ()]
    # three fields on every line, and no line that the line reader reads as a header
    if len(columns) != 3 or sum(map(len, cells)) != 3 * len(cells) or _HEADERS & rows:
        return None
    i, j, v = columns
    digits = "".join(v).replace("-", "") if field is None else "".join(v)
    known = rows.issuperset(i) and cols.issuperset(j) and (digits or "0").isdigit()
    if not (known and digits.isascii()) or max(map(len, v), default=0) > DECIMAL_MAX_DIGITS:
        return None
    try:  # a misplaced "-", an empty value, or past the interpreter's digits
        values = list(map(int, v))
    except ValueError:
        return None
    entries = dict(zip(zip(i, j), values))
    if len(entries) < len(values) or field is not None and max(values, default=0) >= field.order:
        return None  # a cell listed twice, or a value that is no element
    if field is None:
        return IntMatrix.from_int_entries(entries, rows)
    return FieldMatrix(field, rows, cols, entries)


def _read_lines(text: str):
    """The line reader: every layout, and the one source of every error."""
    ring = q = rows = cols = None
    square = False
    header_line: dict = {}  # header -> line number
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head in _HEADERS and (head != "square" or len(parts) == 1):
            key = "ring" if head == "field" else head
            if key in header_line:
                first = header_line[key]
                raise ParseError(f"second {key} header, after line {first}", line_no)
            header_line[key] = line_no
        if head == "field":
            if len(parts) != 2:
                raise ParseError("field header needs one numeric order", line_no)
            ring, q = "field", read_decimal(parts[1], "field order", line_no)
            try:
                field = gf(q)
            except ValidationError as exc:
                raise ParseError(str(exc), line_no) from None
        elif head == "ring":
            if parts[1:] != ["Z"]:
                raise ParseError("only ring Z is supported", line_no)
            ring = "int"
        elif head == "rows":
            rows = parts[1:]
        elif head == "cols":
            cols = parts[1:]
        elif head == "square" and len(parts) == 1:
            square = True
        elif len(parts) == 3:
            entries.append((parts[0], parts[1], parts[2], line_no))
        else:
            raise ParseError(f"unrecognized line {line!r}", line_no)
    if ring is None:
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
    if ring == "int" and not square:
        raise ParseError("integer matrices must carry the square flag", header_line["ring"])
    row_set, col_set = frozenset(rows), frozenset(cols)
    cells = {}
    for i, j, v, line_no in entries:
        if i not in row_set or j not in col_set:
            raise ParseError(f"entry ({i}, {j}) outside the index sets", line_no)
        if (i, j) in cells:
            raise ParseError(f"entry ({i}, {j}) listed twice", line_no)
        digits = v[1:] if v.startswith("-") else v  # ring entries may be negative
        value = read_decimal(digits, "entry value", line_no)
        if digits != v:
            value = -value
        if ring == "field" and not 0 <= value < q:
            raise ParseError(f"entry {value} is not an element index below {q}", line_no)
        cells[(i, j)] = value
    if ring == "field":
        return FieldMatrix(field, row_set, col_set, cells)
    return IntMatrix.from_int_entries(cells, index_set=row_set)


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


def write_field_matrix(m: FieldMatrix) -> str:
    lines = [f"field {m.field.order}", _index_line("rows", m.rows)]
    if m.square:
        lines.append("square")
    else:
        lines.append(_index_line("cols", m.cols))
    for (i, j) in sorted(m.entries, key=lambda pair: (str(pair[0]), str(pair[1]))):
        lines.append(f"{i} {j} {m.entries[(i, j)]}")
    return "\n".join(lines) + "\n"


def write_int_matrix(m: IntMatrix) -> str:
    lines = ["ring Z", _index_line("rows", m.index_set), "square"]
    for (i, j) in sorted(m.entries, key=lambda pair: (str(pair[0]), str(pair[1]))):
        lines.append(f"{i} {j} {m.entries[(i, j)]}")
    return "\n".join(lines) + "\n"
