"""CSV text at C speed, with the bytes and cells of the ``csv`` module.

:func:`write_rows` writes the bytes ``csv.writer`` would for cells it
would not quote: numbers written with ``repr`` and fixed names and
labels. :func:`read_table` parses a file in one ``np.loadtxt`` call
and, where that parse cannot vouch for the file, re-reads it with
``csv.reader``, whose errors name ``file:line``. Callers pass their own
header check and trailing-cell parsers; the reader owns the format.
"""

import csv
from itertools import chain

import numpy as np

from .errors import DatasetParseError, DatasetSchemaError, undecodable, writing

LINE_END = "\r\n"  # csv.writer's terminator
_BLOCK = 1024  # rows joined at a time, which bounds a write's memory


def write_rows(path, header: list[str], columns) -> None:
    """Write ``header`` and one line per row of ``columns``: 1-D arrays, their numbers
    written with ``repr`` and ``"U"`` strings as they are, or sequences of cell strings.
    Each block of rows is one cell list, filled a column at a time and joined in one call."""
    n, k = len(columns[0]), len(columns)
    row = [None, ","] * (k - 1) + [None, LINE_END]  # a value slot, then its separator
    with writing(path, newline="") as fh:
        fh.write(",".join(header) + LINE_END)
        for start in range(0, n, _BLOCK):
            cells = row * min(_BLOCK, n - start)
            for j, column in enumerate(columns):
                if isinstance(part := column[start:start + _BLOCK], np.ndarray):
                    part = part.tolist() if part.dtype.kind == "U" else map(repr, part.tolist())
                cells[2 * j::2 * k] = part
            fh.write("".join(cells))


def read_table(path, check_header, parsers=()):
    """A CSV table: a header row, then float columns and ``len(parsers)`` others.

    Returns ``(header, floats, tails, lines)``: the stripped header
    cells, an (n, k) array of the leading float columns, one list per
    trailing column of its cells as ``parsers`` parse them, and the file
    line each row starts on. ``check_header`` returns the message for a
    header the caller rejects, else None.

    The file is parsed in one ``np.loadtxt`` call. Where that parse
    cannot vouch for it, the ``csv`` row reader re-reads it and raises
    DatasetSchemaError or DatasetParseError naming ``file:line``, so a
    file reads to the same values, or fails with the same error, either
    way. ``lines`` is None after the one-call parse, whose rows span one
    line each: row ``i`` is line ``i + 2``.
    """
    table = _read_fast(path, check_header, parsers)
    return table if table is not None else _read_rows(path, check_header, parsers)


def _read_fast(path, check_header, parsers):
    """:func:`read_table` in one ``np.loadtxt`` call, or None if unsure.

    ``np.loadtxt`` reads the lines ``csv.reader`` would, from the same
    file object, and parses floats with the C routine ``float()`` uses,
    so an accepted value is bit-equal to ``float(cell)``. Returns None
    when the header is rejected, the body is empty or does not decode,
    or has a blank line (csv reads a row of no cells, ``np.loadtxt``
    skips it), a row of another width, a cell that does not parse or a
    quote (csv unquotes cells).
    """
    n_lines, n_tail = 0, len(parsers)

    def lines(first, fh):
        nonlocal n_lines
        for n_lines, line in enumerate(chain([first], fh), 1):
            yield line

    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header, first = fh.readline(), fh.readline()
            cells = [cell.strip() for cell in header.rstrip("\r\n").split(",")]
            n_floats = len(cells) - n_tail
            # a blank first line: csv reads a row of no cells, np.loadtxt skips it
            # and, if every line is blank, warns of an empty file
            if (not first.rstrip("\r\n") or '"' in header or n_floats < 1
                    or check_header(cells) is not None):
                return None
            dtype = [("floats", float, (n_floats,))] + [(f"tail{k}", object) for k in range(n_tail)]
            rows = np.loadtxt(lines(first, fh), dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # also text that does not decode, which the csv reader reports
            return None
    tails, floats = [rows[f"tail{k}"].tolist() for k in range(n_tail)], rows["floats"]
    if len(floats) != n_lines or any('"' in cell for column in tails for cell in set(column)):
        return None
    try:  # each distinct cell is parsed once
        value_of = [{cell: parse(cell) for cell in set(column)}
                    for parse, column in zip(parsers, tails)]
    except ValueError:
        return None
    return cells, floats, [list(map(of.__getitem__, column))
                           for of, column in zip(value_of, tails)], None


def _read_rows(path, check_header, parsers):
    """:func:`read_table` row by row with ``csv``, raising at the first bad line.

    A row's line is the file line it starts on; a quoted cell can span
    lines, so it is not the row's count. Text that does not decode and a
    row the ``csv`` module rejects (a cell over its field size limit,
    say) raise DatasetParseError naming the line.
    """
    floats, tails, lines = [], [[] for _ in parsers], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if (header := next(reader, None)) is None:
                raise DatasetSchemaError(f"{path}: missing header row")
            header = [cell.strip() for cell in header]
            if (problem := check_header(header)) is not None:
                raise DatasetSchemaError(f"{path}: {problem}")
            n_floats, start = len(header) - len(parsers), reader.line_num + 1
            for row in reader:
                line, start = start, reader.line_num + 1
                if len(row) != len(header):
                    raise DatasetSchemaError(
                        f"{path}:{line}: expected {len(header)} values, got {len(row)}"
                    )
                try:
                    floats.append(tuple(map(float, row[:n_floats])))  # a tuple is sized exactly
                    for parse, cell, column in zip(parsers, row[n_floats:], tails):
                        column.append(parse(cell))
                except ValueError as exc:
                    raise DatasetParseError(f"{path}:{line}: {exc}") from None
                lines.append(line)
        except UnicodeDecodeError as exc:
            raise DatasetParseError(undecodable(path, exc)) from None
        except csv.Error as exc:
            raise DatasetParseError(f"{path}:{reader.line_num}: {exc}") from None
    return header, np.array(floats, dtype=float).reshape(len(floats), n_floats), tails, lines
