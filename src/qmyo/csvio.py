"""CSV text at C speed, with the bytes and cells of the ``csv`` module.

:func:`write_rows` writes the bytes ``csv.writer`` would for cells it
would not quote: numbers written with ``repr`` and fixed names and
labels. :func:`read_fast` parses a file in one ``np.loadtxt`` call, or
returns None where ``csv.reader`` could read other cells or rows; the
caller then re-reads the file with :func:`read_rows`, whose errors name
``file:line``.
"""

import csv
from itertools import chain

import numpy as np

from .errors import DatasetParseError, undecodable

LINE_END = "\r\n"  # csv.writer's terminator
_CHUNK = 1024  # values turned into Python floats at a time, which bounds a write's memory


def float_cells(values: np.ndarray):
    """The ``repr`` of each float in a 1-D array, as ``csv.writer`` writes a float."""
    return chain.from_iterable(
        map(repr, values[start:start + _CHUNK].tolist()) for start in range(0, len(values), _CHUNK)
    )


def write_rows(path, header: list[str], columns) -> None:
    """Write ``header`` and one line per row of ``columns``, iterables of cell strings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + LINE_END)
        fh.writelines(",".join(row) + LINE_END for row in zip(*columns))


def read_fast(path, n_tail: int = 0):
    """Header cells, leading float columns and ``n_tail`` trailing string columns.

    Returns ``(header, floats, tails)``: the stripped header cells, an
    (n, k) array of the leading float columns and one list of cell
    strings per trailing column. ``np.loadtxt`` reads the lines
    ``csv.reader`` would, from the same file object, and parses floats
    with the C routine ``float()`` uses, so an accepted value is
    bit-equal to ``float(cell)``. Returns None when the body is empty or
    does not decode, or has a blank line (csv reads a row of no cells,
    ``np.loadtxt`` skips it), a row of another width, a float cell that
    does not parse or a quote (csv unquotes cells).
    """
    n_lines = 0

    def lines(first, fh):
        nonlocal n_lines
        for n_lines, line in enumerate(chain([first], fh), 1):
            yield line

    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header, first = fh.readline(), fh.readline()
            cells = [cell.strip() for cell in header.rstrip("\r\n").split(",")]
            n_floats = len(cells) - n_tail
            # a blank first line: csv reads a row of no cells, np.loadtxt skips it
            # and, if every line is blank, warns of an empty file
            if not first.rstrip("\r\n") or '"' in header or n_floats < 1:
                return None
            dtype = [("floats", float, (n_floats,))] + [(f"tail{k}", object) for k in range(n_tail)]
            rows = np.loadtxt(lines(first, fh), dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # also text that does not decode, which the csv reader reports
            return None
    tails = [rows[f"tail{k}"].tolist() for k in range(n_tail)]
    # a copy frees the record array before callers allocate what they keep; a hole
    # left below that raised cli-pipeline's peak RSS by 3 MB in about half the runs
    floats = rows["floats"].copy()
    del rows
    if len(floats) != n_lines or any('"' in cell for column in tails for cell in set(column)):
        return None
    return cells, floats, tails


def read_rows(path, fh):
    """``(line, cells)`` of each row ``csv.reader`` reads from ``fh``.

    ``line`` is the file line the row starts on, from line 1; a quoted
    cell can span lines, so it is not the row's count. Text that does
    not decode and a row the ``csv`` module rejects (a cell over its
    field size limit, say) raise DatasetParseError naming ``path`` and
    the line.
    """
    reader, start = csv.reader(fh), 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise DatasetParseError(undecodable(path, exc)) from None
    except csv.Error as exc:
        raise DatasetParseError(f"{path}:{reader.line_num}: {exc}") from None
