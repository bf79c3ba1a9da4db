"""The one CSV reader and writer of the package's tabular files.

A reader requires the exact header line, skips blank rows and names the
first bad row as path:line: of the rows before the first row of the wrong
width, the first with a bad cell, else that row.  _read_rows turns text
into the cells of each of the header's columns in one pass.  Cells are
quoted by the csv module's rules; floats are written as their repr.  No
cell may hold a line break: the writer rejects one before writing, and
the reader rejects a quoted cell that spans lines.

The writer formats a numeric column with one repr or str per distinct
value and joins rows by hand; a cell holding "," or '"', the only
characters csv.writer quotes once line breaks are rejected, is quoted as
csv.writer quotes it.  The reader splits text holding no '"' on commas,
which is what csv.reader makes of it (NUL included, from Python 3.11 on),
and _parse_column parses each distinct cell of a column once where cells
repeat, else each cell.  Text holding a '"' goes through csv.reader,
whose errors, such as a cell past csv.field_size_limit(), are data
errors at the row's path:line; so the writer refuses, before writing, a
file that would hold a '"' and such a cell.
"""

from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import Check, DataError, JJShadowError, open_output


def _breaks_line(text: str) -> bool:
    """Whether text holds a character that str.splitlines breaks a line on."""
    return text.splitlines() not in ([], [text])


def _number_cells(column: Sequence) -> list[str] | None:
    """The text csv.writer gives each value of a float64 or integer array,
    which never needs quoting: one repr per distinct bit pattern (keyed on
    the bits, so -0.0 keeps its sign) or one str per distinct value.  None
    for any other column."""
    if not (isinstance(column, np.ndarray) and (column.dtype == np.float64
                                                or column.dtype.kind in "iu")):
        return None
    floats = column.dtype == np.float64
    keys, inverse = np.unique(column.view(np.int64) if floats else column,
                              return_inverse=True)
    text = np.array(list(map(str, (keys.view(np.float64) if floats else keys).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _quoted(cell: str) -> str:
    """cell as csv.writer writes it once line breaks are rejected: in
    quotes, with each inner '"' doubled, if it holds "," or '"'."""
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _shown(cell: str) -> str:
    """repr of cell for a message, its first 20 characters if it is long."""
    if len(cell) <= 40:
        return repr(cell)
    return f"{cell[:20]!r}... ({len(cell)} characters)"


def _write_columns(path: str | Path, header: str, columns: Sequence[Sequence]) -> None:
    """Write the header line, then one row per index of columns, the first
    of which holds structure ids, as csv.writer writes them.

    A cell holding a line break raises DataError before any byte is
    written, since the reader splits lines as str.splitlines does.  A
    cell holding "," or '"' is quoted as _quoted quotes it; a file that
    holds a quote is read by csv.reader, so there a cell longer than
    csv.field_size_limit() raises DataError before any byte is written.
    """
    texts: list[list[str]] = []
    ids: list[str] = []
    raw: list[list[str]] = []           # the text columns, before quoting
    quoted = False
    for column in columns:
        cells = _number_cells(column)
        if cells is None:
            cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
            try:
                joined = "".join(cells)
            except TypeError:       # not all str: each cell as its str
                cells = list(map(str, cells))
                joined = "".join(cells)
            if not texts:
                ids = cells
            if _breaks_line(joined):
                i = next(i for i, cell in enumerate(cells) if _breaks_line(cell))
                where = f"cell {cells[i]!r} of " if texts else ""
                raise DataError(f"{where}structure id {ids[i]!r} holds a line break")
            raw.append(cells)
            if "," in joined or '"' in joined:
                quoted = True
                cells = list(map(_quoted, cells))
        texts.append(cells)
    limit = csv.field_size_limit()
    if quoted and any(max(map(len, cells), default=0) > limit for cells in raw):
        i, k = min((i, k) for k, cells in enumerate(raw)
                   for i, cell in enumerate(cells) if len(cell) > limit)
        where = f"cell {_shown(raw[k][i])} of " if k else ""
        raise DataError(f"{where}structure id {_shown(ids[i])} is longer than "
                        f"csv.field_size_limit(), {limit} characters")
    with open_output(path, newline="") as fh:
        fh.write(header + "\n")
        if texts and texts[0]:
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _read_rows(path: str | Path, header: str,
               what: str) -> tuple[list[Sequence[str]], Sequence[int], str | None]:
    """The cells of each of the header's columns in the non-blank rows after
    the exact header line, each row's line number, and the error of the row
    that ends the rows (None if none does): the first of another width than
    the header's, that csv.reader rejects or whose quoted cell spans lines.
    The caller raises it only if no earlier row is bad.  Text holding no '"'
    is split on commas as csv.reader splits it, with no list per row."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise DataError(f"{path}: bad or missing {what} header")
    width, rows, error = header.count(",") + 1, lines[1:], None
    numbers: Sequence[int] = range(2, len(rows) + 2)
    quote_free = '"' not in text
    if quote_free:
        if "" in rows:
            numbers = [lineno for lineno, line in zip(numbers, rows) if line]
            rows = list(filter(None, rows))
        commas = list(map(str.count, rows, repeat(",")))
    else:
        reader, numbers, rows, lineno = csv.reader(lines[1:]), [], [], 2
        try:
            for row in reader:
                if reader.line_num + 1 != lineno:
                    error = f"{path}:{lineno}: a quoted cell spans more than one line"
                    break
                if row:
                    numbers.append(lineno)
                    rows.append(row)
                lineno += 1
        except csv.Error as exc:
            error = f"{path}:{lineno}: {exc}"
        commas = [len(row) - 1 for row in rows]
    if set(commas) - {width - 1}:
        end = next(k for k, count in enumerate(commas) if count != width - 1)
        error = f"{path}:{numbers[end]}: expected {width} columns, got {commas[end] + 1}"
        numbers, rows = numbers[:end], rows[:end]
    cells = (",".join(rows).split(",") if quote_free and rows
             else [cell for row in rows for cell in row])
    return [cells[k::width] for k in range(width)], numbers, error


def _parse_rows(path: str | Path, header: str, what: str,
                parse: Callable[[Sequence[str]], object], label: str = "",
                unique: bool = False) -> list:
    """parse of the cells of each row of the file in order; the first row
    that parse rejects, that has the wrong width or that ends the rows
    raises DataError at its path:line (label, then why, for a row parse
    rejects), and then, if unique, a repeated structure id in column 0."""
    cells, lines, error = _read_rows(path, header, what)
    out = []
    for lineno, row in zip(lines, zip(*cells)):
        try:
            out.append(parse(row))
        except (ValueError, JJShadowError) as exc:
            raise DataError(f"{path}:{lineno}: {label}{exc}") from exc
    if error is not None:
        raise DataError(error)
    if unique:
        _check_unique(path, cells[0], lines)
    return out


def _check_unique(path: str | Path, ids: Sequence[str], lines: Sequence[int]) -> None:
    """DataError at the path:line of the first row whose id an earlier row holds."""
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for sid, lineno in zip(ids, lines):
            if sid in seen:
                raise DataError(f"{path}:{lineno}: repeated structure id {sid!r}")
            seen.add(sid)


def _parse_column(cells: Sequence[str], parse: Callable[[str], object],
                  dtype) -> tuple[np.ndarray, Check]:
    """parse of each cell, as an array of dtype, and the check that flags
    the cells parse rejects (they hold 0) and raises the error of one by
    parsing it again.  Each distinct cell is parsed once where the column
    holds at most half as many distinct cells as cells, else each cell is,
    and each distinct cell once more only in a column holding a rejected
    cell, to find each one."""
    n, rejected, keys = len(cells), set(), set(cells)
    try:
        value = (dict(zip(keys, map(parse, keys))).__getitem__ if 2 * len(keys) <= n
                 else parse)
        column = np.fromiter(map(value, cells), dtype, n)
    except (ValueError, JJShadowError):
        values = {}
        for cell in keys:
            try:
                values[cell] = parse(cell)
            except (ValueError, JJShadowError):
                values[cell] = 0
                rejected.add(cell)
        column = np.fromiter(map(values.__getitem__, cells), dtype, n)
    bad = (np.fromiter(map(rejected.__contains__, cells), bool, n) if rejected
           else np.zeros(n, dtype=bool))
    return column, (bad, lambda i: parse(cells[i]))


def _int64(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text!r} is outside the 64-bit integer range")
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise DataError(f"expected true/false, got {text!r}")
    return text == "true"
