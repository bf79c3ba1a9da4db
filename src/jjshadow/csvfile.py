"""The one CSV reader and writer of the package's tabular files.

A reader requires the exact header line, skips blank rows and names the
first row of the wrong width or with a bad cell as path:line.  Cells are
quoted by the csv module's rules; floats are written as their repr.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import DataError, JJShadowError


def _write_rows(path: str | Path, header: str, rows: Iterable[Sequence]) -> None:
    """Write the header line and then rows."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _read_rows(path: str | Path, header: str, what: str) -> list[tuple[int, list[str]]]:
    """The line number and cells of each non-blank row after the header."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise DataError(f"{path}: bad or missing {what} header")
    return [(lineno, row) for lineno, row in enumerate(csv.reader(lines[1:]), start=2)
            if row]


def _parse_rows(path: str | Path, rows: list[tuple[int, list[str]]], width: int,
                parse: Callable[[list[str]], object], label: str = "") -> list:
    """parse of each row in order; the first row of the wrong width, or that
    parse rejects, raises DataError at its path:line (label, then why)."""
    out = []
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            out.append(parse(row))
        except (ValueError, JJShadowError) as exc:
            raise DataError(f"{path}:{lineno}: {label}{exc}") from exc
    return out


def _int64(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text!r} is outside the 64-bit integer range")
    return value


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise DataError(f"expected true/false, got {text!r}")
    return text == "true"


def _finite(text: str, column: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DataError(f"{column} must be finite, got {text!r}")
    return value
