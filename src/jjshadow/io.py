"""CSV interchange: layouts, measurements, truth sidecars, render
manifests, extraction tables and heatmaps.

Every file is read and written by csvfile's helpers, so files round-trip
bit exactly, except the heatmap, whose all-number rows are joined by hand.
The writers pass whole columns: a numeric column costs one repr or str
per distinct value, and rows are joined by hand, an id holding a comma
or a quote quoted as csv.writer quotes it.  An id holding a line break
is rejected before any byte is written.  Layout and measurement files are
read a column at a time, quote-free text split on commas and each
distinct cell parsed once where a column's cells repeat, else each cell.
Each cell's parse and each of the table's checks flags its bad rows.
Every reader raises its rows' errors through csvfile._raise_bad_rows, in
one order: the lowest bad row, at its path:line, with the error of the
first check a row-by-row read makes in it; then the row that ends the
rows; then, in layout, measurement, truth and manifest files, the first
row whose structure id an earlier row holds.  The table is then built
from those columns with ColumnTable.from_checked: no file is parsed twice
and no column is checked twice.
"""

from __future__ import annotations

from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import HeatmapGrid
from .csvfile import (
    _flag,
    _int64,
    _parse_column,
    _parse_rows,
    _raise_bad_rows,
    _read_rows,
    _write_columns,
)
from .errors import DataError, data_error, open_output
from .geometry import VARIANT_CODES, VARIANTS, Variant, WaferPoint
from .imaging import GrayImage, write_pgm
from .layout import STRUCTURE_COLUMNS, ColumnTable, StructureTable, WaferLayout
from .synth import MeasurementRecord, MeasurementTable

MEASUREMENT_HEADER = ("structure_id,die_x,die_y,x_mm,y_mm,variant,w_b_nm,w_t_nm,"
                      "a_overlap_um2,junction_count,excluded,g_uS")
LAYOUT_HEADER = MEASUREMENT_HEADER.rsplit(",", 1)[0]
TRUTH_HEADER = "structure_id,flags"
HEATMAP_HEADER = "row,col,x_mm,y_mm,value,valid"
EXTRACTION_HEADER = "structure_id,d_mm,w_top_nm,w_bottom_nm,a_overlap_um2"
MANIFEST_HEADER = "structure_id,x_mm,y_mm,w_b_px,w_t_px"


def _common_cells(table: StructureTable | MeasurementTable) -> list[Sequence]:
    """The first ten CSV columns, shared by layout and measurement rows."""
    names = np.array([v.value for v in VARIANTS], dtype=object)
    return [names[table.variant] if name == "variant" else getattr(table, name)
            for name in STRUCTURE_COLUMNS]


# How each cell of a layout or measurement row after its structure id is
# parsed, in CSV order: the STRUCTURE_COLUMNS, the excluded flag and, in a
# measurement row, the conductance.
_CELL_PARSERS = {
    "die_x": (_int64, np.int64), "die_y": (_int64, np.int64), "x_mm": (float, float),
    "y_mm": (float, float), "variant": (lambda name: VARIANT_CODES[Variant(name)], np.int8),
    "w_bottom_nm": (float, float), "w_top_nm": (float, float),
    "a_overlap_designed_um2": (float, float), "junction_count": (_int64, np.int64),
    "excluded": (_flag, bool), "g_uS": (float, float),
}
# The checks of a row, in the order a row is read: a cell's parse check is
# named for its column and a value check as the table names it, except that
# a file's designed area is checked finite under its CSV name instead.
_LAYOUT_ORDER = ("die_x", "die_y", "x_mm", "y_mm", "position", "variant", "variant code",
                 "w_bottom_nm", "w_top_nm", "widths", "a_overlap_designed_um2",
                 "a_overlap_um2", "junction_count", "excluded", "junction count")
_MEASUREMENT_ORDER = ("excluded", *(name for name in _LAYOUT_ORDER if name != "excluded"),
                      "g_uS", "conductance")


def _read_table(path: str | Path, header: str, what: str, table: type[ColumnTable],
                order: Sequence[str], rest: Mapping[str, object]) -> ColumnTable:
    """The table of a layout or measurement file, each column parsed once
    and checked once: the parse checks and the table's checks in order
    raise as _raise_bad_rows orders the rows' errors.  If the excluded flag is
    checked first, rows flagged true are dropped unread.  Each column the
    file does not hold is filled with its value in rest."""
    cells, lines, stop = _read_rows(path, header, what)
    if order[0] == "excluded" and "true" in cells[10]:
        keep = [flag != "true" for flag in cells[10]]
        cells = [list(compress(column, keep)) for column in cells]
        lines = list(compress(lines, keep))
    parsed = {name: _parse_column(column, *_CELL_PARSERS[name])
              for name, column in zip(_CELL_PARSERS, cells[1:])}
    columns = {"structure_id": cells[0], **{name: v for name, (v, _) in parsed.items()}}
    area = columns["a_overlap_designed_um2"]
    checks = {**{name: check for name, (_, check) in parsed.items()}, **table.checks(columns),
              "a_overlap_um2": (~np.isfinite(area), lambda i: data_error(
                  f"a_overlap_um2 must be finite, got {cells[8][i]!r}"))}
    _raise_bad_rows(path, lines, [checks[name] for name in order], stop, cells[0])
    n = len(cells[0])
    return table.from_checked({**columns, **{
        name: np.full(n, value, table.COLUMNS[name]) for name, value in rest.items()}})


def write_layout_csv(layout: WaferLayout, path: str | Path) -> None:
    table = layout.structures
    excluded = [("false", "true")[e] for e in table.excluded.tolist()]
    _write_columns(path, LAYOUT_HEADER, [*_common_cells(table), excluded])


def read_layout_csv(path: str | Path) -> WaferLayout:
    """Read a layout CSV; bounds are not revalidated for user-edited files.
    The file carries no sub-array, cell, group or exclusion reason."""
    return WaferLayout(_read_table(
        path, LAYOUT_HEADER, "layout", StructureTable, _LAYOUT_ORDER, {
            "subarray_index": 0, "cell_row": 0, "cell_col": 0, "group": "uniform",
            "exclusion_reason": ""}))


def write_measurements_csv(records: Sequence[MeasurementRecord],
                           path: str | Path) -> None:
    table = MeasurementTable.from_records(records)
    _write_columns(path, MEASUREMENT_HEADER,
                   [*_common_cells(table), ["false"] * len(table), table.g_uS.tolist()])


def read_measurements_csv(path: str | Path) -> MeasurementTable:
    """Read measurements; rows flagged excluded are skipped, truth is None."""
    return _read_table(path, MEASUREMENT_HEADER, "measurements", MeasurementTable,
                       _MEASUREMENT_ORDER, {"truth_flags": None})


def write_truth_csv(records: Sequence[MeasurementRecord], path: str | Path) -> None:
    """Defect sidecar for synthetic runs: flags joined by ';', blank if clean."""
    table = MeasurementTable.from_records(records)
    flags = table.truth_flags.tolist()
    if None in flags:
        sid = table.structure_id[flags.index(None)]
        raise DataError(f"record {sid} has no truth flags")
    text = {f: ";".join(sorted(f)) for f in set(flags)}
    _write_columns(path, TRUTH_HEADER, [table.structure_id, [text[f] for f in flags]])


def read_truth_csv(path: str | Path) -> dict[str, frozenset[str]]:
    """Defect flags by structure id; each distinct flags cell is parsed once
    where flags cells repeat."""
    (ids, cells), lines, stop = _read_rows(path, TRUTH_HEADER, "truth")
    flags, check = _parse_column(cells, lambda cell: frozenset(filter(None, cell.split(";"))),
                                 object)
    _raise_bad_rows(path, lines, [check], stop, ids)
    return dict(zip(ids, flags.tolist()))


def write_heatmap_csv(grid: HeatmapGrid, path: str | Path) -> None:
    """Long-form grid: one row per cell, blanks encoded 0 with valid=0."""
    x_text = [f"{j},{x!r}," for j, x in enumerate(grid.xs)]
    cells = np.full(grid.valid.shape, "0,0", dtype=object)
    cells[grid.valid] = [f"{v!r},1" for v in grid.values[grid.valid].tolist()]
    with open_output(path, newline="") as fh:
        fh.write(HEATMAP_HEADER + "\n")
        for i, (y, row) in enumerate(zip(grid.ys, cells.tolist())):
            head, y_text = f"{i},", f"{y!r},"
            fh.write("".join([f"{head}{x}{y_text}{c}\n" for x, c in zip(x_text, row)]))


def heatmap_to_image(grid: HeatmapGrid) -> GrayImage:
    """Map valid cells onto 1..255 over their value range; blanks are 0."""
    img = np.zeros(grid.values.shape, dtype=np.uint8)
    if grid.valid.any():
        vals = grid.values[grid.valid]
        lo, hi = float(vals.min()), float(vals.max())
        if hi > lo:
            scaled = 1.0 + 254.0 * (grid.values - lo) / (hi - lo)
        else:
            scaled = np.full_like(grid.values, 128.0)
        img[grid.valid] = np.clip(np.rint(scaled[grid.valid]), 1, 255).astype(np.uint8)
    return GrayImage(scale_nm_per_px=1.0, pixels=img)


def write_heatmap_pgm(grid: HeatmapGrid, path: str | Path) -> None:
    write_pgm(heatmap_to_image(grid), path)


def write_extraction_csv(rows: Iterable[Mapping[str, object]], path: str | Path) -> None:
    """Batch extraction results; rows need the EXTRACTION_HEADER keys."""
    keys = EXTRACTION_HEADER.split(",")
    _write_columns(path, EXTRACTION_HEADER,
                   list(zip(*([row[k] for k in keys] for row in rows))))


def write_manifest_csv(rows: Iterable[Sequence], path: str | Path) -> None:
    """Render manifest: rows of MANIFEST_HEADER cells, each image's id, wafer
    position and true bottom and top band widths in pixels."""
    _write_columns(path, MANIFEST_HEADER, list(zip(*rows, strict=True)))


def read_manifest_csv(path: str | Path) -> dict[str, WaferPoint]:
    """Wafer position by image id from a render manifest."""
    return dict(_parse_rows(path, MANIFEST_HEADER, "manifest",
                            lambda row: (row[0], WaferPoint(float(row[1]), float(row[2]))),
                            unique=True))
