"""CSV interchange: layouts, measurements, truth sidecars, render
manifests, extraction tables and heatmaps.

Every file is read and written by csvfile's helpers, so files round-trip
bit exactly, except the heatmap, whose all-number rows are joined by hand.
The writers pass whole columns: a numeric column costs one repr or str
per distinct value, and rows are joined by hand, an id holding a comma
or a quote quoted as csv.writer quotes it.  An id holding a line break
is rejected before any byte is written.  Layout and measurement files are
read a column at a time, quote-free text split on commas, each distinct
cell of a numeric column parsed once and each column checked as an
array; only when a check fails are the rows parsed one by one, so the
first bad row is named with its path:line.  Layout, measurement, truth
and manifest files reject a repeated structure id.
"""

from __future__ import annotations

from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import HeatmapGrid
from .csvfile import (
    _finite,
    _Rows,
    _flag,
    _int64,
    _parse_distinct,
    _parse_rows,
    _read_rows,
    _write_columns,
)
from .errors import DataError, JJShadowError
from .geometry import VARIANT_CODES, VARIANTS, JunctionDesign, Variant, WaferPoint
from .imaging import GrayImage, write_pgm
from .layout import (
    STRUCTURE_COLUMNS,
    LayoutKind,
    StructureTable,
    WaferLayout,
    _transpose,
    check_junction_count,
)
from .synth import COLUMNS, MeasurementRecord, MeasurementTable, check_conductance

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


def _structure_values(row: Sequence[str]) -> tuple:
    """The STRUCTURE_COLUMNS values of a row's first ten cells, parsed and
    checked in CSV order."""
    die = (_int64(row[1]), _int64(row[2]))
    p = WaferPoint(float(row[3]), float(row[4]))
    d = JunctionDesign(Variant(row[5]), float(row[6]), float(row[7]))
    return (row[0], *die, p.x_mm, p.y_mm, VARIANT_CODES[d.variant], d.w_bottom_nm,
            d.w_top_nm, _finite(row[8], "a_overlap_um2"), _int64(row[9]))


def _layout_row(row: list[str]) -> tuple:
    """The STRUCTURE_COLUMNS values of a row, then its excluded flag."""
    values = _structure_values(row)
    excluded = _flag(row[10])
    check_junction_count(row[0], values[-1])
    return (*values, excluded)


def _measurement_row(row: list[str]) -> tuple | None:
    """The measurement COLUMNS values of a row, or None for a row flagged excluded."""
    if _flag(row[10]):
        return None
    values = _structure_values(row)
    check_junction_count(row[0], values[-1])        # as the table does
    g = float(row[11])
    check_conductance(row[0], g)
    return (*values, g, None)


def _structure_columns(cells: list[Sequence[str]] | None, skip_excluded: bool,
                       ) -> tuple[dict[str, np.ndarray], list[Sequence[str]]] | None:
    """The STRUCTURE_COLUMNS of a file's cells, given column by column, each
    column parsed as a whole, and the cells; None if a row had the wrong
    width (cells is None), an excluded flag is not true/false or a cell does
    not parse.  Rows flagged excluded are dropped first if skip_excluded."""
    if cells is None:
        return None
    flags = set(cells[10])
    if not flags <= {"true", "false"}:
        return None
    if skip_excluded and "true" in flags:
        keep = [flag == "false" for flag in cells[10]]
        cells = [list(compress(column, keep)) for column in cells]
    try:
        die_x, die_y, count = (_parse_distinct(cells[k], int, np.int64) for k in (1, 2, 9))
        x, y, w_b, w_t, area = (_parse_distinct(cells[k], float, float)
                                for k in (3, 4, 6, 7, 8))
        variant = _parse_distinct(cells[5], lambda name: VARIANT_CODES[Variant(name)],
                                  np.int8)
    except (ValueError, OverflowError):
        return None
    return dict(structure_id=cells[0], die_x=die_x, die_y=die_y, x_mm=x, y_mm=y,
                variant=variant, w_bottom_nm=w_b, w_top_nm=w_t,
                a_overlap_designed_um2=area, junction_count=count), cells


def _check_unique(path: str | Path, ids: Sequence[str]) -> None:
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate structure ids")


def write_layout_csv(layout: WaferLayout, path: str | Path) -> None:
    table = layout.structures
    excluded = [("false", "true")[e] for e in table.excluded.tolist()]
    _write_columns(path, LAYOUT_HEADER, [*_common_cells(table), excluded])


def _layout_table(columns: Mapping[str, Sequence]) -> StructureTable:
    """The structures of a layout file's STRUCTURE_COLUMNS and excluded
    flags; the file carries no sub-array, cell, group or exclusion reason."""
    n = len(columns["excluded"])
    zeros = np.zeros(n, dtype=np.int64)
    return StructureTable({**columns, "subarray_index": zeros, "cell_row": zeros,
                           "cell_col": zeros, "group": ["uniform"] * n,
                           "exclusion_reason": [""] * n})


def _layout_columns(rows: _Rows) -> StructureTable | None:
    """The structures of layout rows, parsed and checked a column at a time;
    None if a row has the wrong width or a bad value."""
    parsed = _structure_columns(rows.columns(11), skip_excluded=False)
    if parsed is None:
        return None
    columns, cells = parsed
    try:            # the table checks every value of every column
        return _layout_table({**columns, "excluded": [flag == "true" for flag in cells[10]]})
    except JJShadowError:
        return None


def read_layout_csv(path: str | Path) -> WaferLayout:
    """Read a layout CSV; bounds are not revalidated for user-edited files."""
    rows = _read_rows(path, LAYOUT_HEADER, "layout")
    table = _layout_columns(rows)
    if table is None:   # a check failed: row by row, the first bad row raises
        table = _layout_table(_transpose(_parse_rows(path, rows, 11, _layout_row),
                                         [*STRUCTURE_COLUMNS, "excluded"]))
    _check_unique(path, table.structure_id)
    return WaferLayout(LayoutKind.CUSTOM, table)


def write_measurements_csv(records: Sequence[MeasurementRecord],
                           path: str | Path) -> None:
    table = MeasurementTable.from_records(records)
    _write_columns(path, MEASUREMENT_HEADER,
                   [*_common_cells(table), ["false"] * len(table), table.g_uS.tolist()])


def _measurement_columns(rows: _Rows) -> MeasurementTable | None:
    """The measurements of rows, parsed and checked a column at a time;
    None if a row has the wrong width or a bad value."""
    parsed = _structure_columns(rows.columns(12), skip_excluded=True)
    if parsed is None:
        return None
    columns, cells = parsed
    try:            # the table checks every value of every column
        return MeasurementTable({**columns, "g_uS": list(map(float, cells[11])),
                                 "truth_flags": [None] * len(cells[11])})
    except (ValueError, JJShadowError):
        return None


def read_measurements_csv(path: str | Path) -> MeasurementTable:
    """Read measurements; rows flagged excluded are skipped, truth is None."""
    rows = _read_rows(path, MEASUREMENT_HEADER, "measurements")
    table = _measurement_columns(rows)
    if table is None:   # a check failed: row by row, the first bad row raises
        values = _parse_rows(path, rows, 12, _measurement_row)
        table = MeasurementTable(_transpose([v for v in values if v is not None], COLUMNS))
    _check_unique(path, table.structure_id)
    return table


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
    """Defect flags by structure id; each distinct flags cell is parsed once."""
    flags: dict[str, frozenset[str]] = {}

    def row_truth(row: list[str]) -> tuple[str, frozenset[str]]:
        cell = row[1]
        if cell not in flags:
            flags[cell] = frozenset(f for f in cell.split(";") if f)
        return row[0], flags[cell]

    truth = _parse_rows(path, _read_rows(path, TRUTH_HEADER, "truth"), 2, row_truth)
    _check_unique(path, [sid for sid, _ in truth])
    return dict(truth)


def write_heatmap_csv(grid: HeatmapGrid, path: str | Path) -> None:
    """Long-form grid: one row per cell, blanks encoded 0 with valid=0."""
    x_text = [f"{j},{x!r}," for j, x in enumerate(grid.xs)]
    cells = np.full(grid.valid.shape, "0,0", dtype=object)
    cells[grid.valid] = [f"{v!r},1" for v in grid.values[grid.valid].tolist()]
    with open(path, "w", newline="") as fh:
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
    """Wafer position by image id from a render manifest; a repeated id is
    rejected at its path:line."""
    manifest: dict[str, WaferPoint] = {}

    def entry(row: list[str]) -> None:
        if row[0] in manifest:
            raise DataError(f"repeated structure id {row[0]!r}")
        manifest[row[0]] = WaferPoint(float(row[1]), float(row[2]))

    _parse_rows(path, _read_rows(path, MANIFEST_HEADER, "manifest"), 5, entry)
    return manifest
