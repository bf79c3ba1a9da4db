"""CSV interchange: layouts, measurements, truth sidecars, heatmaps.

Column schemas are fixed; floats are written with repr so files round-trip
bit exactly and identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analysis import HeatmapGrid
from .errors import DataError, JJShadowError
from .geometry import JunctionDesign, Variant, WaferPoint
from .imaging import GrayImage, write_pgm
from .layout import LayoutKind, TestStructureSpec, WaferLayout
from .synth import MeasurementRecord

MEASUREMENT_HEADER = ("structure_id,die_x,die_y,x_mm,y_mm,variant,w_b_nm,w_t_nm,"
                      "a_overlap_um2,junction_count,excluded,g_uS")
LAYOUT_HEADER = MEASUREMENT_HEADER.rsplit(",", 1)[0]
TRUTH_HEADER = "structure_id,flags"
HEATMAP_HEADER = "row,col,x_mm,y_mm,value,valid"
EXTRACTION_HEADER = "structure_id,d_mm,w_top_nm,w_bottom_nm,a_overlap_um2"


def _bool(text: str, where: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise DataError(f"{where}: expected true/false, got {text!r}")


def _common_fields(s: TestStructureSpec | MeasurementRecord) -> list[str]:
    """The first ten columns, shared by layout and measurement rows."""
    return [
        s.structure_id,
        str(s.die_index[0]), str(s.die_index[1]),
        repr(s.position.x_mm), repr(s.position.y_mm),
        s.design.variant.value,
        repr(s.design.w_bottom_nm), repr(s.design.w_top_nm),
        repr(s.a_overlap_designed_um2),
        str(s.junction_count),
    ]


def _parse_common_fields(row: Sequence[str]) -> dict[str, object]:
    """Keyword arguments from the first ten columns; the mirror of _common_fields."""
    return dict(
        structure_id=row[0],
        die_index=(int(row[1]), int(row[2])),
        position=WaferPoint(float(row[3]), float(row[4])),
        design=JunctionDesign(Variant(row[5]), float(row[6]), float(row[7])),
        a_overlap_designed_um2=float(row[8]),
        junction_count=int(row[9]),
    )


def write_layout_csv(layout: WaferLayout, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(LAYOUT_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for s in layout.structures:
            writer.writerow(_common_fields(s) + ["true" if s.excluded else "false"])


def read_layout_csv(path: str | Path) -> WaferLayout:
    """Read a layout CSV; bounds are not revalidated for user-edited files."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read layout {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != LAYOUT_HEADER:
        raise DataError(f"{path}: bad or missing layout header")
    structures = []
    for lineno, row in enumerate(csv.reader(lines[1:]), start=2):
        if not row:
            continue
        if len(row) != 11:
            raise DataError(f"{path}:{lineno}: expected 11 columns, got {len(row)}")
        try:
            structures.append(TestStructureSpec(
                **_parse_common_fields(row),
                subarray_index=0,
                cell_index=(0, 0),
                group="uniform",
                excluded=_bool(row[10], f"{path}:{lineno}"),
            ))
        except (ValueError, JJShadowError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    ids = [s.structure_id for s in structures]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate structure ids")
    return WaferLayout(LayoutKind.CUSTOM, tuple(structures))


def write_measurements_csv(records: Sequence[MeasurementRecord],
                           path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(MEASUREMENT_HEADER + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        for r in records:
            writer.writerow(_common_fields(r) + ["false", repr(r.g_uS)])


def read_measurements_csv(path: str | Path) -> list[MeasurementRecord]:
    """Read measurements; rows flagged excluded are skipped, truth is None."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read measurements {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != MEASUREMENT_HEADER:
        raise DataError(f"{path}: bad or missing measurement header")
    records = []
    for lineno, row in enumerate(csv.reader(lines[1:]), start=2):
        if not row:
            continue
        if len(row) != 12:
            raise DataError(f"{path}:{lineno}: expected 12 columns, got {len(row)}")
        try:
            if _bool(row[10], f"{path}:{lineno}"):
                continue
            records.append(MeasurementRecord(
                **_parse_common_fields(row), g_uS=float(row[11]), truth_flags=None))
        except (ValueError, JJShadowError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_truth_csv(records: Sequence[MeasurementRecord], path: str | Path) -> None:
    """Defect sidecar for synthetic runs: flags joined by ';', blank if clean."""
    with open(path, "w", newline="") as fh:
        fh.write(TRUTH_HEADER + "\n")
        for r in records:
            if r.truth_flags is None:
                raise DataError(f"record {r.structure_id} has no truth flags")
            fh.write(f"{r.structure_id},{';'.join(sorted(r.truth_flags))}\n")


def read_truth_csv(path: str | Path) -> dict[str, frozenset[str]]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read truth file {path}: {exc}") from exc
    if not lines or lines[0] != TRUTH_HEADER:
        raise DataError(f"{path}: bad or missing truth header")
    out = {}
    for line in lines[1:]:
        if not line:
            continue
        sid, _, flags = line.partition(",")
        out[sid] = frozenset(f for f in flags.split(";") if f)
    return out


def write_heatmap_csv(grid: HeatmapGrid, path: str | Path) -> None:
    """Long-form grid: one row per cell, blanks encoded 0 with valid=0."""
    with open(path, "w", newline="") as fh:
        fh.write(HEATMAP_HEADER + "\n")
        for i, y in enumerate(grid.ys):
            for j, x in enumerate(grid.xs):
                if grid.valid[i, j]:
                    fh.write(f"{i},{j},{x!r},{y!r},{float(grid.values[i, j])!r},1\n")
                else:
                    fh.write(f"{i},{j},{x!r},{y!r},0,0\n")


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
    with open(path, "w", newline="") as fh:
        fh.write(EXTRACTION_HEADER + "\n")
        for row in rows:
            cells = [row[k] for k in keys]
            fh.write(",".join(c if isinstance(c, str) else repr(c) for c in cells) + "\n")
