"""Wafer layouts of junction test structures.

Three families are supported: a planar 100-mm wafer carrying both junction
variants in two 2x4 die arrays with 17 4x4 sub-arrays per die, a cleaved
70x70 mm via-integrated wafer with one 2x4 die array of 17 5x5 sub-arrays
(structures overlapping a via are flagged excluded), and planar 35x35
uniform-design grids.  Sub-array placement, group assignment and the
reference via positions are data files, not code; bundled defaults live in
jjshadow/data/.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .csvfile import _parse_rows, _read_rows
from .errors import DataError
from .geometry import (
    SQUARE_HALF_MM,
    WAFER_RADIUS_MM,
    JunctionDesign,
    Variant,
    WaferPoint,
    within_radius,
)

DIE_PITCH_MM = 13.0
SUBARRAY_CELL_PITCH_MM = 0.45
STRUCTURE_HALF_MM = 0.03          # 60 um square probing footprint
MANHATTAN_FIXED_TOP_NM = 160.0
UNIFORM_WIDTH_NM = 200.0

# Variable-electrode width sweeps (nm).  The exact values are free layout
# parameters chosen so pair conductances land in the measurable few-tens to
# few-hundreds uS window under the default synthetic conductivity; override
# with a sweep file for other regimes.
PLANAR_SWEEPS = {
    "l": tuple(150.0 + 12.0 * k for k in range(16)),
    "m": tuple(360.0 + 12.0 * k for k in range(16)),
    "h": tuple(570.0 + 12.0 * k for k in range(16)),
}
TSV_SWEEP = tuple(150.0 + 25.0 * k for k in range(25))


# A test structure holds one junction or a pair of junctions in parallel.
JUNCTION_COUNTS = (1, 2)


def check_junction_count(structure_id: str, count: int) -> None:
    if count not in JUNCTION_COUNTS:
        raise DataError(f"junction_count must be 1 or 2, got {count} on {structure_id}")


class LayoutKind(str, Enum):
    PLANAR_17Q = "planar17q"
    TSV_17Q_DOLAN = "tsv17q-dolan"
    TSV_17Q_MANHATTAN = "tsv17q-manhattan"
    PLANAR_35X35_NBTIN = "planar35x35-nbtin"
    PLANAR_35X35_TIN = "planar35x35-tin"
    PLANAR_35X35_AL = "planar35x35-al"
    CUSTOM = "custom"           # loaded from a user file, not builder-validated


class WaferShape(str, Enum):
    ROUND_100MM = "round100mm"
    SQUARE_70MM = "square70mm"


@dataclass(frozen=True)
class TestStructureSpec:
    """One positioned two-junction (or single-junction) test pad."""

    structure_id: str
    die_index: tuple[int, int]
    subarray_index: int
    cell_index: tuple[int, int]
    position: WaferPoint
    design: JunctionDesign
    a_overlap_designed_um2: float
    group: str
    excluded: bool = False
    junction_count: int = 2
    exclusion_reason: str = ""

    def __post_init__(self) -> None:
        check_junction_count(self.structure_id, self.junction_count)


@dataclass(frozen=True)
class WaferLayout:
    kind: LayoutKind
    structures: tuple[TestStructureSpec, ...]

    def viable(self) -> tuple[TestStructureSpec, ...]:
        return tuple(s for s in self.structures if not s.excluded)


@dataclass(frozen=True)
class SubarraySite:
    """Placement of one sub-array inside a die: offset from die centre."""

    index: int
    dx_mm: float
    dy_mm: float
    group: str


SUBARRAY_HEADER = "sub_index,x_mm,y_mm,group"
VIA_HEADER = "x_mm,y_mm,diameter_um"
SWEEP_HEADER = "group,w_nm"


def _data_path(name: str):
    return resources.files("jjshadow.data").joinpath(name)


def _site(row: list[str]) -> SubarraySite:
    offset = WaferPoint(float(row[1]), float(row[2]))          # must be finite
    return SubarraySite(int(row[0]), offset.x_mm, offset.y_mm, row[3].strip())


def load_subarray_sites(path: str | Path | None = None) -> tuple[SubarraySite, ...]:
    """Read sub-array placements (sub_index,x_mm,y_mm,group) for one die."""
    src = path if path is not None else _data_path("surface17_subarrays.csv")
    sites = _parse_rows(src, _read_rows(src, SUBARRAY_HEADER, "sub-array file"), 4, _site,
                        "malformed sub-array row: ")
    if len(sites) != 17 or sorted(s.index for s in sites) != list(range(17)):
        raise DataError(f"sub-array file must define indices 0..16, got {len(sites)} rows")
    return tuple(sorted(sites, key=lambda s: s.index))


def _via(row: list[str]) -> tuple[WaferPoint, float]:
    diameter = float(row[2])
    if not (math.isfinite(diameter) and diameter > 0.0):
        raise DataError(f"diameter_um must be finite and > 0, got {row[2]!r}")
    return WaferPoint(float(row[0]), float(row[1])), diameter


def load_tsv_file(path: str | Path | None = None) -> tuple[tuple[WaferPoint, float], ...]:
    """Read via positions (x_mm,y_mm,diameter_um) in wafer coordinates."""
    src = path if path is not None else _data_path("tsv_vias.csv")
    return tuple(_parse_rows(src, _read_rows(src, VIA_HEADER, "via file"), 3, _via,
                             "malformed via row: "))


def _sweep_width(row: list[str]) -> tuple[str, float]:
    width = float(row[1])
    if not (math.isfinite(width) and width >= 0.0):
        raise DataError(f"w_nm must be finite and >= 0, got {row[1]!r}")
    return row[0].strip(), width


def load_sweep_file(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Read width sweeps (group,w_nm), ordered within each group."""
    sweeps: dict[str, list[float]] = {}
    for group, width in _parse_rows(path, _read_rows(path, SWEEP_HEADER, "sweep file"), 2,
                                    _sweep_width, "malformed sweep row: "):
        sweeps.setdefault(group, []).append(width)
    if not sweeps:
        raise DataError(f"sweep file {path} is empty")
    return {g: tuple(v) for g, v in sweeps.items()}


def _check_on_wafer(p: WaferPoint, shape: WaferShape, who: str) -> None:
    if shape is WaferShape.ROUND_100MM:
        if p.radius_mm() > WAFER_RADIUS_MM:
            raise DataError(f"{who} at ({p.x_mm}, {p.y_mm}) mm is off the round wafer")
    else:
        if abs(p.x_mm) > SQUARE_HALF_MM or abs(p.y_mm) > SQUARE_HALF_MM:
            raise DataError(f"{who} at ({p.x_mm}, {p.y_mm}) mm is off the square wafer")


def _die_centre(ix: int, iy: int) -> tuple[float, float]:
    # Signed die indices skip 0 so the wafer centre falls between dies.
    return ((ix - math.copysign(0.5, ix)) * DIE_PITCH_MM,
            (iy - math.copysign(0.5, iy)) * DIE_PITCH_MM)


def _design_for(variant: Variant, w_variable_nm: float) -> JunctionDesign:
    if variant is Variant.MANHATTAN:
        return JunctionDesign(variant, w_bottom_nm=w_variable_nm,
                              w_top_nm=MANHATTAN_FIXED_TOP_NM)
    return JunctionDesign(variant, w_bottom_nm=3.0 * w_variable_nm,
                          w_top_nm=w_variable_nm)


def _cell_structures(variant: Variant, die: tuple[int, int],
                     site: SubarraySite, n: int, sweep: Sequence[float],
                     shape: WaferShape) -> list[TestStructureSpec]:
    if len(sweep) != n * n:
        raise DataError(f"sweep for group {site.group!r} has {len(sweep)} values, need {n * n}")
    if any(b >= a for a, b in zip(sweep[1:], sweep)):
        raise DataError(f"sweep for group {site.group!r} is not strictly increasing")
    cx, cy = _die_centre(*die)
    code = "M" if variant is Variant.MANHATTAN else "D"
    half = (n - 1) / 2.0
    out = []
    for row in range(n):
        for col in range(n):
            cell = row * n + col
            pos = WaferPoint(cx + site.dx_mm + (col - half) * SUBARRAY_CELL_PITCH_MM,
                             cy + site.dy_mm + (row - half) * SUBARRAY_CELL_PITCH_MM)
            _check_on_wafer(pos, shape, "test structure")
            design = _design_for(variant, sweep[cell])
            out.append(TestStructureSpec(
                structure_id=f"{code}{die[0]:+d}{die[1]:+d}s{site.index:02d}c{cell:02d}",
                die_index=die,
                subarray_index=site.index,
                cell_index=(row, col),
                position=pos,
                design=design,
                a_overlap_designed_um2=design.designed_area_um2(),
                group=site.group,
            ))
    return out


def build_planar_17q(sweeps: dict[str, Sequence[float]] | None = None,
                     sites: Sequence[SubarraySite] | None = None) -> WaferLayout:
    """Planar 100-mm wafer: 8 Dolan dies (top half) + 8 Manhattan dies.

    Each die holds 17 4x4 sub-arrays; the sub-array's group selects which
    of the l/m/h width sweeps its 16 cells step through.
    """
    sweeps = dict(PLANAR_SWEEPS) if sweeps is None else dict(sweeps)
    sites = load_subarray_sites() if sites is None else tuple(sites)
    missing = {s.group for s in sites} - set(sweeps)
    if missing:
        raise DataError(f"sweep table lacks groups {sorted(missing)}")
    structures: list[TestStructureSpec] = []
    for variant, die_ys in ((Variant.DOLAN, (1, 2)), (Variant.MANHATTAN, (-1, -2))):
        for iy in die_ys:
            for ix in (-2, -1, 1, 2):
                for site in sites:
                    structures.extend(_cell_structures(
                        variant, (ix, iy), site, 4,
                        sweeps[site.group], WaferShape.ROUND_100MM))
    return WaferLayout(LayoutKind.PLANAR_17Q, tuple(structures))


_VIA_MARGIN_MM = 1e-6          # far above the rounding of mm-scale coordinates


def _via_hits(cells: Sequence[TestStructureSpec], via_x: np.ndarray,
              via_y: np.ndarray, via_r: np.ndarray) -> list[bool]:
    """Whether each structure's square footprint meets any via circle.

    Each via centre is clamped to each footprint, cells by vias in one
    broadcast; a via counts when that nearest point lies within its radius.
    Vias farther than their radius (plus a rounding margin) beyond the
    cells' bounding box cannot count and are dropped first.
    """
    x = np.array([[s.position.x_mm] for s in cells])
    y = np.array([[s.position.y_mm] for s in cells])
    reach = via_r + STRUCTURE_HALF_MM + _VIA_MARGIN_MM
    near = ((via_x >= x.min() - reach) & (via_x <= x.max() + reach)
            & (via_y >= y.min() - reach) & (via_y <= y.max() + reach))
    via_x, via_y, via_r = via_x[near], via_y[near], via_r[near]
    nx = np.minimum(np.maximum(via_x, x - STRUCTURE_HALF_MM), x + STRUCTURE_HALF_MM)
    ny = np.minimum(np.maximum(via_y, y - STRUCTURE_HALF_MM), y + STRUCTURE_HALF_MM)
    return within_radius(via_x - nx, via_y - ny, via_r).any(axis=1).tolist()


def build_tsv_17q(variant: Variant,
                  tsv_positions: Iterable[tuple[WaferPoint, float]] | None = None,
                  sweep: Sequence[float] | None = None,
                  sites: Sequence[SubarraySite] | None = None) -> WaferLayout:
    """Via-integrated 70x70 mm wafer: one 2x4 die array, 17 5x5 sub-arrays.

    All sub-arrays step through the same 25-value sweep.  Structures whose
    footprint intersects a via circle are fabricated but flagged excluded.
    """
    if tsv_positions is None:
        tsv_positions = load_tsv_file()
    vias = tuple(tsv_positions)         # empty is valid: nothing gets excluded
    via_x = np.array([v.x_mm for v, _ in vias])
    via_y = np.array([v.y_mm for v, _ in vias])
    via_r = np.array([d for _, d in vias]) / 2000.0     # diameter um -> radius mm
    sweep = TSV_SWEEP if sweep is None else tuple(sweep)
    sites = load_subarray_sites() if sites is None else tuple(sites)
    structures: list[TestStructureSpec] = []
    for iy in (1, 2):
        for ix in (-2, -1, 1, 2):
            for site in sites:
                cells = _cell_structures(
                    variant, (ix, iy), site, 5,
                    sweep, WaferShape.SQUARE_70MM)
                structures.extend(
                    replace(s, excluded=True, exclusion_reason="tsv_overlap")
                    if hit else s
                    for s, hit in zip(cells, _via_hits(cells, via_x, via_y, via_r)))
    kind = (LayoutKind.TSV_17Q_MANHATTAN if variant is Variant.MANHATTAN
            else LayoutKind.TSV_17Q_DOLAN)
    return WaferLayout(kind, tuple(structures))


_PAD_CODE = {"nbtin": "N", "tin": "T", "al": "A"}
_GRID_35 = 35
_PITCH_35_MM = 2.0


def build_35x35(pad_kind: str, omitted_rows: Sequence[int] = ()) -> WaferLayout:
    """Planar 35x35 grid of identical 200x200 nm crossed junctions.

    pad_kind selects the probing-pad process ('nbtin', 'tin', 'al'); the
    all-aluminium wafer carries single junctions instead of pairs.  Rows in
    omitted_rows are flagged excluded (skipped during data acquisition).
    """
    pad_kind = pad_kind.lower()
    if pad_kind not in _PAD_CODE:
        raise DataError(f"pad kind must be one of {sorted(_PAD_CODE)}, got {pad_kind!r}")
    omitted = set(omitted_rows)
    if not omitted.issubset(range(_GRID_35)):
        raise DataError(f"omitted rows out of range 0..34: {sorted(omitted)}")
    design = JunctionDesign(Variant.MANHATTAN, UNIFORM_WIDTH_NM, UNIFORM_WIDTH_NM)
    count = 1 if pad_kind == "al" else 2
    code = _PAD_CODE[pad_kind]
    half = (_GRID_35 - 1) / 2.0
    structures = []
    for row in range(_GRID_35):
        for col in range(_GRID_35):
            pos = WaferPoint((col - half) * _PITCH_35_MM, (row - half) * _PITCH_35_MM)
            _check_on_wafer(pos, WaferShape.ROUND_100MM, "test structure")
            structures.append(TestStructureSpec(
                structure_id=f"{code}r{row:02d}c{col:02d}",
                die_index=(0, 0),
                subarray_index=0,
                cell_index=(row, col),
                position=pos,
                design=design,
                a_overlap_designed_um2=design.designed_area_um2(),
                group="uniform",
                excluded=row in omitted,
                junction_count=count,
                exclusion_reason="omitted_row" if row in omitted else "",
            ))
    kind = LayoutKind(f"planar35x35-{pad_kind}")
    return WaferLayout(kind, tuple(structures))
