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
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .csvfile import _parse_rows
from .errors import Check, DataError, data_error, raise_first_bad
from .geometry import (
    SQUARE_HALF_MM,
    VARIANT_CODES,
    VARIANTS,
    WAFER_RADIUS_MM,
    JunctionDesign,
    Variant,
    WaferPoint,
    designed_areas,
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


# The columns a structure shares with its measurements, in CSV order, with
# their dtypes; `variant` holds geometry.VARIANTS codes.
STRUCTURE_COLUMNS = {
    "structure_id": object, "die_x": np.int64, "die_y": np.int64,
    "x_mm": float, "y_mm": float, "variant": np.int8,
    "w_bottom_nm": float, "w_top_nm": float, "a_overlap_designed_um2": float,
    "junction_count": np.int64,
}
# A layout's columns: those, then the structure's place in its die and
# whether (and why) it is excluded.
LAYOUT_COLUMNS = {
    **STRUCTURE_COLUMNS, "subarray_index": np.int64, "cell_row": np.int64,
    "cell_col": np.int64, "group": object, "excluded": bool, "exclusion_reason": object,
}


def _column(values: Sequence, dtype) -> np.ndarray:
    """values as a read-only 1-D array of dtype: an array of dtype is held
    as it is (its holder gives it up), anything else is copied."""
    if dtype is object and not isinstance(values, np.ndarray):
        col = np.empty(len(values), dtype=object)
        col[:] = values
    else:
        col = np.asarray(values, dtype=dtype)
    col.flags.writeable = False
    return col


def _transpose(rows: Sequence[tuple], names: Iterable[str]) -> dict[str, Sequence]:
    """Columns by name of rows of values in the order of names."""
    names = list(names)
    return dict(zip(names, zip(*rows) if rows else [()] * len(names)))


def _radii(x_mm: np.ndarray, y_mm: np.ndarray) -> np.ndarray:
    """math.hypot per element, as WaferPoint.radius_mm computes it."""
    return np.fromiter(map(math.hypot, x_mm.tolist(), y_mm.tolist()), float, len(x_mm))


def structure_checks(columns: Mapping[str, Sequence]) -> dict[str, Check]:
    """The checks a structure or a measurement makes of its STRUCTURE_COLUMNS
    values, in that order, each raising that check's error: a finite
    position (WaferPoint's), a VARIANTS code, finite widths >= 0
    (JunctionDesign's), a finite designed area and the junction count."""
    sid, _, _, x, y, variant, w_b, w_t, area, count = map(columns.get, STRUCTURE_COLUMNS)
    return {
        "position": (~(np.isfinite(x) & np.isfinite(y)),
                     lambda i: WaferPoint(x[i].item(), y[i].item())),
        "variant code": ((variant < 0) | (variant >= len(VARIANTS)), lambda i: data_error(
            f"undefined variant code {variant[i]} on {sid[i]}")),
        "widths": (~(np.isfinite(w_b) & np.isfinite(w_t)) | (w_b < 0.0) | (w_t < 0.0),
                   lambda i: JunctionDesign(VARIANTS[variant[i]], w_b[i].item(),
                                            w_t[i].item())),
        "designed area": (~np.isfinite(area),
                          lambda i: data_error(f"non-finite designed area on {sid[i]}")),
        "junction count": (~np.isin(count, JUNCTION_COUNTS),
                           lambda i: check_junction_count(sid[i], count[i].item())),
    }


class ColumnTable(Sequence):
    """Rows stored as columns, in row order.

    A subclass names its columns and their dtypes in COLUMNS, builds one
    row object from one value per column with row, and gives the checks of
    its values, by name and in a row's order, with checks(columns).  Each
    column is a read-only array attribute.  Indexing and iteration build
    row objects on demand; a slice, or take, is a table of the same class,
    and == compares column by column (or row by row with a tuple or list).
    The constructor copies the columns and checks them: the lowest bad row
    raises the error of the first check that fails in it; from_checked
    takes columns checked where they entered, as _column makes them.
    """

    COLUMNS: dict[str, object]
    __slots__ = ()
    __hash__ = None

    def __init__(self, columns: Mapping[str, Sequence]) -> None:
        if set(columns) != set(self.COLUMNS):
            raise TypeError(f"a {type(self).__name__} has the columns "
                            f"{', '.join(self.COLUMNS)}")
        self._fill({name: col.copy() if isinstance(col, np.ndarray) else col
                    for name, col in columns.items()})
        raise_first_bad(list(self.checks({name: getattr(self, name)
                                          for name in self.COLUMNS}).values()))

    def _fill(self, columns: Mapping[str, Sequence]):
        """self, holding each of the COLUMNS as _column makes it."""
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, _column(columns[name], dtype))
        if len({len(getattr(self, name)) for name in self.COLUMNS}) > 1:
            raise DataError(f"{type(self).__name__} columns differ in length")
        return self

    @classmethod
    def from_checked(cls, columns: Mapping[str, Sequence]):
        """A table of columns whose values the caller has checked."""
        return object.__new__(cls)._fill(columns)

    def take(self, index):
        """The rows at index (an index array, a mask or a slice), as a table."""
        return self.from_checked({name: getattr(self, name)[index] for name in self.COLUMNS})

    def __len__(self) -> int:
        return len(self.structure_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return next(iter(self.take([index])))

    def __iter__(self) -> Iterator:
        return map(self.row, *(getattr(self, name).tolist() for name in self.COLUMNS))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        if type(other) is not type(self):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self.COLUMNS)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


def _spec(structure_id, die_x, die_y, x_mm, y_mm, variant, w_bottom_nm, w_top_nm,
          a_overlap_designed_um2, junction_count, subarray_index, cell_row, cell_col,
          group, excluded, exclusion_reason) -> TestStructureSpec:
    return TestStructureSpec(
        structure_id, (die_x, die_y), subarray_index, (cell_row, cell_col),
        WaferPoint(x_mm, y_mm), JunctionDesign(VARIANTS[variant], w_bottom_nm, w_top_nm),
        a_overlap_designed_um2, group, excluded, junction_count, exclusion_reason)


class StructureTable(ColumnTable):
    """Test structures stored as columns, in layout order.

    The LAYOUT_COLUMNS: the STRUCTURE_COLUMNS a measurement shares, then
    sub-array index, cell row and column, group, excluded flag and
    exclusion reason.  Rows are TestStructureSpec objects, built on
    demand.  The constructor makes the checks a structure or a measurement
    makes of its values; the first bad row raises the error of the first
    check, in a structure's order, that fails in it.
    """

    COLUMNS = LAYOUT_COLUMNS
    __slots__ = tuple(LAYOUT_COLUMNS)
    row = staticmethod(_spec)
    checks = staticmethod(structure_checks)

    @classmethod
    def from_specs(cls, specs: Iterable[TestStructureSpec]) -> StructureTable:
        """A table of specs; a table is returned as it is."""
        if isinstance(specs, StructureTable):
            return specs
        return cls(_transpose([
            (s.structure_id, *s.die_index, s.position.x_mm, s.position.y_mm,
             VARIANT_CODES[s.design.variant], s.design.w_bottom_nm, s.design.w_top_nm,
             s.a_overlap_designed_um2, s.junction_count, s.subarray_index, *s.cell_index,
             s.group, s.excluded, s.exclusion_reason) for s in specs], LAYOUT_COLUMNS))


@dataclass(frozen=True)
class WaferLayout:
    """A layout's structures, a StructureTable; a sequence of
    TestStructureSpec given instead is converted to one."""

    structures: StructureTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "structures", StructureTable.from_specs(self.structures))

    def viable(self) -> StructureTable:
        return self.structures.take(~self.structures.excluded)


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


def _site(row: Sequence[str]) -> SubarraySite:
    offset = WaferPoint(float(row[1]), float(row[2]))          # must be finite
    return SubarraySite(int(row[0]), offset.x_mm, offset.y_mm, row[3].strip())


def load_subarray_sites(path: str | Path | None = None) -> tuple[SubarraySite, ...]:
    """Read sub-array placements (sub_index,x_mm,y_mm,group) for one die."""
    src = path if path is not None else _data_path("surface17_subarrays.csv")
    sites = _parse_rows(src, SUBARRAY_HEADER, "sub-array file", _site,
                        "malformed sub-array row: ")
    if len(sites) != 17:
        raise DataError(f"sub-array file must define indices 0..16, got {len(sites)} rows")
    seen: set[int] = set()
    for site in sites:
        if not 0 <= site.index <= 16:
            raise DataError(f"{src}: sub-array index {site.index} is outside 0..16")
        if site.index in seen:
            raise DataError(f"{src}: sub-array index {site.index} is defined twice")
        seen.add(site.index)
    return tuple(sorted(sites, key=lambda s: s.index))


def _via(row: Sequence[str]) -> tuple[WaferPoint, float]:
    diameter = float(row[2])
    if not (math.isfinite(diameter) and diameter > 0.0):
        raise DataError(f"diameter_um must be finite and > 0, got {row[2]!r}")
    return WaferPoint(float(row[0]), float(row[1])), diameter


def load_tsv_file(path: str | Path | None = None) -> tuple[tuple[WaferPoint, float], ...]:
    """Read via positions (x_mm,y_mm,diameter_um) in wafer coordinates."""
    src = path if path is not None else _data_path("tsv_vias.csv")
    return tuple(_parse_rows(src, VIA_HEADER, "via file", _via,
                             "malformed via row: "))


def _sweep_width(row: Sequence[str]) -> tuple[str, float]:
    width = float(row[1])
    if not (math.isfinite(width) and width >= 0.0):
        raise DataError(f"w_nm must be finite and >= 0, got {row[1]!r}")
    return row[0].strip(), width


def load_sweep_file(path: str | Path) -> dict[str, tuple[float, ...]]:
    """Read width sweeps (group,w_nm), ordered within each group."""
    sweeps: dict[str, list[float]] = {}
    for group, width in _parse_rows(path, SWEEP_HEADER, "sweep file", _sweep_width,
                                    "malformed sweep row: "):
        sweeps.setdefault(group, []).append(width)
    if not sweeps:
        raise DataError(f"sweep file {path} is empty")
    return {g: tuple(v) for g, v in sweeps.items()}


def _wafer_check(round_wafer: bool, x: np.ndarray, y: np.ndarray) -> Check:
    """The check, as structure_checks makes one, that structures at (x, y)
    mm lie on the round 100 mm wafer, or else the square 70 mm one; the
    round wafer's distance is math.hypot's."""
    if round_wafer:
        off, wafer = ~within_radius(x, y, WAFER_RADIUS_MM), "round"
    else:
        off, wafer = (np.abs(x) > SQUARE_HALF_MM) | (np.abs(y) > SQUARE_HALF_MM), "square"
    return off, lambda i: data_error(
        f"test structure at ({x[i].item()}, {y[i].item()}) mm is off the {wafer} wafer")


def _die_centre(ix: int, iy: int) -> tuple[float, float]:
    # Signed die indices skip 0 so the wafer centre falls between dies.
    return ((ix - math.copysign(0.5, ix)) * DIE_PITCH_MM,
            (iy - math.copysign(0.5, iy)) * DIE_PITCH_MM)


def _sweep_problem(group: str, sweep: Sequence[float], cells: int) -> str:
    """Why a sub-array of the group cannot step through sweep, or ""."""
    if len(sweep) != cells:
        return f"sweep for group {group!r} has {len(sweep)} values, need {cells}"
    if any(b >= a for a, b in zip(sweep[1:], sweep)):
        return f"sweep for group {group!r} is not strictly increasing"
    return ""


def _subarray_columns(blocks: Sequence[tuple[Variant, tuple[int, int], SubarraySite]],
                      n: int, sweeps: Mapping[str, Sequence[float]],
                      round_wafer: bool) -> dict[str, np.ndarray]:
    """The LAYOUT_COLUMNS of one n x n sub-array per (variant, die, site)
    block, in block order and row-major within a block.

    A cell's position is (cx + dx) + (col - half) * pitch, the operation
    order of a cell-by-cell loop, and its variable width is the group's
    sweep value row * n + col.  A Dolan cell draws its bottom electrode 3x
    the sweep width, a Manhattan cell its top electrode
    MANHATTAN_FIXED_TOP_NM wide.  The columns are checked in one ordered
    pass: the lowest bad cell raises the error of the first check that
    fails in it, of its block's sweep, then a structure's checks with the
    on-wafer check after the position's.
    """
    m = n * n
    why = {group: _sweep_problem(group, sweeps[group], m)
           for group in dict.fromkeys(site.group for _, _, site in blocks)}
    row, col = np.divmod(np.arange(m), n)
    half = (n - 1) / 2.0
    centres = [_die_centre(*die) for _, die, _ in blocks]
    x = (np.array([cx + site.dx_mm for (cx, _), (_, _, site) in zip(centres, blocks)])[:, None]
         + (col - half) * SUBARRAY_CELL_PITCH_MM).ravel()
    y = (np.array([cy + site.dy_mm for (_, cy), (_, _, site) in zip(centres, blocks)])[:, None]
         + (row - half) * SUBARRAY_CELL_PITCH_MM).ravel()
    w = np.array([np.zeros(m) if why[site.group] else np.asarray(sweeps[site.group], float)
                  for _, _, site in blocks]).ravel()
    dolan = np.repeat([variant is Variant.DOLAN for variant, _, _ in blocks], m)
    w_b = np.where(dolan, 3.0 * w, w)
    w_t = np.where(dolan, w, MANHATTAN_FIXED_TOP_NM)
    codes = np.array([VARIANT_CODES[variant] for variant, _, _ in blocks], dtype=np.int8)
    variant = np.repeat(codes, m)
    cells = [f"c{cell:02d}" for cell in range(m)]
    subarrays = [f"{'M' if v is Variant.MANHATTAN else 'D'}{ix:+d}{iy:+d}s{site.index:02d}"
                 for v, (ix, iy), site in blocks]
    columns = dict(
        structure_id=[subarray + cell for subarray in subarrays for cell in cells],
        die_x=np.repeat([ix for _, (ix, _), _ in blocks], m),
        die_y=np.repeat([iy for _, (_, iy), _ in blocks], m),
        x_mm=x, y_mm=y, variant=variant, w_bottom_nm=w_b, w_top_nm=w_t,
        a_overlap_designed_um2=designed_areas(variant, w_b, w_t),
        junction_count=np.full(x.size, 2),
        subarray_index=np.repeat([site.index for _, _, site in blocks], m),
        cell_row=np.tile(row, len(blocks)), cell_col=np.tile(col, len(blocks)),
        group=np.repeat(np.array([site.group for _, _, site in blocks], dtype=object), m),
        excluded=np.zeros(x.size, dtype=bool),
        exclusion_reason=np.full(x.size, "", dtype=object),
    )
    checks = structure_checks(columns)
    raise_first_bad([
        (np.repeat([bool(why[site.group]) for _, _, site in blocks], m),
         lambda i: data_error(why[blocks[i // m][2].group])),
        checks.pop("position"), _wafer_check(round_wafer, x, y), *checks.values()])
    return columns


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
    blocks = [(variant, (ix, iy), site)
              for variant, die_ys in ((Variant.DOLAN, (1, 2)), (Variant.MANHATTAN, (-1, -2)))
              for iy in die_ys for ix in (-2, -1, 1, 2) for site in sites]
    columns = _subarray_columns(blocks, 4, sweeps, round_wafer=True)
    return WaferLayout(StructureTable.from_checked(columns))


_VIA_MARGIN_MM = 1e-6          # far above the rounding of mm-scale coordinates


def _via_hits(x: np.ndarray, y: np.ndarray, m: int, via_x: np.ndarray,
              via_y: np.ndarray, via_r: np.ndarray) -> np.ndarray:
    """Whether each structure's square footprint, centred on (x, y), meets
    any via circle; the structures come in sub-arrays of m.

    A via whose circle, widened by the footprint and a rounding margin,
    misses a sub-array's bounding box cannot count for its cells.  Each
    remaining (cell, via) pair clamps the via centre to the footprint, and
    the via counts when that nearest point lies within its radius.
    """
    reach = via_r + STRUCTURE_HALF_MM + _VIA_MARGIN_MM
    bx, by = x.reshape(-1, m), y.reshape(-1, m)
    block, via = np.nonzero((via_x >= bx.min(axis=1)[:, None] - reach)
                            & (via_x <= bx.max(axis=1)[:, None] + reach)
                            & (via_y >= by.min(axis=1)[:, None] - reach)
                            & (via_y <= by.max(axis=1)[:, None] + reach))
    cell = (block[:, None] * m + np.arange(m)).ravel()
    via = np.repeat(via, m)
    cx, cy, vx, vy = x[cell], y[cell], via_x[via], via_y[via]
    nx = np.minimum(np.maximum(vx, cx - STRUCTURE_HALF_MM), cx + STRUCTURE_HALF_MM)
    ny = np.minimum(np.maximum(vy, cy - STRUCTURE_HALF_MM), cy + STRUCTURE_HALF_MM)
    hit = np.zeros(x.size, dtype=bool)
    hit[cell[within_radius(vx - nx, vy - ny, via_r[via])]] = True
    return hit


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
    blocks = [(variant, (ix, iy), site)
              for iy in (1, 2) for ix in (-2, -1, 1, 2) for site in sites]
    columns = _subarray_columns(blocks, 5, {site.group: sweep for site in sites},
                                round_wafer=False)
    hit = _via_hits(columns["x_mm"], columns["y_mm"], 25, via_x, via_y, via_r)
    columns["excluded"] = hit
    columns["exclusion_reason"] = np.where(hit, "tsv_overlap", "").astype(object)
    return WaferLayout(StructureTable.from_checked(columns))


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
    code = _PAD_CODE[pad_kind]
    row, col = np.divmod(np.arange(_GRID_35 * _GRID_35), _GRID_35)
    half = (_GRID_35 - 1) / 2.0
    x, y = (col - half) * _PITCH_35_MM, (row - half) * _PITCH_35_MM
    width = np.full(x.size, UNIFORM_WIDTH_NM)
    excluded = np.isin(row, list(omitted))
    variant = np.full(x.size, VARIANT_CODES[Variant.MANHATTAN], dtype=np.int8)
    zeros = np.zeros(x.size, dtype=np.int64)
    columns = dict(
        structure_id=[f"{code}r{r:02d}c{c:02d}" for r in range(_GRID_35)
                      for c in range(_GRID_35)],
        die_x=zeros, die_y=zeros, x_mm=x, y_mm=y, variant=variant,
        w_bottom_nm=width, w_top_nm=width,
        a_overlap_designed_um2=designed_areas(variant, width, width),
        junction_count=np.full(x.size, 1 if pad_kind == "al" else 2),
        subarray_index=zeros, cell_row=row, cell_col=col,
        group=np.full(x.size, "uniform", dtype=object), excluded=excluded,
        exclusion_reason=np.where(excluded, "omitted_row", "").astype(object),
    )
    return WaferLayout(StructureTable.from_checked(columns))
