"""Inverse of the shadow model: position-dependent design pre-compensation.

Given a target actual overlap area, solve for the designed widths that
produce it at a wafer point, so that a whole layout can be redrawn to
yield uniform actual areas.  The forward area is continuous and strictly
increasing in the designed width at a fixed point and aspect, so a
sign-based bracketed bisection suffices (and tolerates the kink the
full-fidelity top-width branch can introduce).

The bisection runs in lockstep over an array of lanes, one per structure:
every lane starts from the same bracket, 1 nm to the width limit, and
halves it at its own midpoint, evaluated for all lanes at once, until it
is at most 1e-7 nm wide.  The lanes' points are prepared once, as one
geometry.Sites, so a bisection step evaluates only the width-dependent
part of the model (Sites.areas); the position-only terms, |r - C|**3
among them, are computed once per solve.
Each lane does exactly the arithmetic of a one-structure bisection, so a
width does not depend on how many structures are solved together;
precompensate and precompensate_fixed_top are one-lane solves.
"""

from __future__ import annotations

import numpy as np

from .errors import TargetError
from .geometry import (
    VARIANTS,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    actual_overlap_area,
    designed_areas,
)
from .layout import LAYOUT_COLUMNS, StructureTable, WaferLayout, _radii

MAX_WIDTH_NM = 2000.0
AREA_RTOL = 1.0e-6
_MIN_WIDTH_NM = 1.0
_BRACKET_NM = 1.0e-7


def _solve_designs(geom: EvaporatorGeometry, target_um2: float, x_mm: np.ndarray,
                   y_mm: np.ndarray, fidelity: Fidelity, variant: Variant, w_max_nm: float,
                   aspect: np.ndarray | float, w_top_nm: float | None,
                   ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(bottom, top) designed widths meeting the target at each point, and why not.

    With w_top_nm None the top width is solved and the bottom held at
    aspect times it; otherwise the bottom width is solved under that top.
    The solved width is bisected in every lane until the area meets the
    target; a pinched-off lane counts as zero area.  A point's reason is ""
    where the target is met, else the TargetError message naming the point.
    """
    sites = Sites(geom, x_mm, y_mm)

    def widths(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(bottom, top) designed widths for the solved width w."""
        if w_top_nm is None:
            return np.broadcast_arrays(aspect * w, w)
        return np.broadcast_arrays(w, w_top_nm)

    def f(w: np.ndarray) -> np.ndarray:
        area, ok = sites.areas(variant, *widths(w), fidelity)
        return np.where(ok, area - target_um2, -target_um2)

    lo = np.full(len(x_mm), _MIN_WIDTH_NM)
    floor = f(lo) >= 0.0
    # A lane already too wide at lo is held there: as in a one-lane solve it
    # never evaluates w_max, so a bad limit raises only for lanes that reach it.
    hi = np.where(floor, lo, w_max_nm)
    limit = f(hi) < 0.0
    active = hi - lo > _BRACKET_NM
    while active.any():
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = hi - lo > _BRACKET_NM
    w = 0.5 * (lo + hi)
    missed = np.abs(f(w)) > AREA_RTOL * target_um2
    reasons = ("",
               f"target {target_um2:g} um^2 needs width <= {_MIN_WIDTH_NM} nm",
               f"target {target_um2:g} um^2 exceeds the {w_max_nm:g} nm width limit",
               "no width meets the target within tolerance")
    which = np.select([floor, limit, missed], [1, 2, 3], 0).tolist()
    w_b, w_t = widths(w)
    return (w_b, w_t, [reasons[k] and f"({x:g}, {y:g}) mm: {reasons[k]}"
                       for x, y, k in zip(x_mm.tolist(), y_mm.tolist(), which)])


def _solve_one(geom: EvaporatorGeometry, target_um2: float, p: WaferPoint,
               fidelity: Fidelity, variant: Variant, w_max_nm: float, aspect: float,
               w_top_nm: float | None) -> JunctionDesign:
    """The design meeting the target at p, as _solve_designs solves it;
    TargetError if there is none."""
    (w_b,), (w_t,), (why,) = _solve_designs(geom, target_um2, np.array([p.x_mm]),
                                            np.array([p.y_mm]), fidelity, variant,
                                            w_max_nm, aspect, w_top_nm)
    if why:
        raise TargetError(why)
    return JunctionDesign(variant, w_bottom_nm=w_b.item(), w_top_nm=w_t.item())


def precompensate(geom: EvaporatorGeometry, target_area_um2: float, p: WaferPoint,
                  fidelity: Fidelity, aspect: float = 1.0,
                  w_max_nm: float = MAX_WIDTH_NM,
                  variant: Variant = Variant.MANHATTAN) -> JunctionDesign:
    """Designed widths whose actual overlap area at p equals the target.

    The bottom width is held at aspect times the top width; the one
    remaining degree of freedom is solved by bracketed bisection to a
    relative area tolerance of 1e-6.
    """
    if aspect <= 0.0:
        raise TargetError("aspect ratio must be > 0")
    if target_area_um2 <= 0.0:
        raise TargetError("target area must be > 0")
    return _solve_one(geom, target_area_um2, p, fidelity, variant, w_max_nm, aspect, None)


def precompensate_fixed_top(geom: EvaporatorGeometry, target_area_um2: float,
                            p: WaferPoint, fidelity: Fidelity, w_top_nm: float,
                            w_max_nm: float = MAX_WIDTH_NM) -> JunctionDesign:
    """Solve the bottom width only, with the top width held fixed.

    Matches sweep layouts that keep one electrode constant.
    """
    if target_area_um2 <= 0.0:
        raise TargetError("target area must be > 0")
    return _solve_one(geom, target_area_um2, p, fidelity, Variant.MANHATTAN, w_max_nm, 1.0,
                      w_top_nm)


def compensated_layout(layout: WaferLayout, geom: EvaporatorGeometry,
                       fidelity: Fidelity, w_max_nm: float = MAX_WIDTH_NM,
                       fixed_top_nm: float | None = None) -> WaferLayout:
    """Redesign every viable structure to hit the centre structure's area.

    The target is the actual overlap area of the structure closest to the
    wafer centre (the least id among equally close ones).  Each structure
    keeps its designed aspect ratio (or its fixed top width, if
    fixed_top_nm is given); structures whose target is unattainable are
    marked excluded with a reason.  Excluded structures pass through
    unchanged.  Bridge-style structures are solved at basic fidelity, the
    only level the model defines for them.  The structures of each variant
    are solved together, in one lockstep bisection, and the solved widths,
    designed areas and exclusions are written into the layout's columns.
    """
    table = layout.structures
    viable = ~table.excluded
    lanes = np.flatnonzero(viable)
    if not lanes.size:
        raise TargetError("layout has no viable structures to compensate")
    radii = _radii(table.x_mm[lanes], table.y_mm[lanes])
    c = min(lanes[radii == radii.min()].tolist(), key=lambda i: table.structure_id[i])
    centre = VARIANTS[table.variant[c]]
    target = actual_overlap_area(
        geom, JunctionDesign(centre, table.w_bottom_nm[c].item(), table.w_top_nm[c].item()),
        WaferPoint(table.x_mm[c].item(), table.y_mm[c].item()), fidelity.for_variant(centre))

    columns = {name: getattr(table, name) for name in LAYOUT_COLUMNS}
    w_b, w_t = table.w_bottom_nm.copy(), table.w_top_nm.copy()
    excluded, reason = table.excluded.copy(), table.exclusion_reason.copy()
    solved = np.zeros(len(table), dtype=bool)
    for code in dict.fromkeys(table.variant[lanes].tolist()):
        variant = VARIANTS[code]
        lanes = np.flatnonzero(viable & (table.variant == code))
        w_top = fixed_top_nm if variant is Variant.MANHATTAN else None
        aspect = 1.0
        if w_top is None:
            aspect = np.divide(w_b[lanes], w_t[lanes], out=np.ones(lanes.size),
                               where=w_t[lanes] > 0.0)
            flat = lanes[aspect <= 0.0]
            excluded[flat] = True
            reason[flat] = "unattainable: aspect ratio must be > 0"
            lanes, aspect = lanes[aspect > 0.0], aspect[aspect > 0.0]
        bottom, top, why = _solve_designs(geom, target, table.x_mm[lanes], table.y_mm[lanes],
                                          fidelity.for_variant(variant), variant, w_max_nm,
                                          aspect, w_top)
        met = np.array([not r for r in why], dtype=bool)
        w_b[lanes[met]], w_t[lanes[met]] = bottom[met], top[met]
        solved[lanes[met]] = True
        excluded[lanes[~met]] = True
        reason[lanes[~met]] = [f"unattainable: {r}" for r in why if r]
    area = np.where(solved, designed_areas(table.variant, w_b, w_t),
                    table.a_overlap_designed_um2)
    return WaferLayout(layout.kind, StructureTable.from_checked({
        **columns, "w_bottom_nm": w_b, "w_top_nm": w_t, "a_overlap_designed_um2": area,
        "excluded": excluded, "exclusion_reason": reason}))
