"""Inverse of the shadow model: position-dependent design pre-compensation.

Given a target actual overlap area, solve for the designed widths that
produce it at a wafer point, so that a whole layout can be redrawn to
yield uniform actual areas.  The forward area is continuous and strictly
increasing in the designed width at a fixed point and aspect, so a
sign-based bracketed bisection suffices (and tolerates the kink the
full-fidelity top-width branch can introduce).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .errors import ShadowedError, TargetError
from .geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
)
from .layout import WaferLayout

MAX_WIDTH_NM = 2000.0
AREA_RTOL = 1.0e-6
_BRACKET_NM = 1.0e-7


def _solve_width(area_of: Callable[[float], float], target_um2: float,
                 w_max_nm: float, what: str) -> float:
    """Bisect the designed width until area_of(w) meets the target."""

    def f(w: float) -> float:
        try:
            return area_of(w) - target_um2
        except ShadowedError:
            return -target_um2          # pinched off: treat as zero area

    lo, hi = 1.0, w_max_nm
    if f(lo) >= 0.0:
        raise TargetError(f"{what}: target {target_um2:g} um^2 needs width <= {lo} nm")
    if f(hi) < 0.0:
        raise TargetError(f"{what}: target {target_um2:g} um^2 exceeds the "
                          f"{w_max_nm:g} nm width limit")
    while hi - lo > _BRACKET_NM:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    if abs(f(w)) > AREA_RTOL * target_um2:
        raise TargetError(f"{what}: no width meets the target within tolerance")
    return w


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

    def area_of(w_top: float) -> float:
        d = JunctionDesign(variant, w_bottom_nm=aspect * w_top, w_top_nm=w_top)
        return actual_overlap_area(geom, d, p, fidelity)

    w_top = _solve_width(area_of, target_area_um2, w_max_nm,
                         f"({p.x_mm:g}, {p.y_mm:g}) mm")
    return JunctionDesign(variant, w_bottom_nm=aspect * w_top, w_top_nm=w_top)


def precompensate_fixed_top(geom: EvaporatorGeometry, target_area_um2: float,
                            p: WaferPoint, fidelity: Fidelity, w_top_nm: float,
                            w_max_nm: float = MAX_WIDTH_NM) -> JunctionDesign:
    """Solve the bottom width only, with the top width held fixed.

    Matches sweep layouts that keep one electrode constant.
    """
    if target_area_um2 <= 0.0:
        raise TargetError("target area must be > 0")

    def area_of(w_bottom: float) -> float:
        d = JunctionDesign(Variant.MANHATTAN, w_bottom_nm=w_bottom, w_top_nm=w_top_nm)
        return actual_overlap_area(geom, d, p, fidelity)

    w_bottom = _solve_width(area_of, target_area_um2, w_max_nm,
                            f"({p.x_mm:g}, {p.y_mm:g}) mm")
    return JunctionDesign(Variant.MANHATTAN, w_bottom_nm=w_bottom, w_top_nm=w_top_nm)


def compensated_layout(layout: WaferLayout, geom: EvaporatorGeometry,
                       fidelity: Fidelity, w_max_nm: float = MAX_WIDTH_NM,
                       fixed_top_nm: float | None = None) -> WaferLayout:
    """Redesign every viable structure to hit the centre structure's area.

    The target is the actual overlap area of the structure closest to the
    wafer centre.  Each structure keeps its designed aspect ratio (or its
    fixed top width, if fixed_top_nm is given); structures whose target is
    unattainable are marked excluded with a reason.  Excluded structures
    pass through unchanged.  Bridge-style structures are solved at basic
    fidelity, the only level the model defines for them.
    """
    viable = layout.viable()
    if not viable:
        raise TargetError("layout has no viable structures to compensate")
    centre = min(viable, key=lambda s: (s.position.radius_mm(), s.structure_id))
    target = actual_overlap_area(geom, centre.design, centre.position,
                                 fidelity.for_variant(centre.design.variant))

    out = []
    for s in layout.structures:
        if s.excluded:
            out.append(s)
            continue
        try:
            if fixed_top_nm is not None and s.design.variant is Variant.MANHATTAN:
                design = precompensate_fixed_top(
                    geom, target, s.position, fidelity,
                    w_top_nm=fixed_top_nm, w_max_nm=w_max_nm)
            else:
                aspect = (s.design.w_bottom_nm / s.design.w_top_nm
                          if s.design.w_top_nm > 0 else 1.0)
                design = precompensate(
                    geom, target, s.position, fidelity.for_variant(s.design.variant),
                    aspect=aspect, w_max_nm=w_max_nm, variant=s.design.variant)
        except TargetError as exc:
            out.append(replace(s, excluded=True, exclusion_reason=f"unattainable: {exc}"))
            continue
        out.append(replace(s, design=design,
                           a_overlap_designed_um2=design.designed_area_um2()))
    return WaferLayout(layout.kind, tuple(out), die_pitch_mm=layout.die_pitch_mm,
                       wafer_shape=layout.wafer_shape)
