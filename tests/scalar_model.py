"""Scalar reference for the geometry kernels.

The forward model for one wafer point, written out with Python floats and
if/else branches: every formula is restated here, operation for operation
in the order geometry.Sites evaluates it, and nothing of the model is
imported.  The tests compare Sites.areas, Sites.field and their one-point
wrappers against it bit for bit, so a term mistyped in either place
shows, and the compensation oracle bisects with it.  Like the wrappers, it raises ShadowedError where an electrode
pinches off.
"""

import math

from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import DOLAN_OVERLAP_LENGTH_NM, NM_PER_MM, Fidelity, Variant


def _r_cubed(geom, p):
    """|r - C|**3 with Python float **, in nm^3."""
    dy = p.y_mm * NM_PER_MM - geom.crucible_y_nm()
    dx = p.x_mm * NM_PER_MM
    d = geom.source_distance_nm()
    return math.sqrt(dx * dx + dy * dy + d * d) ** 3


def _thickness(geom, r3):
    """T'_b = T_b * (D'-R)^2 * D / |r-C|^3, also dH."""
    dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
    return geom.t_bottom_nm * dr * dr * geom.source_distance_nm() / r3


def _south_of_source(geom, y_mm):
    """D'*sin(alpha) - y in nm."""
    return geom.crucible_y_nm() - y_mm * NM_PER_MM


def _lip(geom, y_mm, r3):
    """W_lip = -T_b * (D'-R)^2 * (D'*sin(alpha) - y) / |r-C|^3."""
    dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
    return -geom.t_bottom_nm * dr * dr * _south_of_source(geom, y_mm) / r3


def _lip_h(geom, w_top_nm, y_mm):
    """H_lip = D * W_t / (D'*sin(alpha) - y)."""
    return geom.source_distance_nm() * w_top_nm / _south_of_source(geom, y_mm)


def _slope(geom, y_mm):
    """|y| / D."""
    return abs(y_mm) * NM_PER_MM / geom.source_distance_nm()


def _area(w_b_nm, w_t_nm):
    """Overlap area in um^2 of two crossing lines."""
    return w_b_nm * w_t_nm / 1.0e6


def _narrowed_width(geom, w_designed_nm, coord_mm, d_nm):
    """W + dW_offset - |coord| * H / D."""
    shade = abs(coord_mm) * NM_PER_MM * geom.h_resist_nm / d_nm
    w = w_designed_nm + geom.dw_offset_nm - shade
    if w <= 0.0:
        raise ShadowedError(f"electrode fully shadowed at |coord|={abs(coord_mm)} mm")
    return w


def actual_width_vertical(geom, w_designed_nm, coord_mm):
    return _narrowed_width(geom, w_designed_nm, coord_mm, geom.source_distance_nm())


def bottom_thickness(geom, p):
    return _thickness(geom, _r_cubed(geom, p))


def lip_width(geom, p):
    return _lip(geom, p.y_mm, _r_cubed(geom, p))


def lip_height(geom, w_top_nm, p):
    if _south_of_source(geom, p.y_mm) <= 0.0:
        raise GeometryError(f"point y={p.y_mm} mm is not south of the source projection")
    return _lip_h(geom, w_top_nm, p.y_mm)


def _top_width(geom, w_top_nm, p, r3):
    dh = _thickness(geom, r3)
    w_lip = _lip(geom, p.y_mm, r3)
    slope = _slope(geom, p.y_mm)
    resist = (geom.h_resist_nm + dh) * slope
    if p.y_mm >= 0.0:
        shade = w_lip + resist
    else:
        shade = max(resist, w_lip + (_lip_h(geom, w_top_nm, p.y_mm) + dh) * slope)
    w = w_top_nm + geom.dw_offset_nm - shade
    if w <= 0.0:
        raise ShadowedError(f"top electrode fully shadowed at ({p.x_mm}, {p.y_mm}) mm")
    return w


def actual_top_width(geom, w_top_nm, p):
    return _top_width(geom, w_top_nm, p, _r_cubed(geom, p))


def actual_overlap_area(geom, design, p, fidelity):
    if design.variant is Variant.DOLAN:
        if fidelity is not Fidelity.BASIC:
            raise GeometryError("bridge-style junctions are modeled at basic fidelity only")
        return _area(DOLAN_OVERLAP_LENGTH_NM, _narrowed_width(
            geom, design.w_top_nm, p.x_mm, geom.bridge_distance_nm()))

    w_b = actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    if fidelity is Fidelity.BASIC:
        return _area(w_b, actual_width_vertical(geom, design.w_top_nm, p.y_mm))
    r3 = _r_cubed(geom, p)
    w_b = w_b + 2.0 * _thickness(geom, r3)
    if fidelity is Fidelity.SIDEWALL:
        w_t = actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    else:
        w_t = _top_width(geom, design.w_top_nm, p, r3)
    return _area(w_b, w_t)


def evaluate_field(geom, quantity, p, design, fidelity=Fidelity.FULL):
    if quantity == "wb":
        return actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    if quantity == "wt":
        return actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    if quantity == "tb":
        return bottom_thickness(geom, p)
    if quantity == "wlip":
        return lip_width(geom, p)
    if quantity == "hlip":
        return lip_height(geom, design.w_top_nm, p)
    if quantity == "wt_full":
        return actual_top_width(geom, design.w_top_nm, p)
    if quantity == "area":
        return actual_overlap_area(geom, design, p, fidelity)
    raise ValueError(f"unknown field quantity {quantity!r}")
