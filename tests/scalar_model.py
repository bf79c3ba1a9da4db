"""Scalar reference for the geometry kernels.

The forward model for one wafer point, written with Python floats and
if/else branches over the model expressions of jjshadow.geometry.  The
tests compare the array kernels (overlap_areas, field_values) and their
one-point wrappers against it bit for bit, and the compensation oracle
bisects with it.  Like the wrappers, it raises ShadowedError where an
electrode pinches off.
"""

import math

from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import (
    Fidelity,
    Variant,
    _bridge_area,
    _crossed_area,
    _dist_sq_nm2,
    _lip,
    _lip_h,
    _lip_shade,
    _narrowed,
    _not_south,
    _printed,
    _resist_shade,
    _south_of_source,
    _thickness,
    _with_sidewalls,
)


def _r_cubed(geom, p):
    """|r - C|**3 with Python float **, in nm^3."""
    return math.sqrt(_dist_sq_nm2(geom, p.x_mm, p.y_mm)) ** 3


def _narrowed_width(geom, w_designed_nm, coord_mm, d_nm):
    w = _narrowed(geom, w_designed_nm, coord_mm, d_nm)
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
        raise _not_south(p.y_mm)
    return _lip_h(geom, w_top_nm, p.y_mm)


def _top_width(geom, w_top_nm, p, r3):
    dh = _thickness(geom, r3)
    w_lip = _lip(geom, p.y_mm, r3)
    resist = _resist_shade(geom, p.y_mm, dh)
    if p.y_mm >= 0.0:
        shade = w_lip + resist
    else:
        shade = max(resist, _lip_shade(geom, w_top_nm, p.y_mm, dh, w_lip))
    w = _printed(geom, w_top_nm, shade)
    if w <= 0.0:
        raise ShadowedError(f"top electrode fully shadowed at ({p.x_mm}, {p.y_mm}) mm")
    return w


def actual_top_width(geom, w_top_nm, p):
    return _top_width(geom, w_top_nm, p, _r_cubed(geom, p))


def actual_overlap_area(geom, design, p, fidelity):
    if design.variant is Variant.DOLAN:
        if fidelity is not Fidelity.BASIC:
            raise GeometryError("bridge-style junctions are modeled at basic fidelity only")
        return _bridge_area(_narrowed_width(geom, design.w_top_nm, p.x_mm,
                                            geom.bridge_distance_nm()))

    w_b = actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    if fidelity is Fidelity.BASIC:
        return _crossed_area(w_b, actual_width_vertical(geom, design.w_top_nm, p.y_mm))
    r3 = _r_cubed(geom, p)
    w_b = _with_sidewalls(w_b, _thickness(geom, r3))
    if fidelity is Fidelity.SIDEWALL:
        w_t = actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    else:
        w_t = _top_width(geom, design.w_top_nm, p, r3)
    return _crossed_area(w_b, w_t)


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
