"""Geometric model of oblique double-angle shadow evaporation.

A point source at distance D' from the sample-holder pivot deposits metal
through a resist mask of thickness H onto a wafer tilted by alpha.  The
finite source distance makes the flux incidence angle position dependent,
which narrows electrodes away from the wafer centre and modulates deposited
film thickness.  This module evaluates those effects for a single junction:

* vertical-electrode width vs x (the resist edge shadows the oblique flux),
* deposited bottom-electrode thickness vs position,
* the metal lip left on the resist edge by the first evaporation and the
  extra shading it causes during the second evaporation,
* the resulting electrode overlap area at three fidelity levels.

Internally every length is a nanometre stored as a float64 (50 mm is
exactly 5e7 nm); millimetres appear only in signatures, for wafer-scale
coordinates and evaporator distances.  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import GeometryError, ShadowedError

NM_PER_MM = 1.0e6

WAFER_RADIUS_MM = 50.0      # 100-mm round wafer
SQUARE_HALF_MM = 35.0       # 70x70 mm cleaved TSV wafer

# Designed junction length along the electrode axis for bridge-style
# junctions; a free layout constant, not position dependent.
DOLAN_OVERLAP_LENGTH_NM = 200.0


class Variant(str, Enum):
    DOLAN = "dolan"
    MANHATTAN = "manhattan"


class Fidelity(str, Enum):
    """How much of the shadowing model to apply to the overlap area.

    BASIC: width narrowing of both electrodes only.
    SIDEWALL: BASIC plus the bottom-electrode sidewall contribution.
    FULL: SIDEWALL plus first-evaporation effects (resist-height increase
    and the lip on the southern resist edge) on the top electrode.
    """

    BASIC = "basic"
    SIDEWALL = "sidewall"
    FULL = "full"

    def for_variant(self, variant: Variant) -> Fidelity:
        """The level applied to a variant: bridge junctions are modelled at BASIC."""
        return Fidelity.BASIC if variant is Variant.DOLAN else self


@dataclass(frozen=True)
class EvaporatorGeometry:
    """E-beam evaporator constants driving the shadow model.

    Distances d_prime/r_pivot in mm, resist and film thicknesses in nm,
    tilts in degrees: crossed junctions are evaporated at alpha, bridge
    junctions at alpha_dolan.  dw_offset is the constant widening of
    developed lines from over-exposure.
    """

    d_prime_mm: float = 650.0
    r_pivot_mm: float = 62.5
    alpha_deg: float = 35.0
    alpha_dolan_deg: float = 15.0
    h_resist_nm: float = 600.0
    t_bottom_nm: float = 35.0
    dw_offset_nm: float = 25.0

    def __post_init__(self) -> None:
        if not self.d_prime_mm > self.r_pivot_mm > 0.0:
            raise GeometryError(
                f"need d_prime > r_pivot > 0, got {self.d_prime_mm}, {self.r_pivot_mm}"
            )
        for name in ("alpha_deg", "alpha_dolan_deg"):
            if not 0.0 <= getattr(self, name) < 90.0:
                raise GeometryError(
                    f"{name} must be in [0, 90) deg, got {getattr(self, name)}")
        if self.h_resist_nm <= 0.0:
            raise GeometryError("resist thickness must be > 0")
        if self.t_bottom_nm <= 0.0:
            raise GeometryError("calibrated bottom thickness must be > 0")
        if self.dw_offset_nm < 0.0:
            raise GeometryError("width offset must be >= 0")
        if self.source_distance_nm() <= 0.0 or self.bridge_distance_nm() <= 0.0:
            raise GeometryError(
                "source-plane distance D = d_prime*cos(alpha) - r_pivot must be > 0"
                " at both alpha and alpha_dolan"
            )

    def source_distance_nm(self) -> float:
        """D = D'*cos(alpha) - R in nm."""
        alpha = math.radians(self.alpha_deg)
        return (self.d_prime_mm * math.cos(alpha) - self.r_pivot_mm) * NM_PER_MM

    def bridge_distance_nm(self) -> float:
        """D at the bridge-junction tilt, D'*cos(alpha_dolan) - R, in nm."""
        alpha = math.radians(self.alpha_dolan_deg)
        return (self.d_prime_mm * math.cos(alpha) - self.r_pivot_mm) * NM_PER_MM

    def crucible_y_nm(self) -> float:
        """In-plane y coordinate of the source, D'*sin(alpha), in nm."""
        return self.d_prime_mm * math.sin(math.radians(self.alpha_deg)) * NM_PER_MM


@dataclass(frozen=True)
class WaferPoint:
    """Cartesian wafer coordinates in mm, origin at wafer centre.

    +y points toward the in-plane projection of the source during the
    top-electrode evaporation.
    """

    x_mm: float
    y_mm: float

    def radius_mm(self) -> float:
        return math.hypot(self.x_mm, self.y_mm)


ORIGIN = WaferPoint(0.0, 0.0)


@dataclass(frozen=True)
class JunctionDesign:
    """Designed (drawn) electrode widths of one junction, in nm."""

    variant: Variant
    w_bottom_nm: float
    w_top_nm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_bottom_nm) and math.isfinite(self.w_top_nm)):
            raise GeometryError("designed widths must be finite")
        if self.w_bottom_nm < 0.0 or self.w_top_nm < 0.0:
            raise GeometryError("designed widths must be >= 0")

    def designed_area_um2(self) -> float:
        if self.variant is Variant.DOLAN:
            return self.w_top_nm * DOLAN_OVERLAP_LENGTH_NM / NM_PER_MM
        return self.w_bottom_nm * self.w_top_nm / NM_PER_MM


def source_distance(geom: EvaporatorGeometry) -> float:
    """Distance in mm from the source to the exposed wafer plane."""
    return geom.source_distance_nm() / NM_PER_MM


def _dist_to_source_nm(geom: EvaporatorGeometry, p: WaferPoint) -> float:
    """|r - C| with C the source position, in nm."""
    dy = p.y_mm * NM_PER_MM - geom.crucible_y_nm()
    dx = p.x_mm * NM_PER_MM
    d = geom.source_distance_nm()
    return math.sqrt(dx * dx + dy * dy + d * d)


def actual_width_vertical(geom: EvaporatorGeometry, w_designed_nm: float,
                          coord_mm: float) -> float:
    """Deposited width of an electrode running along y, at offset x.

    W'(x) = W + dW_offset - |x| * H / D.  Also used for the horizontal
    (top) electrode of a crossed junction with coord = y, since the second
    evaporation is the same geometry rotated 90 degrees in azimuth.
    """
    return _narrowed_width(geom, w_designed_nm, coord_mm, geom.source_distance_nm())


def _narrowed_width(geom: EvaporatorGeometry, w_designed_nm: float,
                    coord_mm: float, d_nm: float) -> float:
    w = (w_designed_nm + geom.dw_offset_nm
         - abs(coord_mm) * NM_PER_MM * geom.h_resist_nm / d_nm)
    if w <= 0.0:
        raise ShadowedError(
            f"electrode fully shadowed: W'={w:.2f} nm at |coord|={abs(coord_mm)} mm"
        )
    return w


def bottom_thickness(geom: EvaporatorGeometry, p: WaferPoint) -> float:
    """Deposited bottom-electrode thickness T'_b(r) in nm.

    T'_b = T_b * (D'-R)^2 * D / |r-C|^3, calibrated so that T'_b = T_b at
    the wafer centre under normal incidence.  The same expression gives the
    resist-height increase dH(r) left by the first evaporation.
    """
    dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
    d = geom.source_distance_nm()
    return geom.t_bottom_nm * dr * dr * d / _dist_to_source_nm(geom, p) ** 3


def lip_width(geom: EvaporatorGeometry, p: WaferPoint) -> float:
    """Signed width of the first-evaporation lip on the southern resist edge.

    Evaluated exactly as printed, -T_b*(D'-R)^2*(D'*sin(alpha)-y)/|r-C|^3,
    leading minus sign included; negative everywhere on-wafer.
    """
    dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
    dy = geom.crucible_y_nm() - p.y_mm * NM_PER_MM
    return -geom.t_bottom_nm * dr * dr * dy / _dist_to_source_nm(geom, p) ** 3


def lip_height(geom: EvaporatorGeometry, w_top_nm: float, p: WaferPoint) -> float:
    """Lip height H_lip(r) = D * W_t / (D'*sin(alpha) - y) in nm."""
    denom = geom.crucible_y_nm() - p.y_mm * NM_PER_MM
    if denom <= 0.0:
        raise GeometryError(f"point y={p.y_mm} mm is not south of the source projection")
    return geom.source_distance_nm() * w_top_nm / denom


def actual_top_width(geom: EvaporatorGeometry, w_top_nm: float, p: WaferPoint) -> float:
    """Top-electrode width including first-evaporation lip shading, in nm.

    The shading term is piecewise in y: north of centre the lip width plus
    the raised-resist shadow apply together; south of centre the larger of
    the raised-resist shadow and the lip shadow wins.
    """
    d = geom.source_distance_nm()
    dh = bottom_thickness(geom, p)          # resist-height increase dH(r)
    w_lip = lip_width(geom, p)
    h_prime = geom.h_resist_nm + dh
    slope = abs(p.y_mm) * NM_PER_MM / d
    if p.y_mm >= 0.0:
        shade = w_lip + h_prime * slope
    else:
        h_lip_prime = lip_height(geom, w_top_nm, p) + dh
        shade = max(h_prime * slope, w_lip + h_lip_prime * slope)
    w = w_top_nm + geom.dw_offset_nm - shade
    if w <= 0.0:
        raise ShadowedError(f"top electrode fully shadowed at ({p.x_mm}, {p.y_mm}) mm")
    return w


def actual_overlap_area(geom: EvaporatorGeometry, design: JunctionDesign,
                        p: WaferPoint, fidelity: Fidelity) -> float:
    """Actual junction overlap area in um^2 at the requested fidelity.

    Bridge-style junctions (both electrodes vertical) are evaporated at the
    bridge tilt alpha_dolan and supported at BASIC fidelity only: the
    narrower top electrode width W'_t(x) times a fixed designed overlap
    length.  Crossed junctions use W'_b(x) * W'_t(y) at BASIC, add the
    2*T'_b sidewall term at SIDEWALL, and additionally replace W'_t with
    the lip-shaded width at FULL.
    """
    if design.variant is Variant.DOLAN:
        if fidelity is not Fidelity.BASIC:
            raise GeometryError("bridge-style junctions are modeled at basic fidelity only")
        w_t = _narrowed_width(geom, design.w_top_nm, p.x_mm, geom.bridge_distance_nm())
        return w_t * DOLAN_OVERLAP_LENGTH_NM / NM_PER_MM

    w_b = actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    if fidelity is Fidelity.BASIC:
        return w_b * actual_width_vertical(geom, design.w_top_nm, p.y_mm) / NM_PER_MM
    w_b += 2.0 * bottom_thickness(geom, p)
    if fidelity is Fidelity.SIDEWALL:
        w_t = actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    else:
        w_t = actual_top_width(geom, design.w_top_nm, p)
    return w_b * w_t / NM_PER_MM


# Field-map quantity names accepted by evaluate_field (and the CLI).
FIELD_QUANTITIES = ("wb", "wt", "tb", "wlip", "hlip", "wt_full", "area")


def evaluate_field(geom: EvaporatorGeometry, quantity: str, p: WaferPoint,
                   design: JunctionDesign,
                   fidelity: Fidelity = Fidelity.FULL) -> float:
    """Evaluate one model quantity at a wafer point, for field-map export.

    Widths and thicknesses are returned in nm, areas in um^2.  Raises
    ShadowedError where an electrode pinches off; callers exporting maps
    should blank those cells.
    """
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
