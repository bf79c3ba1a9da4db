"""Geometric model of oblique double-angle shadow evaporation.

A point source at distance D' from the sample-holder pivot deposits metal
through a resist mask of thickness H onto a wafer tilted by alpha.  The
finite source distance makes the flux incidence angle position dependent,
which narrows electrodes away from the wafer centre and modulates deposited
film thickness.  This module evaluates those effects across the wafer:

* vertical-electrode width vs x (the resist edge shadows the oblique flux),
* deposited bottom-electrode thickness vs position,
* the metal lip left on the resist edge by the first evaporation and the
  extra shading it causes during the second evaporation,
* the resulting electrode overlap area at three fidelity levels.

Internally every length is a nanometre stored as a float64 (50 mm is
exactly 5e7 nm); millimetres appear only in signatures, for wafer-scale
coordinates and evaporator distances.  All functions are pure.

The model has one implementation, Sites: wafer points prepared under one
geometry, which evaluates the overlap area (Sites.areas) and every
field-map quantity (Sites.field) at many points at once, with an ok mask
that is False where an electrode pinches off.  A Sites computes each term
that depends only on position and geometry (|r - C|**3, the thickness, the
lip, the resist and narrowing shades) once, on first use, so a caller that
evaluates many widths at the same points, such as the bisection of design
pre-compensation, pays for the width-dependent part alone.  A Sites lives
as long as its caller's call; nothing is cached across calls.  The array
kernels overlap_areas and field_values are one call of a fresh Sites, and
the one-point functions (actual_overlap_area, evaluate_field,
actual_top_width, ...) are one-element calls of those kernels that return
a Python float and raise ShadowedError instead of returning a False mask;
actual_width_vertical, a single expression, is evaluated directly.

Exactness rule: each Sites term is the printed formula it names, written
once, in its property or method body (T'_b in _thickness, W_lip in _lip,
H_lip in _lip_height, ...); the few expressions several kernels share
(_printed, _edge_shade, _crossed_area) are module functions.
tests/scalar_model.py restates every formula with Python floats, operation
for operation in the same order, and the tests compare the two bit for
bit, so they check the transcription as well as the branching.  Every
step is an IEEE + - * / sqrt abs max, and |r - C|**3 is taken with
Python's float ** (libm pow) element by element, because numpy's power
differs from it in the last bit for some arguments.  Every quantity is
even in x, bit for bit: x enters only as |x| (the narrowed width) and as
dx * dx (the source distance), so the field map evaluates x >= 0 and
mirrors it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import GeometryError, ShadowedError

NM_PER_MM = 1.0e6
NM2_PER_UM2 = 1.0e6

WAFER_RADIUS_MM = 50.0      # 100-mm round wafer
SQUARE_HALF_MM = 35.0       # 70x70 mm cleaved TSV wafer

# Designed junction length along the electrode axis for bridge-style
# junctions; a free layout constant, not position dependent.
DOLAN_OVERLAP_LENGTH_NM = 200.0


class Variant(str, Enum):
    DOLAN = "dolan"
    MANHATTAN = "manhattan"


# Integer codes of variant columns: code k stands for VARIANTS[k], and
# VARIANT_CODES maps each variant back to its code.  The codes sort as the
# variant names do.
VARIANTS = tuple(sorted(Variant, key=lambda v: v.value))
VARIANT_CODES = {v: code for code, v in enumerate(VARIANTS)}


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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_mm) and math.isfinite(self.y_mm)):
            raise GeometryError(
                f"wafer coordinates must be finite, got ({self.x_mm}, {self.y_mm})")

    def radius_mm(self) -> float:
        return math.hypot(self.x_mm, self.y_mm)


_WIDTHS_NOT_FINITE = "designed widths must be finite"
_WIDTHS_NEGATIVE = "designed widths must be >= 0"
_DOLAN_BASIC_ONLY = "bridge-style junctions are modeled at basic fidelity only"


@dataclass(frozen=True)
class JunctionDesign:
    """Designed (drawn) electrode widths of one junction, in nm."""

    variant: Variant
    w_bottom_nm: float
    w_top_nm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w_bottom_nm) and math.isfinite(self.w_top_nm)):
            raise GeometryError(_WIDTHS_NOT_FINITE)
        if self.w_bottom_nm < 0.0 or self.w_top_nm < 0.0:
            raise GeometryError(_WIDTHS_NEGATIVE)

    def designed_area_um2(self) -> float:
        return designed_areas(np.array(VARIANT_CODES[self.variant]), self.w_bottom_nm,
                              self.w_top_nm).item()


def designed_areas(variant: np.ndarray, w_b_nm, w_t_nm) -> np.ndarray:
    """Designed overlap area in um^2 per element: the bottom times the top
    width of a crossed junction, the top width times DOLAN_OVERLAP_LENGTH_NM
    of a bridge junction.  variant holds VARIANTS codes."""
    dolan = variant == VARIANT_CODES[Variant.DOLAN]
    return _crossed_area(np.where(dolan, DOLAN_OVERLAP_LENGTH_NM, w_b_nm), w_t_nm)


def source_distance(geom: EvaporatorGeometry) -> float:
    """Distance in mm from the source to the exposed wafer plane."""
    return geom.source_distance_nm() / NM_PER_MM


# ---------------------------------------------------------------------------
# Array kernels: many points (and widths) at once, through Sites.  The model
# expressions that several of them share are written here once; the rest
# are Sites' terms.

def _printed(geom: EvaporatorGeometry, w_designed_nm, shade_nm):
    """Deposited width: designed width plus the exposure offset, less a shade."""
    return w_designed_nm + geom.dw_offset_nm - shade_nm


def _edge_shade(geom: EvaporatorGeometry, coord_mm, d_nm):
    """|coord| * H / D: the resist edge's shadow on a line at offset coord."""
    return abs(coord_mm) * NM_PER_MM * geom.h_resist_nm / d_nm


def _crossed_area(w_b_nm, w_t_nm):
    """Overlap area in um^2 of crossing lines w_b and w_t wide, in nm; a
    bridge junction is one whose w_b is DOLAN_OVERLAP_LENGTH_NM."""
    return w_b_nm * w_t_nm / NM2_PER_UM2


def _cubed(r: np.ndarray) -> np.ndarray:
    """r**3 per element with Python float ** (libm pow), not numpy's power."""
    return np.fromiter(map(pow, r.ravel().tolist(), repeat(3)), float,
                       r.size).reshape(r.shape)


def _points(*values) -> tuple[np.ndarray, ...]:
    return np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values))


class Sites:
    """Wafer points prepared for the model under one geometry.

    x_mm and y_mm broadcast against each other.  The terms that depend only
    on position and geometry (|r - C|**3, the bottom thickness, which is
    also dH, the lip width, the resist shade, the |y|/D slope and the
    narrowing shades) are computed on first use and then kept, so areas and
    field can be evaluated for many widths at the cost of the
    width-dependent part alone.  Designed widths broadcast against the
    points; an element whose electrode pinches off comes back with ok False
    instead of raising, and its value is meaningless.
    """

    def __init__(self, geom: EvaporatorGeometry, x_mm, y_mm):
        self.geom = geom
        self.x, self.y = _points(x_mm, y_mm)

    @cached_property
    def _r3(self) -> np.ndarray:
        """|r - C|**3 with C the source position, in nm^3."""
        dy = self.y * NM_PER_MM - self.geom.crucible_y_nm()
        dx = self.x * NM_PER_MM
        d = self.geom.source_distance_nm()
        return _cubed(np.sqrt(dx * dx + dy * dy + d * d))

    @cached_property
    def _thickness(self) -> np.ndarray:
        """T'_b = T_b * (D'-R)^2 * D / |r-C|^3, also the resist-height increase dH."""
        geom = self.geom
        dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
        return geom.t_bottom_nm * dr * dr * geom.source_distance_nm() / self._r3

    @cached_property
    def _lip(self) -> np.ndarray:
        """W_lip = -T_b * (D'-R)^2 * (D'*sin(alpha) - y) / |r-C|^3."""
        geom = self.geom
        dr = (geom.d_prime_mm - geom.r_pivot_mm) * NM_PER_MM
        return -geom.t_bottom_nm * dr * dr * self._south_of_source / self._r3

    @cached_property
    def _resist_shade(self) -> np.ndarray:
        """(H + dH) * |y| / D: shadow of the resist edge raised by dH."""
        return (self.geom.h_resist_nm + self._thickness) * self._slope

    @cached_property
    def _north_shade(self) -> np.ndarray:
        """The top electrode's shade north of centre: lip plus raised resist."""
        return self._lip + self._resist_shade

    @cached_property
    def _north(self) -> np.ndarray:
        return self.y >= 0.0

    @cached_property
    def _south_of_source(self) -> np.ndarray:
        """D'*sin(alpha) - y in nm."""
        return self.geom.crucible_y_nm() - self.y * NM_PER_MM

    @cached_property
    def _slope(self) -> np.ndarray:
        """|y| / D."""
        return abs(self.y) * NM_PER_MM / self.geom.source_distance_nm()

    @cached_property
    def _shade_x(self) -> np.ndarray:
        return _edge_shade(self.geom, self.x, self.geom.source_distance_nm())

    @cached_property
    def _shade_y(self) -> np.ndarray:
        return _edge_shade(self.geom, self.y, self.geom.source_distance_nm())

    @cached_property
    def _shade_x_bridge(self) -> np.ndarray:
        return _edge_shade(self.geom, self.x, self.geom.bridge_distance_nm())

    def _lip_height(self, w_top_nm) -> np.ndarray:
        """H_lip = D * W_t / (D'*sin(alpha) - y), unchecked."""
        return self.geom.source_distance_nm() * w_top_nm / self._south_of_source

    def _top_widths(self, w_top_nm) -> np.ndarray:
        """Top-electrode width with first-evaporation lip shading, unchecked.

        The shading term is piecewise in y: north of centre (y >= 0) the lip
        width plus the raised-resist shadow apply together; south of centre
        the larger of the raised-resist shadow and the lip shadow wins.
        """
        # The lip shadow counts only where y < 0.  Elsewhere its denominator
        # D'*sin(alpha) - y can be zero or negative; those values are discarded.
        # With the source overhead (alpha = 0) and y < 0 tiny, H_lip overflows
        # to inf, so the electrode pinches off; where |y|/D is 0 too, the lip
        # shadow is inf * 0, which fmax, like max of two floats, ignores.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # W_lip + (H_lip + dH) * |y| / D: the lip's shadow south of centre.
            lip = self._lip + (self._lip_height(w_top_nm) + self._thickness) * self._slope
            south = np.fmax(self._resist_shade, lip)
        return _printed(self.geom, w_top_nm, np.where(self._north, self._north_shade, south))

    def areas(self, variant: Variant, w_b_nm, w_t_nm,
              fidelity: Fidelity) -> tuple[np.ndarray, np.ndarray]:
        """Actual junction overlap area in um^2 per element: (area, ok).

        Bridge-style junctions (both electrodes vertical) are evaporated at
        the bridge tilt alpha_dolan and supported at BASIC fidelity only:
        the narrower top electrode width W'_t(x) times a fixed designed
        overlap length.  Crossed junctions use W'_b(x) * W'_t(y) at BASIC,
        add the 2*T'_b sidewall term at SIDEWALL, and additionally replace
        W'_t with the lip-shaded width at FULL.  Designed widths are checked
        as JunctionDesign checks them; ok is False where an electrode
        pinches off.
        """
        w_b, w_t, _ = _points(w_b_nm, w_t_nm, self.x)   # the shape of widths and points
        if not (np.isfinite(w_b).all() and np.isfinite(w_t).all()):
            raise GeometryError(_WIDTHS_NOT_FINITE)
        if (w_b < 0.0).any() or (w_t < 0.0).any():
            raise GeometryError(_WIDTHS_NEGATIVE)
        geom = self.geom
        if variant is Variant.DOLAN:
            if fidelity is not Fidelity.BASIC:
                raise GeometryError(_DOLAN_BASIC_ONLY)
            w = _printed(geom, w_t, self._shade_x_bridge)
            return _crossed_area(DOLAN_OVERLAP_LENGTH_NM, w), w > 0.0

        w_b = _printed(geom, w_b, self._shade_x)
        ok = w_b > 0.0
        if fidelity is Fidelity.BASIC:
            w_t = _printed(geom, w_t, self._shade_y)
        else:
            w_b = w_b + 2.0 * self._thickness
            if fidelity is Fidelity.SIDEWALL:
                w_t = _printed(geom, w_t, self._shade_y)
            else:
                w_t = self._top_widths(w_t)
        return _crossed_area(w_b, w_t), ok & (w_t > 0.0)

    def field(self, quantity: str, design: JunctionDesign,
              fidelity: Fidelity = Fidelity.FULL) -> tuple[np.ndarray, np.ndarray]:
        """One model quantity at each point, for field-map export: (value, ok).

        Widths and thicknesses are in nm, areas in um^2.  ok is False where
        an electrode pinches off (a blank field-map cell).  'hlip' raises
        GeometryError, naming the first point north of the source projection.
        """
        everywhere = np.ones(self.x.shape, bool)
        if quantity == "wb":
            value = _printed(self.geom, design.w_bottom_nm, self._shade_x)
        elif quantity == "wt":
            value = _printed(self.geom, design.w_top_nm, self._shade_y)
        elif quantity == "tb":
            return self._thickness, everywhere
        elif quantity == "wlip":
            return self._lip, everywhere
        elif quantity == "hlip":
            north = self._south_of_source <= 0.0
            if north.any():
                y = float(self.y.flat[np.argmax(north)])
                raise GeometryError(f"point y={y} mm is not south of the source projection")
            # Just south of an overhead source H_lip overflows to inf, as in _top_widths.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                h_lip = self._lip_height(design.w_top_nm)
            return h_lip, everywhere
        elif quantity == "wt_full":
            value = self._top_widths(design.w_top_nm)
        elif quantity == "area":
            return self.areas(design.variant, design.w_bottom_nm, design.w_top_nm, fidelity)
        else:
            raise ValueError(f"unknown field quantity {quantity!r}")
        return value, value > 0.0


def overlap_areas(geom: EvaporatorGeometry, variant: Variant, w_b_nm, w_t_nm,
                  x_mm, y_mm, fidelity: Fidelity) -> tuple[np.ndarray, np.ndarray]:
    """Actual junction overlap area in um^2 per element: (area, ok); see
    Sites.areas.  Widths and points broadcast against each other."""
    return Sites(geom, x_mm, y_mm).areas(variant, w_b_nm, w_t_nm, fidelity)


def variant_areas(geom: EvaporatorGeometry, variant: np.ndarray, w_b_nm: np.ndarray,
                  w_t_nm: np.ndarray, x_mm: np.ndarray, y_mm: np.ndarray,
                  fidelity: Fidelity) -> np.ndarray:
    """Actual overlap area in um^2 of each structure, from columns.

    variant holds VARIANTS codes.  The structures of each variant go
    through one overlap_areas call at fidelity.for_variant(variant).
    Raises ShadowedError for the first structure, in input order, where an
    electrode pinches off.
    """
    areas, ok = np.empty(len(variant)), np.ones(len(variant), dtype=bool)
    for code in np.unique(variant).tolist():
        idx = np.flatnonzero(variant == code)
        v = VARIANTS[code]
        areas[idx], ok[idx] = overlap_areas(geom, v, w_b_nm[idx], w_t_nm[idx],
                                            x_mm[idx], y_mm[idx], fidelity.for_variant(v))
    if not ok.all():
        i = int(np.argmin(ok))
        raise _shadowed(WaferPoint(float(x_mm[i]), float(y_mm[i])))
    return areas


# Field-map quantity names accepted by field_values (and the CLI).
FIELD_QUANTITIES = ("wb", "wt", "tb", "wlip", "hlip", "wt_full", "area")


def field_values(geom: EvaporatorGeometry, quantity: str, x_mm, y_mm,
                 design: JunctionDesign,
                 fidelity: Fidelity = Fidelity.FULL) -> tuple[np.ndarray, np.ndarray]:
    """One model quantity at each point, for field-map export: (value, ok);
    see Sites.field."""
    return Sites(geom, x_mm, y_mm).field(quantity, design, fidelity)


# ---------------------------------------------------------------------------
# One-point functions: a WaferPoint in, a Python float out, ShadowedError
# where an electrode pinches off.  All but actual_width_vertical are
# one-element calls of the array kernels.

def _shadowed(p: WaferPoint) -> ShadowedError:
    return ShadowedError(f"electrode fully shadowed at ({p.x_mm}, {p.y_mm}) mm")


def _top_line(w_top_nm: float) -> JunctionDesign:
    """A crossed design for the quantities that read the top width alone."""
    return JunctionDesign(Variant.MANHATTAN, 0.0, w_top_nm)


def actual_width_vertical(geom: EvaporatorGeometry, w_designed_nm: float,
                          coord_mm: float) -> float:
    """Deposited width of an electrode running along y, at offset x.

    W'(x) = W + dW_offset - |x| * H / D.  Also used for the horizontal
    (top) electrode of a crossed junction with coord = y, since the second
    evaporation is the same geometry rotated 90 degrees in azimuth.
    """
    w = _printed(geom, w_designed_nm, _edge_shade(geom, coord_mm, geom.source_distance_nm()))
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
    return evaluate_field(geom, "tb", p, _top_line(0.0))


def lip_width(geom: EvaporatorGeometry, p: WaferPoint) -> float:
    """Signed width of the first-evaporation lip on the southern resist edge.

    Evaluated exactly as printed, -T_b*(D'-R)^2*(D'*sin(alpha)-y)/|r-C|^3,
    leading minus sign included; negative everywhere on-wafer.
    """
    return evaluate_field(geom, "wlip", p, _top_line(0.0))


def lip_height(geom: EvaporatorGeometry, w_top_nm: float, p: WaferPoint) -> float:
    """Lip height H_lip(r) = D * W_t / (D'*sin(alpha) - y) in nm."""
    return evaluate_field(geom, "hlip", p, _top_line(w_top_nm))


def actual_top_width(geom: EvaporatorGeometry, w_top_nm: float, p: WaferPoint) -> float:
    """Top-electrode width including first-evaporation lip shading, in nm.

    At FULL fidelity the shading is piecewise in y (see Sites._top_widths), so
    the width jumps at y = 0: for a 200 nm line at the default geometry it
    is ~225.0 nm just south of the equator and ~245.9 nm at y = 0.
    """
    return evaluate_field(geom, "wt_full", p, _top_line(w_top_nm))


def actual_overlap_area(geom: EvaporatorGeometry, design: JunctionDesign,
                        p: WaferPoint, fidelity: Fidelity) -> float:
    """Actual junction overlap area in um^2 at the requested fidelity.

    See overlap_areas for the model at each fidelity.
    """
    return evaluate_field(geom, "area", p, design, fidelity)


def evaluate_field(geom: EvaporatorGeometry, quantity: str, p: WaferPoint,
                   design: JunctionDesign,
                   fidelity: Fidelity = Fidelity.FULL) -> float:
    """One model quantity at one wafer point (see field_values)."""
    value, ok = field_values(geom, quantity, p.x_mm, p.y_mm, design, fidelity)
    if not ok:
        raise _shadowed(p)
    return float(value)


_HYPOT_SLACK = 1e-12        # far above the few-ulp gap between the two hypots


def within_radius(dx_mm, dy_mm, r_mm) -> np.ndarray:
    """math.hypot(dx, dy) <= r per element.

    numpy's hypot can differ from math.hypot in the last bit, so elements
    whose numpy distance lies within rounding of r are decided by
    math.hypot, and the result matches a scalar loop exactly.
    """
    dx, dy, r = _points(dx_mm, dy_mm, r_mm)
    h = np.hypot(dx, dy)
    near = np.abs(h - r) <= _HYPOT_SLACK * np.abs(r)
    if near.any():
        h[near] = list(map(math.hypot, dx[near].tolist(), dy[near].tolist()))
    return h <= r
