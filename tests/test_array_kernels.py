"""Sites and its one-point wrappers against the scalar
reference model (tests/scalar_model.py): exact equality, same blanks."""

import math
from pathlib import Path

import numpy as np
import pytest

import scalar_model
from jjshadow.config import load_config
from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import (
    FIELD_QUANTITIES,
    NM_PER_MM,
    VARIANTS,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    actual_overlap_area,
    actual_top_width,
    bottom_thickness,
    evaluate_field,
    lip_height,
    lip_width,
    variant_areas,
    within_radius,
)

GEOMETRIES = {
    "default": EvaporatorGeometry(),
    "tilted-thick": EvaporatorGeometry(alpha_dolan_deg=25.0, h_resist_nm=750.0),
}
# 200 nm lines print everywhere; 10/30 nm lines pinch off part of the wafer.
DESIGNS = {
    "wide": JunctionDesign(Variant.MANHATTAN, 200.0, 200.0),
    "narrow": JunctionDesign(Variant.MANHATTAN, 10.0, 30.0),
}
# 2.5 mm grid over the 100 mm square: includes the y = 0 row and x = 0 column.
GRID = np.arange(-20, 21) * 2.5
X, Y = np.meshgrid(GRID, GRID)
# The one-point wrappers cost a kernel call each, so they are checked on
# the 10 mm sub-grid, which still has the y = 0 row and blank cells.
COARSE = [WaferPoint(x, y) for y in GRID[::4].tolist() for x in GRID[::4].tolist()]


def scalar_or_none(fn):
    try:
        return fn()
    except ShadowedError:
        return None


def assert_matches(values, ok, scalars):
    """values/ok from a kernel equal the scalar results; None is a blank."""
    assert values.shape == ok.shape == (len(scalars),)
    blanks = [v is None for v in scalars]
    assert (~ok).tolist() == blanks
    got = values.tolist()
    for v, want, blank in zip(got, scalars, blanks):
        if not blank:
            assert v == want


def assert_wrapper_matches(wrapper, reference, points):
    """A one-point wrapper returns the reference's float, or raises with it."""
    for p in points:
        want = scalar_or_none(lambda: reference(p))
        if want is None:
            with pytest.raises(ShadowedError, match=rf"\({p.x_mm}, {p.y_mm}\) mm"):
                wrapper(p)
        else:
            got = wrapper(p)
            assert type(got) is float and got == want


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
@pytest.mark.parametrize("design", DESIGNS.values(), ids=DESIGNS)
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("quantity", FIELD_QUANTITIES)
def test_sites_field_equal_evaluate_field(geom, design, fidelity, quantity):
    xs, ys = X.ravel(), Y.ravel()
    values, ok = Sites(geom, xs, ys).field(quantity, design, fidelity)
    scalars = [scalar_or_none(lambda: scalar_model.evaluate_field(
        geom, quantity, WaferPoint(x, y), design, fidelity))
        for x, y in zip(xs.tolist(), ys.tolist())]
    assert_matches(values, ok, scalars)
    assert_wrapper_matches(
        lambda p: evaluate_field(geom, quantity, p, design, fidelity),
        lambda p: scalar_model.evaluate_field(geom, quantity, p, design, fidelity),
        COARSE)


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
def test_point_functions_equal_scalar_model(geom):
    for w_top in (30.0, 200.0):
        for public, reference in ((actual_top_width, scalar_model.actual_top_width),
                                  (lip_height, scalar_model.lip_height)):
            assert_wrapper_matches(lambda p: public(geom, w_top, p),
                                   lambda p: reference(geom, w_top, p), COARSE)
    for public, reference in ((bottom_thickness, scalar_model.bottom_thickness),
                              (lip_width, scalar_model.lip_width)):
        assert_wrapper_matches(lambda p: public(geom, p), lambda p: reference(geom, p),
                               COARSE)


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
def test_grid_straddles_pinch_off(geom):
    for quantity in ("wb", "wt", "wt_full", "area"):
        _, ok = Sites(geom, X, Y).field(quantity, DESIGNS["narrow"])
        assert ok.any() and not ok.all()
        _, ok = Sites(geom, X, Y).field(quantity, DESIGNS["wide"])
        assert ok.all()


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
@pytest.mark.parametrize("fidelity", list(Fidelity))
def test_sites_areas_per_element_widths(geom, fidelity):
    # Widths vary per element as in a lockstep solve, both variants.
    rng = np.random.default_rng(5)
    n = 400
    w_b, w_t = rng.uniform(0.0, 400.0, n), rng.uniform(0.0, 400.0, n)
    x, y = rng.uniform(-50.0, 50.0, n), rng.uniform(-50.0, 50.0, n)
    for variant in Variant:
        fid = fidelity.for_variant(variant)
        designs = [JunctionDesign(variant, b, t) for b, t in zip(w_b.tolist(), w_t.tolist())]
        points = [WaferPoint(px, py) for px, py in zip(x.tolist(), y.tolist())]
        area, ok = Sites(geom, x, y).areas(variant, w_b, w_t, fid)
        scalars = [scalar_or_none(lambda: scalar_model.actual_overlap_area(geom, d, p, fid))
                   for d, p in zip(designs, points)]
        assert any(s is None for s in scalars) and any(s is not None for s in scalars)
        assert_matches(area, ok, scalars)
        for d, p in zip(designs[:40], points[:40]):
            assert_wrapper_matches(lambda q: actual_overlap_area(geom, d, q, fid),
                                   lambda q: scalar_model.actual_overlap_area(geom, d, q, fid),
                                   [p])


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
@pytest.mark.parametrize("fidelity", list(Fidelity))
def test_structure_areas_in_input_order(geom, fidelity):
    # variant_areas on mixed variants, interleaved: each structure gets its
    # variant's fidelity, in input order.
    rng = np.random.default_rng(8)
    n = 300
    designs = [JunctionDesign(Variant.DOLAN if k % 3 else Variant.MANHATTAN, b, t)
               for k, (b, t) in enumerate(zip(rng.uniform(150.0, 300.0, n).tolist(),
                                              rng.uniform(150.0, 300.0, n).tolist()))]
    points = [WaferPoint(px, py) for px, py in
              zip(rng.uniform(-35.0, 35.0, n).tolist(), rng.uniform(-35.0, 35.0, n).tolist())]

    def areas(designs, points):
        codes = np.array([VARIANTS.index(d.variant) for d in designs], dtype=np.int8)
        return variant_areas(geom, codes, np.array([d.w_bottom_nm for d in designs]),
                             np.array([d.w_top_nm for d in designs]),
                             np.array([p.x_mm for p in points]),
                             np.array([p.y_mm for p in points]), fidelity)

    assert areas(designs, points).tolist() == [
        scalar_model.actual_overlap_area(geom, d, p, fidelity.for_variant(d.variant))
        for d, p in zip(designs, points)]
    assert areas([], []).shape == (0,)
    # Two pinched-off structures: the error names the first in input order.
    thin = JunctionDesign(Variant.MANHATTAN, 5.0, 200.0)
    with pytest.raises(ShadowedError, match=r"\(-40.0, 1.0\) mm"):
        areas(designs[:5] + [thin, thin],
              points[:5] + [WaferPoint(-40.0, 1.0), WaferPoint(30.0, 2.0)])


def test_sites_areas_checks_like_the_scalar_path(geom):
    with pytest.raises(GeometryError, match="basic fidelity only"):
        Sites(geom, 0.0, 0.0).areas(Variant.DOLAN, 300.0, 100.0, Fidelity.FULL)
    with pytest.raises(GeometryError, match="must be finite"):
        Sites(geom, 0.0, 0.0).areas(Variant.MANHATTAN, [200.0, math.nan], 200.0,
                                    Fidelity.BASIC)
    with pytest.raises(GeometryError, match=">= 0"):
        Sites(geom, 0.0, 0.0).areas(Variant.MANHATTAN, 200.0, [-1.0], Fidelity.BASIC)


def test_lip_height_north_of_source_raises_like_scalar(design_200):
    # At zero tilt the source projects onto the wafer centre, so the lip
    # height is undefined from y = 0 northward.
    flat = EvaporatorGeometry(alpha_deg=0.0)
    with pytest.raises(GeometryError) as scalar:
        scalar_model.evaluate_field(flat, "hlip", WaferPoint(1.0, 0.0), design_200)
    with pytest.raises(GeometryError) as array:
        Sites(flat, [1.0, 1.0, 1.0], [-2.0, 0.0, 3.0]).field("hlip", design_200)
    with pytest.raises(GeometryError) as point:
        evaluate_field(flat, "hlip", WaferPoint(1.0, 0.0), design_200)
    assert str(array.value) == str(point.value) == str(scalar.value)
    values, ok = Sites(flat, X, Y).field("wt_full", design_200)   # south branch only
    scalars = [scalar_or_none(lambda: scalar_model.evaluate_field(
        flat, "wt_full", WaferPoint(x, y), design_200))
               for x, y in zip(X.ravel().tolist(), Y.ravel().tolist())]
    assert_matches(values.ravel(), ok.ravel(), scalars)


def test_unknown_quantity(geom, design_200):
    with pytest.raises(ValueError):
        Sites(geom, [0.0], [0.0]).field("nope", design_200)


def test_within_radius_decides_like_math_hypot():
    rng = np.random.default_rng(11)
    dx, dy = rng.uniform(-1.0, 1.0, 20_000), rng.uniform(-1.0, 1.0, 20_000)
    exact = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    # numpy's hypot rounds some of these pairs differently; exactly at the
    # radius, and one ulp inside it, must still follow math.hypot.
    assert (np.hypot(dx, dy) != exact).any()
    assert within_radius(dx, dy, exact).all()
    assert not within_radius(dx, dy, np.nextafter(exact, 0.0)).any()
    assert within_radius(np.empty(0), np.empty(0), 1.0).shape == (0,)


# The field map evaluates x >= 0 only and mirrors each row, so every
# quantity must be even in x, bit for bit, at any geometry.
MIRROR_GEOMETRIES = {
    "default": EvaporatorGeometry(),
    "non-default": load_config(Path(__file__).parent / "data" / "non-default.cfg").geometry,
}


def pinch_off_mm(geom, w_nm, d_nm):
    """Offset where a w_nm line narrowed over distance d_nm prints 0 nm wide."""
    return (w_nm + geom.dw_offset_nm) * d_nm / (geom.h_resist_nm * NM_PER_MM)


def mirror_samples(rng, edges_mm):
    """Offsets >= 0: uniform over the wafer, 0, and each pinch-off edge with
    the floats on either side of it."""
    edges = np.array(edges_mm)
    return np.concatenate([rng.uniform(0.0, 50.0, 120), [0.0], edges,
                           np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


def assert_even_in_x(kernel, x, y):
    """kernel(x, y) and kernel(-x, y) return the same bits, values and ok;
    returns the ok mask."""
    east, west = kernel(x, y), kernel(-x, y)
    for a, b in zip(east, west):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return east[1]


@pytest.mark.parametrize("geom", MIRROR_GEOMETRIES.values(), ids=MIRROR_GEOMETRIES)
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("quantity", FIELD_QUANTITIES)
def test_sites_field_even_in_x(geom, fidelity, quantity):
    rng = np.random.default_rng(20231018)
    d = geom.source_distance_nm()
    for design in DESIGNS.values():
        edges = [pinch_off_mm(geom, w, d) for w in (design.w_bottom_nm, design.w_top_nm)]
        x = mirror_samples(rng, edges)[:, None]
        offsets = mirror_samples(rng, edges)
        y = np.concatenate([offsets, -offsets])[None, :]
        ok = assert_even_in_x(
            lambda px, py: Sites(geom, px, py).field(quantity, design, fidelity), x, y)
        if design is DESIGNS["narrow"] and quantity in ("wb", "wt", "wt_full", "area"):
            assert ok.any() and not ok.all()


@pytest.mark.parametrize("geom", MIRROR_GEOMETRIES.values(), ids=MIRROR_GEOMETRIES)
def test_bridge_areas_even_in_x(geom):
    rng = np.random.default_rng(20231019)
    w_t = np.array([15.0, 20.0, 200.0])[:, None, None]
    edges = [pinch_off_mm(geom, w, geom.bridge_distance_nm()) for w in w_t.ravel().tolist()]
    x = mirror_samples(rng, edges)[None, :, None]
    y = rng.uniform(-50.0, 50.0, 40)[None, None, :]
    ok = assert_even_in_x(lambda px, py: Sites(geom, px, py).areas(Variant.DOLAN, 300.0, w_t,
                                                                   Fidelity.BASIC), x, y)
    assert ok.any() and not ok.all()
