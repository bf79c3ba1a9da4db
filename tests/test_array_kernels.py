"""The array kernels against the scalar functions: exact equality, same blanks."""

import math

import numpy as np
import pytest

from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import (
    FIELD_QUANTITIES,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
    evaluate_field,
    field_values,
    overlap_areas,
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


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
@pytest.mark.parametrize("design", DESIGNS.values(), ids=DESIGNS)
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("quantity", FIELD_QUANTITIES)
def test_field_values_equal_evaluate_field(geom, design, fidelity, quantity):
    xs, ys = X.ravel(), Y.ravel()
    values, ok = field_values(geom, quantity, xs, ys, design, fidelity)
    scalars = [scalar_or_none(lambda: evaluate_field(geom, quantity, WaferPoint(x, y),
                                                     design, fidelity))
               for x, y in zip(xs.tolist(), ys.tolist())]
    assert_matches(values, ok, scalars)


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
def test_grid_straddles_pinch_off(geom):
    for quantity in ("wb", "wt", "wt_full", "area"):
        _, ok = field_values(geom, quantity, X, Y, DESIGNS["narrow"])
        assert ok.any() and not ok.all()
        _, ok = field_values(geom, quantity, X, Y, DESIGNS["wide"])
        assert ok.all()


@pytest.mark.parametrize("geom", GEOMETRIES.values(), ids=GEOMETRIES)
@pytest.mark.parametrize("fidelity", list(Fidelity))
def test_overlap_areas_per_element_widths(geom, fidelity):
    # Widths vary per element as in a lockstep solve, both variants.
    rng = np.random.default_rng(5)
    n = 400
    w_b, w_t = rng.uniform(0.0, 400.0, n), rng.uniform(0.0, 400.0, n)
    x, y = rng.uniform(-50.0, 50.0, n), rng.uniform(-50.0, 50.0, n)
    for variant in Variant:
        fid = fidelity.for_variant(variant)
        area, ok = overlap_areas(geom, variant, w_b, w_t, x, y, fid)
        scalars = [scalar_or_none(lambda: actual_overlap_area(
            geom, JunctionDesign(variant, b, t), WaferPoint(px, py), fid))
            for b, t, px, py in zip(w_b.tolist(), w_t.tolist(), x.tolist(), y.tolist())]
        assert any(s is None for s in scalars) and any(s is not None for s in scalars)
        assert_matches(area, ok, scalars)


def test_overlap_areas_checks_like_the_scalar_path(geom):
    with pytest.raises(GeometryError, match="basic fidelity only"):
        overlap_areas(geom, Variant.DOLAN, 300.0, 100.0, 0.0, 0.0, Fidelity.FULL)
    with pytest.raises(GeometryError, match="must be finite"):
        overlap_areas(geom, Variant.MANHATTAN, [200.0, math.nan], 200.0, 0.0, 0.0,
                      Fidelity.BASIC)
    with pytest.raises(GeometryError, match=">= 0"):
        overlap_areas(geom, Variant.MANHATTAN, 200.0, [-1.0], 0.0, 0.0, Fidelity.BASIC)


def test_lip_height_north_of_source_raises_like_scalar(design_200):
    # At zero tilt the source projects onto the wafer centre, so the lip
    # height is undefined from y = 0 northward.
    flat = EvaporatorGeometry(alpha_deg=0.0)
    with pytest.raises(GeometryError) as scalar:
        evaluate_field(flat, "hlip", WaferPoint(1.0, 0.0), design_200)
    with pytest.raises(GeometryError) as array:
        field_values(flat, "hlip", [1.0, 1.0, 1.0], [-2.0, 0.0, 3.0], design_200)
    assert str(array.value) == str(scalar.value)
    values, ok = field_values(flat, "wt_full", X, Y, design_200)   # south branch only
    scalars = [scalar_or_none(lambda: evaluate_field(flat, "wt_full", WaferPoint(x, y),
                                                     design_200))
               for x, y in zip(X.ravel().tolist(), Y.ravel().tolist())]
    assert_matches(values.ravel(), ok.ravel(), scalars)


def test_unknown_quantity(geom, design_200):
    with pytest.raises(ValueError):
        field_values(geom, "nope", [0.0], [0.0], design_200)


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
