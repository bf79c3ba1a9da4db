"""geometry.Sites, the prepared points behind every array kernel: exact
against the scalar reference model (tests/scalar_model.py) on sampled
points and widths, reusable across width sets, and computing |r - C|**3
once per point set (counted through geometry._cubed)."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_model
from jjshadow import geometry
from jjshadow.compensation import compensated_layout
from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import (
    FIELD_QUANTITIES,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    _edge_shade,
)
from jjshadow.layout import build_tsv_17q

GEOMETRIES = [
    EvaporatorGeometry(),
    EvaporatorGeometry(alpha_dolan_deg=25.0, h_resist_nm=750.0, dw_offset_nm=0.0),
    EvaporatorGeometry(alpha_deg=0.0),      # source overhead: 'hlip' fails for y >= 0
]
EDGE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 50.0, -50.0, 1e-9, -1e-9]
COORD = st.one_of(st.sampled_from(EDGE_COORDS),
                  st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False))
EDGE_WIDTHS = [0.0, 5e-324, 1.0, 200.0, 2000.0]


def bits(value) -> str:
    """The exact bits of a float, -0.0 told apart from 0.0."""
    return float(value).hex()


def pinch_off_widths(geom, x_mm, y_mm):
    """Designed widths at which a narrowed electrode at (x, y) just prints or
    just pinches off: the shade less the offset, and one ulp either side."""
    out = []
    for coord, d in ((x_mm, geom.source_distance_nm()), (y_mm, geom.source_distance_nm()),
                     (x_mm, geom.bridge_distance_nm())):
        w = _edge_shade(geom, coord, d) - geom.dw_offset_nm
        out += [max(v, 0.0) for v in (w, math.nextafter(w, -math.inf),
                                      math.nextafter(w, math.inf))]
    return out


@st.composite
def widths_at(draw, geom, x_mm, y_mm):
    """A designed width: an edge value, any value up to 2000 nm, or one at
    the pinch-off of an electrode at (x, y)."""
    return draw(st.one_of(st.sampled_from(EDGE_WIDTHS),
                          st.floats(0.0, 2000.0, allow_nan=False),
                          st.sampled_from(pinch_off_widths(geom, x_mm, y_mm))))


def scalar_outcome(fn):
    """('value', bits), ('blank', None) or ('error', message) of a scalar call."""
    try:
        return "value", bits(fn())
    except ShadowedError:
        return "blank", None
    except GeometryError as exc:
        return "error", str(exc)


def assert_kernel_matches(kernel, outcomes):
    """kernel() gives (value, ok) equal, bit for bit and blank for blank, to
    the scalar outcomes; or raises the first scalar error's message."""
    errors = [why for kind, why in outcomes if kind == "error"]
    if errors:
        with pytest.raises(GeometryError) as exc:
            kernel()
        assert str(exc.value) == errors[0]
        return
    values, ok = kernel()
    values, ok = np.asarray(values), np.asarray(ok)
    assert values.shape == ok.shape == (len(outcomes),)
    assert (~ok).tolist() == [kind == "blank" for kind, _ in outcomes]
    assert [bits(v) if good else None for v, good in zip(values.tolist(), ok.tolist())] == \
        [b for _, b in outcomes]


@st.composite
def area_cases(draw):
    """Arguments of one Sites.areas call, with per-element scalar designs
    and points: arrays of both, one point against arrays of widths, or
    arrays of points against one pair of widths."""
    geom = draw(st.sampled_from(GEOMETRIES))
    variant = draw(st.sampled_from(list(Variant)))
    fidelity = draw(st.sampled_from(list(Fidelity)))
    shape = draw(st.sampled_from(["arrays", "one-point", "one-width"]))
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(COORD, min_size=n, max_size=n))
    ys = draw(st.lists(COORD, min_size=n, max_size=n))
    if shape == "one-point":
        xs, ys = [xs[0]] * n, [ys[0]] * n
    w_b = [draw(widths_at(geom, x, y)) for x, y in zip(xs, ys)]
    w_t = [draw(widths_at(geom, x, y)) for x, y in zip(xs, ys)]
    if shape == "one-width":
        w_b, w_t = [w_b[0]] * n, [w_t[0]] * n
    args = (np.array(w_b), np.array(w_t), np.array(xs), np.array(ys))
    if shape == "one-point":
        args = args[:2] + (xs[0], ys[0])
    elif shape == "one-width":
        args = (w_b[0], w_t[0]) + args[2:]
    return geom, variant, fidelity, args, list(zip(w_b, w_t, xs, ys))


@settings(max_examples=300, deadline=None)
@given(area_cases())
def test_sites_areas_equal_scalar_model(case):
    geom, variant, fidelity, (w_b, w_t, x, y), elements = case
    outcomes = [scalar_outcome(lambda: scalar_model.actual_overlap_area(
        geom, JunctionDesign(variant, wb, wt), WaferPoint(x, y), fidelity))
        for wb, wt, x, y in elements]
    assert_kernel_matches(lambda: Sites(geom, x, y).areas(variant, w_b, w_t, fidelity), outcomes)


@st.composite
def field_cases(draw):
    """Arguments of one Sites.field call: one design, points as arrays."""
    geom = draw(st.sampled_from(GEOMETRIES))
    quantity = draw(st.sampled_from(FIELD_QUANTITIES))
    fidelity = draw(st.sampled_from(list(Fidelity)))
    n = draw(st.integers(1, 6))
    xs = draw(st.lists(COORD, min_size=n, max_size=n))
    ys = draw(st.lists(COORD, min_size=n, max_size=n))
    design = JunctionDesign(draw(st.sampled_from(list(Variant))),
                            draw(widths_at(geom, xs[0], ys[0])),
                            draw(widths_at(geom, xs[-1], ys[-1])))
    return geom, quantity, fidelity, design, xs, ys


@settings(max_examples=300, deadline=None)
@given(field_cases())
def test_sites_field_equal_scalar_model(case):
    geom, quantity, fidelity, design, xs, ys = case
    outcomes = [scalar_outcome(lambda: scalar_model.evaluate_field(
        geom, quantity, WaferPoint(x, y), design, fidelity)) for x, y in zip(xs, ys)]
    assert_kernel_matches(
        lambda: Sites(geom, np.array(xs), np.array(ys)).field(quantity, design, fidelity),
        outcomes)
    # One point as Python floats: 0-d results.
    one = outcomes[:1]
    assert_kernel_matches(
        lambda: tuple(np.reshape(a, 1) for a in Sites(geom, xs[0], ys[0]).field(
            quantity, design, fidelity)), one)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_sites_for_many_width_sets_equals_fresh_calls(data):
    geom = data.draw(st.sampled_from(GEOMETRIES[:2]))
    variant = data.draw(st.sampled_from(list(Variant)))
    fidelity = Fidelity.BASIC if variant is Variant.DOLAN else \
        data.draw(st.sampled_from(list(Fidelity)))
    n = data.draw(st.integers(1, 6))
    xs = np.array(data.draw(st.lists(COORD, min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(COORD, min_size=n, max_size=n)))
    sites = Sites(geom, xs, ys)
    for _ in range(3):
        w_b = np.array([data.draw(widths_at(geom, x, y)) for x, y in zip(xs, ys)])
        w_t = np.array([data.draw(widths_at(geom, x, y)) for x, y in zip(xs, ys)])
        got, ok = sites.areas(variant, w_b, w_t, fidelity)
        want, want_ok = Sites(geom, xs, ys).areas(variant, w_b, w_t, fidelity)
        assert got.tobytes() == want.tobytes() and ok.tolist() == want_ok.tolist()
    design = JunctionDesign(variant, 200.0, 150.0)
    for quantity in FIELD_QUANTITIES:
        got, ok = sites.field(quantity, design, fidelity)
        want, want_ok = Sites(geom, xs, ys).field(quantity, design, fidelity)
        assert got.tobytes() == want.tobytes() and ok.tolist() == want_ok.tolist()


# ---------------------------------------------------------------------------
# |r - C|**3 is computed once per point set.

@pytest.fixture
def cubed_calls(monkeypatch):
    """The number of geometry._cubed calls made since the fixture started."""
    calls = []
    real = geometry._cubed

    def counting(r):
        calls.append(r.size)
        return real(r)

    monkeypatch.setattr(geometry, "_cubed", counting)
    return calls


@pytest.fixture(scope="module")
def tsv_layouts():
    return {v: build_tsv_17q(v) for v in Variant}


@pytest.mark.parametrize("fidelity", [Fidelity.SIDEWALL, Fidelity.FULL])
def test_compensation_cubes_each_point_set_once(cubed_calls, tsv_layouts, fidelity):
    # One call for the centre structure's target, one for the solved lanes.
    compensated_layout(tsv_layouts[Variant.MANHATTAN], EvaporatorGeometry(), fidelity)
    assert len(cubed_calls) <= 2


@pytest.mark.parametrize("variant, fidelity", [(Variant.MANHATTAN, Fidelity.BASIC),
                                               (Variant.DOLAN, Fidelity.FULL)])
def test_basic_compensation_cubes_nothing(cubed_calls, tsv_layouts, variant, fidelity):
    compensated_layout(tsv_layouts[variant], EvaporatorGeometry(), fidelity)
    assert cubed_calls == []


@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("quantity", FIELD_QUANTITIES)
def test_sites_field_cube_at_most_once(cubed_calls, geom, quantity, fidelity):
    xs, ys = np.meshgrid(np.linspace(-40.0, 40.0, 9), np.linspace(-40.0, 40.0, 9))
    Sites(geom, xs, ys).field(quantity, JunctionDesign(Variant.MANHATTAN, 200.0, 200.0),
                              fidelity)
    assert len(cubed_calls) <= 1


@pytest.mark.parametrize("y_mm", [-1e-300, -1e-310, -5e-324])
def test_source_overhead_near_the_equator(y_mm):
    # alpha = 0 puts the source over the centre: just south of it H_lip
    # overflows to inf (its field value, and a blank top width and area, as
    # the scalar model has them) or the lip shadow is inf * 0 (ignored, as
    # max ignores it), with no warning either way.
    flat = EvaporatorGeometry(alpha_deg=0.0)
    design = JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for quantity in ("hlip", "wt_full", "area"):
            value, ok = Sites(flat, [0.0], [y_mm]).field(quantity, design)
            want = scalar_outcome(lambda: scalar_model.evaluate_field(
                flat, quantity, WaferPoint(0.0, y_mm), design))
            assert (("value", bits(value[0])) if ok[0] else ("blank", None)) == want


@pytest.mark.parametrize("x_mm", [1e120, 1e300, 1.7e308])
def test_a_point_too_far_to_cube_names_itself(geom, x_mm):
    # |r - C|**3 leaves the float range ~5.6e102 nm from the source: pow
    # raises OverflowError, or the distance itself is inf.  Sites names the
    # first such point, with no warning, wherever the model cubes it; BASIC
    # cubes nothing, and there the far electrode pinches off.
    x, y = [1.0, x_mm, -x_mm], [2.0, -3.0, 4.0]
    at = re.escape(f"is not finite at ({x_mm}, -3.0) mm")
    codes = np.full(3, geometry.VARIANT_CODES[Variant.MANHATTAN])
    widths = np.full(3, 200.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fidelity in (Fidelity.SIDEWALL, Fidelity.FULL):
            with pytest.raises(GeometryError, match=at):
                Sites(geom, x, y).areas(Variant.MANHATTAN, 200.0, 200.0, fidelity)
            with pytest.raises(GeometryError, match=at):
                geometry.variant_areas(geom, codes, widths, widths, np.array(x), np.array(y),
                                       fidelity)
        for quantity in ("tb", "wlip", "wt_full"):
            with pytest.raises(GeometryError, match=at):
                Sites(geom, x, y).field(quantity, JunctionDesign(Variant.MANHATTAN, 0.0, 200.0))
        _, ok = Sites(geom, x, y).areas(Variant.MANHATTAN, 200.0, 200.0, Fidelity.BASIC)
        assert ok.tolist() == [True, False, False]
        cubes = geometry._cubed(np.array([2.0, 1e102, 1e103, math.inf, math.nan]))
    assert cubes[:2].tolist() == [8.0, 1e102 ** 3]
    assert cubes[2:3].tolist() == cubes[3:4].tolist() == [math.inf] and math.isnan(cubes[4])
