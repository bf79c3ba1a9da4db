"""Shadow-model checks against the independent high-precision oracle.

Golden values were frozen from tests/highprec_oracle.py (mpmath, 50
digits), which implements the deposition formulas with no code shared with
the package.
"""

import math

import numpy as np
import pytest

from jjshadow.errors import GeometryError, ShadowedError
from jjshadow.geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    actual_overlap_area,
    actual_top_width,
    actual_width_vertical,
    bottom_thickness,
    evaluate_field,
    lip_height,
    lip_width,
    source_distance,
)

from highprec_oracle import (
    bottom_thickness_nm,
    lip_width_nm,
    overlap_area_um2,
    source_distance_nm,
    top_width_nm,
    width_vertical_nm,
)

# Frozen oracle outputs (50-digit evaluation, default geometry).
D_MM = 469.94882878784466
W_200_X50_NM = 161.16326254630735
TB_O_NM = 26.299762841745989
WLIP_O_NM = -20.864400888626548
HLIP_O_200_NM = 252.10177835570948
WT_FULL_O_NM = 245.86440088862655
WT_FULL_0_M40_NM = 171.95628450953874
AREA_BASIC_O = 0.050625
AREA_SIDEWALL_O = 0.062459893278785695
AREA_FULL_O = 0.068251841069138654
RATIO_50_0 = 0.71628116687247709


class TestSourceDistance:
    def test_default_geometry(self, geom):
        assert source_distance(geom) == pytest.approx(D_MM, abs=1e-9)

    def test_zero_tilt(self):
        g = EvaporatorGeometry(d_prime_mm=650, r_pivot_mm=62.5, alpha_deg=0)
        assert source_distance(g) == pytest.approx(587.5)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(GeometryError):
            EvaporatorGeometry(d_prime_mm=100.0, r_pivot_mm=100.0, alpha_deg=0.0)
        with pytest.raises(GeometryError):        # D < 0 at the bridge tilt only
            EvaporatorGeometry(alpha_dolan_deg=85.0)

    def test_invariants(self):
        with pytest.raises(GeometryError):
            EvaporatorGeometry(alpha_deg=-1.0)
        with pytest.raises(GeometryError):
            EvaporatorGeometry(alpha_dolan_deg=90.0)
        with pytest.raises(GeometryError):
            EvaporatorGeometry(h_resist_nm=0.0)
        with pytest.raises(GeometryError):
            EvaporatorGeometry(dw_offset_nm=-1.0)


class TestVerticalWidth:
    def test_centre(self, geom):
        assert actual_width_vertical(geom, 200.0, 0.0) == 225.0

    def test_edge(self, geom):
        assert actual_width_vertical(geom, 200.0, 50.0) == pytest.approx(
            W_200_X50_NM, abs=1e-9)

    def test_even_in_x(self, geom):
        for x in (1.0, 7.5, 22.0, 50.0):
            assert actual_width_vertical(geom, 200.0, x) == actual_width_vertical(
                geom, 200.0, -x)

    def test_strictly_decreasing_in_abs_x(self, geom):
        widths = [actual_width_vertical(geom, 200.0, x) for x in range(0, 51, 5)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_fully_shadowed(self, geom):
        with pytest.raises(ShadowedError):
            actual_width_vertical(geom, 10.0, 50.0)

    def test_zero_design_width_allowed(self, geom):
        # Affine model: a zero-width line still prints dw_offset wide.
        assert actual_width_vertical(geom, 0.0, 0.0) == geom.dw_offset_nm

    def test_depends_only_on_h_over_d(self):
        # Scaling the evaporator and the wafer coordinate together leaves
        # the width untouched: only H/D enters.
        base = EvaporatorGeometry()
        scaled = EvaporatorGeometry(d_prime_mm=6500.0, r_pivot_mm=625.0)
        assert actual_width_vertical(base, 200.0, 30.0) == pytest.approx(
            actual_width_vertical(scaled, 200.0, 300.0), rel=1e-12)

    def test_matches_oracle_on_grid(self, geom):
        d_nm = source_distance_nm(650, 62.5, 35)
        for x in (-47.3, -12.0, 3.3, 18.6, 41.0):
            expect = float(width_vertical_nm(180, 25, 600, d_nm, x))
            assert actual_width_vertical(geom, 180.0, x) == pytest.approx(
                expect, rel=1e-13)


class TestBottomThickness:
    def test_normal_incidence_calibration(self):
        g = EvaporatorGeometry(alpha_deg=0.0)
        assert bottom_thickness(g, WaferPoint(0, 0)) == pytest.approx(35.0, rel=1e-12)

    def test_centre_value(self, geom, origin):
        assert bottom_thickness(geom, origin) == pytest.approx(TB_O_NM, abs=1e-9)

    def test_larger_towards_source(self, geom):
        north = bottom_thickness(geom, WaferPoint(0, 50))
        south = bottom_thickness(geom, WaferPoint(0, -50))
        assert north > south
        assert north == pytest.approx(float(bottom_thickness_nm(35, 650, 62.5, 35, 0, 50)),
                                      rel=1e-13)
        assert south == pytest.approx(float(bottom_thickness_nm(35, 650, 62.5, 35, 0, -50)),
                                      rel=1e-13)

    def test_positive_on_wafer(self, geom):
        for x in (-50, -20, 0, 20, 50):
            for y in (-50, -20, 0, 20, 50):
                assert bottom_thickness(geom, WaferPoint(x, y)) > 0.0


class TestLip:
    def test_width_at_centre(self, geom, origin):
        assert lip_width(geom, origin) == pytest.approx(WLIP_O_NM, abs=1e-9)

    def test_width_negative_on_wafer(self, geom):
        for x in (-50, 0, 50):
            for y in (-50, 0, 50):
                assert lip_width(geom, WaferPoint(x, y)) < 0.0

    def test_width_y_dependence_matches_oracle(self, geom):
        # Evaluating the printed formula at +/-y: the magnitude comes out
        # larger on the +y side (numerator shrinks slower than |r-C|^3).
        for y in (20.0, 35.0, 50.0):
            plus = lip_width(geom, WaferPoint(0, y))
            minus = lip_width(geom, WaferPoint(0, -y))
            assert plus == pytest.approx(float(lip_width_nm(35, 650, 62.5, 35, 0, y)),
                                         rel=1e-13)
            assert minus == pytest.approx(float(lip_width_nm(35, 650, 62.5, 35, 0, -y)),
                                          rel=1e-13)
            assert abs(plus) > abs(minus)

    def test_height_at_centre(self, geom, origin):
        assert lip_height(geom, 200.0, origin) == pytest.approx(HLIP_O_200_NM, abs=1e-6)

    def test_height_proportional_to_width(self, geom, origin):
        assert lip_height(geom, 0.0, origin) == 0.0
        assert lip_height(geom, 400.0, origin) == pytest.approx(
            2 * lip_height(geom, 200.0, origin), rel=1e-12)

    def test_height_increases_with_y(self, geom):
        heights = [lip_height(geom, 200.0, WaferPoint(0, y)) for y in (-40, 0, 40)]
        assert heights[0] < heights[1] < heights[2]


class TestTopWidth:
    def test_centre(self, geom, origin):
        assert actual_top_width(geom, 200.0, origin) == pytest.approx(
            WT_FULL_O_NM, abs=1e-9)

    def test_south_branch_takes_max(self, geom):
        p = WaferPoint(0, -40.0)
        assert actual_top_width(geom, 200.0, p) == pytest.approx(
            WT_FULL_0_M40_NM, abs=1e-9)
        # confirm against the oracle's piecewise evaluation
        assert actual_top_width(geom, 200.0, p) == pytest.approx(
            float(top_width_nm(200, 25, 600, 35, 650, 62.5, 35, 0, -40)), rel=1e-13)

    def test_zero_lip_zero_y_reduces_to_offset_width(self):
        # With the lip terms' amplitude sent to ~0, W't(x, 0) = W_t + dW.
        g = EvaporatorGeometry(t_bottom_nm=1e-12)
        for x in (-30.0, 0.0, 30.0):
            assert actual_top_width(g, 200.0, WaferPoint(x, 0.0)) == pytest.approx(
                225.0, abs=1e-9)


    def test_jump_at_equator(self, geom, design_200):
        # The signed lip term (-20.86 nm at the centre) enters only the
        # y >= 0 branch, so the top width jumps across y = 0 (README, Notes).
        expect = {-1e-9: 224.99999999867, 0.0: 245.86440088863, 1e-9: 245.86440088730}
        values, ok = Sites(geom, 0.0, list(expect)).field("wt_full", design_200)
        assert ok.all()
        for (y, want), got in zip(expect.items(), values.tolist()):
            assert got == pytest.approx(want, abs=5e-12)
            assert actual_top_width(geom, 200.0, WaferPoint(0.0, y)) == got


class TestOverlapArea:
    def test_basic_centre(self, geom, design_200, origin):
        assert actual_overlap_area(geom, design_200, origin,
                                   Fidelity.BASIC) == AREA_BASIC_O

    def test_sidewall_centre(self, geom, design_200, origin):
        assert actual_overlap_area(geom, design_200, origin,
                                   Fidelity.SIDEWALL) == pytest.approx(
            AREA_SIDEWALL_O, rel=1e-12)

    def test_full_centre(self, geom, design_200, origin):
        assert actual_overlap_area(geom, design_200, origin,
                                   Fidelity.FULL) == pytest.approx(
            AREA_FULL_O, rel=1e-12)

    def test_edge_to_centre_ratio(self, geom, design_200, origin):
        edge = actual_overlap_area(geom, design_200, WaferPoint(50, 0), Fidelity.BASIC)
        centre = actual_overlap_area(geom, design_200, origin, Fidelity.BASIC)
        assert edge / centre == pytest.approx(RATIO_50_0, abs=1e-4)

    def test_basic_is_separable(self, geom, design_200):
        # A'(x, y) * A'(0, 0) == A'(x, 0) * A'(0, y)
        for x, y in ((10, -20), (-30, 30), (45, 5)):
            lhs = (actual_overlap_area(geom, design_200, WaferPoint(x, y), Fidelity.BASIC)
                   * actual_overlap_area(geom, design_200, WaferPoint(0, 0), Fidelity.BASIC))
            rhs = (actual_overlap_area(geom, design_200, WaferPoint(x, 0), Fidelity.BASIC)
                   * actual_overlap_area(geom, design_200, WaferPoint(0, y), Fidelity.BASIC))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_sidewall_exceeds_basic_everywhere(self, geom, design_200):
        for x in (-40, 0, 40):
            for y in (-40, 0, 40):
                p = WaferPoint(x, y)
                assert (actual_overlap_area(geom, design_200, p, Fidelity.SIDEWALL)
                        > actual_overlap_area(geom, design_200, p, Fidelity.BASIC))

    def test_matches_oracle_at_all_fidelities(self, geom, design_200):
        for x, y in ((0, 0), (25, -10), (-40, 30), (10, 45)):
            for level in Fidelity:
                expect = float(overlap_area_um2(200, 200, 25, 600, 35, 650, 62.5, 35,
                                                x, y, level.value))
                got = actual_overlap_area(geom, design_200, WaferPoint(x, y), level)
                assert got == pytest.approx(expect, rel=1e-12)

    def test_dolan_basic_only(self, geom):
        dolan = JunctionDesign(Variant.DOLAN, 480.0, 160.0)
        area = actual_overlap_area(geom, dolan, WaferPoint(0, 0), Fidelity.BASIC)
        assert area == pytest.approx((160 + 25) * 200 / 1e6)
        with pytest.raises(GeometryError):
            actual_overlap_area(geom, dolan, WaferPoint(0, 0), Fidelity.SIDEWALL)

    def test_dolan_depends_on_x_not_y(self, geom):
        dolan = JunctionDesign(Variant.DOLAN, 480.0, 160.0)
        a_y = {y: actual_overlap_area(geom, dolan, WaferPoint(10, y), Fidelity.BASIC)
               for y in (-30, 0, 30)}
        assert len(set(a_y.values())) == 1
        a_x0 = actual_overlap_area(geom, dolan, WaferPoint(0, 0), Fidelity.BASIC)
        a_x40 = actual_overlap_area(geom, dolan, WaferPoint(40, 0), Fidelity.BASIC)
        assert a_x40 < a_x0


class TestFieldMaps:
    def test_field_structure_matches_figure_panels(self, geom, design_200):
        # W'_b contours vertical (x only), eq-2 W'_t horizontal (y only),
        # thickness and lip fields asymmetric in y.
        p, px, py = WaferPoint(5, -12), WaferPoint(25, -12), WaferPoint(5, 17)
        wb = lambda q: evaluate_field(geom, "wb", q, design_200)
        wt = lambda q: evaluate_field(geom, "wt", q, design_200)
        assert wb(p) != wb(px) and wb(p) == wb(py)
        assert wt(p) == wt(px) and wt(p) != wt(py)
        for quantity in ("tb", "wlip", "hlip", "wt_full"):
            north = evaluate_field(geom, quantity, WaferPoint(0, 30), design_200)
            south = evaluate_field(geom, quantity, WaferPoint(0, -30), design_200)
            assert north != south

    def test_unknown_quantity(self, geom, design_200, origin):
        with pytest.raises(ValueError):
            evaluate_field(geom, "nope", origin, design_200)


@pytest.mark.parametrize("geom", [EvaporatorGeometry(), EvaporatorGeometry(alpha_dolan_deg=25.0)],
                         ids=["default", "alpha-dolan-25"])
@pytest.mark.parametrize("fidelity", list(Fidelity))
@pytest.mark.parametrize("variant", list(Variant))
def test_area_strictly_increasing_in_designed_width(geom, fidelity, variant):
    # Pre-compensation bisects on this: at a fixed point and aspect (or
    # fixed top width) the area rises strictly with the designed width, and
    # a line that prints stays printed when drawn wider.
    rng = np.random.default_rng(20230418)
    n = 64
    r, theta = 50.0 * np.sqrt(rng.random(n)), rng.uniform(0.0, 2.0 * np.pi, n)
    x, y = (r * np.cos(theta))[:, None], (r * np.sin(theta))[:, None]
    w = np.unique(rng.uniform(1.0, 2000.0, 256))[None, :]
    sweeps = [(rng.uniform(0.2, 5.0, (n, 1)) * w, w)]
    if variant is Variant.MANHATTAN:
        sweeps.append((w, rng.uniform(1.0, 2000.0, (n, 1))))     # fixed top width
    for w_b, w_t in sweeps:
        area, ok = Sites(geom, x, y).areas(variant, w_b, w_t, fidelity.for_variant(variant))
        assert ok.any()
        assert (ok[:, 1:] >= ok[:, :-1]).all()
        both = ok[:, 1:] & ok[:, :-1]
        assert (np.diff(area, axis=1)[both] > 0.0).all()
