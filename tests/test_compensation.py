"""Inverse-model pre-compensation: round trips and edge handling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_model
from jjshadow.analysis import effective_conductivity
from jjshadow.cli import main
from jjshadow.compensation import (
    MAX_WIDTH_NM,
    compensated_layout,
    precompensate,
    precompensate_fixed_top,
)
from jjshadow.config import parse_config
from jjshadow.errors import GeometryError, ShadowedError, TargetError
from jjshadow.geometry import (
    VARIANT_CODES,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    WAFER_RADIUS_MM,
    Variant,
    WaferPoint,
    actual_overlap_area,
    designed_areas,
    variant_areas,
)
from jjshadow.io import write_layout_csv
from jjshadow import layout as jlayout
from jjshadow.layout import build_35x35, build_planar_17q, build_tsv_17q
from jjshadow.synth import NO_PARASITICS, ProcessModel, synthesize_wafer

# Scalar oracle: the one-structure-at-a-time bisection that the lockstep
# solver replaced, kept verbatim apart from its inlined constants.  It
# evaluates areas with the scalar reference model.
AREA_RTOL = 1.0e-6
_BRACKET_NM = 1.0e-7


def _solve_width(area_of, target_um2, w_max_nm, what):
    """Bisect the designed width until area_of(w) meets the target."""

    def f(w):
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


def oracle_layout(layout, geom, fidelity, w_max_nm=2000.0, fixed_top_nm=None):
    """compensated_layout, one structure at a time through _solve_width."""
    viable = layout.viable()
    centre = min(viable, key=lambda s: (s.position.radius_mm(), s.structure_id))
    target = scalar_model.actual_overlap_area(geom, centre.design, centre.position,
                                              fidelity.for_variant(centre.design.variant))
    out = []
    for s in layout.structures:
        if s.excluded:
            out.append(s)
            continue
        p, variant = s.position, s.design.variant
        fid = fidelity.for_variant(variant)
        what = f"({p.x_mm:g}, {p.y_mm:g}) mm"
        try:
            if fixed_top_nm is not None and variant is Variant.MANHATTAN:
                w = _solve_width(lambda w: scalar_model.actual_overlap_area(
                    geom, JunctionDesign(variant, w, fixed_top_nm), p, fid),
                    target, w_max_nm, what)
                design = JunctionDesign(variant, w, fixed_top_nm)
            else:
                aspect = (s.design.w_bottom_nm / s.design.w_top_nm
                          if s.design.w_top_nm > 0 else 1.0)
                if aspect <= 0.0:
                    raise TargetError("aspect ratio must be > 0")
                w = _solve_width(lambda w: scalar_model.actual_overlap_area(
                    geom, JunctionDesign(variant, aspect * w, w), p, fid),
                    target, w_max_nm, what)
                design = JunctionDesign(variant, aspect * w, w)
        except TargetError as exc:
            out.append(replace(s, excluded=True, exclusion_reason=f"unattainable: {exc}"))
            continue
        out.append(replace(s, design=design,
                           a_overlap_designed_um2=design.designed_area_um2()))
    return out

BRIDGE_TILT_25_CFG = """
geometry.alpha_dolan_deg = 25
parasitics.pad_centre_ohm = 0
parasitics.pad_edge_ohm = 0
parasitics.substrate_uS = 0
parasitics.cabling_ohm = 0
"""


@pytest.fixture(scope="module")
def tsv_dolan():
    return build_tsv_17q(Variant.DOLAN)


def spread(values):
    values = np.asarray(values, float)
    return float((values.max() - values.min()) / values.min())


def zero_bottom_layout():
    """A 35x35 layout with every seventh bottom electrode drawn 0 nm wide."""
    base = build_35x35("nbtin")
    flat = JunctionDesign(Variant.MANHATTAN, 0.0, 200.0)
    return type(base)(tuple(
        replace(s, design=flat) if k % 7 == 3 else s
        for k, s in enumerate(base.structures)))


class TestPrecompensate:
    def test_exact_inverse_at_centre(self, geom, origin):
        design = precompensate(geom, 0.050625, origin, Fidelity.BASIC, aspect=1.0)
        assert design.w_bottom_nm == pytest.approx(200.0, abs=1e-5)
        assert design.w_top_nm == pytest.approx(200.0, abs=1e-5)

    def test_centre_reduces_to_square_root(self, geom, origin):
        target = 0.09
        design = precompensate(geom, target, origin, Fidelity.BASIC, aspect=1.0)
        assert design.w_top_nm == pytest.approx(
            math.sqrt(target * 1e6) - geom.dw_offset_nm, abs=1e-5)

    def test_edge_needs_wider_bottom(self, geom):
        p = WaferPoint(50.0, 0.0)
        design = precompensate(geom, 0.050625, p, Fidelity.BASIC, aspect=1.0)
        assert design.w_bottom_nm > 200.0
        back = actual_overlap_area(geom, design, p, Fidelity.BASIC)
        assert back == pytest.approx(0.050625, rel=1e-6)

    def test_unattainable_above_width_limit(self, geom, origin):
        with pytest.raises(TargetError):
            precompensate(geom, 10.0, origin, Fidelity.BASIC, aspect=1.0,
                          w_max_nm=1000.0)

    def test_unattainable_below_offset_floor(self, geom, origin):
        # dw_offset alone prints ~25x25 nm; far smaller areas need w <= 0.
        with pytest.raises(TargetError):
            precompensate(geom, 1e-5, origin, Fidelity.BASIC, aspect=1.0)

    def test_bad_aspect(self, geom, origin):
        with pytest.raises(TargetError):
            precompensate(geom, 0.05, origin, Fidelity.BASIC, aspect=0.0)

    def test_bad_target(self, geom, origin):
        for call in (lambda: precompensate(geom, 0.0, origin, Fidelity.BASIC),
                     lambda: precompensate_fixed_top(geom, 0.0, origin, Fidelity.BASIC,
                                                     w_top_nm=160.0)):
            with pytest.raises(TargetError, match="^target area must be > 0$"):
                call()

    @pytest.mark.parametrize("fidelity", list(Fidelity))
    def test_round_trip_over_grid(self, geom, fidelity):
        target = 0.0684
        for x in (-40.0, 0.0, 40.0):
            for y in (-40.0, 0.0, 40.0):
                p = WaferPoint(x, y)
                design = precompensate(geom, target, p, fidelity, aspect=1.25)
                back = actual_overlap_area(geom, design, p, fidelity)
                assert abs(back - target) / target <= 1e-6
                assert design.w_bottom_nm == pytest.approx(1.25 * design.w_top_nm,
                                                           rel=1e-12)

    def test_compensated_width_grows_with_x(self, geom):
        widths = [precompensate(geom, 0.050625, WaferPoint(x, 0.0),
                                Fidelity.BASIC, aspect=1.0).w_bottom_nm
                  for x in (0.0, 15.0, 30.0, 45.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_fixed_top_mode(self, geom):
        p = WaferPoint(30.0, -10.0)
        design = precompensate_fixed_top(geom, 0.04, p, Fidelity.SIDEWALL,
                                         w_top_nm=160.0)
        assert design.w_top_nm == 160.0
        back = actual_overlap_area(geom, design, p, Fidelity.SIDEWALL)
        assert back == pytest.approx(0.04, rel=1e-6)


class TestCompensatedLayout:
    @pytest.mark.parametrize("fidelity", [Fidelity.BASIC, Fidelity.SIDEWALL])
    def test_uniform_conductance_after_compensation(self, geom, fidelity):
        layout = compensated_layout(build_35x35("nbtin"), geom, fidelity)
        process = ProcessModel(fidelity=fidelity)
        records = synthesize_wafer(layout, geom, process, NO_PARASITICS)
        gs = np.array([r.g_uS for r in records])
        assert (gs.max() - gs.min()) / gs.min() <= 1e-6

    def test_uniform_forward_map_leaves_designs_unchanged(self, geom):
        # All structures at one point: actual areas are already uniform, so
        # compensation must reproduce the original designs.
        from dataclasses import replace

        base = build_35x35("nbtin")
        centred = type(base)(tuple(
            replace(s, position=WaferPoint(0.0, 0.0)) for s in base.structures))
        result = compensated_layout(centred, geom, Fidelity.BASIC)
        for s in result.structures:
            assert s.design.w_bottom_nm == pytest.approx(200.0, abs=1e-4)
            assert s.design.w_top_nm == pytest.approx(200.0, abs=1e-4)

    def test_width_limit_flags_far_structures(self, geom):
        result = compensated_layout(build_35x35("nbtin"), geom, Fidelity.FULL,
                                    w_max_nm=255.0)
        flagged = [s for s in result.structures if s.excluded]
        assert flagged
        assert all(s.exclusion_reason.startswith("unattainable") for s in flagged)
        # the shaded south half pinches hardest; the centre stays solvable
        assert all(s.position.y_mm < 0.0 for s in flagged)
        assert any(not s.excluded and s.position == WaferPoint(0.0, 0.0)
                   for s in result.structures)

    def test_excluded_structures_untouched(self, geom):
        layout = build_35x35("al", omitted_rows=(0,))
        result = compensated_layout(layout, geom, Fidelity.BASIC)
        for before, after in zip(layout.structures, result.structures):
            if before.excluded:
                assert after == before

    def test_no_viable_structures(self, geom):
        layout = build_35x35("al", omitted_rows=range(35))
        with pytest.raises(TargetError, match="^layout has no viable structures to compensate$"):
            compensated_layout(layout, geom, Fidelity.BASIC)

    def test_mixed_variant_layout(self, geom):
        layout = build_planar_17q()
        result = compensated_layout(layout, geom, Fidelity.BASIC)
        centre = min(layout.viable(),
                     key=lambda s: (s.position.radius_mm(), s.structure_id))
        target = actual_overlap_area(geom, centre.design, centre.position,
                                     Fidelity.BASIC)
        for s in result.structures[::211]:
            area = actual_overlap_area(geom, s.design, s.position, Fidelity.BASIC)
            assert area == pytest.approx(target, rel=2e-6)
            if s.design.variant is Variant.DOLAN:
                assert s.design.w_bottom_nm == pytest.approx(3 * s.design.w_top_nm,
                                                             rel=1e-9)

    def test_bridge_tilt_from_config(self, tsv_dolan):
        # geometry.alpha_dolan_deg reaches synthesis, the actual-area
        # conductivity and compensation through the one geometry object.
        geom = parse_config(BRIDGE_TILT_25_CFG).geometry
        records = synthesize_wafer(tsv_dolan, geom, ProcessModel(), NO_PARASITICS)
        rec = max(records, key=lambda r: abs(r.position.x_mm))
        d25 = EvaporatorGeometry(alpha_deg=25.0).source_distance_nm()
        w_t = rec.design.w_top_nm + 25.0 - abs(rec.position.x_mm) * 1e6 * 600.0 / d25
        assert rec.g_uS == pytest.approx(
            rec.junction_count * 1000.0 * w_t * 200.0 / 1e6, rel=1e-12)
        sigma = [s for _, s in effective_conductivity(records, "actual", geom=geom)]
        assert spread(sigma) <= 1e-12

        layout = compensated_layout(tsv_dolan, geom, Fidelity.FULL)
        records = synthesize_wafer(layout, geom, ProcessModel(), NO_PARASITICS)
        assert spread([r.g_uS for r in records]) <= 1e-6

    def test_bridge_tilt_from_config_file(self, tsv_dolan, tmp_path):
        layout, comp, meas = (tmp_path / f"{n}.csv" for n in ("layout", "comp", "meas"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BRIDGE_TILT_25_CFG)
        write_layout_csv(tsv_dolan, layout)
        assert main(["compensate", "--layout", str(layout), "--fidelity", "full",
                     "--config", str(cfg), "--out", str(comp)]) == 0
        assert main(["simulate", "--layout", str(comp), "--config", str(cfg),
                     "--out", str(meas)]) == 0
        gs = [float(line.rsplit(",", 1)[1])
              for line in meas.read_text().splitlines()[1:]]
        assert spread(gs) <= 1e-6

        assert main(["analyze", "--measurements", str(meas), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        fit = next(line for line in report.splitlines()
                   if line.startswith("dolan actual "))
        a, b, c = (float(v) for v in fit.split()[2:])
        # flat actual-area conductivity: no radial trend across the wafer
        assert abs(b) * 50.0 + abs(c) * 2500.0 <= 1e-9 * a

    @pytest.mark.parametrize("kind, fidelity, options, reason", [
        ("tsv17q-manhattan", Fidelity.FULL, {}, None),
        ("tsv17q-dolan", Fidelity.FULL, {}, None),
        ("planar17q", Fidelity.SIDEWALL, {}, None),
        ("planar17q", Fidelity.FULL, {"fixed_top_nm": 160.0}, None),
        ("planar35x35-nbtin", Fidelity.FULL, {"w_max_nm": 240.0}, "width limit"),
        ("planar35x35-al", Fidelity.BASIC, {"w_max_nm": 212.0, "fixed_top_nm": 150.0},
         "width limit"),
        ("planar35x35-tin", Fidelity.BASIC, {"fixed_top_nm": 5000.0}, "needs width <="),
        ("zero-bottom", Fidelity.FULL, {}, "aspect ratio must be > 0"),
    ], ids=["tsv-manhattan-full", "tsv-dolan", "planar-mixed", "planar-fixed-top",
            "width-limit", "width-limit-fixed-top", "width-floor", "zero-aspect"])
    def test_lockstep_equals_scalar_bisection(self, geom, kind, fidelity, options, reason):
        layout = {
            "tsv17q-manhattan": lambda: build_tsv_17q(Variant.MANHATTAN),
            "tsv17q-dolan": lambda: build_tsv_17q(Variant.DOLAN),
            "planar17q": build_planar_17q,
            "planar35x35-nbtin": lambda: build_35x35("nbtin"),
            "planar35x35-al": lambda: build_35x35("al", omitted_rows=(0,)),
            "planar35x35-tin": lambda: build_35x35("tin"),
            "zero-bottom": zero_bottom_layout,
        }[kind]()
        got = compensated_layout(layout, geom, fidelity, **options).structures
        want = oracle_layout(layout, geom, fidelity, **options)
        assert [s.exclusion_reason for s in got] == [s.exclusion_reason for s in want]
        assert [(s.design.w_bottom_nm, s.design.w_top_nm) for s in got] == \
            [(s.design.w_bottom_nm, s.design.w_top_nm) for s in want]
        assert got == tuple(want)
        if reason is not None:
            assert any(reason in s.exclusion_reason for s in got)

    def test_bad_width_limit_raises_like_scalar(self, geom):
        layout = build_35x35("tin")
        for w_max in (math.nan, -5.0):
            with pytest.raises(GeometryError) as scalar:
                oracle_layout(layout, geom, Fidelity.BASIC, w_max_nm=w_max)
            with pytest.raises(GeometryError) as lockstep:
                compensated_layout(layout, geom, Fidelity.BASIC, w_max_nm=w_max)
            assert str(lockstep.value) == str(scalar.value)
        # With every structure too large already at 1 nm, the limit is never
        # evaluated: all come back unattainable instead.
        centred = type(layout)(tuple(
            replace(s, position=WaferPoint(0.0, 0.0)) for s in layout.structures))
        options = dict(w_max_nm=math.nan, fixed_top_nm=1e6)
        got = compensated_layout(centred, geom, Fidelity.BASIC, **options).structures
        assert got == tuple(oracle_layout(centred, geom, Fidelity.BASIC, **options))
        assert all("needs width <= 1.0 nm" in s.exclusion_reason for s in got)

    def test_single_point_solvers_raise_scalar_messages(self, geom):
        p = WaferPoint(12.5, -3.0)
        for call in (lambda: precompensate(geom, 10.0, p, Fidelity.FULL, w_max_nm=500.0),
                     lambda: precompensate_fixed_top(geom, 1e-6, p, Fidelity.FULL, 160.0)):
            with pytest.raises(TargetError) as exc:
                call()
            assert str(exc.value).startswith("(12.5, -3) mm: target ")

    def test_fixed_top_layout_mode(self, geom):
        layout = build_35x35("tin")
        result = compensated_layout(layout, geom, Fidelity.BASIC, fixed_top_nm=160.0)
        tops = {s.design.w_top_nm for s in result.structures}
        assert tops == {160.0}


# Non-default tilts, resist height and bottom thickness for the property test.
TILTED = EvaporatorGeometry(alpha_deg=28.0, alpha_dolan_deg=22.0, h_resist_nm=700.0,
                            t_bottom_nm=45.0)


def sampled_layout(seed, n=240):
    """Structures of both variants at seeded random points of the wafer, with
    random widths; a few are drawn with a 0 nm bottom and a few excluded.
    The first, a 200x200 nm crossed junction at the centre, sets the target."""
    rng = np.random.default_rng(seed)
    r = 48.0 * np.sqrt(rng.random(n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    x, y = (r * np.cos(theta)).tolist(), (r * np.sin(theta)).tolist()
    dolan = rng.random(n) < 0.4
    w_t = np.where(dolan, rng.uniform(100.0, 300.0, n), rng.uniform(120.0, 500.0, n))
    w_b = np.where(dolan, 3.0 * w_t, rng.uniform(120.0, 500.0, n))
    w_b[rng.random(n) < 0.03] = 0.0
    excluded = rng.random(n) < 0.05
    x[0], y[0], dolan[0], w_b[0], w_t[0], excluded[0] = 0.0, 0.0, False, 200.0, 200.0, False
    specs = []
    for k in range(n):
        design = JunctionDesign(Variant.DOLAN if dolan[k] else Variant.MANHATTAN,
                                float(w_b[k]), float(w_t[k]))
        specs.append(jlayout.TestStructureSpec(
            f"s{k:03d}", (0, 0), 0, (0, k), WaferPoint(x[k], y[k]), design,
            design.designed_area_um2(), "sampled", excluded=bool(excluded[k]),
            exclusion_reason="omitted" if excluded[k] else ""))
    return jlayout.WaferLayout(tuple(specs))


class TestForwardInverseProperty:
    """The forward model at the compensated designs gives back the target
    area wherever compensation attained it, at every fidelity, for both
    variants and both modes."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("w_max_nm", [MAX_WIDTH_NM, 320.0])
    @pytest.mark.parametrize("fixed_top_nm", [None, 160.0])
    @pytest.mark.parametrize("fidelity", list(Fidelity))
    def test_attained_areas_meet_the_target(self, seed, w_max_nm, fixed_top_nm, fidelity):
        layout = sampled_layout(seed)
        result = compensated_layout(layout, TILTED, fidelity, w_max_nm=w_max_nm,
                                    fixed_top_nm=fixed_top_nm)
        before, after = layout.structures, result.structures
        centre = min(layout.viable(), key=lambda s: (s.position.radius_mm(), s.structure_id))
        target = actual_overlap_area(TILTED, centre.design, centre.position,
                                     fidelity.for_variant(centre.design.variant))

        attained = ~after.excluded
        areas = variant_areas(TILTED, after.variant[attained], after.w_bottom_nm[attained],
                              after.w_top_nm[attained], after.x_mm[attained],
                              after.y_mm[attained], fidelity)
        assert np.all(np.abs(areas - target) <= AREA_RTOL * target)
        assert np.array_equal(after.a_overlap_designed_um2[attained], designed_areas(
            after.variant[attained], after.w_bottom_nm[attained], after.w_top_nm[attained]))
        if fixed_top_nm is not None:
            manhattan = attained & (after.variant == VARIANT_CODES[Variant.MANHATTAN])
            assert set(after.w_top_nm[manhattan].tolist()) == {fixed_top_nm}

        new = after.excluded & ~before.excluded
        assert all(r.startswith("unattainable: ") for r in after.exclusion_reason[new])
        assert after.take(before.excluded) == before.take(before.excluded)
        if w_max_nm < MAX_WIDTH_NM:
            assert any("width limit" in r for r in after.exclusion_reason[new])
        if fixed_top_nm is None:
            assert "unattainable: aspect ratio must be > 0" in after.exclusion_reason[new]


@st.composite
def geometries(draw):
    """Valid evaporator geometries, each constant drawn around its default."""
    try:
        return EvaporatorGeometry(
            d_prime_mm=draw(st.floats(300.0, 1500.0)), r_pivot_mm=draw(st.floats(10.0, 150.0)),
            alpha_deg=draw(st.floats(0.0, 60.0)), alpha_dolan_deg=draw(st.floats(0.0, 60.0)),
            h_resist_nm=draw(st.floats(200.0, 1200.0)), t_bottom_nm=draw(st.floats(10.0, 100.0)),
            dw_offset_nm=draw(st.floats(0.0, 60.0)))
    except GeometryError:
        assume(False)


def area_or_zero(geom, design, p, fidelity):
    """The forward area of a design at p, 0 where an electrode pinches off."""
    try:
        return actual_overlap_area(geom, design, p, fidelity)
    except ShadowedError:
        return 0.0


@settings(max_examples=200, deadline=None)
@given(geom=geometries(), r=st.floats(0.0, WAFER_RADIUS_MM),
       theta=st.floats(0.0, 2.0 * math.pi), variant=st.sampled_from(list(Variant)),
       fidelity=st.sampled_from(list(Fidelity)), aspect=st.floats(0.2, 5.0),
       log_target=st.floats(-4.0, 0.5))
def test_precompensate_meets_the_target_or_says_why(geom, r, theta, variant, fidelity,
                                                   aspect, log_target):
    """Forward after inverse: precompensate returns a design whose area is
    the target, or raises TargetError, and only where no width in
    [1 nm, w_max_nm] meets it: the area at 1 nm is already at or above the
    target, the area at w_max_nm is below it, or the area jumps over it
    where the bottom electrode pinches off (SIDEWALL and FULL add the
    2 T'_b sidewall term to any bottom width above 0)."""
    p = WaferPoint(r * math.cos(theta), r * math.sin(theta))
    fidelity, target = fidelity.for_variant(variant), 10.0 ** log_target

    def area(w):
        return area_or_zero(geom, JunctionDesign(variant, aspect * w, w), p, fidelity)

    try:
        design = precompensate(geom, target, p, fidelity, aspect=aspect, variant=variant)
    except TargetError:
        if area(1.0) >= target or area(MAX_WIDTH_NM) < target:
            return
        lo, hi = 1.0, MAX_WIDTH_NM      # bisect the least width whose area is above 0
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if area(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        assert area(hi) > target
    else:
        assert design.w_bottom_nm == aspect * design.w_top_nm
        attained = actual_overlap_area(geom, design, p, fidelity)
        assert abs(attained - target) <= AREA_RTOL * target
