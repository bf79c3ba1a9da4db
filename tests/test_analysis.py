"""Filtering, frequency prediction, CV/RSD, heatmaps, conductivity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjshadow.analysis import (
    FilterConfig,
    FrequencyModel,
    Regressor,
    _axis,
    _moments,
    absolute_filter,
    conductance_cv,
    effective_conductivity,
    frequency_rsd,
    mean_filter,
    normalized_heatmap,
    predicted_frequency,
    quadratic_radial_fit,
    regression_filter_die,
)
from jjshadow.errors import DataError, FitError
from jjshadow.geometry import (
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
)
from jjshadow.layout import build_35x35, build_planar_17q
from jjshadow.synth import (
    NO_PARASITICS,
    MeasurementRecord,
    ParasiticsModel,
    ProcessModel,
    synthesize_wafer,
    truth_table,
)

CFG = FilterConfig()
FREQ = FrequencyModel()


def mk(sid, w_bottom, g, die=(1, 1), pos=(0.0, 0.0), w_top=160.0):
    design = JunctionDesign(Variant.MANHATTAN, w_bottom, w_top)
    return MeasurementRecord(
        structure_id=sid, die_index=die, position=WaferPoint(*pos), design=design,
        a_overlap_designed_um2=design.designed_area_um2(), junction_count=2,
        g_uS=g, truth_flags=frozenset())


class TestAbsoluteFilter:
    @pytest.mark.parametrize("g,kept", [(10.0, False), (100.0, True), (600.0, False),
                                        (20.0, True), (500.0, True)])
    def test_window(self, g, kept):
        records = [mk("a", 200.0, g)]
        got_kept, got_rej = absolute_filter(records, CFG)
        assert (len(got_kept) == 1) is kept
        assert (len(got_rej) == 1) is (not kept)

    def test_idempotent(self):
        records = [mk(f"r{i}", 200.0, g) for i, g in
                   enumerate([5.0, 30.0, 100.0, 499.0, 700.0])]
        kept, _ = absolute_filter(records, CFG)
        again, rej = absolute_filter(kept, CFG)
        assert again == kept and not rej


class TestRegressionFilter:
    def _die(self, n=16, slope=0.5, intercept=10.0):
        widths = [150.0 + 12 * k for k in range(n)]
        return [mk(f"r{k}", w, slope * w + intercept) for k, w in enumerate(widths)]

    def test_exact_linear_keeps_all(self):
        records = self._die()
        fit = regression_filter_die(records, CFG)
        assert not fit.rejected_ids
        assert fit.slope == pytest.approx(0.5, rel=1e-9)
        assert fit.intercept == pytest.approx(10.0, rel=1e-6)
        assert all(abs(res) < 1e-9 for _, res in fit.residuals_uS)

    def test_rejects_exactly_the_halved_records(self):
        records = self._die()
        halved = {"r3", "r8", "r12"}
        records = [mk(r.structure_id, r.design.w_bottom_nm,
                      r.g_uS / 2 if r.structure_id in halved else r.g_uS)
                   for r in records]
        fit = regression_filter_die(records, CFG)
        assert fit.rejected_ids == frozenset(halved)
        assert fit.kept_ids == {r.structure_id for r in records} - halved

    def test_constant_regressor_underdetermined(self):
        records = [mk(f"r{k}", 200.0, 100.0) for k in range(8)]
        with pytest.raises(FitError, match=r"\(1, 1\)"):
            regression_filter_die(records, CFG)

    def test_empty_input(self):
        with pytest.raises(FitError, match="^regression filter got no records$"):
            regression_filter_die([], CFG)

    def test_mixed_dies_rejected(self):
        records = self._die()[:4] + [mk("other", 300.0, 160.0, die=(2, 1))]
        with pytest.raises(DataError):
            regression_filter_die(records, CFG)

    def test_area_regressor_equivalent_for_fixed_top(self):
        records = self._die()
        cfg_area = FilterConfig(regressor=Regressor.OVERLAP_AREA)
        halved = [mk(r.structure_id, r.design.w_bottom_nm,
                     r.g_uS / 2 if r.structure_id == "r5" else r.g_uS)
                  for r in records]
        assert (regression_filter_die(halved, cfg_area).rejected_ids
                == regression_filter_die(halved, CFG).rejected_ids == {"r5"})

    def test_reading_on_the_threshold_line_kept(self):
        # The pass-1 line is 100.0 at every x, and 0.6999999999999998 * 100.0
        # is exactly 70.0: record r1 lies on the threshold and is kept.
        records = [mk(f"r{k}", float(k + 1), g)
                   for k, g in enumerate([115.0, 70.0, 100.0, 130.0, 85.0])]
        fit = regression_filter_die(records, FilterConfig(rel_threshold=0.6999999999999998))
        assert not fit.rejected_ids and "r1" in fit.kept_ids

    def test_one_record_kept_rejects_the_die(self):
        # A flat pass-1 line at 208 uS keeps only the 1000 uS record.
        records = [mk(f"r{k}", float(k + 1), g)
                   for k, g in enumerate([10.0, 10.0, 1000.0, 10.0, 10.0])]
        with pytest.raises(FitError, match=r"^die \(1, 1\): regression filter rejected "
                                           r"nearly all records$"):
            regression_filter_die(records, CFG)

    def test_idempotent_on_kept_set(self):
        rng = np.random.default_rng(0)
        records = [mk(f"r{k}", w, 0.5 * w + 10 + rng.normal(0, 1.0))
                   for k, w in enumerate(np.linspace(150, 750, 40))]
        fit = regression_filter_die(records, CFG)
        kept = [r for r in records if r.structure_id in fit.kept_ids]
        fit2 = regression_filter_die(kept, CFG)
        assert fit2.kept_ids == fit.kept_ids and not fit2.rejected_ids


class TestMeanFilter:
    def test_rejects_below_threshold(self):
        records = [mk(f"r{k}", 200.0, g) for k, g in
                   enumerate([100.0, 100.0, 100.0, 60.0])]
        kept, rejected = mean_filter(records, CFG)
        assert [r.g_uS for r in rejected] == [60.0]

    def test_all_equal_keeps_all(self):
        records = [mk(f"r{k}", 200.0, 80.0) for k in range(5)]
        kept, rejected = mean_filter(records, CFG)
        assert len(kept) == 5 and not rejected

    def test_borderline_pair_kept(self):
        records = [mk("a", 200.0, 100.0), mk("b", 200.0, 71.0)]
        kept, rejected = mean_filter(records, CFG)
        assert len(kept) == 2 and not rejected

    def test_reading_on_the_line_kept(self):
        # mean 80.0 and line 0.5 * 80.0 = 40.0 are exact: 40 is kept.
        records = [mk(f"r{k}", 200.0, g) for k, g in
                   enumerate([40.0, 100.0, 100.0, 80.0])]
        kept, rejected = mean_filter(records, FilterConfig(rel_threshold=0.5))
        assert len(kept) == 4 and not rejected

    def test_empty_input(self):
        with pytest.raises(DataError):
            mean_filter([], CFG)


class TestPredictedFrequency:
    def test_reference_value(self):
        assert predicted_frequency(100.0, FREQ) == pytest.approx(5109.96, abs=0.01)

    def test_zero_conductance(self):
        assert predicted_frequency(0.0, FREQ) == -270.0

    def test_sqrt_homogeneity(self):
        f1 = predicted_frequency(50.0, FREQ) + FREQ.f_c_mhz
        f4 = predicted_frequency(200.0, FREQ) + FREQ.f_c_mhz
        assert f4 == pytest.approx(2 * f1, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            predicted_frequency(-1.0, FREQ)

    def test_strictly_increasing_preserves_rank(self):
        gs = [40.0, 41.0, 100.0, 340.0]
        fs = [predicted_frequency(g, FREQ) for g in gs]
        assert fs == sorted(fs)


class TestConductanceCv:
    def test_identical_group_zero_cv(self):
        stats = conductance_cv([mk("a", 200.0, 100.0), mk("b", 200.0, 100.0)])
        ((_, s),) = stats.items()
        assert s.cv == 0.0

    def test_population_std(self):
        stats = conductance_cv([mk("a", 200.0, 90.0), mk("b", 200.0, 110.0)])
        ((_, s),) = stats.items()
        assert s.mean_uS == 100.0 and s.std_uS == 10.0 and s.cv == pytest.approx(0.10)

    def test_singleton_group_undefined(self):
        ((_, s),) = conductance_cv([mk("a", 200.0, 90.0)]).items()
        assert s.cv is None

    def test_zero_conductance_singleton_undefined(self):
        ((_, s),) = conductance_cv([mk("s0", 200.0, 0.0)]).items()
        assert (s.n, s.mean_uS, s.std_uS, s.cv) == (1, 0.0, 0.0, None)

    def test_zero_mean_group_rejected(self):
        # As normalized_heatmap rejects the same group.
        records = [mk(f"s{k}", 200.0, 0.0) for k in range(3)]
        message = "^zero mean conductance in the design group of s0$"
        with pytest.raises(DataError, match=message):
            conductance_cv(records)
        with pytest.raises(DataError, match=message):
            normalized_heatmap(records)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="^scope must be 'wafer' or 'die', got 'chip'$"):
            conductance_cv([mk("a", 200.0, 100.0)], "chip")

    def test_wafer_cv_exceeds_die_cv_on_spatial_data(self, geom):
        process = ProcessModel(fidelity=Fidelity.BASIC, seed=0)
        records = [r for r in synthesize_wafer(build_planar_17q(), geom, process,
                                               NO_PARASITICS)
                   if r.design.variant is Variant.MANHATTAN]
        wafer = conductance_cv(records, "wafer")
        die = conductance_cv(records, "die")
        for (variant, area), stats in wafer.items():
            die_cvs = [s.cv for (d, v, a), s in die.items()
                       if v == variant and a == area and s.cv is not None]
            assert stats.cv > max(die_cvs)


@st.composite
def moment_groups(draw) -> np.ndarray:
    """Groups of 1-300 values: conductance-like, constant, or of wide and
    mixed magnitudes (squares that overflow included)."""
    n = draw(st.one_of(st.integers(1, 2), st.integers(3, 300)))
    kind = draw(st.sampled_from(["conductance", "constant", "wide"]))
    if kind == "constant":
        return np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "conductance":
        values = st.floats(20.0, 500.0)
    else:
        values = st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(values, min_size=n, max_size=n)))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=300, deadline=None)
@given(moment_groups())
def test_moments_equal_numpy_to_the_bit(values):
    with warnings.catch_warnings():         # ddof=1 of one value is nan in both
        warnings.simplefilter("ignore", RuntimeWarning)
        got = (*_moments(values), _moments(values, ddof=1)[1])
        want = (values.mean(), values.std(), np.std(values, ddof=1))
    assert list(map(_bits, got)) == list(map(_bits, want))


class TestFrequencyRsd:
    def test_exact_fit_zero(self):
        records = [mk(f"r{k}", w, 0.5 * w + 10.0)
                   for k, w in enumerate(np.linspace(150, 330, 16))]
        fit = regression_filter_die(records, CFG)
        assert frequency_rsd(records, fit, CFG, FREQ) == pytest.approx(0.0, abs=1e-6)

    def test_grows_with_disorder(self, geom):
        layout = build_planar_17q()
        rsds = []
        for sigma in (0.01, 0.02, 0.04):
            process = ProcessModel(lognormal_sigma=sigma, fidelity=Fidelity.BASIC,
                                   seed=5)
            records = [r for r in synthesize_wafer(layout, geom, process,
                                                   NO_PARASITICS)
                       if r.design.variant is Variant.MANHATTAN
                       and r.die_index == (1, -1)]
            fit = regression_filter_die(records, CFG)
            kept = [r for r in records if r.structure_id in fit.kept_ids]
            rsds.append(frequency_rsd(kept, fit, CFG, FREQ))
        assert rsds[0] < rsds[1] < rsds[2]

    def test_mean_die_rsd_below_wafer_rsd_with_spatial_structure(self, geom):
        layout = build_planar_17q()
        process = ProcessModel(fidelity=Fidelity.FULL, seed=0)
        records = [r for r in synthesize_wafer(layout, geom, process, NO_PARASITICS)
                   if r.design.variant is Variant.MANHATTAN]
        by_die = {}
        for r in records:
            by_die.setdefault(r.die_index, []).append(r)
        die_rsds = []
        for die_records in by_die.values():
            fit = regression_filter_die(die_records, CFG)
            kept = [r for r in die_records if r.structure_id in fit.kept_ids]
            die_rsds.append(frequency_rsd(kept, fit, CFG, FREQ))
        xs = np.array([r.design.w_bottom_nm for r in records])
        ys = np.array([r.g_uS for r in records])
        slope, icept = np.polyfit(xs, ys, 1)
        from jjshadow.analysis import RegressionFit
        wafer_fit = RegressionFit((0, 0), float(slope), float(icept), (),
                                  frozenset(r.structure_id for r in records),
                                  frozenset())
        wafer_rsd = frequency_rsd(records, wafer_fit, CFG, FREQ)
        assert sum(die_rsds) / len(die_rsds) <= wafer_rsd

    def test_nested_rss_inequality(self, geom):
        # Per-die fits minimize within each die; one wafer-wide line on the
        # same kept set cannot beat their combined residual sum of squares.
        layout = build_planar_17q()
        process = ProcessModel(lognormal_sigma=0.05, fidelity=Fidelity.FULL, seed=9)
        records = [r for r in synthesize_wafer(layout, geom, process, NO_PARASITICS)
                   if r.design.variant is Variant.MANHATTAN]
        kept_all, die_rss = [], 0.0
        by_die = {}
        for r in records:
            by_die.setdefault(r.die_index, []).append(r)
        for die_records in by_die.values():
            fit = regression_filter_die(die_records, CFG)
            die_rss += sum(res * res for _, res in fit.residuals_uS)
            kept_all.extend(r for r in die_records if r.structure_id in fit.kept_ids)
        xs = np.array([r.design.w_bottom_nm for r in kept_all])
        ys = np.array([r.g_uS for r in kept_all])
        slope, icept = np.polyfit(xs, ys, 1)
        wafer_rss = float(np.sum((ys - slope * xs - icept) ** 2))
        assert wafer_rss >= die_rss


class TestHeatmap:
    def test_uniform_zero_noise_all_ones(self):
        records = [mk(f"r{k}", 200.0, 101.25, pos=(float(k), 0.0)) for k in range(5)]
        grid = normalized_heatmap(records)
        assert grid.values.shape == (1, 5)
        assert np.all(grid.values == 1.0) and np.all(grid.valid)

    def test_rejected_cell_blank(self):
        records = [mk("a", 200.0, 100.0, pos=(0.0, 0.0)),
                   mk("b", 200.0, 100.0, pos=(2.0, 0.0)),
                   mk("c", 200.0, 100.0, pos=(0.0, 2.0))]
        grid = normalized_heatmap(records, grid_positions=[WaferPoint(2.0, 2.0)])
        assert not grid.valid[0, 1]            # (x=2, y=2) has no record
        with pytest.raises(KeyError):
            grid.cell_at(2.0, 2.0)

    def test_cell_ratio_matches_model(self, geom, design_200):
        layout = build_35x35("nbtin")
        process = ProcessModel(fidelity=Fidelity.BASIC, seed=0)
        records = synthesize_wafer(layout, geom, process, NO_PARASITICS)
        grid = normalized_heatmap(records)
        ratio = grid.cell_at(34.0, 0.0) / grid.cell_at(0.0, 0.0)
        expect = (actual_overlap_area(geom, design_200, WaferPoint(34, 0), Fidelity.BASIC)
                  / actual_overlap_area(geom, design_200, WaferPoint(0, 0), Fidelity.BASIC))
        assert ratio == pytest.approx(expect, rel=1e-12)

    def test_scale_invariance(self):
        records = [mk(f"r{k}", 200.0, 90.0 + k, pos=(float(k), 0.0)) for k in range(4)]
        scaled = [mk(r.structure_id, 200.0, 3.0 * r.g_uS,
                     pos=(r.position.x_mm, 0.0)) for r in records]
        a = normalized_heatmap(records)
        b = normalized_heatmap(scaled)
        assert np.allclose(a.values, b.values, rtol=1e-12)
        cv_a = next(iter(conductance_cv(records).values())).cv
        cv_b = next(iter(conductance_cv(scaled).values())).cv
        assert cv_a == pytest.approx(cv_b, rel=1e-12)


def reference_axis(coords: list[float], extra: list[float], descending: bool):
    """The grid axis and indices as a loop over Python floats builds them."""
    rounded = {c: round(c, 6) for c in dict.fromkeys(coords)}
    values = set(rounded.values())
    values.update(round(c, 6) for c in dict.fromkeys(extra))
    axis = tuple(sorted(values, reverse=descending))
    where = {v: k for k, v in enumerate(axis)}
    return axis, [where[rounded[c]] for c in coords]


# Coordinates that collide: 0.0 and -0.0, values that round to them or to
# each other at 6 decimals, and halfway cases of that rounding.
AXIS_COORDS = [0.0, -0.0, 1e-7, -1e-7, 4e-7, 5e-7, -5e-7, 2.0, 2.0000001, 1.9999996,
               0.0000015, 0.0000025, -34.0, 34.0, 5e-324, -5e-324, 1.25, 12.5000005]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(AXIS_COORDS), max_size=40),
       st.lists(st.sampled_from(AXIS_COORDS), max_size=10), st.booleans())
def test_axis_equals_the_python_loop(coords, extra, descending):
    axis, index = _axis(np.array(coords, dtype=float), iter(extra), descending)
    want_axis, want_index = reference_axis(coords, extra, descending)
    assert repr(axis) == repr(want_axis)        # repr tells -0.0 from 0.0
    assert index.tolist() == want_index


class TestEffectiveConductivity:
    def test_actual_areas_recover_sigma(self, geom):
        layout = build_35x35("nbtin")
        process = ProcessModel(sigma_j_uS_per_um2=900.0, fidelity=Fidelity.FULL)
        records = synthesize_wafer(layout, geom, process, NO_PARASITICS)
        points = effective_conductivity(records, "actual", geom=geom,
                                        fidelity=Fidelity.FULL)
        values = [v for _, v in points]
        assert max(values) - min(values) <= 900.0 * 1e-12

    def test_designed_areas_decrease_along_axis(self, geom):
        layout = build_35x35("nbtin")
        process = ProcessModel(fidelity=Fidelity.FULL)
        records = synthesize_wafer(layout, geom, process, NO_PARASITICS)
        axis = {r.position.x_mm: v for r, (d, v) in
                zip(records, effective_conductivity(records, "designed"))
                if r.position.y_mm == 0.0 and r.position.x_mm >= 0.0}
        xs = sorted(axis)
        assert all(axis[a] > axis[b] for a, b in zip(xs, xs[1:]))

    def test_parasitics_leave_residual_decrease_with_actual_areas(self, geom):
        layout = build_35x35("nbtin")
        process = ProcessModel(fidelity=Fidelity.FULL)
        parasitics = ParasiticsModel(substrate_uS=0.0)
        records = synthesize_wafer(layout, geom, process, parasitics)
        axis = {r.position.x_mm: v for r, (d, v) in
                zip(records, effective_conductivity(records, "actual", geom=geom))
                if r.position.y_mm == 0.0 and r.position.x_mm >= 0.0}
        xs = sorted(axis)
        assert all(axis[a] > axis[b] for a, b in zip(xs, xs[1:]))

    def test_area_table_source(self):
        records = [mk("a", 200.0, 100.0)]
        points = effective_conductivity(records, "actual", area_table={"a": 0.05})
        assert points == [(0.0, 100.0 / 0.1)]
        with pytest.raises(DataError):
            effective_conductivity(records, "actual", area_table={})
        with pytest.raises(DataError, match="^actual areas need a geometry or an area table$"):
            effective_conductivity(records, "actual")
        with pytest.raises(ValueError, match="^areas must be 'designed' or 'actual', "
                                             "got 'modelled'$"):
            effective_conductivity(records, "modelled")


class TestQuadraticRadialFit:
    def test_exact_parabola(self):
        points = [(d, 2.0 - 0.3 * d + 0.01 * d * d) for d in (0.0, 10.0, 25.0, 40.0)]
        a, b, c = quadratic_radial_fit(points)
        assert (a, b, c) == pytest.approx((2.0, -0.3, 0.01), abs=1e-9)

    def test_constant_data(self):
        a, b, c = quadratic_radial_fit([(d, 7.0) for d in (0.0, 10.0, 20.0, 30.0)])
        assert a == pytest.approx(7.0, abs=1e-9)
        assert b == pytest.approx(0.0, abs=1e-9)
        assert c == pytest.approx(0.0, abs=1e-9)

    def test_decreasing_trend_from_basic_model(self, geom, design_200):
        points = []
        for x in np.linspace(0.0, 48.0, 13):
            area = actual_overlap_area(geom, design_200, WaferPoint(x, 0),
                                       Fidelity.BASIC)
            points.append((float(x), 1000.0 * area / design_200.designed_area_um2()))
        a, b, c = quadratic_radial_fit(points)
        assert b < 0.0 or c < 0.0
        assert a + 50 * b + 2500 * c < a

    def test_underdetermined(self):
        with pytest.raises(FitError):
            quadratic_radial_fit([(0.0, 1.0), (1.0, 2.0)])
