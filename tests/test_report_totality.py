"""build_report and the analysis entry points it is built from are total on
degenerate tables: finite numbers or a package error."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jjshadow.analysis import (
    FilterConfig,
    FrequencyModel,
    Regressor,
    absolute_filter,
    conductance_cv,
    effective_conductivity,
    frequency_rsd,
    mean_filter,
    normalized_heatmap,
    quadratic_radial_fit,
    regression_filter_die,
)
from jjshadow.errors import JJShadowError
from jjshadow.geometry import EvaporatorGeometry, Fidelity, JunctionDesign, Variant, WaferPoint
from jjshadow.report import UniformityReport, build_report, render_report_text
from jjshadow.synth import MeasurementRecord

# Degenerate inputs: the centre (radius 0), repeated points and radii,
# readings at 0, on the default window's edges (20 and 500 uS) and outside
# it, and zero designed widths.
POSITIONS = [(0.0, 0.0), (3.0, -4.0), (-4.0, 3.0), (0.0, -20.0), (30.0, 30.0), (-45.0, 0.0)]
READINGS = [0.0, 19.9, 20.0, 60.0, 100.0, 100.5, 250.0, 500.0, 500.1, 1e4]
WIDTHS = [0.0, 100.0, 150.0, 200.0, 400.0]


@st.composite
def degenerate_records(draw) -> list[MeasurementRecord]:
    """1-12 records on one or two dies, of one to four designs of one or both variants."""
    variants = draw(st.sampled_from([[Variant.MANHATTAN], [Variant.DOLAN], list(Variant)]))
    designs = draw(st.lists(st.builds(JunctionDesign, st.sampled_from(variants),
                                      st.sampled_from(WIDTHS), st.sampled_from(WIDTHS)),
                            min_size=1, max_size=4))
    dies = draw(st.sampled_from([[(0, 0)], [(0, 0), (1, -1)]]))
    records = []
    for i in range(draw(st.integers(1, 12))):
        design = draw(st.sampled_from(designs))
        g = draw(st.sampled_from(READINGS) | st.floats(0.0, 600.0))
        records.append(MeasurementRecord(
            f"s{i}", draw(st.sampled_from(dies)), WaferPoint(*draw(st.sampled_from(POSITIONS))),
            design, design.designed_area_um2(), 2, g, frozenset()))
    return records


def report_numbers(report: UniformityReport) -> list[float]:
    """Every number of report; only a CV group of one member has no cv."""
    numbers = [report.yield_fraction()]
    for stats in report.cv_by_area.values():
        assert stats.cv is not None or stats.n == 1
        numbers += [stats.mean_uS, stats.std_uS] + [stats.cv] * (stats.cv is not None)
    for rsds in (report.rsd_die_mhz, report.rsd_wafer_mhz, report.rsd_die_nf_mhz,
                 report.rsd_wafer_nf_mhz):
        numbers += rsds.values()
    for grid in report.heatmaps.values():
        numbers += grid.values[grid.valid].tolist()
    for fits in (report.conductivity_fit_designed, report.conductivity_fit_actual):
        numbers += [c for fit in fits.values() for c in fit]
    return numbers


@settings(max_examples=150, deadline=None)
@given(degenerate_records())
def test_finite_report_or_package_error(records):
    geom = EvaporatorGeometry()
    for fidelity in Fidelity:
        for regressor in Regressor:
            try:
                report = build_report(records, FilterConfig(regressor=regressor),
                                      FrequencyModel(), dual_rsd=True, geom=geom,
                                      fidelity=fidelity)
            except JJShadowError:
                continue
            assert np.all(np.isfinite(report_numbers(report)))
            render_report_text(report)


def finite_or_package_error(call, *args, **kwargs):
    """call(*args, **kwargs), or None if it raises a package error."""
    try:
        return call(*args, **kwargs)
    except JJShadowError:
        return None


def assert_finite(numbers):
    assert np.all(np.isfinite(np.asarray(list(numbers), dtype=float)))


ENTRY_POINTS = settings(max_examples=100, deadline=None)


@ENTRY_POINTS
@given(degenerate_records())
def test_conductance_cv_and_heatmap(records):
    for scope in ("wafer", "die"):
        groups = finite_or_package_error(conductance_cv, records, scope)
        for stats in (groups or {}).values():
            assert stats.cv is not None or stats.n == 1
            assert_finite([stats.mean_uS, stats.std_uS] + [stats.cv] * (stats.cv is not None))
    grid = finite_or_package_error(normalized_heatmap, records)
    if grid is not None:
        assert_finite(grid.values[grid.valid].tolist())


@ENTRY_POINTS
@given(degenerate_records())
def test_effective_conductivity_and_its_quadratic_fit(records):
    geom = EvaporatorGeometry()
    runs = [("designed", Fidelity.FULL)] + [("actual", fidelity) for fidelity in Fidelity]
    for areas, fidelity in runs:
        points = finite_or_package_error(effective_conductivity, records, areas, geom,
                                         fidelity)
        if points is not None:
            assert_finite([number for point in points for number in point])
            fit = finite_or_package_error(quadratic_radial_fit, points)
            if fit is not None:
                assert_finite(fit)


@ENTRY_POINTS
@given(degenerate_records())
def test_filters_split_their_input(records):
    cfg = FilterConfig()
    kept, rejected = absolute_filter(records, cfg)
    assert sorted(kept + rejected, key=records.index) == records
    for given_records in (records, kept):
        split = finite_or_package_error(mean_filter, given_records, cfg)
        if split is not None:
            assert sorted(split[0] + split[1], key=given_records.index) == given_records


@ENTRY_POINTS
@given(degenerate_records())
def test_regression_filter_and_frequency_rsd_on_one_die(records):
    die = [rec for rec in records if rec.die_index == records[0].die_index]
    for regressor in Regressor:
        cfg = FilterConfig(regressor=regressor)
        fit = finite_or_package_error(regression_filter_die, die, cfg)
        if fit is None:
            continue
        assert_finite([fit.slope, fit.intercept] + [r for _, r in fit.residuals_uS])
        assert fit.kept_ids | fit.rejected_ids == {rec.structure_id for rec in die}
        kept = [rec for rec in die if rec.structure_id in fit.kept_ids]
        rsd = finite_or_package_error(frequency_rsd, kept, fit, cfg)
        if rsd is not None:
            assert_finite([rsd])
