"""Full-pipeline report assembly on synthetic wafers."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jjshadow
from jjshadow.analysis import (
    FilterConfig,
    FrequencyModel,
    RegressionFit,
    Regressor,
    _exact_mean,
    _regressor,
    absolute_filter,
    conductance_cv,
    effective_conductivity,
    frequency_rsd,
    mean_filter,
    normalized_heatmap,
    quadratic_radial_fit,
    regression_filter_die,
)
from jjshadow.cli import main
from jjshadow.errors import DataError, FitError
from jjshadow.geometry import VARIANT_CODES, Fidelity, JunctionDesign, Variant, WaferPoint
from jjshadow.io import write_measurements_csv
from jjshadow.layout import build_35x35, build_planar_17q
from jjshadow.report import build_report, deembed_records, render_report_text
from jjshadow.synth import (
    NO_PARASITICS,
    MeasurementRecord,
    MeasurementTable,
    ParasiticsModel,
    ProcessModel,
    synthesize_wafer,
    truth_table,
)

CFG = FilterConfig()
FREQ = FrequencyModel()


@pytest.fixture(scope="module")
def sweep_records(geom_module):
    process = ProcessModel(lognormal_sigma=0.02, p_open=0.01, fidelity=Fidelity.FULL,
                           seed=13)
    return synthesize_wafer(build_planar_17q(), geom_module, process, NO_PARASITICS)


@pytest.fixture(scope="module")
def geom_module():
    from jjshadow.geometry import EvaporatorGeometry

    return EvaporatorGeometry()


class TestSweepPipeline:
    def test_partitions_and_yield(self, sweep_records):
        report = build_report(sweep_records, CFG, FREQ)
        assert report.pipeline == "sweep"
        assert report.total == len(sweep_records)
        assert (len(report.kept) + len(report.abs_rejected_ids)
                + len(report.rel_rejected_ids) == report.total)
        assert 0.9 < report.yield_fraction() <= 1.0

    def test_filters_catch_injected_defects(self, sweep_records):
        report = build_report(sweep_records, CFG, FREQ)
        truth = truth_table(sweep_records)
        rejected = report.abs_rejected_ids | report.rel_rejected_ids
        caught = len(truth["open_half"] & rejected)
        assert caught / len(truth["open_half"]) >= 0.99

    def test_die_rsd_keys(self, sweep_records):
        report = build_report(sweep_records, CFG, FREQ)
        assert len(report.rsd_die_mhz) == 16            # 8 dies per variant
        variants = {v for v, _ in report.rsd_die_mhz}
        assert variants == {"dolan", "manhattan"}
        assert all(v >= 0.0 for v in report.rsd_die_mhz.values())

    def test_dual_rsd_not_below_filtered(self, sweep_records):
        report = build_report(sweep_records, CFG, FREQ, dual_rsd=True)
        for key, nf in report.rsd_die_nf_mhz.items():
            assert nf >= report.rsd_die_mhz[key] * 0.5
        # unfiltered data includes the half-opens, so wafer nf is larger
        for variant, nf in report.rsd_wafer_nf_mhz.items():
            assert nf >= report.rsd_wafer_mhz[variant]

    def test_conductivity_fit_present(self, sweep_records, geom_module):
        report = build_report(sweep_records, CFG, FREQ, geom=geom_module,
                              fidelity=Fidelity.FULL)
        assert set(report.conductivity_fit_designed) == {"dolan", "manhattan"}
        assert set(report.conductivity_fit_actual) == {"dolan", "manhattan"}

    def test_text_rendering_deterministic(self, sweep_records):
        a = render_report_text(build_report(sweep_records, CFG, FREQ))
        b = render_report_text(build_report(sweep_records, CFG, FREQ))
        assert a == b
        assert a.startswith("# jjshadow uniformity report\npipeline = sweep\n")
        assert "[cv wafer]" in a and "[rsd die]" in a and "[rsd wafer]" in a


class TestAgreesWithPublicApi:
    """The report's filter and die RSD equal the public per-die functions."""

    def test_sweep_dies(self, sweep_records):
        report = build_report(sweep_records, CFG, FREQ)
        groups = {}
        for rec in absolute_filter(sweep_records, CFG)[0]:
            groups.setdefault((rec.design.variant.value, rec.die_index), []).append(rec)
        assert set(groups) == set(report.rsd_die_mhz)
        rejected = set()
        for key, group in groups.items():
            fit = regression_filter_die(group, CFG)
            rejected |= fit.rejected_ids
            kept = [rec for rec in group if rec.structure_id in fit.kept_ids]
            assert frequency_rsd(kept, fit, CFG, FREQ) == report.rsd_die_mhz[key]
        assert rejected and report.rel_rejected_ids == rejected

    def test_uniform_wafer(self, geom_module):
        records = synthesize_wafer(
            build_35x35("nbtin"), geom_module,
            ProcessModel(lognormal_sigma=0.02, p_open=0.03, fidelity=Fidelity.BASIC, seed=6),
            NO_PARASITICS)
        report = build_report(records, CFG, FREQ)
        assert report.pipeline == "uniform"
        rejected = mean_filter(absolute_filter(records, CFG)[0], CFG)[1]
        assert rejected
        assert report.rel_rejected_ids == {rec.structure_id for rec in rejected}


def _model_fit(rows: MeasurementTable, cfg: FilterConfig, uniform: bool) -> RegressionFit:
    """The pipeline's model fitted once to all of rows: the mean for uniform
    layouts, else np.polyfit's line against the regressor."""
    if uniform:
        slope, intercept = 0.0, _exact_mean(rows.g_uS)
    else:
        slope, intercept = np.polyfit(_regressor(rows, cfg), rows.g_uS, 1).tolist()
    return RegressionFit((0, 0), slope, intercept, (), frozenset(), frozenset())


def _radial_fit(rows: MeasurementTable, *args):
    try:
        return quadratic_radial_fit(effective_conductivity(rows, *args))
    except FitError:
        return None


@pytest.fixture(scope="module")
def mc_wafers():
    """The wafer-mc wafers, each with its grid positions per variant."""
    wafers = {}
    for name, layout in (("planar17q", build_planar_17q()),
                         ("planar35x35-al", build_35x35("al", omitted_rows=(33, 34)))):
        grid: dict = {}
        for s in layout.structures:
            grid.setdefault(s.design.variant.value, []).append(s.position)
        wafers[name] = layout, grid
    return wafers


class TestSharedResults:
    """build_report computes each die fit, design-group mean and radius
    array once and shares it; every result equals what the public analysis
    functions give on the same sub-tables, to the bit."""

    @pytest.mark.parametrize("regressor", list(Regressor))
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("wafer", ["planar17q", "planar35x35-al"])
    def test_equals_public_functions(self, mc_wafers, geom_module, wafer, seed, regressor):
        layout, grid = mc_wafers[wafer]
        process = ProcessModel(lognormal_sigma=0.02, p_open=0.03, p_short=0.01,
                               fidelity=Fidelity.FULL, seed=seed)
        records = synthesize_wafer(layout, geom_module, process, ParasiticsModel())
        cfg = FilterConfig(regressor=regressor)
        report = build_report(records, cfg, FREQ, dual_rsd=True, geom=geom_module,
                              fidelity=Fidelity.FULL, grid_positions=grid)
        uniform = report.pipeline == "uniform"
        assert uniform is (wafer == "planar35x35-al")
        kept = report.kept
        unfiltered = MeasurementTable.from_records(absolute_filter(records, cfg)[0])

        assert repr(report.cv_by_area) == repr(conductance_cv(kept, "wafer"))

        def rows(table, variant, die=None):
            mask = table.variant == VARIANT_CODES[Variant(variant)]
            if die is not None:
                mask &= (table.die_x == die[0]) & (table.die_y == die[1])
            return table.take(mask)

        dies = sorted({(rec.design.variant.value, rec.die_index) for rec in unfiltered})
        assert sorted(report.rsd_die_mhz) == sorted(report.rsd_die_nf_mhz) == dies
        for key in dies:
            die_rows = rows(unfiltered, *key)
            if uniform:
                kept_rows = rows(kept, *key)
                fit = _model_fit(kept_rows, cfg, uniform)
            else:
                fit = regression_filter_die(die_rows, cfg)
                kept_rows = die_rows.take(np.isin(die_rows.structure_id, list(fit.kept_ids)))
            assert repr(report.rsd_die_mhz[key]) == repr(
                frequency_rsd(kept_rows, fit, cfg, FREQ))
            assert repr(report.rsd_die_nf_mhz[key]) == repr(
                frequency_rsd(die_rows, _model_fit(die_rows, cfg, uniform), cfg, FREQ))

        variants = sorted(set(report.heatmaps))
        assert variants == sorted(report.rsd_wafer_mhz) == sorted(report.rsd_wafer_nf_mhz)
        for variant in variants:
            for got, table in ((report.rsd_wafer_mhz, kept),
                               (report.rsd_wafer_nf_mhz, unfiltered)):
                sub = rows(table, variant)
                assert repr(got[variant]) == repr(
                    frequency_rsd(sub, _model_fit(sub, cfg, uniform), cfg, FREQ))

            sub = rows(kept, variant)
            heatmap, want = report.heatmaps[variant], normalized_heatmap(sub, grid[variant])
            assert (heatmap.xs, heatmap.ys) == (want.xs, want.ys)
            assert np.array_equal(heatmap.valid, want.valid)
            assert heatmap.values.tobytes() == want.values.tobytes()

            assert repr(report.conductivity_fit_designed.get(variant)) == repr(
                _radial_fit(sub))
            assert repr(report.conductivity_fit_actual.get(variant)) == repr(
                _radial_fit(sub, "actual", geom_module, Fidelity.FULL))

    def test_planar17q_polyfit_calls(self, mc_wafers, geom_module, monkeypatch):
        # 16 dies x 2 passes, 2 filtered and 2 unfiltered wafer lines and
        # 4 conductivity fits; each die's pass-1 line is its unfiltered fit.
        layout, grid = mc_wafers["planar17q"]
        process = ProcessModel(lognormal_sigma=0.02, p_open=0.0152, p_short=0.002,
                               fidelity=Fidelity.FULL, seed=1)
        records = synthesize_wafer(layout, geom_module, process, ParasiticsModel())
        calls = []
        polyfit = np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda *a, **k: calls.append(a[2]) or polyfit(*a, **k))
        report = build_report(records, CFG, FREQ, dual_rsd=True, geom=geom_module,
                              fidelity=Fidelity.FULL, grid_positions=grid)
        assert len(report.rsd_die_nf_mhz) == 16 and len(report.conductivity_fit_actual) == 2
        assert sorted(calls) == [1] * 36 + [2] * 4


class TestUniformPipeline:
    def test_zero_noise_rsd_is_exactly_zero(self, geom_module):
        from dataclasses import replace

        from jjshadow.geometry import WaferPoint

        base = build_35x35("nbtin")
        centred = type(base)(tuple(
            replace(s, position=WaferPoint(0.0, 0.0)) for s in base.structures))
        records = synthesize_wafer(centred, geom_module,
                                   ProcessModel(fidelity=Fidelity.FULL),
                                   NO_PARASITICS)
        report = build_report(records, CFG, FREQ)
        assert report.pipeline == "uniform"
        assert all(v == 0.0 for v in report.rsd_die_mhz.values())
        assert all(v == 0.0 for v in report.rsd_wafer_mhz.values())
        grid = report.heatmaps["manhattan"]
        assert np.all(grid.values[grid.valid] == 1.0)

    def test_mean_filter_applied(self, geom_module):
        records = synthesize_wafer(
            build_35x35("nbtin"), geom_module,
            ProcessModel(p_open=0.03, fidelity=Fidelity.BASIC, seed=6),
            NO_PARASITICS)
        report = build_report(records, CFG, FREQ)
        truth = truth_table(records)
        rejected = report.abs_rejected_ids | report.rel_rejected_ids
        assert truth["open_half"] <= rejected

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            build_report([], CFG, FREQ)

    def test_die_emptied_by_the_mean_filter(self, tmp_path, capsys):
        # All six readings lie in the 20-500 uS window; their mean is 212.5
        # uS, so the 148.75 uS cut rejects each reading of die (2, 1).
        design = JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)
        records = [MeasurementRecord(f"d{x}r{k}", (x, 1), WaferPoint(13.0 * x, 6.5), design,
                                     0.04, 2, g, frozenset())
                   for x, g in ((1, 400.0), (2, 25.0)) for k in range(3)]
        message = "die (2, 1): mean filter rejected every record"
        with pytest.raises(FitError, match=f"^{re.escape(message)}$"):
            build_report(records, CFG, FREQ)
        meas, out_dir = tmp_path / "m.csv", tmp_path / "out"
        write_measurements_csv(records, meas)
        assert main(["analyze", "--measurements", str(meas), "--out-dir", str(out_dir)]) == 3
        assert capsys.readouterr().err == f"jjshadow: numerical failure: {message}\n"
        assert not out_dir.exists()


class TestDeembedding:
    def test_recovers_pair_conductance(self, geom_module):
        parasitics = ParasiticsModel()
        records = synthesize_wafer(build_35x35("nbtin"), geom_module,
                                   ProcessModel(fidelity=Fidelity.BASIC), parasitics)
        clean = synthesize_wafer(build_35x35("nbtin"), geom_module,
                                 ProcessModel(fidelity=Fidelity.BASIC), NO_PARASITICS)
        corrected = deembed_records(records, parasitics)
        for got, want in zip(corrected, clean):
            assert got.g_uS == pytest.approx(want.g_uS, rel=1e-9)

    def test_inconsistent_reading_rejected(self, geom_module):
        records = synthesize_wafer(build_35x35("nbtin"), geom_module,
                                   ProcessModel(fidelity=Fidelity.BASIC),
                                   NO_PARASITICS)
        huge = ParasiticsModel(pad_centre_ohm=50000.0, pad_edge_ohm=50000.0,
                               substrate_uS=0.0, cabling_ohm=0.0)
        with pytest.raises(DataError):
            deembed_records(records, huge)


SYNTHESIZE_AND_REPORT = """
import sys
from jjshadow.analysis import FilterConfig, FrequencyModel
from jjshadow.geometry import EvaporatorGeometry
from jjshadow.layout import build_planar_17q
from jjshadow.report import build_report
from jjshadow.synth import ProcessModel, synthesize_wafer
records = synthesize_wafer(build_planar_17q(), EvaporatorGeometry(), ProcessModel())
build_report(records, FilterConfig(), FrequencyModel())
print("numpy.ma" in sys.modules)
"""


def _in_fresh_interpreter(code: str) -> str:
    """The last word code prints in a new Python process."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=Path(jjshadow.__file__).parents[1])
    return done.stdout.split()[-1]


def test_synthesis_and_report_leave_numpy_ma_unimported():
    # A plain np.unique(x) imports numpy.ma, some 14 ms of a cold command.
    if _in_fresh_interpreter("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy already loads numpy.ma")
    assert _in_fresh_interpreter(SYNTHESIZE_AND_REPORT) == "False"


@pytest.mark.parametrize("module, loaded", [
    ("jjshadow", ""),
    ("jjshadow.geometry", "jjshadow.errors,jjshadow.geometry"),
    ("jjshadow.imaging", "jjshadow.errors,jjshadow.geometry,jjshadow.imaging"),
])
def test_importing_a_module_loads_only_the_modules_it_uses(module, loaded):
    # The package root imports nothing, so a command or test that needs one
    # module does not pay for the other nine.
    code = (f"import sys, {module}; print('loaded:' + ','.join(sorted("
            f"m for m in sys.modules if m.startswith('jjshadow.'))))")
    assert _in_fresh_interpreter(code) == f"loaded:{loaded}"
