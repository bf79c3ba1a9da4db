"""Full-pipeline report assembly on synthetic wafers."""

import numpy as np
import pytest

from jjshadow.analysis import (
    FilterConfig,
    FrequencyModel,
    absolute_filter,
    frequency_rsd,
    mean_filter,
    regression_filter_die,
)
from jjshadow.errors import DataError
from jjshadow.geometry import Fidelity, Variant
from jjshadow.layout import build_35x35, build_planar_17q
from jjshadow.report import build_report, deembed_records, render_report_text
from jjshadow.synth import (
    NO_PARASITICS,
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


class TestUniformPipeline:
    def test_zero_noise_rsd_is_exactly_zero(self, geom_module):
        from dataclasses import replace

        from jjshadow.geometry import WaferPoint

        base = build_35x35("nbtin")
        centred = type(base)(base.kind, tuple(
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
