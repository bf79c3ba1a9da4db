"""Synthetic conductance generation: composition, determinism, defects."""

import math

import numpy as np
import pytest

from jjshadow.errors import DataError
from jjshadow.geometry import EvaporatorGeometry, Fidelity, Variant, WaferPoint
from jjshadow.layout import build_35x35, build_planar_17q
from jjshadow.synth import (
    NO_PARASITICS,
    ParasiticsModel,
    ProcessModel,
    SHORT_PAIR_G_US,
    synthesize_wafer,
    truth_table,
)

CLEAN = ProcessModel(sigma_j_uS_per_um2=1000.0, fidelity=Fidelity.BASIC, seed=7)


@pytest.fixture(scope="module")
def grid35():
    return build_35x35("nbtin")


def by_id(records):
    return {r.structure_id: r for r in records}


class TestComposition:
    def test_clean_pair_at_centre(self, geom, grid35):
        records = by_id(synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS))
        centre = records["Nr17c17"]
        assert centre.position == WaferPoint(0.0, 0.0)
        assert centre.g_uS == pytest.approx(101.25, abs=1e-12)

    def test_single_junction_is_half(self, geom):
        layout = build_35x35("al")
        records = by_id(synthesize_wafer(layout, geom, CLEAN, NO_PARASITICS))
        assert records["Ar17c17"].g_uS == pytest.approx(50.625, abs=1e-12)

    def test_flatness_with_actual_areas(self, geom, grid35):
        # Without disorder or parasitics, G / (2 A'_full) recovers the
        # nominal conductivity at every grid point to machine precision.
        process = ProcessModel(sigma_j_uS_per_um2=1234.5, fidelity=Fidelity.FULL)
        from jjshadow.geometry import actual_overlap_area

        for rec in synthesize_wafer(grid35, geom, process, NO_PARASITICS)[::53]:
            area = actual_overlap_area(geom, rec.design, rec.position, Fidelity.FULL)
            assert rec.g_uS / (2 * area) == pytest.approx(1234.5, rel=1e-14)

    def test_dolan_uses_bridge_tilt(self, geom):
        layout = build_planar_17q()
        records = by_id(synthesize_wafer(layout, geom, CLEAN, NO_PARASITICS))
        rec = records["D+1+1s04c00"]
        d15 = EvaporatorGeometry(alpha_deg=15.0)
        loss = abs(rec.position.x_mm) * 1e6 * 600.0 / d15.source_distance_nm()
        expect = 2 * 1000.0 * (rec.design.w_top_nm + 25.0 - loss) * 200.0 / 1e6
        assert rec.g_uS == pytest.approx(expect, rel=1e-12)


class TestParasitics:
    def test_series_and_substrate(self, geom, grid35):
        parasitics = ParasiticsModel()          # pad 200..330, cabling 5, substrate 5
        records = by_id(synthesize_wafer(grid35, geom, CLEAN, parasitics))
        g_pair = 101.25
        expect = 1e6 / (1e6 / g_pair + 205.0) + 5.0
        assert records["Nr17c17"].g_uS == pytest.approx(expect, rel=1e-12)

    def test_pad_profile_creates_radial_decrease(self, geom, grid35):
        parasitics = ParasiticsModel(substrate_uS=0.0, cabling_ohm=0.0)
        records = synthesize_wafer(grid35, geom, CLEAN, parasitics)
        sigma_eff = {}
        for rec in records:
            if rec.position.y_mm == 0.0 and rec.position.x_mm >= 0.0:
                from jjshadow.geometry import actual_overlap_area
                area = actual_overlap_area(geom, rec.design, rec.position,
                                           Fidelity.BASIC)
                sigma_eff[rec.position.x_mm] = rec.g_uS / (2 * area)
        xs = sorted(sigma_eff)
        values = [sigma_eff[x] for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_series_terms(self, geom, grid35):
        base = by_id(synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS))
        for kwargs in ({"pad_centre_ohm": 50.0, "pad_edge_ohm": 50.0},
                       {"cabling_ohm": 9.0},
                       {"contact_centre_ohm": 20.0, "contact_edge_ohm": 40.0}):
            merged = dict(pad_centre_ohm=0.0, pad_edge_ohm=0.0, substrate_uS=0.0,
                          cabling_ohm=0.0)
            merged.update(kwargs)
            loaded = by_id(synthesize_wafer(grid35, geom, CLEAN,
                                            ParasiticsModel(**merged)))
            assert all(loaded[k].g_uS < base[k].g_uS for k in base)

    def test_monotone_in_substrate(self, geom, grid35):
        base = by_id(synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS))
        bumped = by_id(synthesize_wafer(
            grid35, geom, CLEAN,
            ParasiticsModel(pad_centre_ohm=0.0, pad_edge_ohm=0.0,
                            substrate_uS=3.0, cabling_ohm=0.0)))
        assert all(bumped[k].g_uS > base[k].g_uS for k in base)


class TestDeterminismAndDefects:
    def test_same_seed_same_records(self, geom, grid35):
        process = ProcessModel(lognormal_sigma=0.05, p_open=0.02, p_short=0.01,
                               fidelity=Fidelity.FULL, seed=42)
        a = synthesize_wafer(grid35, geom, process)
        b = synthesize_wafer(grid35, geom, process)
        assert a == b

    def test_different_seed_differs(self, geom, grid35):
        p1 = ProcessModel(lognormal_sigma=0.05, seed=1)
        p2 = ProcessModel(lognormal_sigma=0.05, seed=2)
        assert (synthesize_wafer(grid35, geom, p1, NO_PARASITICS)
                != synthesize_wafer(grid35, geom, p2, NO_PARASITICS))

    def test_defects_change_only_flagged_structures(self, geom, grid35):
        noisy = dict(lognormal_sigma=0.03, fidelity=Fidelity.FULL, seed=99)
        clean = by_id(synthesize_wafer(
            grid35, geom, ProcessModel(**noisy), NO_PARASITICS))
        defective = synthesize_wafer(
            grid35, geom, ProcessModel(p_open=0.05, p_short=0.02, **noisy),
            NO_PARASITICS)
        changed = {r.structure_id for r in defective
                   if r.g_uS != clean[r.structure_id].g_uS}
        flagged = {r.structure_id for r in defective if r.truth_flags}
        assert changed == flagged
        assert flagged            # the probabilities actually fired

    def test_open_half_is_half(self, geom, grid35):
        records = synthesize_wafer(
            grid35, geom,
            ProcessModel(sigma_j_uS_per_um2=1000.0, p_open=0.05,
                         fidelity=Fidelity.BASIC, seed=3),
            NO_PARASITICS)
        clean = by_id(synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS))
        halves = [r for r in records if r.truth_flags == frozenset({"open_half"})]
        assert halves
        for rec in halves:
            assert rec.g_uS == pytest.approx(clean[rec.structure_id].g_uS / 2.0,
                                             rel=1e-12)

    def test_short_sets_high_conductance(self, geom, grid35):
        records = synthesize_wafer(
            grid35, geom, ProcessModel(p_short=0.05, fidelity=Fidelity.BASIC, seed=5),
            NO_PARASITICS)
        shorts = [r for r in records if "short" in (r.truth_flags or ())]
        assert shorts
        assert all(r.g_uS == SHORT_PAIR_G_US for r in shorts)
        assert SHORT_PAIR_G_US > 500.0

    def test_open_full_reads_substrate_only(self, geom, grid35):
        records = synthesize_wafer(
            grid35, geom,
            ProcessModel(p_open=0.2, fidelity=Fidelity.BASIC, seed=11),
            ParasiticsModel(pad_centre_ohm=0, pad_edge_ohm=0, cabling_ohm=0,
                            substrate_uS=5.0))
        fulls = [r for r in records if r.truth_flags == frozenset({"open_full"})]
        assert fulls
        assert all(r.g_uS == 5.0 for r in fulls)


class TestTruthTable:
    def test_counts_and_disjointness(self, geom, grid35):
        records = synthesize_wafer(
            grid35, geom,
            ProcessModel(p_open=0.05, p_short=0.02, fidelity=Fidelity.BASIC, seed=21),
            NO_PARASITICS)
        table = truth_table(records)
        flagged = [r for r in records if r.truth_flags]
        assert sum(len(v) for v in table.values()) == len(flagged)
        assert not (table["open_half"] & table["open_full"])
        assert not (table["open_half"] & table["short"])
        assert not (table["open_full"] & table["short"])

    def test_no_defects_empty_classes(self, geom, grid35):
        table = truth_table(synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS))
        assert all(len(v) == 0 for v in table.values())

    def test_error_without_truth(self, geom, grid35):
        from dataclasses import replace

        records = [replace(r, truth_flags=None)
                   for r in synthesize_wafer(grid35, geom, CLEAN, NO_PARASITICS)]
        with pytest.raises(DataError):
            truth_table(records)


class TestValidation:
    def test_bad_probabilities(self):
        with pytest.raises(DataError):
            ProcessModel(p_open=1.5)
        with pytest.raises(DataError):
            ProcessModel(sigma_j_uS_per_um2=0.0)

    def test_negative_resistance(self):
        with pytest.raises(DataError):
            ParasiticsModel(cabling_ohm=-1.0)
