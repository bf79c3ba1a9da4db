"""Inverse-model pre-compensation: round trips and edge handling."""

import math

import numpy as np
import pytest

from jjshadow.analysis import effective_conductivity
from jjshadow.cli import main
from jjshadow.compensation import (
    compensated_layout,
    precompensate,
    precompensate_fixed_top,
)
from jjshadow.config import parse_config
from jjshadow.errors import TargetError
from jjshadow.geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
)
from jjshadow.io import write_layout_csv
from jjshadow.layout import build_35x35, build_planar_17q, build_tsv_17q
from jjshadow.synth import NO_PARASITICS, ProcessModel, synthesize_wafer

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
        centred = type(base)(base.kind, tuple(
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
        geom = parse_config(BRIDGE_TILT_25_CFG).geometry()
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

    def test_fixed_top_layout_mode(self, geom):
        layout = build_35x35("tin")
        result = compensated_layout(layout, geom, Fidelity.BASIC, fixed_top_nm=160.0)
        tops = {s.design.w_top_nm for s in result.structures}
        assert tops == {160.0}
