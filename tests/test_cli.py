"""Command-line behaviour: schemas, counts, determinism, exit codes."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jjshadow
from jjshadow.cli import main
from jjshadow.geometry import WaferPoint
from jjshadow.io import write_layout_csv
from jjshadow.layout import build_35x35

ZERO_NOISE_CFG = """
process.sigma_j_uS_per_um2 = 1000
parasitics.pad_centre_ohm = 0
parasitics.pad_edge_ohm = 0
parasitics.substrate_uS = 0
parasitics.cabling_ohm = 0
"""


def run(*argv):
    return main([str(a) for a in argv])


def rows(path):
    return path.read_text().splitlines()


class TestLayoutCommand:
    def test_planar17q_counts(self, tmp_path):
        out = tmp_path / "layout.csv"
        assert run("layout", "--kind", "planar17q", "--out", out) == 0
        assert len(rows(out)) == 4353              # header + 2176 x 2

    def test_tsv_counts(self, tmp_path):
        out = tmp_path / "layout.csv"
        assert run("layout", "--kind", "tsv17q-manhattan", "--out", out) == 0
        body = rows(out)[1:]
        assert len(body) == 3400
        assert sum(1 for line in body if line.endswith(",false")) == 3024

    def test_35x35_al_counts(self, tmp_path):
        out = tmp_path / "layout.csv"
        assert run("layout", "--kind", "planar35x35-al", "--out", out) == 0
        body = rows(out)[1:]
        assert len(body) == 1225
        assert sum(1 for line in body if line.endswith(",false")) == 1155

    def test_custom_omit_rows(self, tmp_path):
        out = tmp_path / "layout.csv"
        assert run("layout", "--kind", "planar35x35-al", "--omit-rows", "",
                   "--out", out) == 0
        assert sum(1 for line in rows(out)[1:] if line.endswith(",false")) == 1225


class TestSimulateAnalyze:
    def test_deterministic_output_bytes(self, tmp_path):
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-nbtin", "--out", layout)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process.lognormal_sigma = 0.05\nprocess.p_open = 0.02\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--layout", layout, "--config", cfg,
                   "--seed", 123, "--out", a) == 0
        assert run("simulate", "--layout", layout, "--config", cfg,
                   "--seed", 123, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert run("simulate", "--layout", layout, "--config", cfg,
                   "--seed", 124, "--out", c) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_truth_sidecar(self, tmp_path):
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-nbtin", "--out", layout)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process.p_open = 0.05\n")
        out, truth = tmp_path / "m.csv", tmp_path / "t.csv"
        assert run("simulate", "--layout", layout, "--config", cfg, "--seed", 1,
                   "--out", out, "--truth-out", truth) == 0
        lines = rows(truth)
        assert lines[0] == "structure_id,flags"
        assert len(lines) == 1226
        assert any("open" in line for line in lines[1:])

    def test_pipeline_identity_rsd_zero(self, tmp_path):
        # Zero noise on a uniform wafer with every structure at the centre:
        # measured G is one constant, so the report's RSDs are exactly 0 and
        # heatmap cells exactly 1.
        base = build_35x35("nbtin")
        centred = type(base)(base.kind, tuple(
            replace(s, position=WaferPoint(0.0, 0.0)) for s in base.structures))
        layout = tmp_path / "layout.csv"
        write_layout_csv(centred, layout)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ZERO_NOISE_CFG)
        meas = tmp_path / "meas.csv"
        assert run("simulate", "--layout", layout, "--config", cfg,
                   "--seed", 0, "--out", meas) == 0
        out_dir = tmp_path / "analysis"
        assert run("analyze", "--measurements", meas, "--config", cfg,
                   "--out-dir", out_dir) == 0
        report = (out_dir / "report.txt").read_text()
        assert "pipeline = uniform" in report
        assert "manhattan 0 0 0\n" in report            # die RSD exactly zero
        assert "yield = 1225/1225 = 1.0000" in report
        heatmap = rows(out_dir / "heatmap_manhattan.csv")
        assert heatmap[1].split(",")[4] == "1.0"

    def test_analyze_writes_heatmap_files(self, tmp_path):
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-tin", "--out", layout)
        meas = tmp_path / "m.csv"
        run("simulate", "--layout", layout, "--seed", 5, "--out", meas)
        out_dir = tmp_path / "analysis"
        assert run("analyze", "--measurements", meas, "--layout", layout,
                   "--out-dir", out_dir) == 0
        assert (out_dir / "heatmap_manhattan.csv").exists()
        assert (out_dir / "heatmap_manhattan.pgm").read_bytes().startswith(b"P5")


class TestFieldmap:
    def test_area_ratio_example(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "area", "--step", "25",
                   "--fidelity", "basic", "--out", out) == 0
        table = {}
        for line in rows(out)[1:]:
            x, y, value = line.split(",")
            if value:
                table[(float(x), float(y))] = float(value)
        assert table[(50.0, 0.0)] / table[(0.0, 0.0)] == pytest.approx(0.7163,
                                                                       abs=1e-3)

    def test_blank_cells_when_pinched(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "wb", "--step", "10", "--wb", "20",
                   "--out", out) == 0
        blank = [line for line in rows(out)[1:] if line.endswith(",")]
        assert blank                                  # pinch-off far from centre


class TestRenderExtract:
    def test_grid_render_and_extract_counts(self, tmp_path):
        out_dir = tmp_path / "imgs"
        assert run("render", "--grid", "3", "--out-dir", out_dir,
                   "--noise", 8 / 255, "--seed", 4) == 0
        images = sorted(out_dir.glob("*.pgm"))
        assert len(images) == 9
        ext = tmp_path / "ext.csv"
        assert run("extract", "--out", ext, "--manifest", out_dir / "manifest.csv",
                   "--images", *images) == 0
        lines = rows(ext)
        assert lines[0] == "structure_id,d_mm,w_top_nm,w_bottom_nm,a_overlap_um2"
        assert len(lines) == 10

    def test_extract_matches_manifest_truth(self, tmp_path):
        out_dir = tmp_path / "imgs"
        run("render", "--grid", "2", "--out-dir", out_dir, "--seed", 9)
        truth = {line.split(",")[0]: line.split(",")[3:5]
                 for line in rows(out_dir / "manifest.csv")[1:]}
        ext = tmp_path / "ext.csv"
        run("extract", "--out", ext, "--manifest", out_dir / "manifest.csv",
            "--images", *sorted(out_dir.glob("*.pgm")))
        for line in rows(ext)[1:]:
            sid, _, wt_nm, wb_nm, _ = line.split(",")
            wb_px, wt_px = (int(v) for v in truth[sid])
            assert abs(float(wb_nm) / 2.0 - wb_px) <= 1.0
            assert abs(float(wt_nm) / 2.0 - wt_px) <= 1.0


class TestCompensateCommand:
    def test_round_trip_uniform_g(self, tmp_path):
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-nbtin", "--out", layout)
        comp = tmp_path / "comp.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(ZERO_NOISE_CFG + "process.fidelity = basic\n")
        assert run("compensate", "--layout", layout, "--config", cfg,
                   "--out", comp) == 0
        meas = tmp_path / "meas.csv"
        assert run("simulate", "--layout", comp, "--config", cfg,
                   "--seed", 0, "--out", meas) == 0
        gs = [float(line.rsplit(",", 1)[1]) for line in rows(meas)[1:]]
        assert (max(gs) - min(gs)) / min(gs) <= 1e-6


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert_exit(["layout"], 1)
        assert_exit(["no-such-command"], 1)

    def test_data_error_is_2(self, tmp_path):
        assert run("analyze", "--measurements", tmp_path / "absent.csv",
                   "--out-dir", tmp_path) == 2
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("nope.key = 1\n")
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-al", "--out", layout)
        assert run("simulate", "--layout", layout, "--config", bad_cfg,
                   "--out", tmp_path / "m.csv") == 2
        bad_cfg.write_text("geometry.d_prime_mm = 50\n")    # below r_pivot
        assert run("fieldmap", "--quantity", "wb", "--step", 10, "--config", bad_cfg,
                   "--out", tmp_path / "f.csv") == 2

    def test_numerical_error_is_3(self, tmp_path):
        blank = tmp_path / "blank.pgm"
        from jjshadow.imaging import GrayImage, write_pgm

        write_pgm(GrayImage(1.0, np.full((32, 32), 40, dtype=np.uint8)), blank)
        assert run("extract", "--out", tmp_path / "e.csv", "--images", blank) == 3

    def test_entry_point_subprocess(self, tmp_path):
        # Run from the directory holding the imported package, so the child
        # finds it also when only pytest's pythonpath setting put it on the path.
        result = subprocess.run(
            [sys.executable, "-m", "jjshadow.cli", "write-config",
             "--out", str(tmp_path / "d.cfg")],
            capture_output=True, text=True, cwd=Path(jjshadow.__file__).parents[1])
        assert result.returncode == 0
        assert (tmp_path / "d.cfg").read_text().startswith("# jjshadow run config")


def assert_exit(argv, code):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
