"""Command-line behaviour: schemas, counts, determinism, exit codes."""

import itertools
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jjshadow
from jjshadow.cli import (
    EXTRACT_MAX_THRESHOLDS,
    FIELDMAP_BLOCK_POINTS,
    FIELDMAP_MAX_CELLS,
    _field_map_text,
    main,
)
from jjshadow.compensation import compensated_layout
from jjshadow.geometry import (
    FIELD_QUANTITIES,
    WAFER_RADIUS_MM,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    within_radius,
)
from jjshadow.io import write_layout_csv
from jjshadow.layout import UNIFORM_WIDTH_NM, build_35x35

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
        centred = type(base)(tuple(
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

    @pytest.mark.parametrize("quantity, w_bottom", [("area", 200.0), ("wb", 20.0)])
    def test_equals_whole_grid_reference(self, tmp_path, quantity, w_bottom):
        # The map evaluates x >= 0 only, many rows per kernel call, and
        # mirrors each row; evaluating every cell of every row on its own
        # must give the same file, blanks included.
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", quantity, "--wb", w_bottom, "--step", 0.3,
                   "--out", out) == 0
        design = JunctionDesign(Variant.MANHATTAN, w_bottom, 200.0)
        n = math.floor(WAFER_RADIUS_MM / 0.3)
        xs = np.arange(-n, n + 1) * 0.3
        want = ["x_mm,y_mm,value"]
        for iy in range(n, -n - 1, -1):
            y = iy * 0.3
            on = within_radius(xs, y, WAFER_RADIUS_MM)
            values, ok = Sites(EvaporatorGeometry(), xs[on], y).field(quantity, design)
            want += [f"{x!r},{y!r}," + (repr(v) if good else "")
                     for x, v, good in zip(xs[on].tolist(), values.tolist(), ok.tolist())]
        assert rows(out) == want
        assert any(line.endswith(",") for line in want) == (quantity == "wb")

    @pytest.mark.parametrize("step", ["0.0123456", "0.001", "1e-300", "5e-324"])
    def test_grid_size_bound(self, tmp_path, capsys, step):
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "area", "--step", step, "--out", out) == 2
        assert f"--step {float(step)} mm asks for more than" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_grid_size_bound_is_inclusive(self, tmp_path, monkeypatch):
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "wb", "--step", 0.25, "--out", out) == 0
        cells = (2 * math.floor(WAFER_RADIUS_MM / 0.3) + 1) ** 2
        monkeypatch.setattr(jjshadow.cli, "FIELDMAP_MAX_CELLS", cells)
        assert run("fieldmap", "--quantity", "wb", "--step", 0.3, "--out", out) == 0
        out.unlink()
        monkeypatch.setattr(jjshadow.cli, "FIELDMAP_MAX_CELLS", cells - 1)
        assert run("fieldmap", "--quantity", "wb", "--step", 0.3, "--out", out) == 2
        assert not out.exists()

    def test_lip_height_north_of_source_names_the_first_row(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("geometry.alpha_deg = 2\n")     # source projects inside the wafer
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "hlip", "--step", 0.5, "--config", cfg,
                   "--out", out) == 3
        assert "point y=50.0 mm is not south of the source projection" \
            in capsys.readouterr().err
        assert rows(out) == ["x_mm,y_mm,value"]

    def test_smallest_step_rows_are_prefixes(self, tmp_path, monkeypatch):
        # The map mirrors each row's x >= 0 cells in the disc as x = 0,
        # step, ..., (k-1)*step; at the finest grid the CLI accepts, every
        # row's disc test must still hold on a prefix of the x >= 0 axis.
        n = (math.isqrt(FIELDMAP_MAX_CELLS) - 1) // 2
        step = WAFER_RADIUS_MM / (n + 1)
        while math.floor(WAFER_RADIUS_MM / step) > n:
            step = math.nextafter(step, math.inf)
        out = tmp_path / "field.csv"
        assert run("fieldmap", "--quantity", "wb", "--step",
                   repr(math.nextafter(step, 0.0)), "--out", out) == 2
        monkeypatch.setattr(jjshadow.cli, "_field_map_text", lambda *args: iter(()))
        assert run("fieldmap", "--quantity", "wb", "--step", repr(step), "--out", out) == 0
        xs = np.arange(n + 1) * step
        for y in (np.arange(n, -n - 1, -1) * step).tolist():
            inside = within_radius(xs, y, WAFER_RADIUS_MM)
            assert not (inside[1:] > inside[:-1]).any(), y


def reference_field_map_text(geom, quantity, design, fidelity, step):
    """The field-map lines as per-cell column lists build them."""
    n = int(math.floor(WAFER_RADIUS_MM / step))
    xs = np.arange(n + 1) * step
    x_east = [repr(x) for x in xs.tolist()]
    x_west = [repr(-x) for x in xs.tolist()]
    ys = np.arange(n, -n - 1, -1) * step
    rows_per_block = max(1, FIELDMAP_BLOCK_POINTS // xs.size)
    for first in range(0, ys.size, rows_per_block):
        block = ys[first:first + rows_per_block]
        row, col = np.nonzero(within_radius(xs, block[:, None], WAFER_RADIUS_MM))
        values, ok = Sites(geom, xs[col], block[row]).field(quantity, design, fidelity)
        cells = [repr(v) for v in values.tolist()]
        for k in np.flatnonzero(~ok).tolist():
            cells[k] = ""
        bounds = np.searchsorted(row, np.arange(block.size + 1)).tolist()
        col = col.tolist()
        for y, lo, hi in zip(block.tolist(), bounds, bounds[1:]):
            if lo == hi:
                continue
            east = col[lo:hi]
            west = east[::-1]
            if west[-1] == 0:
                west.pop()
            half = cells[lo:hi]
            x_text = [x_west[k] for k in west] + [x_east[k] for k in east]
            yield "\n".join(map(f",{y!r},".join,
                                zip(x_text, half[::-1][:len(west)] + half))) + "\n"


# Each example maps every quantity, and its quantities between them take
# every fidelity with both a 20 nm line (pinched off into blanks away from
# the centre) and a 200 nm line.
FIELD_CASES = list(itertools.product(Fidelity, (20.0, 200.0)))


@settings(max_examples=5, deadline=None)
@given(st.floats(0.5, 5.0), st.integers(0, len(FIELD_CASES) - 1))
@example(1.2820512820512822, 0)     # 39*step rounds past 50 mm: the outer rows are empty
def test_field_map_equals_reference(step, turn):
    for k, quantity in enumerate(FIELD_QUANTITIES):
        fidelity, width = FIELD_CASES[(k + turn) % len(FIELD_CASES)]
        args = (EvaporatorGeometry(), quantity, JunctionDesign(Variant.MANHATTAN, width, width),
                fidelity, step)
        assert "".join(_field_map_text(*args)) == "".join(reference_field_map_text(*args))


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

    def test_render_warns_about_bands_extract_cannot_find(self, tmp_path, capsys):
        # 90-112 px bands on a 256 px canvas lift the image mean above the
        # bottom band's level, the lowest extraction threshold.
        assert run("render", "--grid", 3, "--canvas", 256, "--out-dir", tmp_path / "a") == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"jjshadow: warning: g{i:02d}_{j:02d}: on the 256 px canvas extract's "
                       "lowest threshold exceeds the level of the bottom band"
                       for i in range(3) for j in range(3)]
        assert run("extract", "--images", tmp_path / "a" / "g00_00.pgm",
                   "--out", tmp_path / "e.csv") == 3
        assert "no electrode edges found" in capsys.readouterr().err
        assert run("render", "--grid", 3, "--out-dir", tmp_path / "b") == 0
        assert capsys.readouterr().err == ""

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

    def test_extract_rejects_images_sharing_an_id(self, tmp_path, capsys):
        # Each row is named by its image's file stem, so two images with one
        # stem would give one structure_id two meanings.
        for name in ("a", "b"):
            assert run("render", "--grid", 1, "--out-dir", tmp_path / name) == 0
        first, second = (tmp_path / name / "g00_00.pgm" for name in ("a", "b"))
        capsys.readouterr()
        assert run("extract", "--images", first, second, "--out", tmp_path / "e.csv") == 2
        err = capsys.readouterr().err
        assert f"{first} and {second} share the id 'g00_00'" in err
        assert not (tmp_path / "e.csv").exists()

    def test_manifest_rejects_a_repeated_id(self, tmp_path, capsys):
        out_dir = tmp_path / "imgs"
        assert run("render", "--grid", 1, "--out-dir", out_dir) == 0
        manifest = out_dir / "manifest.csv"
        lines = rows(manifest)
        manifest.write_text("\n".join(lines + ["g00_00,30.0,0.0,40,40"]) + "\n")
        capsys.readouterr()
        assert run("extract", "--manifest", manifest, "--images", out_dir / "g00_00.pgm",
                   "--out", tmp_path / "e.csv") == 2
        assert f"{manifest}:3: repeated structure id 'g00_00'" in capsys.readouterr().err


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


class TestEachSettingApplies:
    """Each setting changes its output when set alone.  An option that names
    a config key (fieldmap --fidelity, render --seed) overrides it, and
    without the option the key applies."""

    def test_fieldmap_fidelity_falls_back_to_process_fidelity(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process.fidelity = basic\n")
        outs = {}
        for name, extra in (("plain", ()), ("config", ("--config", cfg)),
                            ("basic", ("--fidelity", "basic")),
                            ("full", ("--config", cfg, "--fidelity", "full"))):
            outs[name] = tmp_path / f"{name}.csv"
            assert run("fieldmap", "--quantity", "area", "--step", "10",
                       "--out", outs[name], *extra) == 0
        assert outs["config"].read_bytes() == outs["basic"].read_bytes()
        assert outs["basic"].read_bytes() != outs["plain"].read_bytes()
        assert outs["full"].read_bytes() == outs["plain"].read_bytes()

    def test_render_seed_falls_back_to_process_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("process.seed = 5\n")
        images = {}
        for name, extra in (("plain", ()), ("config", ("--config", cfg)),
                            ("seed", ("--seed", 5)), ("zero", ("--config", cfg, "--seed", 0))):
            out_dir = tmp_path / name
            assert run("render", "--grid", 2, "--canvas", 128, "--noise", 0.1,
                       "--out-dir", out_dir, *extra) == 0
            images[name] = [p.read_bytes() for p in sorted(out_dir.iterdir())]
        assert images["config"] == images["seed"]
        assert images["seed"] != images["plain"]
        assert images["zero"] == images["plain"]

    def test_fixed_top_width_selects_the_fixed_top_solve(self, tmp_path):
        layout, aspect, fixed = (tmp_path / f"{n}.csv" for n in ("layout", "aspect", "fixed"))
        assert run("layout", "--kind", "planar35x35-tin", "--out", layout) == 0
        assert run("compensate", "--layout", layout, "--out", aspect) == 0
        assert run("compensate", "--layout", layout, "--fixed-top-nm", 300,
                   "--out", fixed) == 0
        want = tmp_path / "want.csv"
        write_layout_csv(compensated_layout(build_35x35("tin"), EvaporatorGeometry(),
                                            Fidelity.FULL, fixed_top_nm=300.0), want)
        assert fixed.read_bytes() == want.read_bytes() != aspect.read_bytes()

    def test_contact_ohms_reach_simulate(self, tmp_path):
        layout, cfg = tmp_path / "layout.csv", tmp_path / "run.cfg"
        assert run("layout", "--kind", "planar35x35-al", "--out", layout) == 0
        cfg.write_text("parasitics.contact_centre_ohm = 50\nparasitics.contact_edge_ohm = 80\n")
        plain, contact = tmp_path / "plain.csv", tmp_path / "contact.csv"
        assert run("simulate", "--layout", layout, "--out", plain) == 0
        assert run("simulate", "--layout", layout, "--config", cfg, "--out", contact) == 0
        assert contact.read_bytes() != plain.read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert_exit(["layout"], 1)
        assert_exit(["no-such-command"], 1)
        # compensate has no --mode: --fixed-top-nm alone selects the fixed-top solve.
        assert_exit(["compensate", "--layout", "l.csv", "--out", "c.csv",
                     "--mode", "fixed-top"], 1)

    def test_data_error_is_2(self, tmp_path, capsys):
        assert run("analyze", "--measurements", tmp_path / "absent.csv",
                   "--out-dir", tmp_path) == 2
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("nope.key = 1\n")
        layout = tmp_path / "layout.csv"
        run("layout", "--kind", "planar35x35-al", "--out", layout)
        assert run("simulate", "--layout", layout, "--config", bad_cfg,
                   "--out", tmp_path / "m.csv") == 2
        for step in ("0", "nan", "inf"):
            assert run("fieldmap", "--quantity", "wb", "--step", step,
                       "--out", tmp_path / "f.csv") == 2
        bad_cfg.write_text("geometry.d_prime_mm = 50\n")    # below r_pivot
        assert run("fieldmap", "--quantity", "wb", "--step", 10, "--config", bad_cfg,
                   "--out", tmp_path / "f.csv") == 2
        # Width options are checked where they enter, naming the option.
        for option in ("--max-width-nm", "--fixed-top-nm"):
            for value in ("nan", "inf", "-5"):
                capsys.readouterr()
                assert run("compensate", "--layout", layout, option, value,
                           "--out", tmp_path / "c.csv") == 2
                assert f"{option} must be finite and >= 0" in capsys.readouterr().err
        for option in ("--wb", "--wt"):
            for value in ("nan", "-1"):
                capsys.readouterr()
                assert run("fieldmap", "--quantity", "wb", "--step", 10, option, value,
                           "--out", tmp_path / "f.csv") == 2
                assert run("render", "--grid", 1, option, value,
                           "--out-dir", tmp_path / "img") == 2
                assert capsys.readouterr().err.count(f"{option} must be finite") == 2
        # So is extract's threshold count, before any image is read.
        capsys.readouterr()
        assert run("extract", "--images", tmp_path / "absent.pgm", "--thresholds", 0,
                   "--out", tmp_path / "e.csv") == 2
        assert "--thresholds must be >= 1, got 0" in capsys.readouterr().err
        bad_cfg.write_text("parasitics.contact_enabled = true\n")
        assert run("simulate", "--layout", layout, "--config", bad_cfg,
                   "--out", tmp_path / "m.csv") == 2
        assert "unknown key 'parasitics.contact_enabled'" in capsys.readouterr().err
        # Data files are checked where they enter, naming path:line.
        for name, option, kind, text in (
                ("vias.csv", "--tsv-file", "tsv17q-dolan", "x_mm,y_mm,diameter_um\n1,2,{}\n"),
                ("sweeps.csv", "--sweeps", "tsv17q-dolan", "group,w_nm\nall,{}\n")):
            for value in ("nan", "-400", "inf"):
                path = tmp_path / name
                path.write_text(text.format(value))
                capsys.readouterr()
                assert run("layout", "--kind", kind, option, path,
                           "--out", tmp_path / "l.csv") == 2
                assert f"{path}:2: malformed " in capsys.readouterr().err
        manifest = tmp_path / "manifest.csv"
        for row in ("g00_00,abc,0.0,40,40", "g00_00,1.0,2.0"):
            manifest.write_text(f"structure_id,x_mm,y_mm,w_b_px,w_t_px\n{row}\n")
            capsys.readouterr()
            assert run("extract", "--manifest", manifest, "--images", tmp_path / "g00_00.pgm",
                       "--out", tmp_path / "e.csv") == 2
            assert f"{manifest}:2: " in capsys.readouterr().err

    def test_output_that_is_a_directory_is_an_io_error_2(self, tmp_path, capsys):
        assert run("layout", "--kind", "planar35x35-al", "--out", tmp_path) == 2
        assert capsys.readouterr().err == (
            f"jjshadow: i/o error: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_out_dir_that_is_a_file_is_an_io_error_2(self, tmp_path, capsys):
        layout, meas, taken = tmp_path / "layout.csv", tmp_path / "m.csv", tmp_path / "taken"
        run("layout", "--kind", "planar35x35-al", "--out", layout)
        run("simulate", "--layout", layout, "--out", meas)
        taken.write_text("")
        capsys.readouterr()
        assert run("analyze", "--measurements", meas, "--out-dir", taken) == 2
        assert capsys.readouterr().err == (
            f"jjshadow: i/o error: [Errno 17] File exists: '{taken}'\n")

    @pytest.mark.parametrize("column, value", [(4, "inf"), (8, "nan")],
                             ids=["inf-y", "nan-designed-area"])
    def test_non_finite_measurement_names_its_line(self, tmp_path, capsys, column, value):
        layout, meas = tmp_path / "layout.csv", tmp_path / "meas.csv"
        run("layout", "--kind", "planar35x35-al", "--out", layout)
        run("simulate", "--layout", layout, "--out", meas)
        lines = rows(meas)
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        meas.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("analyze", "--measurements", meas, "--out-dir", tmp_path / "out") == 2
        assert f"{meas}:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, count", [("simulate", "-3"), ("simulate", "3"),
                                                ("analyze", "0"), ("analyze", "-2")])
    def test_undefined_junction_count_names_its_line(self, tmp_path, capsys, command,
                                                     count):
        layout, meas = tmp_path / "layout.csv", tmp_path / "meas.csv"
        run("layout", "--kind", "planar35x35-al", "--out", layout)
        run("simulate", "--layout", layout, "--out", meas)
        path = layout if command == "simulate" else meas
        lines = rows(path)
        cells = lines[3].split(",")
        cells[9] = count
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "simulate":
            code = run("simulate", "--layout", layout, "--out", tmp_path / "m2.csv")
        else:
            code = run("analyze", "--measurements", meas, "--out-dir", tmp_path / "out")
        assert code == 2
        assert (f"{path}:4: junction_count must be 1 or 2, got {count} on {cells[0]}"
                in capsys.readouterr().err)

    def test_numerical_error_is_3(self, tmp_path, capsys):
        blank = tmp_path / "blank.pgm"
        from jjshadow.imaging import GrayImage, write_pgm

        write_pgm(GrayImage(1.0, np.full((32, 32), 40, dtype=np.uint8)), blank)
        assert run("extract", "--out", tmp_path / "e.csv", "--images", blank) == 3
        layout, out = tmp_path / "layout.csv", tmp_path / "c.csv"
        assert run("layout", "--kind", "planar35x35-al", "--omit-rows",
                   ",".join(map(str, range(35))), "--out", layout) == 0
        capsys.readouterr()
        assert run("compensate", "--layout", layout, "--out", out) == 3
        assert capsys.readouterr().err == ("jjshadow: numerical failure: layout has no "
                                           "viable structures to compensate\n")
        assert not out.exists()

    def test_extract_keeps_the_good_rows_of_a_batch(self, tmp_path, capsys):
        from jjshadow.imaging import GrayImage, write_pgm

        assert run("render", "--grid", 2, "--out-dir", tmp_path, "--noise", 8 / 255) == 0
        blank = tmp_path / "blank.pgm"
        write_pgm(GrayImage(2.0, np.full((32, 32), 40, dtype=np.uint8)), blank)
        good = [tmp_path / "g00_00.pgm", tmp_path / "g01_01.pgm"]
        capsys.readouterr()
        assert run("extract", "--out", tmp_path / "e.csv", "--images", good[0], blank,
                   good[1]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"jjshadow: numerical failure: {blank}: "
                       "no electrode edges found at any threshold"]
        assert run("extract", "--out", tmp_path / "good.csv", "--images", *good) == 0
        kept = rows(tmp_path / "good.csv")
        assert rows(tmp_path / "e.csv") == [*kept[:2], "blank,nan,,,", kept[2]]

    def test_entry_point_subprocess(self, tmp_path):
        # Run from the directory holding the imported package, so the child
        # finds it also when only pytest's pythonpath setting put it on the path.
        result = subprocess.run(
            [sys.executable, "-m", "jjshadow.cli", "write-config",
             "--out", str(tmp_path / "d.cfg")],
            capture_output=True, text=True, cwd=Path(jjshadow.__file__).parents[1])
        assert result.returncode == 0
        assert (tmp_path / "d.cfg").read_text().startswith("# jjshadow run config")


class TestRejectedOptions:
    """Out-of-range options and config values exit 2 naming the option and
    the value, before any output is written."""

    @pytest.fixture
    def layout(self, tmp_path):
        path = tmp_path / "layout.csv"
        assert run("layout", "--kind", "planar35x35-al", "--out", path) == 0
        return path

    def test_negative_simulate_seed(self, tmp_path, capsys, layout):
        out = tmp_path / "m.csv"
        assert run("simulate", "--layout", layout, "--seed", -1, "--out", out) == 2
        assert "data error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed(self, tmp_path, capsys, layout):
        cfg, out = tmp_path / "run.cfg", tmp_path / "m.csv"
        cfg.write_text("process.seed = -1\n")
        assert run("simulate", "--layout", layout, "--config", cfg, "--out", out) == 2
        assert "data error: process: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["a", "1.5"])
    def test_omit_rows_not_a_row_number(self, tmp_path, capsys, token):
        out = tmp_path / "layout.csv"
        assert run("layout", "--kind", "planar35x35-al", "--omit-rows", f"33,{token}",
                   "--out", out) == 2
        assert (f"--omit-rows takes row numbers: invalid literal for int() with base 10: "
                f"{token!r}" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--grid", 1, "--noise", 0.05, "--seed", -1], "--seed must be >= 0, got -1"),
        (["--grid", 0], "--grid must be >= 1, got 0"),
        (["--grid", -2], "--grid must be >= 1, got -2"),
        (["--grid", 1, "--noise", "nan"], "--noise must be finite and >= 0, got nan"),
        (["--grid", 1, "--noise", -0.5], "--noise must be finite and >= 0, got -0.5"),
        (["--grid", 1, "--noise", "inf"], "--noise must be finite and >= 0, got inf"),
        (["--layout", None, "--stride", 0], "--stride must be >= 1, got 0"),
        (["--layout", None, "--stride", -5], "--stride must be >= 1, got -5"),
        (["--grid", 1, "--scale", 0], "--scale must be finite and > 0, got 0.0"),
        (["--grid", 1, "--scale", -2], "--scale must be finite and > 0, got -2.0"),
        (["--grid", 1, "--scale", "nan"], "--scale must be finite and > 0, got nan"),
        (["--grid", 1, "--scale", "inf"], "--scale must be finite and > 0, got inf"),
        (["--grid", 1, "--canvas", 0], "--canvas must be >= 1 px, got 0"),
        (["--grid", 1, "--canvas", -5], "--canvas must be >= 1 px, got -5"),
        (["--grid", 1, "--canvas", 8193], "--canvas must be <= 8192 px, got 8193"),
        (["--grid", 1, "--canvas", 100000], "--canvas must be <= 8192 px, got 100000"),
        (["--grid", 2, "--stride", 3], "--stride does not apply to --grid"),
        (["--grid", 2, "--stride", 1], "--stride does not apply to --grid"),
        (["--layout", None, "--wb", 150], "--wb does not apply to --layout"),
        (["--layout", None, "--wt", 200], "--wt does not apply to --layout"),
        (["--grid", 1, "--canvas", 1],
         "electrode (225 x 225 nm) exceeds the 1x1 px canvas at 2.0 nm/px"),
        (["--layout", "dolan"], "layout holds no crossed-junction structures to render"),
    ])
    def test_render(self, tmp_path, capsys, layout, argv, message):
        out_dir, dolan = tmp_path / "imgs", tmp_path / "dolan.csv"
        if "dolan" in argv:
            assert run("layout", "--kind", "tsv17q-dolan", "--out", dolan) == 0
        argv = [{None: layout, "dolan": dolan}.get(a, a) for a in argv]
        assert run("render", *argv, "--out-dir", out_dir) == 2
        assert f"data error: {message}\n" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind, option", [
        ("planar17q", "--omit-rows"), ("tsv17q-dolan", "--omit-rows"),
        ("tsv17q-manhattan", "--omit-rows"), ("planar17q", "--tsv-file"),
        ("planar35x35-al", "--tsv-file"), ("planar35x35-nbtin", "--tsv-file"),
        ("planar35x35-tin", "--sweeps"), ("planar35x35-al", "--subarrays"),
    ])
    def test_layout_option_of_another_kind(self, tmp_path, capsys, kind, option):
        # Refused before the file the option names is read: it does not exist.
        out = tmp_path / "layout.csv"
        value = "33" if option == "--omit-rows" else tmp_path / "absent.csv"
        assert run("layout", "--kind", kind, option, value, "--out", out) == 2
        assert (f"data error: {option} does not apply to --kind {kind}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tsv_layout_takes_one_sweep_group(self, tmp_path, capsys):
        sweeps, out = tmp_path / "sweeps.csv", tmp_path / "layout.csv"
        sweeps.write_text("group,w_nm\na,150\nb,175\n")
        assert run("layout", "--kind", "tsv17q-dolan", "--sweeps", sweeps, "--out", out) == 2
        assert ("data error: TSV layouts take a single-group sweep file\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.fixture
    def image(self, tmp_path):
        assert run("render", "--grid", 1, "--out-dir", tmp_path / "imgs") == 0
        return tmp_path / "imgs" / "g00_00.pgm"

    def test_render_help_states_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run("render", "--help")
        text = " ".join(capsys.readouterr().out.split())
        assert "every k-th crossed structure (default 1)" in text
        for side in ("bottom", "top"):
            assert f"designed {side} width nm (default {UNIFORM_WIDTH_NM})" in text

    def test_extract_thresholds_bound(self, tmp_path, capsys):
        # Checked before any image is read: the image does not exist.
        out = tmp_path / "e.csv"
        assert run("extract", "--images", tmp_path / "none.pgm", "--thresholds",
                   EXTRACT_MAX_THRESHOLDS + 1, "--out", out) == 2
        assert ("data error: --thresholds must be <= 1000, got 1001\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_extract_scale(self, tmp_path, capsys, image, scale):
        out = tmp_path / "e.csv"
        assert run("extract", "--images", image, "--scale", scale, "--out", out) == 2
        assert (f"data error: --scale must be finite and > 0, got {float(scale)}\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scale, message", [
        (b"nan", "scale must be finite and > 0, got nan"),
        (b"inf", "scale must be finite and > 0, got inf"),
        (b"junk", "scale comment must be a number, got 'junk'"),
    ])
    def test_image_scale_comment(self, tmp_path, capsys, image, scale, message):
        bad, out = tmp_path / "bad.pgm", tmp_path / "e.csv"
        bad.write_bytes(image.read_bytes().replace(b"scale_nm_per_px 2.0",
                                                   b"scale_nm_per_px " + scale))
        assert run("extract", "--images", bad, "--out", out) == 2
        assert f"data error: {bad}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header, message", [
        (b"P5\nx 2\n255\n" + bytes(8),
         "PGM width, height and maxval must be decimal integers, got 'x 2 255'"),
        (b"P5\n-2 -2\n255\n" + bytes(4),
         "PGM width, height and maxval must be decimal integers, got '-2 -2 255'"),
        (b"P5\n# scale_nm_per_px 2.0", "truncated PGM header"),
    ])
    def test_image_header(self, tmp_path, capsys, header, message):
        bad, out = tmp_path / "bad.pgm", tmp_path / "e.csv"
        bad.write_bytes(header)
        assert run("extract", "--images", bad, "--out", out) == 2
        assert f"data error: {bad}: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_fieldmap_step(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run("fieldmap", "--quantity", "area", "--step", 0, "--out", out) == 2
        assert "data error: --step must be finite and > 0, got 0.0\n" in capsys.readouterr().err
        assert not out.exists()



@pytest.fixture(scope="module")
def far_inputs(tmp_path_factory):
    """A planar35x35-al layout, the same with its first structure (at x = -34 mm,
    y = -34 mm) moved to x = 1e120 and 1e300 mm, and configs that put the
    source 1e120 and 1e303 mm from the pivot, by placeholder name."""
    root = tmp_path_factory.mktemp("far")
    layout = root / "layout.csv"
    assert run("layout", "--kind", "planar35x35-al", "--out", layout) == 0
    paths = {"layout": layout}
    header, first, *rest = rows(layout)
    for x in ("1e120", "1e300"):
        cells = first.split(",")
        cells[3] = x
        paths[f"far-{x}"] = root / f"far-{x}.csv"
        paths[f"far-{x}"].write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    for d in ("1e120", "1e303"):
        paths[f"source-{d}"] = root / f"source-{d}.cfg"
        paths[f"source-{d}"].write_text(f"geometry.d_prime_mm = {d}\n")
    return paths


FAR_POINT = "numerical failure: the source distance cubed, |r - C|**3, is not finite at "


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--layout", "far-1e120"], 3, FAR_POINT + "(1e+120, -34.0) mm"),
    (["compensate", "--layout", "far-1e120"], 3, FAR_POINT + "(1e+120, -34.0) mm"),
    (["simulate", "--layout", "far-1e300"], 3, FAR_POINT + "(1e+300, -34.0) mm"),
    (["compensate", "--layout", "far-1e300"], 3, FAR_POINT + "(1e+300, -34.0) mm"),
    (["fieldmap", "--quantity", "area", "--step", 10, "--config", "source-1e120"], 3,
     FAR_POINT + "(0.0, 50.0) mm"),
    (["fieldmap", "--quantity", "tb", "--step", 10, "--config", "source-1e303"], 3,
     FAR_POINT + "(0.0, 50.0) mm"),
    (["compensate", "--layout", "layout", "--max-width-nm", 1e300], 2,
     "data error: --max-width-nm must be <= 1e+06 nm, got 1e+300"),
    (["compensate", "--layout", "layout", "--fixed-top-nm", 1e300], 2,
     "data error: --fixed-top-nm must be <= 1e+06 nm, got 1e+300"),
    (["fieldmap", "--quantity", "area", "--step", 10, "--wb", 1e200, "--wt", 1e200], 2,
     "data error: --wb must be <= 1e+06 nm, got 1e+200"),
    (["fieldmap", "--quantity", "area", "--step", 10, "--wb", 1e300], 2,
     "data error: --wb must be <= 1e+06 nm, got 1e+300"),
    (["fieldmap", "--quantity", "hlip", "--step", 10, "--wt", 1e300], 2,
     "data error: --wt must be <= 1e+06 nm, got 1e+300"),
    (["render", "--grid", 1, "--canvas", 256, "--noise", 1e37], 2,
     "data error: --noise must be <= 1000, got 1e+37"),
    (["render", "--grid", 1, "--canvas", 256, "--noise", 1e300], 2,
     "data error: --noise must be <= 1000, got 1e+300"),
    (["render", "--grid", 1, "--canvas", 256, "--wb", 1e300], 2,
     "data error: --wb must be <= 1e+06 nm, got 1e+300"),
    (["render", "--grid", 1, "--canvas", 256, "--wt", 1e300], 2,
     "data error: --wt must be <= 1e+06 nm, got 1e+300"),
], ids=["simulate-far-1e120", "compensate-far-1e120", "simulate-far-1e300",
        "compensate-far-1e300", "fieldmap-area-source-1e120", "fieldmap-tb-source-1e303",
        "max-width-nm", "fixed-top-nm", "fieldmap-widths-1e200", "fieldmap-wb", "fieldmap-wt",
        "render-noise-1e37", "render-noise", "render-wb", "render-wt"])
def test_input_past_the_float_range_fails_cleanly(tmp_path, capsys, far_inputs, argv, code,
                                                  message):
    # The exit code and message, no warning, no traceback (run raises no
    # exception) and no nan or inf in any file written.
    argv = [far_inputs.get(a, a) for a in argv]
    out = ["--out-dir", tmp_path / "out"] if argv[0] == "render" else [
        "--out", tmp_path / "out.csv"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv, *out) == code
    err = capsys.readouterr().err
    assert f"jjshadow: {message}\n" in err
    assert "Warning" not in err and "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    for path in tmp_path.rglob("*"):
        if path.is_file():
            assert not re.search(rb"nan|inf", path.read_bytes()), path

def assert_exit(argv, code):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
