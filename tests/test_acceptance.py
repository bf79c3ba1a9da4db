"""Acceptance gate: one test per criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
PASS lines; every numeric tolerance is fixed here, not calibrated.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from jjshadow.analysis import (
    FilterConfig,
    FrequencyModel,
    effective_conductivity,
    predicted_frequency,
    quadratic_radial_fit,
)
from jjshadow.cli import main
from jjshadow.compensation import compensated_layout
from jjshadow.geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
    actual_width_vertical,
    bottom_thickness,
    lip_height,
    lip_width,
    source_distance,
)
from jjshadow.imaging import (
    band_pixel_count,
    extract_overlap_area,
    extract_widths,
    render_junction,
)
from jjshadow.io import write_layout_csv
from jjshadow.layout import build_35x35, build_planar_17q, build_tsv_17q
from jjshadow.report import build_report
from jjshadow.synth import (
    NO_PARASITICS,
    ProcessModel,
    synthesize_wafer,
    truth_table,
)

GEOM = EvaporatorGeometry()
CFG = FilterConfig()
FREQ = FrequencyModel()
DESIGN = JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)
ORIGIN = WaferPoint(0.0, 0.0)

ZERO_NOISE_CFG = """
parasitics.pad_centre_ohm = 0
parasitics.pad_edge_ohm = 0
parasitics.substrate_uS = 0
parasitics.cabling_ohm = 0
"""


def ok(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS: {text}")


def test_c01_golden_model_values():
    t0 = time.perf_counter()
    assert source_distance(GEOM) == pytest.approx(469.95, abs=0.01)
    assert actual_width_vertical(GEOM, 200.0, 50.0) == pytest.approx(161.16, abs=0.05)
    assert bottom_thickness(GEOM, ORIGIN) == pytest.approx(26.30, abs=0.05)
    assert lip_width(GEOM, ORIGIN) == pytest.approx(-20.86, abs=0.05)
    assert lip_height(GEOM, 200.0, ORIGIN) == pytest.approx(252.1, abs=0.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"golden model values within tolerance ({elapsed:.3f}s)")


def test_c02_frequency_formula():
    assert predicted_frequency(100.0, FREQ) == pytest.approx(5110.0, abs=0.1)
    assert predicted_frequency(0.0, FREQ) == -270.0
    ok(2, "frequency formula at 100 uS and 0 uS")


def test_c03_flatness_oracle():
    t0 = time.perf_counter()
    layout = build_35x35("nbtin")

    full = synthesize_wafer(layout, GEOM, ProcessModel(fidelity=Fidelity.FULL),
                            NO_PARASITICS)
    actual = [v for _, v in effective_conductivity(full, "actual", geom=GEOM,
                                                   fidelity=Fidelity.FULL)]
    assert len(actual) == 1225
    spread = (max(actual) - min(actual)) / min(actual)
    assert spread <= 1e-12

    designed = effective_conductivity(full, "designed")
    a, b, c = quadratic_radial_fit(designed)
    assert a + 50 * b + 2500 * c < a

    basic = synthesize_wafer(layout, GEOM, ProcessModel(fidelity=Fidelity.BASIC),
                             NO_PARASITICS)
    a, b, c = quadratic_radial_fit(effective_conductivity(basic, "designed"))
    assert a + 50 * b + 2500 * c <= 0.75 * a
    edge = actual_overlap_area(GEOM, DESIGN, WaferPoint(50, 0), Fidelity.BASIC)
    centre = actual_overlap_area(GEOM, DESIGN, ORIGIN, Fidelity.BASIC)
    assert edge / centre == pytest.approx(0.7163, abs=0.001)

    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    ok(3, f"conductivity flat to 1e-12 with actual areas; designed-area "
          f"trend decreasing, x-axis ratio 0.7163 ({elapsed:.2f}s)")


def test_c04_filter_precision_recall():
    t0 = time.perf_counter()
    layout = build_planar_17q()
    # p_open = 0.0152 per junction puts ~3% of pairs in the half-open class
    recalls, fprs = [], []
    for seed in range(10):
        process = ProcessModel(lognormal_sigma=0.02, p_open=0.0152,
                               fidelity=Fidelity.FULL, seed=seed)
        records = synthesize_wafer(layout, GEOM, process, NO_PARASITICS)
        report = build_report(records, CFG, FREQ)
        rejected = report.abs_rejected_ids | report.rel_rejected_ids
        truth = truth_table(records)
        halves = truth["open_half"]
        defective = halves | truth["open_full"] | truth["short"]
        clean = {r.structure_id for r in records} - defective
        assert halves
        recalls.append(len(halves & rejected) / len(halves))
        fprs.append(len(rejected - defective) / len(clean))
    elapsed = time.perf_counter() - t0
    assert np.mean(recalls) >= 0.99
    assert np.mean(fprs) <= 0.01
    assert elapsed < 10.0
    ok(4, f"regression filter recall {np.mean(recalls):.4f}, "
          f"FPR {np.mean(fprs):.5f} over 10 seeds ({elapsed:.2f}s)")


def test_c05_pipeline_zero(tmp_path):
    # Uniform wafer with no spatial spread (every structure at the centre),
    # zero noise, zero parasitics: the pipeline must report exact zeros.
    base = build_35x35("nbtin")
    centred = type(base)(tuple(
        replace(s, position=ORIGIN) for s in base.structures))
    layout_csv = tmp_path / "layout.csv"
    write_layout_csv(centred, layout_csv)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_NOISE_CFG)
    meas = tmp_path / "meas.csv"
    assert main(["simulate", "--layout", str(layout_csv), "--config", str(cfg),
                 "--seed", "0", "--out", str(meas)]) == 0
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--measurements", str(meas), "--config", str(cfg),
                 "--out-dir", str(out_dir)]) == 0
    report_text = (out_dir / "report.txt").read_text()
    assert "manhattan 0 0 0\n" in report_text          # die RSD exactly 0 MHz

    from jjshadow.io import read_measurements_csv
    report = build_report(read_measurements_csv(meas), CFG, FREQ)
    assert all(v == 0.0 for v in report.rsd_die_mhz.values())
    assert all(v == 0.0 for v in report.rsd_wafer_mhz.values())
    grid = report.heatmaps["manhattan"]
    assert np.all(grid.values[grid.valid] == 1.0)
    ok(5, "die and wafer RSD exactly 0 MHz; heatmap cells exactly 1.0")


def test_c06_imaging_round_trip():
    t0 = time.perf_counter()
    scale, canvas = 3.0, 320
    coords = np.linspace(-34.0, 34.0, 5)
    positions = [WaferPoint(float(x), float(y)) for y in coords for x in coords]
    width_hits = area_hits = total = 0
    for seed in range(100):
        for p in positions:
            img = render_junction(GEOM, DESIGN, p, scale, (canvas, canvas),
                                  noise_sigma=8 / 255, seed=seed)
            result = extract_widths(img)
            wb_true = band_pixel_count(
                actual_width_vertical(GEOM, 200.0, p.x_mm), scale, canvas)
            wt_true = band_pixel_count(
                actual_width_vertical(GEOM, 200.0, p.y_mm), scale, canvas)
            if (abs(result.w_bottom_nm / scale - wb_true) <= 2.0
                    and abs(result.w_top_nm / scale - wt_true) <= 2.0):
                width_hits += 1
            a_true = actual_overlap_area(GEOM, DESIGN, p, Fidelity.BASIC)
            area = extract_overlap_area(img, result)
            if abs(area - a_true) / a_true <= 0.05:
                area_hits += 1
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 2500
    assert width_hits / total >= 0.95
    assert area_hits == total                # every case within 5% of the model
    assert elapsed < 30.0
    ok(6, f"widths within 2 px in {100 * width_hits / total:.1f}% of 2500 "
          f"noisy cases; areas all within 5% ({elapsed:.1f}s)")


def test_c07_offset_recovery_from_extracted_areas():
    scale, canvas = 2.0, 512
    coords = np.linspace(-34.0, 34.0, 5)
    positions = [WaferPoint(float(x), float(y)) for y in coords for x in coords]
    extracted = []
    for p in positions:
        img = render_junction(GEOM, DESIGN, p, scale, (canvas, canvas))
        extracted.append(extract_overlap_area(img, extract_widths(img)))

    h_over_d = GEOM.h_resist_nm / GEOM.source_distance_nm() * 1e6   # nm per mm
    losses = [(abs(p.x_mm) * h_over_d, abs(p.y_mm) * h_over_d) for p in positions]

    def sse(dw):
        err = 0.0
        for (lx, ly), a in zip(losses, extracted):
            model = (200.0 + dw - lx) * (200.0 + dw - ly) / 1e6
            err += (model - a) ** 2
        return err

    sweep = np.arange(0.0, 50.0, 0.01)
    best = float(sweep[int(np.argmin([sse(d) for d in sweep]))])
    assert abs(best - GEOM.dw_offset_nm) <= 2.0
    ok(7, f"single-parameter width-offset fit recovers {best:.2f} nm "
          f"(configured {GEOM.dw_offset_nm:.0f} nm)")


DOLAN_25 = EvaporatorGeometry(alpha_dolan_deg=25.0)


@pytest.mark.parametrize("fidelity, wafer", [
    pytest.param(Fidelity.BASIC, "35x35-nbtin", id="basic"),
    pytest.param(Fidelity.SIDEWALL, "35x35-nbtin", id="sidewall"),
    pytest.param(Fidelity.FULL, "35x35-nbtin", id="full"),
    pytest.param(Fidelity.BASIC, "tsv17q-dolan-25deg", id="tsv-dolan-25deg-basic"),
    pytest.param(Fidelity.SIDEWALL, "tsv17q-dolan-25deg", id="tsv-dolan-25deg-sidewall"),
    pytest.param(Fidelity.FULL, "tsv17q-dolan-25deg", id="tsv-dolan-25deg-full"),
])
def test_c08_compensation_round_trip(fidelity, wafer):
    if wafer == "35x35-nbtin":
        geom, layout = GEOM, build_35x35("nbtin")
    else:                   # bridge junctions at a non-default bridge tilt
        geom, layout = DOLAN_25, build_tsv_17q(Variant.DOLAN)
    layout = compensated_layout(layout, geom, fidelity)
    records = synthesize_wafer(layout, geom, ProcessModel(fidelity=fidelity),
                               NO_PARASITICS)
    gs = np.array([r.g_uS for r in records])
    spread = float((gs.max() - gs.min()) / gs.min())
    assert spread <= 1e-6
    ok(8, f"compensated {fidelity.value} {wafer} wafer G spread {spread:.2e}")


def test_c09_layout_counts(tmp_path):
    def body(kind, name):
        out = tmp_path / name
        assert main(["layout", "--kind", kind, "--out", str(out)]) == 0
        return out.read_text().splitlines()[1:]

    planar = body("planar17q", "planar.csv")
    assert sum(1 for line in planar if ",dolan," in line) == 2176
    assert sum(1 for line in planar if ",manhattan," in line) == 2176

    tsv = body("tsv17q-dolan", "tsv.csv")
    assert len(tsv) == 3400
    viable = [line for line in tsv if line.endswith(",false")]
    assert len(viable) == 3024
    per_die = {}
    for line in viable:
        die = tuple(line.split(",")[1:3])
        per_die[die] = per_die.get(die, 0) + 1
    assert set(per_die.values()) == {378}

    grid = body("planar35x35-nbtin", "grid.csv")
    assert len(grid) == 1225
    ok(9, "2176 per variant, 3024 viable TSV (378 per die), 1225 uniform")


def test_c10_determinism_and_performance(tmp_path):
    layout_csv = tmp_path / "layout.csv"
    assert main(["layout", "--kind", "tsv17q-manhattan",
                 "--out", str(layout_csv)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("process.lognormal_sigma = 0.03\nprocess.p_open = 0.01\n")

    t0 = time.perf_counter()
    a = tmp_path / "a.csv"
    assert main(["simulate", "--layout", str(layout_csv), "--config", str(cfg),
                 "--seed", "77", "--out", str(a)]) == 0
    out_dir = tmp_path / "analysis"
    assert main(["analyze", "--measurements", str(a), "--layout", str(layout_csv),
                 "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    elapsed = time.perf_counter() - t0

    b = tmp_path / "b.csv"
    assert main(["simulate", "--layout", str(layout_csv), "--config", str(cfg),
                 "--seed", "77", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 3025
    assert elapsed < 5.0
    ok(10, f"byte-identical reruns; simulate+analyze of 3024 structures "
           f"in {elapsed:.2f}s")
