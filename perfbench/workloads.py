"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, and the package sees
only those inputs.  An op is the unit that is timed.  Its check runs after
the op's clock has stopped, and returns the problems it found; an op with
a problem, or one that raises, counts as failed.  `corrupt` damages one
output on purpose, so the harness can show that the check catches it.

Why these three: `wafer-mc` is the paper's measure-and-analyse loop
(synth, io, report/analysis); `design` is the layout / pre-compensation /
field-map loop (layout, compensation, cli, geometry); `metrology` is
raster work that touches none of the record layers (imaging only), so a
change to the record pipeline must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from jjshadow import cli
from jjshadow.analysis import FilterConfig, FrequencyModel
from jjshadow.compensation import compensated_layout
from jjshadow.errors import ShadowedError
from jjshadow.geometry import (
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_overlap_area,
    actual_width_vertical,
    evaluate_field,
)
from jjshadow.imaging import (
    band_pixel_count,
    extract_overlap_area,
    extract_widths,
    read_pgm,
    render_junction,
    write_pgm,
)
from jjshadow.io import (
    read_layout_csv,
    read_measurements_csv,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_layout_csv,
    write_measurements_csv,
    write_truth_csv,
)
from jjshadow.layout import build_35x35, build_planar_17q, build_tsv_17q, load_tsv_file
from jjshadow.report import build_report, render_report_text
from jjshadow.synth import (
    NO_PARASITICS,
    ParasiticsModel,
    ProcessModel,
    synthesize_wafer,
    truth_table,
)

GEOM = EvaporatorGeometry()
MC_REFERENCE = Path(__file__).resolve().parent / "reference" / "wafer_mc_digests.json"


def _size(path: Path) -> int:
    return path.stat().st_size


# --------------------------------------------------------------------------
# wafer-mc

# Every op seed is drawn from this pool, and reference digests are recorded
# for all of it: more seeds than one run uses, so a run also checks seeds
# that no earlier run of the same commit touched.
MC_SEED_POOL = 64
MC_PROCESS = dict(lognormal_sigma=0.02, p_open=0.0152, p_short=0.002,
                  fidelity=Fidelity.FULL)


@dataclass
class _Wafer:
    name: str
    layout: object
    grid_positions: dict


@dataclass
class McOut:
    seed: int
    outdir: Path
    results: dict        # wafer name -> (synthesized records, report)
    units: int


class WaferMc:
    """One op: synthesize, write, read back, analyse and report two wafers."""

    name = "wafer-mc"
    unit = "structure analysed"

    def __init__(self, run_seed: int, reference: dict | None = None) -> None:
        self.offset = (run_seed * 29) % MC_SEED_POOL
        self.wafers = []
        for name, layout in (("planar17q", build_planar_17q()),
                             ("planar35x35-al", build_35x35("al", omitted_rows=(33, 34)))):
            grid: dict = {}
            for s in layout.structures:         # as `analyze --layout` passes them
                grid.setdefault(s.design.variant.value, []).append(s.position)
            self.wafers.append(_Wafer(name, layout, grid))
        if reference is None:
            reference = json.loads(MC_REFERENCE.read_text())
        self.reference = reference

    def op_seed(self, k: int) -> int:
        return (self.offset + k) % MC_SEED_POOL

    def op(self, k: int, tr, outdir: Path) -> McOut:
        seed = self.op_seed(k)
        process = ProcessModel(seed=seed, **MC_PROCESS)
        results, units = {}, 0
        for w in self.wafers:
            d = outdir / w.name
            d.mkdir(parents=True, exist_ok=True)
            with tr.span("synth.synthesize_wafer"):
                records = synthesize_wafer(w.layout, GEOM, process, ParasiticsModel())
            with tr.span("io.write_measurements_csv"):
                write_measurements_csv(records, d / "meas.csv")
            with tr.span("io.write_truth_csv"):
                write_truth_csv(records, d / "truth.csv")
            with tr.span("io.read_measurements_csv"):
                measured = read_measurements_csv(d / "meas.csv")
            with tr.span("report.build_report"):
                report = build_report(measured, FilterConfig(), FrequencyModel(),
                                      dual_rsd=True, geom=GEOM, fidelity=Fidelity.FULL,
                                      grid_positions=w.grid_positions)
            with tr.span("report.render_report_text"):
                text = render_report_text(report)
            with tr.span("io.write_report_txt"):
                (d / "report.txt").write_text(text)
            for variant, grid in report.heatmaps.items():
                with tr.span("io.write_heatmap_csv"):
                    write_heatmap_csv(grid, d / f"heatmap_{variant}.csv")
                with tr.span("io.write_heatmap_pgm"):
                    write_heatmap_pgm(grid, d / f"heatmap_{variant}.pgm")
            results[w.name] = (records, report)
            units += len(measured)
        return McOut(seed, outdir, results, units)

    @staticmethod
    def digests(outdir: Path) -> dict[str, str]:
        return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.rglob("*")) if p.is_file()}

    def check(self, out: McOut) -> list[str]:
        want = self.reference["digests"][str(out.seed)]
        got = self.digests(out.outdir)
        return [f"seed {out.seed}: {name} differs from its reference digest"
                for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]

    def corrupt(self, out: McOut) -> McOut:
        path = out.outdir / "planar17q" / "meas.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1                       # last digit of the last reading
        path.write_bytes(bytes(data))
        return out

    def counts(self, out: McOut) -> dict[str, float]:
        c = dict.fromkeys(("synth.records", "synth.defects", "analysis.total",
                           "analysis.kept", "analysis.abs_rejected",
                           "analysis.rel_rejected", "analysis.halfopen",
                           "analysis.halfopen_rejected", "analysis.clean",
                           "analysis.clean_rejected", "io.bytes_read"), 0)
        for name, (records, report) in out.results.items():
            truth = truth_table(records)
            defective = truth["open_half"] | truth["open_full"] | truth["short"]
            clean = {r.structure_id for r in records} - defective
            rejected = report.abs_rejected_ids | report.rel_rejected_ids
            c["synth.records"] += len(records)
            c["synth.defects"] += len(defective)
            c["analysis.total"] += report.total
            c["analysis.kept"] += len(report.kept)
            c["analysis.abs_rejected"] += len(report.abs_rejected_ids)
            c["analysis.rel_rejected"] += len(report.rel_rejected_ids)
            c["analysis.halfopen"] += len(truth["open_half"])
            c["analysis.halfopen_rejected"] += len(truth["open_half"] & rejected)
            c["analysis.clean"] += len(clean)
            c["analysis.clean_rejected"] += len(rejected & clean)
            c["io.bytes_read"] += _size(out.outdir / name / "meas.csv")
        c["io.bytes_written"] = sum(_size(p) for p in out.outdir.rglob("*") if p.is_file())
        return c


# --------------------------------------------------------------------------
# design

DESIGN_VIABLE = 3024            # viable TSV structures before compensation
DESIGN_VIABLE_PER_DIE = 378
DESIGN_SPREAD_MAX = 1.0e-6      # (max - min) / min of the verification G
FIELDMAP_ARGS = ["fieldmap", "--quantity", "area", "--step", "0.25",
                 "--fidelity", "full"]
FIELDMAP_CELLS = 125_629        # disc cells of a 0.25 mm grid over 50 mm
FIELDMAP_DESIGN = JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)   # CLI default
FIELDMAP_SAMPLE_STRIDE = 127
FIELDMAP_RTOL = 1.0e-12


@dataclass
class DesignOut:
    layout: object
    compensated: object
    records: list
    cli_exit: int
    fieldmap: Path
    units: int


class Design:
    """One op: build, pre-compensate, round-trip, verify and field-map the
    via-integrated wafer.  There is no randomness; the seed is unused."""

    name = "design"
    unit = "structure designed"

    def __init__(self, run_seed: int) -> None:
        self.vias = load_tsv_file()

    def op(self, k: int, tr, outdir: Path) -> DesignOut:
        outdir.mkdir(parents=True, exist_ok=True)
        with tr.span("layout.build_tsv_17q"):
            layout = build_tsv_17q(Variant.MANHATTAN, self.vias)
        with tr.span("compensation.compensated_layout"):
            compensated = compensated_layout(layout, GEOM, Fidelity.FULL)
        with tr.span("io.write_layout_csv"):
            write_layout_csv(compensated, outdir / "layout.csv")
        with tr.span("io.read_layout_csv"):
            readback = read_layout_csv(outdir / "layout.csv")
        with tr.span("synth.synthesize_wafer"):
            records = synthesize_wafer(readback, GEOM, ProcessModel(fidelity=Fidelity.FULL),
                                       NO_PARASITICS)
        fieldmap = outdir / "fieldmap.csv"
        with tr.span("cli.fieldmap"), redirect_stdout(io.StringIO()):
            code = cli.main(FIELDMAP_ARGS + ["--out", str(fieldmap)])
        return DesignOut(layout, compensated, records, code, fieldmap,
                         len(layout.structures))

    @staticmethod
    def _fieldmap_rows(path: Path) -> list[str]:
        return path.read_text().splitlines()[1:]

    def check(self, out: DesignOut) -> list[str]:
        problems = []
        viable = out.layout.viable()
        per_die: dict = {}
        for s in viable:
            per_die[s.die_index] = per_die.get(s.die_index, 0) + 1
        if len(viable) != DESIGN_VIABLE or set(per_die.values()) != {DESIGN_VIABLE_PER_DIE}:
            problems.append(f"{len(viable)} viable structures, per die {sorted(per_die.values())}")
        unattainable = sum(1 for s in out.compensated.structures
                           if s.exclusion_reason.startswith("unattainable"))
        if unattainable:
            problems.append(f"{unattainable} structures unattainable")
        gs = np.array([r.g_uS for r in out.records])
        if len(gs) != DESIGN_VIABLE:
            problems.append(f"{len(gs)} verification records")
        elif (gs.max() - gs.min()) / gs.min() > DESIGN_SPREAD_MAX:
            problems.append(f"verification G spread {(gs.max() - gs.min()) / gs.min():.3g}")
        if out.cli_exit != 0:
            problems.append(f"fieldmap exited {out.cli_exit}")
            return problems
        rows = self._fieldmap_rows(out.fieldmap)
        if len(rows) != FIELDMAP_CELLS:
            problems.append(f"{len(rows)} fieldmap cells")
        for row in rows[::FIELDMAP_SAMPLE_STRIDE]:
            x, y, value = row.split(",")
            try:
                want = evaluate_field(GEOM, "area", WaferPoint(float(x), float(y)),
                                      FIELDMAP_DESIGN, Fidelity.FULL)
            except ShadowedError:
                want = None
            if want is None or value == "":
                if (want is None) != (value == ""):
                    problems.append(f"fieldmap cell ({x}, {y}) blank mismatch")
            elif abs(float(value) - want) > FIELDMAP_RTOL * abs(want):
                problems.append(f"fieldmap cell ({x}, {y}) = {value}, model {want!r}")
        return problems

    def corrupt(self, out: DesignOut) -> DesignOut:
        lines = out.fieldmap.read_text().splitlines()
        x, y, value = lines[1 + FIELDMAP_SAMPLE_STRIDE].split(",")
        lines[1 + FIELDMAP_SAMPLE_STRIDE] = f"{x},{y},{float(value) * (1 + 1e-9)!r}"
        out.fieldmap.write_text("\n".join(lines) + "\n")
        return out

    def counts(self, out: DesignOut) -> dict[str, float]:
        rows = self._fieldmap_rows(out.fieldmap)
        layout_csv = out.fieldmap.parent / "layout.csv"
        attempted = len(out.layout.viable())
        return {
            "layout.structures": len(out.layout.structures),
            "layout.viable": attempted,
            "compensation.attempted": attempted,
            "compensation.attained": len(out.compensated.viable()),
            "io.bytes_written": _size(layout_csv),
            "io.bytes_read": _size(layout_csv),
            "synth.records": len(out.records),
            "synth.defects": sum(1 for r in out.records if r.truth_flags),
            "cli.fieldmap_cells": len(rows),
            "cli.fieldmap_blank": sum(1 for row in rows if row.endswith(",")),
        }


# --------------------------------------------------------------------------
# metrology

METROLOGY_SCALE_NM = 3.0
METROLOGY_CANVAS = (320, 320)
METROLOGY_NOISE = 8 / 255
METROLOGY_THRESHOLDS = 11
METROLOGY_AREA_RTOL = 0.05       # the c06 acceptance gate
METROLOGY_WIDTH_TOL_PX = 2.0
METROLOGY_DESIGN = JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)
_COORDS = np.linspace(-34.0, 34.0, 5)
METROLOGY_POSITIONS = [WaferPoint(float(x), float(y)) for y in _COORDS for x in _COORDS]


@dataclass
class MetrologyOut:
    position: WaferPoint
    rendered: object
    image: object
    result: object
    area_um2: float
    pgm_bytes: int
    units: int = 1


class Metrology:
    """One op: render one noisy junction image, round-trip it through PGM
    and extract its widths and overlap area."""

    name = "metrology"
    unit = "image"

    def __init__(self, run_seed: int) -> None:
        self.seed_base = run_seed * 1_000_003

    def op(self, k: int, tr, outdir: Path) -> MetrologyOut:
        outdir.mkdir(parents=True, exist_ok=True)
        p = METROLOGY_POSITIONS[k % len(METROLOGY_POSITIONS)]
        path = outdir / "image.pgm"
        with tr.span("imaging.render_junction"):
            img = render_junction(GEOM, METROLOGY_DESIGN, p, METROLOGY_SCALE_NM,
                                  METROLOGY_CANVAS, noise_sigma=METROLOGY_NOISE,
                                  seed=self.seed_base + k)
        with tr.span("imaging.write_pgm"):
            write_pgm(img, path)
        with tr.span("imaging.read_pgm"):
            back = read_pgm(path)
        with tr.span("imaging.extract_widths"):
            result = extract_widths(back, METROLOGY_THRESHOLDS)
        with tr.span("imaging.extract_overlap_area"):
            area = extract_overlap_area(back, result)
        return MetrologyOut(p, img, back, result, area, _size(path))

    def check(self, out: MetrologyOut) -> list[str]:
        problems = []
        if not np.array_equal(out.rendered.pixels, out.image.pixels):
            problems.append("PGM round trip changed the pixels")
        want = actual_overlap_area(GEOM, METROLOGY_DESIGN, out.position, Fidelity.BASIC)
        if not abs(out.area_um2 - want) <= METROLOGY_AREA_RTOL * want:
            problems.append(f"area {out.area_um2:.6g} um^2 vs model {want:.6g} at "
                            f"({out.position.x_mm}, {out.position.y_mm}) mm")
        return problems

    def corrupt(self, out: MetrologyOut) -> MetrologyOut:
        out.area_um2 *= 1.0 + 2 * METROLOGY_AREA_RTOL
        return out

    def counts(self, out: MetrologyOut) -> dict[str, float]:
        p, r = out.position, out.result
        truth = [band_pixel_count(actual_width_vertical(GEOM, w, c), METROLOGY_SCALE_NM, n)
                 for w, c, n in ((METROLOGY_DESIGN.w_bottom_nm, p.x_mm, METROLOGY_CANVAS[0]),
                                 (METROLOGY_DESIGN.w_top_nm, p.y_mm, METROLOGY_CANVAS[1]))]
        width_hit = (abs(r.w_bottom_nm / METROLOGY_SCALE_NM - truth[0]) <= METROLOGY_WIDTH_TOL_PX
                     and abs(r.w_top_nm / METROLOGY_SCALE_NM - truth[1]) <= METROLOGY_WIDTH_TOL_PX)
        return {
            "imaging.pgm_bytes": out.pgm_bytes,
            "imaging.thresholds": len(r.thresholds_used),
            "imaging.band_hits": sum(1 for wt, wb in r.per_threshold_widths_px.values()
                                     if wt and wb),
            "imaging.images": 1,
            "imaging.width_hits": int(width_hit),
        }


WORKLOADS = {w.name: w for w in (WaferMc, Design, Metrology)}
