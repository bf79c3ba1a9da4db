"""Command-line surface: layout, simulate, analyze, fieldmap, render,
extract, compensate, write-config.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
failure.  All randomness is seeded by process.seed, or --seed over it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import io as jio
from .compensation import MAX_WIDTH_NM, compensated_layout
from .config import load_config, write_default
from .errors import DataError, ExtractionError, JJShadowError, open_output
from .geometry import (
    FIELD_QUANTITIES,
    VARIANT_CODES,
    WAFER_RADIUS_MM,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    Sites,
    Variant,
    WaferPoint,
    actual_width_vertical,
    evaluate_field,  # noqa: F401 -- perfbench/spans.py wraps this binding in traced runs
    variant_rows,
    within_radius,
)
from .imaging import (
    DEFAULT_CANVAS_PX,
    DEFAULT_SCALE_NM_PER_PX,
    DEFAULT_THRESHOLD_COUNT,
    band_pixel_count,
    bands_below_lowest_threshold,
    extract_widths,
    read_pgm,
    render_junction,
    write_pgm,
)
from .layout import (
    UNIFORM_WIDTH_NM,
    LayoutKind,
    build_35x35,
    build_planar_17q,
    build_tsv_17q,
    load_subarray_sites,
    load_sweep_file,
    load_tsv_file,
)
from .report import build_report, deembed_records, render_report_text
from .synth import synthesize_wafer

USAGE_EXIT = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):          # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value run configuration (defaults if omitted)")


def _value(args: argparse.Namespace, option: str):
    """The value of option, None if it was not given and has no default."""
    return getattr(args, option.lstrip("-").replace("-", "_"))


def _refuse(args: argparse.Namespace, source: str, *options: str) -> None:
    """Reject any of options given, which the input named by source does not read."""
    for option in options:
        if _value(args, option) is not None:
            raise DataError(f"{option} does not apply to {source}")


def _check_at_least(args: argparse.Namespace, least: int, *options: str, unit: str = "",
                    strict: bool = False, most: int | None = None) -> None:
    """Reject an option given that is below least (or equal to it, if
    strict), above most or, if it is a float, not finite."""
    for option in options:
        value = _value(args, option)
        if value is not None and not (math.isfinite(value) and (
                value > least if strict else value >= least)):
            finite = "finite and " if isinstance(value, float) else ""
            raise DataError(f"{option} must be {finite}{'>' if strict else '>='} "
                            f"{least}{unit}, got {value}")
        if most is not None and value is not None and value > most:
            raise DataError(f"{option} must be <= {most}{unit}, got {value}")


# The options of layout that each family of --kind does not read.
_LAYOUT_UNREAD = {"planar17q": ("--tsv-file", "--omit-rows"), "tsv17q": ("--omit-rows",),
                  "planar35x35": ("--tsv-file", "--subarrays", "--sweeps")}


def cmd_layout(args: argparse.Namespace) -> int:
    kind = args.kind
    _refuse(args, f"--kind {kind}", *_LAYOUT_UNREAD[kind.split("-")[0]])
    sites = None if kind.startswith("planar35x35") else load_subarray_sites(args.subarrays)
    if kind == "planar17q":
        sweeps = load_sweep_file(args.sweeps) if args.sweeps else None
        layout = build_planar_17q(sweeps=sweeps, sites=sites)
    elif kind in ("tsv17q-dolan", "tsv17q-manhattan"):
        variant = Variant.DOLAN if kind.endswith("dolan") else Variant.MANHATTAN
        vias = load_tsv_file(args.tsv_file)
        sweep = None
        if args.sweeps:
            table = load_sweep_file(args.sweeps)
            if len(table) != 1:
                raise DataError("TSV layouts take a single-group sweep file")
            sweep = next(iter(table.values()))
        layout = build_tsv_17q(variant, vias, sweep=sweep, sites=sites)
    else:                               # planar35x35-<pad>
        pad = kind.rsplit("-", 1)[1]
        omitted = (33, 34) if pad == "al" else ()      # the rows skipped in acquisition
        if args.omit_rows is not None:
            try:
                omitted = tuple(int(t) for t in args.omit_rows.split(",") if t)
            except ValueError as exc:
                raise DataError(f"--omit-rows takes row numbers: {exc}") from None
        layout = build_35x35(pad, omitted_rows=omitted)
    jio.write_layout_csv(layout, args.out)
    excluded = layout.structures.excluded
    print(f"wrote {args.out}: {excluded.size} structures, "
          f"{excluded.size - int(excluded.sum())} viable")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_at_least(args, 0, "--seed")
    cfg = load_config(args.config)
    layout = jio.read_layout_csv(args.layout)
    process = cfg.process if args.seed is None else replace(cfg.process, seed=args.seed)
    records = synthesize_wafer(layout, cfg.geometry, process, cfg.parasitics)
    jio.write_measurements_csv(records, args.out)
    if args.truth_out:
        jio.write_truth_csv(records, args.truth_out)
    print(f"wrote {args.out}: {len(records)} measurements")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records = jio.read_measurements_csv(args.measurements)
    if cfg.analysis.deembed:
        records = deembed_records(records, cfg.parasitics)
    grid_positions = None
    if args.layout:
        table = jio.read_layout_csv(args.layout).structures
        grid_positions = {
            variant.value: list(map(WaferPoint, table.x_mm[at].tolist(), table.y_mm[at].tolist()))
            for variant, at in variant_rows(table.variant)}
    report = build_report(records, cfg.filter, cfg.frequency,
                          dual_rsd=cfg.analysis.dual_rsd, geom=cfg.geometry,
                          fidelity=cfg.process.fidelity, grid_positions=grid_positions)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_output(out_dir / "report.txt") as fh:
        fh.write(render_report_text(report))
    for variant, grid in report.heatmaps.items():
        jio.write_heatmap_csv(grid, out_dir / f"heatmap_{variant}.csv")
        jio.write_heatmap_pgm(grid, out_dir / f"heatmap_{variant}.pgm")
    print(f"wrote {out_dir}/report.txt"
          f" (+{2 * len(report.heatmaps)} heatmap files)")
    return 0


FIELDMAP_BLOCK_POINTS = 8192        # x >= 0 grid points per Sites.field call
FIELDMAP_MAX_CELLS = 10_000_000     # bound on the (2n + 1)^2 square grid a step asks for
RENDER_MAX_CANVAS_PX = 8192         # bound on render --canvas, a side of its float32 raster
RENDER_STRIDE = 1                   # render --stride when not given
EXTRACT_MAX_THRESHOLDS = 1000       # bound on extract --thresholds, the sweep's length


def _field_map_text(geom: EvaporatorGeometry, quantity: str, design: JunctionDesign,
                    fidelity: Fidelity, step: float) -> Iterator[str]:
    """The CSV lines of each block of field-map rows as one string, rows
    north to south and, within a row, west to east.  Sites.field runs once
    per block of rows.

    Every field quantity takes the same value at (x, y) and (-x, y), and so
    does the disc test; the grid is symmetric too, since (-k)*step is
    -(k*step) exactly.  So values are evaluated and formatted at x >= 0
    only, and each row's x < 0 cells mirror its x > 0 cells.  Those are
    x = 0, step, ..., (k-1)*step: the disc test grows with |x| along a row,
    and any step the CLI accepts (about 0.0316 mm or more) is far above
    rounding.  An outer row holds no cell when n*step rounds past the radius.
    """
    n = int(math.floor(WAFER_RADIUS_MM / step))
    xs = np.arange(n + 1) * step
    x_text = [repr(x) for x in (np.arange(-n, n + 1) * step).tolist()]
    ys = np.arange(n, -n - 1, -1) * step
    rows_per_block = max(1, FIELDMAP_BLOCK_POINTS // xs.size)
    for first in range(0, ys.size, rows_per_block):
        block = ys[first:first + rows_per_block]
        row, col = np.nonzero(within_radius(xs, block[:, None], WAFER_RADIUS_MM))
        values, ok = Sites(geom, xs[col], block[row]).field(quantity, design, fidelity)
        cells = [repr(v) for v in values.tolist()]
        for k in np.flatnonzero(~ok).tolist():
            cells[k] = ""               # pinched off: blank cell
        bounds = np.searchsorted(row, np.arange(block.size + 1))
        # Four slots per cell of the block: x, ",y,", value and "\n".
        text = ["\n"] * (4 * (2 * row.size - np.count_nonzero(np.diff(bounds))))
        at = 0
        for y, lo, hi in zip(block.tolist(), bounds.tolist(), bounds[1:].tolist()):
            k = hi - lo
            if k:
                half = cells[lo:hi]     # x = 0 has no mirror image
                end = at + 4 * (2 * k - 1)
                text[at:end:4] = x_text[n - k + 1:n + k]
                text[at + 1:end:4] = [f",{y!r},"] * (2 * k - 1)
                text[at + 2:end:4] = half[:0:-1] + half
                at = end
        yield "".join(text)


def cmd_fieldmap(args: argparse.Namespace) -> int:
    _check_at_least(args, 0, "--wb", "--wt", unit=" nm")
    cfg = load_config(args.config)
    fidelity = Fidelity(args.fidelity or cfg.process.fidelity)
    design = JunctionDesign(Variant.MANHATTAN, args.wb, args.wt)
    _check_at_least(args, 0, "--step", strict=True)
    step = args.step
    n = WAFER_RADIUS_MM / step
    if not (math.isfinite(n) and (2 * math.floor(n) + 1) ** 2 <= FIELDMAP_MAX_CELLS):
        raise DataError(f"--step {step} mm asks for more than {FIELDMAP_MAX_CELLS:,} cells")
    with open_output(args.out, newline="") as fh:
        fh.write("x_mm,y_mm,value\n")
        fh.writelines(_field_map_text(cfg.geometry, args.quantity, design, fidelity, step))
    print(f"wrote {args.out}")
    return 0


def _render_targets(args: argparse.Namespace):
    """Yield (structure_id, WaferPoint, JunctionDesign) to render."""
    if args.layout:
        table = jio.read_layout_csv(args.layout).structures
        crossed = np.flatnonzero(~table.excluded
                                 & (table.variant == VARIANT_CODES[Variant.MANHATTAN]))
        if not crossed.size:
            raise DataError("layout holds no crossed-junction structures to render")
        at = crossed[::RENDER_STRIDE if args.stride is None else args.stride]
        return [(s.structure_id, s.position, s.design) for s in table.take(at)]
    n = args.grid
    span = 34.0
    coords = [(-span + 2 * span * i / (n - 1)) if n > 1 else 0.0 for i in range(n)]
    w_b, w_t = (UNIFORM_WIDTH_NM if w is None else w for w in (args.wb, args.wt))
    design = JunctionDesign(Variant.MANHATTAN, w_b, w_t)
    return [(f"g{i:02d}_{j:02d}", WaferPoint(coords[j], coords[i]), design)
            for i in range(n) for j in range(n)]


def cmd_render(args: argparse.Namespace) -> int:
    _check_at_least(args, 0, "--wb", "--wt", unit=" nm")
    _check_at_least(args, 0, "--noise", "--seed")
    _check_at_least(args, 1, "--stride", "--grid")
    _check_at_least(args, 0, "--scale", strict=True)
    _check_at_least(args, 1, "--canvas", unit=" px", most=RENDER_MAX_CANVAS_PX)
    source, ignored = (("--grid", ("--stride",)) if args.layout is None
                       else ("--layout", ("--wb", "--wt")))
    _refuse(args, source, *ignored)
    cfg = load_config(args.config)
    geom = cfg.geometry
    seed = cfg.process.seed if args.seed is None else args.seed
    out_dir = Path(args.out_dir)
    canvas = (args.canvas, args.canvas)
    rows = []
    for sid, pos, design in _render_targets(args):
        img = render_junction(geom, design, pos, scale_nm_per_px=args.scale,
                              canvas_px=canvas, noise_sigma=args.noise, seed=seed)
        out_dir.mkdir(parents=True, exist_ok=True)     # once an image has rendered
        write_pgm(img, out_dir / f"{sid}.pgm")
        lost = bands_below_lowest_threshold(img)
        if lost:
            bands = " and ".join(lost) + (" bands" if len(lost) > 1 else " band")
            print(f"jjshadow: warning: {sid}: on the {args.canvas} px canvas extract's "
                  f"lowest threshold exceeds the level of the {bands}",
                  file=sys.stderr)
        wb_px = band_pixel_count(
            actual_width_vertical(geom, design.w_bottom_nm, pos.x_mm),
            args.scale, args.canvas)
        wt_px = band_pixel_count(
            actual_width_vertical(geom, design.w_top_nm, pos.y_mm),
            args.scale, args.canvas)
        rows.append((sid, pos.x_mm, pos.y_mm, wb_px, wt_px))
    manifest = out_dir / "manifest.csv"
    jio.write_manifest_csv(rows, manifest)
    print(f"wrote {len(rows)} images + {manifest}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    _check_at_least(args, 1, "--thresholds", most=EXTRACT_MAX_THRESHOLDS)
    _check_at_least(args, 0, "--scale", strict=True)
    ids: dict[str, str] = {}            # image id (file stem) -> path
    for image_path in args.images:
        sid = Path(image_path).stem
        if sid in ids:
            raise DataError(f"images {ids[sid]} and {image_path} share the id {sid!r}")
        ids[sid] = image_path
    manifest = jio.read_manifest_csv(args.manifest) if args.manifest else {}
    rows = []
    failed = 0
    for sid, image_path in ids.items():
        img = read_pgm(image_path, scale_nm_per_px=args.scale)
        d = manifest[sid].radius_mm() if sid in manifest else float("nan")
        # An image without electrode edges keeps its row, with blank widths
        # and area, and makes the batch exit 3.
        row = {"structure_id": sid, "d_mm": d,
               "w_top_nm": "", "w_bottom_nm": "", "a_overlap_um2": ""}
        try:
            result = extract_widths(img, threshold_count=args.thresholds)
            row.update(w_top_nm=result.w_top_nm, w_bottom_nm=result.w_bottom_nm,
                       a_overlap_um2=result.a_overlap_um2)
        except ExtractionError as exc:
            print(f"jjshadow: {exc.label}: {image_path}: {exc}", file=sys.stderr)
            failed += 1
        rows.append(row)
    jio.write_extraction_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows, {failed} without electrode edges")
    return ExtractionError.exit_code if failed else 0


def cmd_compensate(args: argparse.Namespace) -> int:
    _check_at_least(args, 0, "--max-width-nm", "--fixed-top-nm", unit=" nm")
    cfg = load_config(args.config)
    layout = jio.read_layout_csv(args.layout)
    fidelity = Fidelity(args.fidelity or cfg.process.fidelity)
    result = compensated_layout(layout, cfg.geometry, fidelity,
                                w_max_nm=args.max_width_nm, fixed_top_nm=args.fixed_top_nm)
    jio.write_layout_csv(result, args.out)
    table = result.structures
    flagged = sum(1 for reason in table.exclusion_reason[table.excluded].tolist()
                  if reason.startswith("unattainable"))
    print(f"wrote {args.out}: {len(table)} structures, {flagged} unattainable")
    return 0


def cmd_write_config(args: argparse.Namespace) -> int:
    write_default(args.out)
    print(f"wrote {args.out}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jjshadow",
                     description="Shadow-evaporation junction uniformity toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("layout", help="emit a wafer layout CSV")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in LayoutKind])
    p.add_argument("--out", required=True)
    p.add_argument("--tsv-file", default=None, help="via positions CSV")
    p.add_argument("--subarrays", default=None, help="sub-array placement CSV")
    p.add_argument("--sweeps", default=None, help="width sweep CSV (group,w_nm)")
    p.add_argument("--omit-rows", default=None,
                   help="comma-separated 35x35 rows to flag excluded")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("simulate", help="synthesize conductance measurements")
    p.add_argument("--layout", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override process.seed from the config")
    p.add_argument("--truth-out", default=None,
                   help="write the injected-defect sidecar CSV")
    _add_config_arg(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="filter, fit, and report uniformity")
    p.add_argument("--measurements", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--layout", default=None,
                   help="layout CSV to pin excluded cells into heatmaps")
    _add_config_arg(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fieldmap", help="export a model quantity on a grid")
    p.add_argument("--quantity", required=True, choices=FIELD_QUANTITIES)
    p.add_argument("--step", type=float, required=True, help="grid step in mm")
    p.add_argument("--out", required=True)
    p.add_argument("--wb", type=float, default=UNIFORM_WIDTH_NM,
                   help="designed bottom width nm")
    p.add_argument("--wt", type=float, default=UNIFORM_WIDTH_NM,
                   help="designed top width nm")
    p.add_argument("--fidelity", choices=[f.value for f in Fidelity], default=None,
                   help="override process.fidelity from the config")
    _add_config_arg(p)
    p.set_defaults(func=cmd_fieldmap)

    p = sub.add_parser("render", help="render synthetic junction micrographs")
    p.add_argument("--out-dir", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--layout", default=None,
                       help="render the crossed junctions of this layout CSV")
    group.add_argument("--grid", type=int, default=None,
                       help="render an NxN grid across the wafer instead")
    p.add_argument("--stride", type=int, default=None,
                   help=f"with --layout, render every k-th crossed structure "
                        f"(default {RENDER_STRIDE})")
    p.add_argument("--wb", type=float, default=None,
                   help=f"with --grid, designed bottom width nm (default {UNIFORM_WIDTH_NM})")
    p.add_argument("--wt", type=float, default=None,
                   help=f"with --grid, designed top width nm (default {UNIFORM_WIDTH_NM})")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE_NM_PER_PX,
                   help="nm per pixel")
    p.add_argument("--canvas", type=int, default=DEFAULT_CANVAS_PX,
                   help="square canvas size px; keep bands well under half "
                        "the canvas so mean-relative thresholds stay sharp")
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian pixel noise sigma, fraction of full scale")
    p.add_argument("--seed", type=int, default=None,
                   help="override process.seed from the config")
    _add_config_arg(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("extract", help="extract widths/areas from PGM images")
    p.add_argument("--out", required=True)
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--scale", type=float, default=None,
                   help="nm per pixel (required for instrument files)")
    p.add_argument("--thresholds", type=int, default=DEFAULT_THRESHOLD_COUNT)
    p.add_argument("--manifest", default=None,
                   help="render manifest CSV for ids and positions")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("compensate", help="pre-compensate a layout's designs")
    p.add_argument("--layout", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fidelity", choices=[f.value for f in Fidelity], default=None)
    p.add_argument("--fixed-top-nm", type=float, default=None,
                   help="solve crossed junctions at this top width nm, not the aspect")
    p.add_argument("--max-width-nm", type=float, default=MAX_WIDTH_NM)
    _add_config_arg(p)
    p.set_defaults(func=cmd_compensate)

    p = sub.add_parser("write-config", help="write the default config template")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_write_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JJShadowError as exc:
        print(f"jjshadow: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"jjshadow: i/o error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
