"""Command-line surface: layout, simulate, analyze, fieldmap, render,
extract, compensate, write-config.

Exit codes: 0 success, 1 usage error, 2 data/config error, 3 numerical
failure.  All randomness sits behind an explicit --seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import io as jio
from .compensation import MAX_WIDTH_NM, compensated_layout
from .config import load_config, write_default
from .errors import (
    ConfigError,
    DataError,
    ExtractionError,
    FitError,
    GeometryError,
    JJShadowError,
    ShadowedError,
    TargetError,
)
from .geometry import (
    FIELD_QUANTITIES,
    WAFER_RADIUS_MM,
    Fidelity,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_width_vertical,
    evaluate_field,
)
from .imaging import (
    DEFAULT_THRESHOLD_COUNT,
    band_pixel_count,
    read_pgm,
    render_junction,
    write_pgm,
)
from .layout import (
    MANHATTAN_FIXED_TOP_NM,
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
DATA_EXIT = 2
NUMERIC_EXIT = 3

MANIFEST_HEADER = "structure_id,x_mm,y_mm,w_b_px,w_t_px"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):          # usage errors exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value run configuration (defaults if omitted)")


def _fidelity_arg(value: str) -> Fidelity:
    try:
        return Fidelity(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fidelity must be basic/sidewall/full, got {value!r}")


def cmd_layout(args: argparse.Namespace) -> int:
    sites = load_subarray_sites(args.subarrays) if args.subarrays else None
    kind = args.kind
    if kind == "planar17q":
        sweeps = load_sweep_file(args.sweeps) if args.sweeps else None
        layout = build_planar_17q(sweeps=sweeps, sites=sites)
    elif kind in ("tsv17q-dolan", "tsv17q-manhattan"):
        variant = Variant.DOLAN if kind.endswith("dolan") else Variant.MANHATTAN
        vias = load_tsv_file(args.tsv_file) if args.tsv_file else load_tsv_file()
        sweep = None
        if args.sweeps:
            table = load_sweep_file(args.sweeps)
            if len(table) != 1:
                raise DataError("TSV layouts take a single-group sweep file")
            sweep = next(iter(table.values()))
        layout = build_tsv_17q(variant, vias, sweep=sweep, sites=sites)
    elif kind.startswith("planar35x35-"):
        pad = kind.rsplit("-", 1)[1]
        omitted: tuple[int, ...] = ()
        if args.omit_rows is not None:
            omitted = tuple(int(t) for t in args.omit_rows.split(",") if t)
        elif pad == "al":
            omitted = (33, 34)          # the two rows skipped in acquisition
        layout = build_35x35(pad, omitted_rows=omitted)
    else:
        raise DataError(f"unknown layout kind {kind!r}")
    jio.write_layout_csv(layout, args.out)
    print(f"wrote {args.out}: {len(layout.structures)} structures, "
          f"{len(layout.viable())} viable")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    layout = jio.read_layout_csv(args.layout)
    records = synthesize_wafer(layout, cfg.geometry(), cfg.process(args.seed),
                               cfg.parasitics())
    jio.write_measurements_csv(records, args.out)
    if args.truth_out:
        jio.write_truth_csv(records, args.truth_out)
    print(f"wrote {args.out}: {len(records)} measurements")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records = jio.read_measurements_csv(args.measurements)
    if cfg.analysis().deembed:
        records = deembed_records(records, cfg.parasitics())
    grid_positions = None
    if args.layout:
        layout = jio.read_layout_csv(args.layout)
        grid_positions = {}
        for s in layout.structures:
            grid_positions.setdefault(s.design.variant.value, []).append(s.position)
    report = build_report(records, cfg.filter(), cfg.frequency(),
                          dual_rsd=cfg.analysis().dual_rsd, geom=cfg.geometry(),
                          fidelity=cfg.fidelity(), grid_positions=grid_positions)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(render_report_text(report))
    for variant, grid in report.heatmaps.items():
        jio.write_heatmap_csv(grid, out_dir / f"heatmap_{variant}.csv")
        jio.write_heatmap_pgm(grid, out_dir / f"heatmap_{variant}.pgm")
    print(f"wrote {out_dir}/report.txt"
          f" (+{2 * len(report.heatmaps)} heatmap files)")
    return 0


def cmd_fieldmap(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    geom = cfg.geometry()
    design = JunctionDesign(Variant.MANHATTAN, args.wb, args.wt)
    step = args.step
    if step <= 0:
        raise DataError("grid step must be > 0")
    n = int(math.floor(WAFER_RADIUS_MM / step))
    with open(args.out, "w", newline="") as fh:
        fh.write("x_mm,y_mm,value\n")
        for iy in range(n, -n - 1, -1):
            for ix in range(-n, n + 1):
                x, y = ix * step, iy * step
                if math.hypot(x, y) > WAFER_RADIUS_MM:
                    continue
                try:
                    value = repr(evaluate_field(geom, args.quantity,
                                                WaferPoint(x, y), design,
                                                args.fidelity))
                except ShadowedError:
                    value = ""          # pinched off: blank cell
                fh.write(f"{x!r},{y!r},{value}\n")
    print(f"wrote {args.out}")
    return 0


def _render_targets(args: argparse.Namespace):
    """Yield (structure_id, WaferPoint, JunctionDesign) to render."""
    if args.layout:
        layout = jio.read_layout_csv(args.layout)
        targets = [(s.structure_id, s.position, s.design)
                   for s in layout.viable()
                   if s.design.variant is Variant.MANHATTAN]
        if not targets:
            raise DataError("layout holds no crossed-junction structures to render")
        return targets[::args.stride]
    n = args.grid
    span = 34.0
    coords = [(-span + 2 * span * i / (n - 1)) if n > 1 else 0.0 for i in range(n)]
    design = JunctionDesign(Variant.MANHATTAN, args.wb, args.wt)
    return [(f"g{i:02d}_{j:02d}", WaferPoint(coords[j], coords[i]), design)
            for i in range(n) for j in range(n)]


def cmd_render(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    geom = cfg.geometry()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    canvas = (args.canvas, args.canvas)
    rows = []
    for sid, pos, design in _render_targets(args):
        img = render_junction(geom, design, pos, scale_nm_per_px=args.scale,
                              canvas_px=canvas, noise_sigma=args.noise,
                              seed=args.seed)
        write_pgm(img, out_dir / f"{sid}.pgm")
        wb_px = band_pixel_count(
            actual_width_vertical(geom, design.w_bottom_nm, pos.x_mm),
            args.scale, args.canvas)
        wt_px = band_pixel_count(
            actual_width_vertical(geom, design.w_top_nm, pos.y_mm),
            args.scale, args.canvas)
        rows.append(f"{sid},{pos.x_mm!r},{pos.y_mm!r},{wb_px},{wt_px}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "\n" + "\n".join(rows) + "\n")
    print(f"wrote {len(rows)} images + {manifest}")
    return 0


def _read_manifest(path: str) -> dict[str, tuple[float, float]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != MANIFEST_HEADER:
        raise DataError(f"{path}: bad or missing manifest header")
    out = {}
    for line in lines[1:]:
        if line:
            sid, x, y, *_ = line.split(",")
            out[sid] = (float(x), float(y))
    return out


def cmd_extract(args: argparse.Namespace) -> int:
    from .imaging import extract_overlap_area, extract_widths

    manifest = _read_manifest(args.manifest) if args.manifest else {}
    rows = []
    for image_path in args.images:
        sid = Path(image_path).stem
        img = read_pgm(image_path, scale_nm_per_px=args.scale)
        result = extract_widths(img, threshold_count=args.thresholds)
        area = extract_overlap_area(img, result)
        if sid in manifest:
            x, y = manifest[sid]
            d = math.hypot(x, y)
        else:
            d = float("nan")
        rows.append({"structure_id": sid, "d_mm": d,
                     "w_top_nm": result.w_top_nm,
                     "w_bottom_nm": result.w_bottom_nm,
                     "a_overlap_um2": area})
    jio.write_extraction_csv(rows, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_compensate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    layout = jio.read_layout_csv(args.layout)
    fidelity = args.fidelity if args.fidelity else cfg.fidelity()
    fixed_top = args.fixed_top_nm if args.mode == "fixed-top" else None
    result = compensated_layout(layout, cfg.geometry(), fidelity,
                                w_max_nm=args.max_width_nm, fixed_top_nm=fixed_top)
    jio.write_layout_csv(result, args.out)
    flagged = sum(1 for s in result.structures
                  if s.excluded and s.exclusion_reason.startswith("unattainable"))
    print(f"wrote {args.out}: {len(result.structures)} structures, "
          f"{flagged} unattainable")
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
                   choices=[k.value for k in LayoutKind if k is not LayoutKind.CUSTOM])
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
    p.add_argument("--fidelity", type=_fidelity_arg, default=Fidelity.FULL)
    _add_config_arg(p)
    p.set_defaults(func=cmd_fieldmap)

    p = sub.add_parser("render", help="render synthetic junction micrographs")
    p.add_argument("--out-dir", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--layout", default=None,
                       help="render the crossed junctions of this layout CSV")
    group.add_argument("--grid", type=int, default=None,
                       help="render an NxN grid across the wafer instead")
    p.add_argument("--stride", type=int, default=1,
                   help="render every k-th layout structure")
    p.add_argument("--wb", type=float, default=UNIFORM_WIDTH_NM)
    p.add_argument("--wt", type=float, default=UNIFORM_WIDTH_NM)
    p.add_argument("--scale", type=float, default=2.0, help="nm per pixel")
    p.add_argument("--canvas", type=int, default=512,
                   help="square canvas size px; keep bands well under half "
                        "the canvas so mean-relative thresholds stay sharp")
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian pixel noise sigma, fraction of full scale")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--fidelity", type=_fidelity_arg, default=None)
    p.add_argument("--mode", choices=["aspect", "fixed-top"], default="aspect")
    p.add_argument("--fixed-top-nm", type=float, default=MANHATTAN_FIXED_TOP_NM)
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
    except (ConfigError, DataError) as exc:
        print(f"jjshadow: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (GeometryError, ShadowedError, FitError, ExtractionError,
            TargetError) as exc:
        print(f"jjshadow: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except JJShadowError as exc:
        print(f"jjshadow: error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except OSError as exc:
        print(f"jjshadow: i/o error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
