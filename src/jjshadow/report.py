"""End-to-end uniformity report over a set of measurement records.

build_report filters the records (the per-die two-pass regression for
width sweeps, the fraction-of-mean cut for uniform layouts), then gathers
die- and wafer-level frequency RSD, per-design CV, mean-normalized heatmaps
per variant and effective-conductivity radial fits into one
UniformityReport with a deterministic text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import (
    CvStats,
    FilterConfig,
    FitKey,
    FrequencyModel,
    HeatmapGrid,
    conductivity_fits,
    design_statistics,
    filter_table,
    frequency_rsds,
)
from .errors import DataError
from .geometry import EvaporatorGeometry, Fidelity
from .synth import US_OHM, MeasurementRecord, MeasurementTable, ParasiticsModel


def deembed_records(records: Sequence[MeasurementRecord],
                    parasitics: ParasiticsModel) -> MeasurementTable:
    """Remove assumed substrate and series contributions from raw readings.

    Inverse of the synthetic measurement composition; an optional
    pre-analysis correction, off by default since reported figures use raw
    conductance.  A reading at or below the substrate level becomes 0.
    """
    table = MeasurementTable.from_records(records)
    g = table.g_uS - parasitics.substrate_uS
    on = g > 0.0
    inv = US_OHM / g[on] - parasitics.series_ohm(table.radius_mm()[on])
    bad = np.flatnonzero(inv <= 0.0)
    if bad.size:
        sid = table.structure_id[np.flatnonzero(on)[bad[0]]]
        raise DataError(f"{sid}: reading exceeds the assumed series limit")
    out = np.zeros(len(table))
    out[on] = US_OHM / inv
    return table.with_conductance(out)


@dataclass(frozen=True)
class UniformityReport:
    pipeline: str                            # "sweep" | "uniform"
    total: int
    abs_rejected_ids: frozenset[str]
    rel_rejected_ids: frozenset[str]
    kept: MeasurementTable
    cv_by_area: dict[tuple, CvStats]                     # (variant, area_um2)
    rsd_die_mhz: dict[FitKey, float]
    rsd_wafer_mhz: dict[str, float]                      # per variant
    rsd_die_nf_mhz: dict[FitKey, float] | None
    rsd_wafer_nf_mhz: dict[str, float] | None
    heatmaps: dict[str, HeatmapGrid]                     # per variant
    conductivity_fit_designed: dict[str, tuple[float, float, float]]
    conductivity_fit_actual: dict[str, tuple[float, float, float]]

    def yield_fraction(self) -> float:
        return len(self.kept) / self.total if self.total else 0.0


def build_report(records: Sequence[MeasurementRecord], cfg: FilterConfig,
                 fmodel: FrequencyModel, dual_rsd: bool = False,
                 geom: EvaporatorGeometry | None = None,
                 fidelity: Fidelity = Fidelity.FULL,
                 grid_positions: dict[str, Sequence] | None = None,
                 ) -> UniformityReport:
    """Run the filter pipeline and assemble every uniformity statistic.

    dual_rsd additionally reports RSD from the unfiltered (absolute-window
    only) data; geom enables the actual-area conductivity fit;
    grid_positions (variant -> wafer points) pins excluded-structure cells
    into the heatmaps as blanks.
    """
    table = MeasurementTable.from_records(records)
    filtered = filter_table(table, cfg)
    die, wafer, die_nf, wafer_nf = frequency_rsds(table, filtered, fmodel, dual_rsd)
    kept = table.take(filtered.kept)
    cv_by_area, heatmaps = design_statistics(kept, grid_positions or {})
    designed, actual = conductivity_fits(kept, geom, fidelity)
    ids, in_window = table.structure_id, filtered.in_window
    return UniformityReport(
        pipeline=filtered.pipeline, total=len(table), kept=kept, cv_by_area=cv_by_area,
        abs_rejected_ids=frozenset(ids[~in_window]),
        rel_rejected_ids=frozenset(ids[in_window & ~filtered.keep]),
        rsd_die_mhz=die, rsd_wafer_mhz=wafer, rsd_die_nf_mhz=die_nf, rsd_wafer_nf_mhz=wafer_nf,
        heatmaps=heatmaps, conductivity_fit_designed=designed, conductivity_fit_actual=actual)


def render_report_text(report: UniformityReport) -> str:
    """Deterministic key/value + table text rendering."""
    lines = ["# jjshadow uniformity report"]
    lines.append(f"pipeline = {report.pipeline}")
    lines.append(f"records = {report.total}")
    lines.append(f"abs_filter_rejected = {len(report.abs_rejected_ids)}")
    lines.append(f"rel_filter_rejected = {len(report.rel_rejected_ids)}")
    lines.append(f"kept = {len(report.kept)}")
    lines.append(f"yield = {len(report.kept)}/{report.total}"
                 f" = {report.yield_fraction():.4f}")

    lines += ["", "[cv wafer]", "variant area_um2 n mean_uS std_uS cv_pct"]
    for (variant, area), s in sorted(report.cv_by_area.items()):
        cv = f"{100.0 * s.cv:.4f}" if s.cv is not None else "nan"
        lines.append(f"{variant} {area:.6g} {s.n} {s.mean_uS:.6g} {s.std_uS:.6g} {cv}")

    # dual_rsd gives both nf dicts, so each table has an nf column or neither has.
    die_nf, wafer_nf = report.rsd_die_nf_mhz, report.rsd_wafer_nf_mhz
    nf = " rsd_nf_mhz" if die_nf is not None else ""
    lines += ["", "[rsd die]", f"variant die_x die_y rsd_mhz{nf}"]
    for (variant, die), rsd in sorted(report.rsd_die_mhz.items()):
        row = f"{variant} {die[0]} {die[1]} {rsd:.6g}"
        lines.append(row + (f" {die_nf[variant, die]:.6g}" if nf else ""))

    lines += ["", "[rsd wafer]", f"variant rsd_mhz mean_die_rsd_mhz{nf}"]
    for variant in sorted(report.rsd_wafer_mhz):
        die_vals = [v for (var, _), v in report.rsd_die_mhz.items() if var == variant]
        mean_die = sum(die_vals) / len(die_vals) if die_vals else 0.0
        row = f"{variant} {report.rsd_wafer_mhz[variant]:.6g} {mean_die:.6g}"
        lines.append(row + (f" {wafer_nf[variant]:.6g}" if nf else ""))

    lines += ["", "[conductivity quadratic fits: value = a + b*d + c*d^2]", "variant areas a b c"]
    for areas, fits in (("designed", report.conductivity_fit_designed),
                        ("actual", report.conductivity_fit_actual)):
        for variant, (a, b, c) in sorted(fits.items()):
            lines.append(f"{variant} {areas} {a:.6g} {b:.6g} {c:.6g}")
    return "\n".join(lines) + "\n"
