"""End-to-end uniformity report over a set of measurement records.

Chooses the pipeline by layout type (width sweeps get the per-die two-pass
regression filter, uniform layouts the fraction-of-mean filter), then
gathers yield, per-design CV, die- and wafer-level frequency RSD,
mean-normalized heatmaps per variant, and effective-conductivity radial
fits into one UniformityReport with a deterministic text rendering.

The report runs on the columns of a MeasurementTable: it sorts one index
array by (variant, die) and loops over those groups, never over records.
It computes each group's result once, with the analysis helpers that the
public functions wrap, and shares it where the public functions would
compute it again from the same values in the same order, so the bits are
the same: a sweep die's pass-1 line is its unfiltered fit, the wafer CV's
group means normalize the heatmaps, and a variant's two conductivity fits
share its radii and their distinct count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import (
    CvStats,
    FilterConfig,
    FrequencyModel,
    HeatmapGrid,
    _conductivity,
    _cv,
    _design_groups,
    _distinct,
    _exact_mean,
    _heatmap,
    _in_window,
    _mean_keep,
    _normalized,
    _polyfit,
    _quadratic,
    _regression,
    _regressor,
    _rsd,
    _runs,
)
from .errors import DataError, FitError
from .geometry import VARIANTS, EvaporatorGeometry, Fidelity
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


FitKey = tuple[str, tuple[int, int]]        # (variant, die_index)


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


def _is_uniform(table: MeasurementTable) -> bool:
    """True when every record has the same design (variant and area)."""
    return bool(np.all(table.variant == table.variant[0])
                and np.all(table.a_overlap_designed_um2 == table.a_overlap_designed_um2[0]))


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
    if not len(table):
        raise DataError("no measurement records to analyze")
    g, ids, x = table.g_uS, table.structure_id, _regressor(table, cfg)
    in_window = _in_window(g, cfg)
    abs_kept = np.flatnonzero(in_window)
    if not abs_kept.size:
        raise DataError("absolute filter rejected every record")
    uniform = _is_uniform(table)

    def by_variant(idx: np.ndarray) -> list[tuple[str, np.ndarray]]:
        """(variant, positions in idx of its rows) per variant, in code order."""
        codes = table.variant[idx]
        return [(VARIANTS[c].value, np.flatnonzero(codes == c))
                for c in sorted(set(codes.tolist()))]  # np.unique(x) imports numpy.ma

    def refit(idx: np.ndarray, who: str):
        """The pipeline's model (mean or line) fitted once to all of idx,
        evaluated at idx."""
        if uniform:
            return _exact_mean(g[idx])
        slope, intercept = _polyfit(x[idx], g[idx], 1,
                                    f"{who}: regression is underdetermined")
        return slope * x[idx] + intercept

    by_die = []                     # ((variant, die), rows), sorted by key
    for run in _runs((table.die_y[abs_kept], table.die_x[abs_kept],
                      table.variant[abs_kept])):
        idx = abs_kept[run]
        i = idx[0]
        key = (VARIANTS[table.variant[i]].value, (int(table.die_x[i]), int(table.die_y[i])))
        by_die.append((key, idx))

    keep = np.zeros(len(table), dtype=bool)             # kept by the relative filter
    fitted = {}     # (variant, die) -> kept rows, and the die's mean or pass-2 line there
    unfitted = {}   # (variant, die) -> a sweep die's pass-1 line at all its rows
    if uniform:
        keep[abs_kept] = _mean_keep(g[abs_kept], cfg)
        for key, idx in by_die:
            rows = idx[keep[idx]]
            if not rows.size:
                raise FitError(f"die {key[1]}: mean filter rejected every record")
            fitted[key] = rows, _exact_mean(g[rows])
        kept = abs_kept[keep[abs_kept]]
    else:
        for key, idx in by_die:
            slope, intercept, die_keep, unfitted[key] = _regression(x[idx], g[idx], key[1], cfg)
            rows = idx[die_keep]
            keep[rows] = True
            fitted[key] = rows, slope * x[rows] + intercept
        kept = np.concatenate([rows for rows, _ in fitted.values()])

    rsd_die = {key: _rsd(g[rows], fit, fmodel) for key, (rows, fit) in fitted.items()}
    kept_by_variant = by_variant(kept)
    rsd_wafer = {variant: _rsd(g[kept[pos]], refit(kept[pos], f"{variant} wafer"), fmodel)
                 for variant, pos in kept_by_variant}

    rsd_die_nf = rsd_wafer_nf = None
    if dual_rsd:
        # A sweep die's pass-1 line is its unfiltered fit: one fit to the same rows.
        rsd_die_nf = {key: _rsd(g[idx], _exact_mean(g[idx]) if uniform else unfitted[key],
                                fmodel) for key, idx in by_die}
        rsd_wafer_nf = {
            variant: _rsd(g[abs_kept[pos]],
                          refit(abs_kept[pos], f"{variant} wafer unfiltered"), fmodel)
            for variant, pos in by_variant(abs_kept)}

    # The wafer CV's groups are the heatmaps' design groups: the same kept
    # rows in the same order, so their means normalize the heatmaps.
    kept_table = table.take(kept)
    groups = _design_groups(kept_table)
    ratio = _normalized(kept_table, groups)
    heatmaps = {variant: _heatmap(kept_table.x_mm[pos], kept_table.y_mm[pos], ratio[pos],
                                  list((grid_positions or {}).get(variant, ())))
                for variant, pos in kept_by_variant}

    fit_designed, fit_actual = {}, {}
    for variant, pos in kept_by_variant:
        sub = kept_table.take(pos)
        radii = sub.radius_mm()
        distinct = _distinct(radii)
        try:
            fit_designed[variant] = _quadratic(radii, _conductivity(sub, "designed"), distinct)
        except FitError:
            pass                        # degenerate radii (e.g. single position)
        if geom is not None:
            try:
                fit_actual[variant] = _quadratic(
                    radii, _conductivity(sub, "actual", geom, fidelity), distinct)
            except FitError:
                pass

    return UniformityReport(
        pipeline="uniform" if uniform else "sweep",
        total=len(table),
        abs_rejected_ids=frozenset(ids[~in_window]),
        rel_rejected_ids=frozenset(ids[in_window & ~keep]),
        kept=kept_table,
        cv_by_area=_cv(kept_table, groups),
        rsd_die_mhz=rsd_die,
        rsd_wafer_mhz=rsd_wafer,
        rsd_die_nf_mhz=rsd_die_nf,
        rsd_wafer_nf_mhz=rsd_wafer_nf,
        heatmaps=heatmaps,
        conductivity_fit_designed=fit_designed,
        conductivity_fit_actual=fit_actual,
    )


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

    lines.append("")
    lines.append("[cv wafer]")
    lines.append("variant area_um2 n mean_uS std_uS cv_pct")
    for key in sorted(report.cv_by_area):
        variant, area = key
        s = report.cv_by_area[key]
        cv = f"{100.0 * s.cv:.4f}" if s.cv is not None else "nan"
        lines.append(f"{variant} {area:.6g} {s.n} {s.mean_uS:.6g} {s.std_uS:.6g} {cv}")

    lines.append("")
    lines.append("[rsd die]")
    header = "variant die_x die_y rsd_mhz"
    if report.rsd_die_nf_mhz is not None:
        header += " rsd_nf_mhz"
    lines.append(header)
    for key in sorted(report.rsd_die_mhz):
        variant, die = key
        row = f"{variant} {die[0]} {die[1]} {report.rsd_die_mhz[key]:.6g}"
        if report.rsd_die_nf_mhz is not None:
            row += f" {report.rsd_die_nf_mhz[key]:.6g}"
        lines.append(row)

    lines.append("")
    lines.append("[rsd wafer]")
    header = "variant rsd_mhz mean_die_rsd_mhz"
    if report.rsd_wafer_nf_mhz is not None:
        header += " rsd_nf_mhz"
    lines.append(header)
    for variant in sorted(report.rsd_wafer_mhz):
        die_vals = [v for (var, _), v in report.rsd_die_mhz.items() if var == variant]
        mean_die = sum(die_vals) / len(die_vals) if die_vals else 0.0
        row = f"{variant} {report.rsd_wafer_mhz[variant]:.6g} {mean_die:.6g}"
        if report.rsd_wafer_nf_mhz is not None:
            row += f" {report.rsd_wafer_nf_mhz[variant]:.6g}"
        lines.append(row)

    lines.append("")
    lines.append("[conductivity quadratic fits: value = a + b*d + c*d^2]")
    lines.append("variant areas a b c")
    for variant in sorted(report.conductivity_fit_designed):
        a, b, c = report.conductivity_fit_designed[variant]
        lines.append(f"{variant} designed {a:.6g} {b:.6g} {c:.6g}")
    for variant in sorted(report.conductivity_fit_actual):
        a, b, c = report.conductivity_fit_actual[variant]
        lines.append(f"{variant} actual {a:.6g} {b:.6g} {c:.6g}")
    return "\n".join(lines) + "\n"
