"""End-to-end uniformity report over a set of measurement records.

Chooses the pipeline by layout type (width sweeps get the per-die two-pass
regression filter, uniform layouts the fraction-of-mean filter), then
gathers yield, per-design CV, die- and wafer-level frequency RSD,
mean-normalized heatmaps per variant, and effective-conductivity radial
fits into one UniformityReport with a deterministic text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .analysis import (
    ConstantFit,
    CvStats,
    FilterConfig,
    FrequencyModel,
    HeatmapGrid,
    RegressionFit,
    _ols,
    absolute_filter,
    conductance_cv,
    effective_conductivity,
    frequency_rsd,
    mean_filter,
    normalized_heatmap,
    quadratic_radial_fit,
    regression_filter_die,
    regressor_value,
)
from .errors import DataError, FitError
from .geometry import EvaporatorGeometry, Fidelity
from .synth import MeasurementRecord, ParasiticsModel


def _exact_mean(values: Sequence[float]) -> float:
    # Constant data must yield its value bit-exactly (zero residuals).
    first = values[0]
    if all(v == first for v in values):
        return first
    return sum(values) / len(values)


def deembed_records(records: Sequence[MeasurementRecord],
                    parasitics: ParasiticsModel) -> list[MeasurementRecord]:
    """Remove assumed substrate and series contributions from raw readings.

    Inverse of the synthetic measurement composition; an optional
    pre-analysis correction, off by default since reported figures use raw
    conductance.
    """
    out = []
    for rec in records:
        g = rec.g_uS - parasitics.substrate_uS
        if g <= 0.0:
            out.append(replace(rec, g_uS=0.0))
            continue
        inv = 1.0e6 / g - parasitics.series_ohm(rec.d_mm())
        if inv <= 0.0:
            raise DataError(
                f"{rec.structure_id}: reading exceeds the assumed series limit")
        out.append(replace(rec, g_uS=1.0e6 / inv))
    return out


FitKey = tuple[str, tuple[int, int]]        # (variant, die_index)


@dataclass(frozen=True)
class UniformityReport:
    pipeline: str                            # "sweep" | "uniform"
    total: int
    abs_rejected_ids: frozenset[str]
    rel_rejected_ids: frozenset[str]
    kept: tuple[MeasurementRecord, ...]
    fits: dict[FitKey, RegressionFit | ConstantFit]
    cv_by_area: dict[tuple, CvStats]                     # (variant, area_um2)
    cv_by_area_die: dict[tuple, CvStats]                 # (die, variant, area)
    rsd_die_mhz: dict[FitKey, float]
    rsd_wafer_mhz: dict[str, float]                      # per variant
    rsd_die_nf_mhz: dict[FitKey, float] | None
    rsd_wafer_nf_mhz: dict[str, float] | None
    heatmaps: dict[str, HeatmapGrid]                     # per variant
    conductivity_fit_designed: dict[str, tuple[float, float, float]]
    conductivity_fit_actual: dict[str, tuple[float, float, float]]

    def yield_fraction(self) -> float:
        return len(self.kept) / self.total if self.total else 0.0


def _is_uniform(records: Sequence[MeasurementRecord]) -> bool:
    designs = {(r.design.variant.value, r.a_overlap_designed_um2) for r in records}
    return len(designs) == 1


def _group(records, key):
    groups: dict = {}
    for rec in records:
        groups.setdefault(key(rec), []).append(rec)
    return groups


def _fit_without_rejection(records, die, uniform: bool, cfg, who: str,
                           ) -> RegressionFit | ConstantFit:
    """The pipeline's model (mean or line) fitted once to all of records."""
    ids = frozenset(r.structure_id for r in records)
    if uniform:
        return ConstantFit(die, _exact_mean([r.g_uS for r in records]), ids, frozenset())
    slope, intercept = _ols([regressor_value(r, cfg) for r in records],
                            [r.g_uS for r in records], who)
    return RegressionFit(die, slope, intercept, (), ids, frozenset())


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
    if not records:
        raise DataError("no measurement records to analyze")
    total = len(records)
    abs_kept, abs_rej = absolute_filter(records, cfg)
    if not abs_kept:
        raise DataError("absolute filter rejected every record")
    uniform = _is_uniform(records)

    fits: dict[FitKey, RegressionFit | ConstantFit] = {}
    kept: list[MeasurementRecord] = []
    rel_rejected: list[str] = []

    by_die = _group(abs_kept, lambda r: (r.design.variant.value, r.die_index))
    if uniform:
        wafer_kept, wafer_rej = mean_filter(abs_kept, cfg)
        kept_ids = {r.structure_id for r in wafer_kept}
        rel_rejected = [r.structure_id for r in wafer_rej]
        for key in sorted(by_die):
            die_kept = [r for r in by_die[key] if r.structure_id in kept_ids]
            if not die_kept:
                raise FitError(f"die {key[1]}: mean filter rejected every record")
            fits[key] = ConstantFit(
                die_index=key[1],
                mean_uS=_exact_mean([r.g_uS for r in die_kept]),
                kept_ids=frozenset(r.structure_id for r in die_kept),
                rejected_ids=frozenset(r.structure_id for r in by_die[key]
                                       if r.structure_id not in kept_ids))
        kept = wafer_kept
    else:
        for key in sorted(by_die):
            fit = regression_filter_die(by_die[key], cfg)
            fits[key] = fit
            kept.extend(r for r in by_die[key] if r.structure_id in fit.kept_ids)
            rel_rejected.extend(sorted(fit.rejected_ids))

    by_variant_kept = _group(kept, lambda r: r.design.variant.value)

    rsd_die = {}
    for key in sorted(fits):
        die_kept = [r for r in by_die[key] if r.structure_id in fits[key].kept_ids]
        rsd_die[key] = frequency_rsd(die_kept, fits[key], cfg, fmodel)

    rsd_wafer = {}
    for variant, recs in sorted(by_variant_kept.items()):
        wfit = _fit_without_rejection(recs, (0, 0), uniform, cfg, f"{variant} wafer")
        rsd_wafer[variant] = frequency_rsd(recs, wfit, cfg, fmodel)

    rsd_die_nf = rsd_wafer_nf = None
    if dual_rsd:
        rsd_die_nf, rsd_wafer_nf = {}, {}
        for key in sorted(by_die):
            nfit = _fit_without_rejection(by_die[key], key[1], uniform, cfg,
                                          f"{key[0]} die {key[1]} unfiltered")
            rsd_die_nf[key] = frequency_rsd(by_die[key], nfit, cfg, fmodel)
        for variant, recs in sorted(_group(abs_kept,
                                           lambda r: r.design.variant.value).items()):
            nfit = _fit_without_rejection(recs, (0, 0), uniform, cfg,
                                          f"{variant} wafer unfiltered")
            rsd_wafer_nf[variant] = frequency_rsd(recs, nfit, cfg, fmodel)

    heatmaps = {
        variant: normalized_heatmap(
            recs, (grid_positions or {}).get(variant, ()))
        for variant, recs in sorted(by_variant_kept.items())}

    fit_designed, fit_actual = {}, {}
    for variant, recs in sorted(by_variant_kept.items()):
        try:
            fit_designed[variant] = quadratic_radial_fit(
                effective_conductivity(recs, "designed"))
        except FitError:
            pass                        # degenerate radii (e.g. single position)
        if geom is not None:
            try:
                fit_actual[variant] = quadratic_radial_fit(
                    effective_conductivity(recs, "actual", geom=geom,
                                           fidelity=fidelity))
            except FitError:
                pass

    return UniformityReport(
        pipeline="uniform" if uniform else "sweep",
        total=total,
        abs_rejected_ids=frozenset(r.structure_id for r in abs_rej),
        rel_rejected_ids=frozenset(rel_rejected),
        kept=tuple(kept),
        fits=fits,
        cv_by_area=conductance_cv(kept, "wafer"),
        cv_by_area_die=conductance_cv(kept, "die"),
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
