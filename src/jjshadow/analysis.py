"""Conductance data pipeline: filtering, statistics, and spatial views.

Filtering proceeds in two stages: an absolute window discards open/short
readings, then either a two-pass per-die linear regression (width-sweep
layouts) or a fraction-of-the-mean cut (uniform layouts) removes half-open
pairs.  Statistics computed on the kept set: per-design conductance CV,
predicted-frequency residual spread (RSD) at die and wafer scope,
mean-normalized heatmaps, and effective conductivity versus radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, FitError
from .geometry import (
    EvaporatorGeometry,
    Fidelity,
    Variant,
    WaferPoint,
    actual_overlap_area,  # noqa: F401 -- perfbench/spans.py wraps this binding in traced runs
    structure_areas,
)
from .synth import MeasurementRecord


class Regressor(str, Enum):
    VARIABLE_WIDTH = "variable_width"
    OVERLAP_AREA = "overlap_area"


@dataclass(frozen=True)
class FilterConfig:
    abs_low_uS: float = 20.0
    abs_high_uS: float = 500.0
    rel_threshold: float = 0.70
    regressor: Regressor = Regressor.VARIABLE_WIDTH

    def __post_init__(self) -> None:
        if not 0.0 < self.abs_low_uS < self.abs_high_uS:
            raise DataError("need 0 < abs_low < abs_high")
        if not 0.0 < self.rel_threshold < 1.0:
            raise DataError("rel_threshold must be in (0, 1)")


@dataclass(frozen=True)
class FrequencyModel:
    """Transmon frequency prediction constants.

    f_c_mhz is the charging energy over h; m_ghz_per_ms the empirical
    conductance-to-Josephson-energy constant (numerically equal in
    MHz per uS).
    """

    f_c_mhz: float = 270.0
    m_ghz_per_ms: float = 134.0

    def __post_init__(self) -> None:
        if self.f_c_mhz <= 0.0 or self.m_ghz_per_ms <= 0.0:
            raise DataError("frequency constants must be > 0")


def predicted_frequency(g_uS: float, model: FrequencyModel = FrequencyModel()) -> float:
    """Transmon f01 in MHz from pair conductance in uS."""
    if g_uS < 0.0:
        raise DataError(f"negative conductance {g_uS}")
    return math.sqrt(8.0 * model.f_c_mhz * model.m_ghz_per_ms * g_uS) - model.f_c_mhz


def regressor_value(rec: MeasurementRecord, cfg: FilterConfig) -> float:
    """The per-record abscissa for regression filtering.

    The variable electrode is the swept one: the bottom electrode for
    crossed junctions, the top for bridge junctions.
    """
    if cfg.regressor is Regressor.OVERLAP_AREA:
        return rec.a_overlap_designed_um2
    if rec.design.variant is Variant.DOLAN:
        return rec.design.w_top_nm
    return rec.design.w_bottom_nm


def absolute_filter(records: Iterable[MeasurementRecord], cfg: FilterConfig,
                    ) -> tuple[list[MeasurementRecord], list[MeasurementRecord]]:
    """Split records into (kept, rejected) by the absolute window."""
    kept, rejected = [], []
    for rec in records:
        (rejected if rec.g_uS < cfg.abs_low_uS or rec.g_uS > cfg.abs_high_uS
         else kept).append(rec)
    return kept, rejected


@dataclass(frozen=True)
class RegressionFit:
    """Two-pass per-die fit: pass-2 line plus the pass-1 rejection split."""

    die_index: tuple[int, int]
    slope: float
    intercept: float
    residuals_uS: tuple[tuple[str, float], ...]
    kept_ids: frozenset[str]
    rejected_ids: frozenset[str]

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class ConstantFit:
    """Mean model used in place of a regression on uniform layouts."""

    die_index: tuple[int, int]
    mean_uS: float
    kept_ids: frozenset[str]
    rejected_ids: frozenset[str]

    def predict(self, x: float) -> float:
        return self.mean_uS


def _ols(xs: Sequence[float], ys: Sequence[float], who: str) -> tuple[float, float]:
    if len(set(xs)) < 2:
        raise FitError(f"{who}: regression is underdetermined")
    slope, intercept = np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)
    return float(slope), float(intercept)


def regression_filter_die(records: Sequence[MeasurementRecord], cfg: FilterConfig,
                          ) -> RegressionFit:
    """Two-pass regression filter for the width-sweep records of one die.

    Pass 1 fits conductance against the regressor and rejects records more
    than (1 - rel_threshold) below the line, interpreted as half-open
    pairs; pass 2 refits on the keepers and reports their residuals.
    """
    records = list(records)
    if not records:
        raise FitError("regression filter got no records")
    die = records[0].die_index
    for rec in records:
        if rec.die_index != die:
            raise DataError(f"records of dies {die} and {rec.die_index} mixed in one fit")
    xs = [regressor_value(r, cfg) for r in records]
    if len(set(xs)) < 3:
        raise FitError(f"die {die}: fewer than 3 distinct regressor values")

    slope1, icept1 = _ols(xs, [r.g_uS for r in records], f"die {die} pass 1")
    kept, rejected = [], []
    for rec, x in zip(records, xs):
        pred = slope1 * x + icept1
        (rejected if rec.g_uS < cfg.rel_threshold * pred else kept).append(rec)
    if len(kept) < 2:
        raise FitError(f"die {die}: regression filter rejected nearly all records")

    slope2, icept2 = _ols([regressor_value(r, cfg) for r in kept],
                          [r.g_uS for r in kept], f"die {die} pass 2")
    residuals = tuple(
        (r.structure_id, r.g_uS - (slope2 * regressor_value(r, cfg) + icept2))
        for r in kept)
    return RegressionFit(
        die_index=die, slope=slope2, intercept=icept2, residuals_uS=residuals,
        kept_ids=frozenset(r.structure_id for r in kept),
        rejected_ids=frozenset(r.structure_id for r in rejected))


def mean_filter(records: Sequence[MeasurementRecord], cfg: FilterConfig,
                ) -> tuple[list[MeasurementRecord], list[MeasurementRecord]]:
    """Reject records below rel_threshold times the mean conductance.

    For layouts of identical designs only; the mean is taken over the
    (already absolute-filtered) input.
    """
    if not records:
        raise DataError("mean filter got no records")
    mean = sum(r.g_uS for r in records) / len(records)
    kept, rejected = [], []
    for rec in records:
        (rejected if rec.g_uS < cfg.rel_threshold * mean else kept).append(rec)
    return kept, rejected


@dataclass(frozen=True)
class CvStats:
    n: int
    mean_uS: float
    std_uS: float
    cv: float | None       # None when the group has a single member


def conductance_cv(records: Iterable[MeasurementRecord], scope: str = "wafer",
                   ) -> dict[tuple, CvStats]:
    """Population CV of conductance per identical-design group.

    Keys are (variant, area) at wafer scope and (die, variant, area) at die
    scope; areas in um^2.
    """
    if scope not in ("wafer", "die"):
        raise ValueError(f"scope must be 'wafer' or 'die', got {scope!r}")
    groups: dict[tuple, list[float]] = {}
    for rec in records:
        key: tuple = (rec.design.variant.value, rec.a_overlap_designed_um2)
        if scope == "die":
            key = (rec.die_index,) + key
        groups.setdefault(key, []).append(rec.g_uS)
    out = {}
    for key in sorted(groups):
        vals = np.asarray(groups[key], float)
        if np.all(vals == vals[0]):
            # keep constant groups bit-exact: mean is the value, spread 0
            mean, std = float(vals[0]), 0.0
        else:
            mean, std = float(vals.mean()), float(vals.std(ddof=0))
        cv = std / mean if len(vals) > 1 else None
        out[key] = CvStats(n=len(vals), mean_uS=mean, std_uS=std, cv=cv)
    return out


def frequency_rsd(records: Sequence[MeasurementRecord],
                  fit: RegressionFit | ConstantFit,
                  cfg: FilterConfig,
                  model: FrequencyModel = FrequencyModel()) -> float:
    """Spread of predicted frequency about a fit, in MHz.

    Each record contributes f01(G_measured) - f01(G_fit); the RSD is the
    sample standard deviation of those residuals.  Because f01 is a square
    root, this figure is not invariant under rescaling all conductances
    (unlike CV and normalized heatmaps).
    """
    residuals = []
    for rec in records:
        g_fit = fit.predict(regressor_value(rec, cfg))
        residuals.append(predicted_frequency(rec.g_uS, model)
                         - predicted_frequency(max(g_fit, 0.0), model))
    if len(residuals) < 2:
        return 0.0
    return float(np.std(np.asarray(residuals, float), ddof=1))


@dataclass(frozen=True)
class HeatmapGrid:
    """Mean-normalized conductance on the structure-position grid.

    values[i, j] corresponds to (ys[i], xs[j]); ys descend so row 0 is the
    wafer's north edge.  Cells without a kept record are invalid.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    values: np.ndarray
    valid: np.ndarray

    def cell_at(self, x_mm: float, y_mm: float) -> float:
        i = self.ys.index(round(y_mm, 6))
        j = self.xs.index(round(x_mm, 6))
        if not self.valid[i, j]:
            raise KeyError(f"cell at ({x_mm}, {y_mm}) is blank")
        return float(self.values[i, j])


def normalized_heatmap(records: Sequence[MeasurementRecord],
                       grid_positions: Iterable[WaferPoint] = (),
                       ) -> HeatmapGrid:
    """Each kept record's G over the mean G of its identical-design group.

    grid_positions optionally pins extra cells (rejected or excluded
    structures) into the grid; they render blank.
    """
    means: dict[tuple, float] = {}
    for key, stats in conductance_cv(records, "wafer").items():
        means[key] = stats.mean_uS
    all_x = {round(r.position.x_mm, 6) for r in records}
    all_y = {round(r.position.y_mm, 6) for r in records}
    for p in grid_positions:
        all_x.add(round(p.x_mm, 6))
        all_y.add(round(p.y_mm, 6))
    xs = tuple(sorted(all_x))
    ys = tuple(sorted(all_y, reverse=True))
    values = np.zeros((len(ys), len(xs)))
    valid = np.zeros((len(ys), len(xs)), dtype=bool)
    xi = {x: j for j, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    for rec in records:
        key = (rec.design.variant.value, rec.a_overlap_designed_um2)
        i = yi[round(rec.position.y_mm, 6)]
        j = xi[round(rec.position.x_mm, 6)]
        values[i, j] = rec.g_uS / means[key]
        valid[i, j] = True
    return HeatmapGrid(xs=xs, ys=ys, values=values, valid=valid)


def effective_conductivity(records: Sequence[MeasurementRecord],
                           areas: str = "designed",
                           geom: EvaporatorGeometry | None = None,
                           fidelity: Fidelity = Fidelity.FULL,
                           area_table: Mapping[str, float] | None = None,
                           ) -> list[tuple[float, float]]:
    """Per-structure G over total junction area, paired with radius d.

    areas='designed' divides by the drawn areas; 'actual' by the shadow
    model's areas (requires geom) or, if area_table maps structure ids to
    per-junction um^2 (e.g. from image extraction), by those.
    """
    if areas not in ("designed", "actual"):
        raise ValueError(f"areas must be 'designed' or 'actual', got {areas!r}")
    if areas == "designed":
        per_junction = [rec.a_overlap_designed_um2 for rec in records]
    elif area_table is not None:
        try:
            per_junction = [area_table[rec.structure_id] for rec in records]
        except KeyError as exc:
            raise DataError(f"no extracted area for {exc.args[0]}") from exc
    elif geom is None and records:
        raise DataError("actual areas need a geometry or an area table")
    else:
        per_junction = structure_areas(geom, [rec.design for rec in records],
                                       [rec.position for rec in records], fidelity)
    out = []
    for rec, a in zip(records, per_junction):
        total = a * rec.junction_count
        if total <= 0.0:
            raise DataError(f"zero junction area for {rec.structure_id}")
        out.append((rec.d_mm(), rec.g_uS / total))
    return out


def quadratic_radial_fit(points: Sequence[tuple[float, float]],
                         ) -> tuple[float, float, float]:
    """Least-squares a + b*d + c*d^2 through (d, value) points."""
    ds = [d for d, _ in points]
    if len(set(ds)) < 3:
        raise FitError("quadratic fit needs at least 3 distinct radii")
    c, b, a = np.polyfit(np.asarray(ds, float),
                         np.asarray([v for _, v in points], float), 2)
    return float(a), float(b), float(c)
