"""Conductance data pipeline: filtering, statistics, and spatial views.

Filtering proceeds in two stages: an absolute window discards open/short
readings, then either a two-pass per-die linear regression (width-sweep
layouts) or a fraction-of-the-mean cut (uniform layouts) removes half-open
pairs.  Statistics computed on the kept set: per-design conductance CV,
predicted-frequency residual spread (RSD) at die and wafer scope,
mean-normalized heatmaps, and effective conductivity versus radius.

The pipeline runs on the columns of a MeasurementTable; each public
function takes any sequence of records and converts it once.  The columns
go through the arithmetic a record-by-record loop would do: the same numpy
reductions (mean, std, polyfit) on the same values in the same order, and
Python sum where such a loop sums in Python, so results agree to the bit.
_moments makes numpy's mean and std sums itself (np.add.reduce, not the
Python-level _var), with the same bits.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, FitError
from .geometry import (
    VARIANT_CODES,
    VARIANTS,
    EvaporatorGeometry,
    Fidelity,
    Variant,
    WaferPoint,
    actual_overlap_area,  # noqa: F401 -- perfbench/spans.py wraps this binding in traced runs
    variant_areas,
    variant_rows,
)
from .synth import MeasurementRecord, MeasurementTable


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


def _frequencies(g_uS, model: FrequencyModel):
    """Transmon f01 in MHz of each pair conductance in uS (a float or an array)."""
    return np.sqrt(8.0 * model.f_c_mhz * model.m_ghz_per_ms * g_uS) - model.f_c_mhz


def predicted_frequency(g_uS: float, model: FrequencyModel = FrequencyModel()) -> float:
    """Transmon f01 in MHz from pair conductance in uS."""
    if g_uS < 0.0:
        raise DataError(f"negative conductance {g_uS}")
    return float(_frequencies(g_uS, model))


def _regressor(table: MeasurementTable, cfg: FilterConfig) -> np.ndarray:
    """Each record's abscissa for regression filtering.

    The variable electrode is the swept one: the bottom electrode for
    crossed junctions, the top for bridge junctions.
    """
    if cfg.regressor is Regressor.OVERLAP_AREA:
        return table.a_overlap_designed_um2
    dolan = table.variant == VARIANT_CODES[Variant.DOLAN]
    return np.where(dolan, table.w_top_nm, table.w_bottom_nm)


def _in_window(g_uS: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    return ~((g_uS < cfg.abs_low_uS) | (g_uS > cfg.abs_high_uS))


def _split(records: list, keep: np.ndarray) -> tuple[list, list]:
    kept, rejected = [], []
    for rec, k in zip(records, keep.tolist()):
        (kept if k else rejected).append(rec)
    return kept, rejected


def absolute_filter(records: Iterable[MeasurementRecord], cfg: FilterConfig,
                    ) -> tuple[list[MeasurementRecord], list[MeasurementRecord]]:
    """Split records into (kept, rejected) by the absolute window."""
    records = list(records)
    return _split(records, _in_window(MeasurementTable.from_records(records).g_uS, cfg))


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


def _polyfit(xs: np.ndarray, ys: np.ndarray, deg: int, message: str,
             need: int = 0) -> list[float]:
    """np.polyfit's coefficients, highest power first, as Python floats;
    FitError(message) when xs hold fewer than need distinct values, or
    fewer than the deg + 1 that determine the coefficients."""
    if len(set(xs.tolist())) < max(need, deg + 1):
        raise FitError(message)
    return np.polyfit(xs, ys, deg).tolist()


def _regression(xs: np.ndarray, gs: np.ndarray, die: tuple[int, int], cfg: FilterConfig,
                ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The two-pass filter on one die's columns: pass-2 slope, intercept and
    kept mask, and the pass-1 line at xs (the die's unfiltered fit)."""
    slope1, icept1 = _polyfit(xs, gs, 1, f"die {die}: fewer than 3 distinct regressor values",
                              need=3)
    line1 = slope1 * xs + icept1
    keep = ~(gs < cfg.rel_threshold * line1)
    if keep.sum() < 2:
        raise FitError(f"die {die}: regression filter rejected nearly all records")
    slope2, icept2 = _polyfit(xs[keep], gs[keep], 1,
                              f"die {die} pass 2: regression is underdetermined")
    return slope2, icept2, keep, line1


def regression_filter_die(records: Sequence[MeasurementRecord], cfg: FilterConfig,
                          ) -> RegressionFit:
    """Two-pass regression filter for the width-sweep records of one die.

    Pass 1 fits conductance against the regressor and rejects records more
    than (1 - rel_threshold) below the line, interpreted as half-open
    pairs; pass 2 refits on the keepers and reports their residuals.
    """
    table = MeasurementTable.from_records(records)
    if not len(table):
        raise FitError("regression filter got no records")
    die = (int(table.die_x[0]), int(table.die_y[0]))
    mixed = np.flatnonzero((table.die_x != die[0]) | (table.die_y != die[1]))
    if mixed.size:
        other = (int(table.die_x[mixed[0]]), int(table.die_y[mixed[0]]))
        raise DataError(f"records of dies {die} and {other} mixed in one fit")
    xs, gs, ids = _regressor(table, cfg), table.g_uS, table.structure_id
    slope, intercept, keep, _ = _regression(xs, gs, die, cfg)
    residuals = gs[keep] - (slope * xs[keep] + intercept)
    return RegressionFit(die, slope, intercept,
                         tuple(zip(ids[keep].tolist(), residuals.tolist())),
                         frozenset(ids[keep]), frozenset(ids[~keep]))


def _mean_keep(g_uS: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """The mean filter's kept mask."""
    return ~(g_uS < cfg.rel_threshold * _exact_mean(g_uS))


def mean_filter(records: Sequence[MeasurementRecord], cfg: FilterConfig,
                ) -> tuple[list[MeasurementRecord], list[MeasurementRecord]]:
    """Reject records below rel_threshold times the mean conductance.

    For layouts of identical designs only; the mean is taken over the
    (already absolute-filtered) input.
    """
    records = list(records)
    if not records:
        raise DataError("mean filter got no records")
    return _split(records, _mean_keep(MeasurementTable.from_records(records).g_uS, cfg))


def _exact_mean(values: np.ndarray) -> float:
    """Python-sum mean; constant data yields its value bit-exactly (zero residuals)."""
    values = values.tolist()
    first = values[0]
    if all(v == first for v in values):
        return first
    return sum(values) / len(values)


@dataclass(frozen=True)
class CvStats:
    n: int
    mean_uS: float
    std_uS: float
    cv: float | None       # None when the group has a single member


def _runs(keys: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Row indices grouped by equal keys.

    Groups come in key order (the last key sorts first, as in np.lexsort)
    and hold their rows in input order.
    """
    order = np.lexsort(keys)
    change = np.zeros(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        change |= ordered[1:] != ordered[:-1]
    return np.split(order, np.flatnonzero(change) + 1) if order.size else []


def _moments(values: np.ndarray, ddof: int = 0) -> tuple[float, float]:
    """values.mean() and values.std(ddof=ddof), to the bit.

    numpy computes both with the same two pairwise sums, np.add.reduce of
    the values and of their squared deviations from that mean, each divided
    by a count; this makes those sums without numpy's Python-level _var.
    """
    n = len(values)
    mean = np.add.reduce(values) / n
    dev = values - mean
    return float(mean), float(np.sqrt(np.add.reduce(dev * dev) / max(n - ddof, 0)))


def _group_stats(values: np.ndarray) -> tuple[float, float]:
    """Mean and population std of a design group's conductances; a constant
    group's are its value and 0.0, bit-exactly."""
    if np.all(values == values[0]):
        return float(values[0]), 0.0
    return _moments(values)


DesignGroup = tuple[tuple, np.ndarray, float, float]    # key, rows, mean, std


def _design_groups(table: MeasurementTable, by_die: bool = False) -> list[DesignGroup]:
    """Each identical-design group of table, in key order: its conductance_cv
    key, its rows and the mean and population std of their conductances."""
    groups, keys = [], (table.a_overlap_designed_um2, table.variant)
    for idx in _runs(keys + (table.die_y, table.die_x) if by_die else keys):
        i = idx[0]
        key: tuple = (VARIANTS[table.variant[i]].value, float(table.a_overlap_designed_um2[i]))
        if by_die:
            key = ((int(table.die_x[i]), int(table.die_y[i])),) + key
        groups.append((key, idx, *_group_stats(table.g_uS[idx])))
    return groups


def _nonzero_mean(table: MeasurementTable, idx: np.ndarray, mean: float) -> float:
    """mean, the mean conductance of rows idx of table; DataError if zero."""
    if mean == 0.0:
        raise DataError(f"zero mean conductance in the design group of "
                        f"{table.structure_id[idx[0]]}")
    return mean


def _cv(table: MeasurementTable, groups: list[DesignGroup]) -> dict[tuple, CvStats]:
    """The CvStats of each group of table, by its key; a group of one has no cv."""
    return {key: CvStats(n=len(idx), mean_uS=mean, std_uS=std,
                         cv=std / _nonzero_mean(table, idx, mean) if len(idx) > 1 else None)
            for key, idx, mean, std in groups}


def conductance_cv(records: Iterable[MeasurementRecord], scope: str = "wafer",
                   ) -> dict[tuple, CvStats]:
    """Population CV of conductance per identical-design group.

    Keys are (variant, area) at wafer scope and (die, variant, area) at die
    scope; areas in um^2.
    """
    if scope not in ("wafer", "die"):
        raise ValueError(f"scope must be 'wafer' or 'die', got {scope!r}")
    table = MeasurementTable.from_records(records)
    return _cv(table, _design_groups(table, scope == "die"))


def _rsd(g_uS: np.ndarray, g_fit, model: FrequencyModel) -> float:
    """Sample std of f01(G) - f01(max(G_fit, 0)); 0 below two records."""
    if len(g_uS) < 2:
        return 0.0
    residuals = _frequencies(g_uS, model) - _frequencies(np.maximum(g_fit, 0.0), model)
    return _moments(residuals, ddof=1)[1]


def frequency_rsd(records: Sequence[MeasurementRecord],
                  fit: RegressionFit,
                  cfg: FilterConfig,
                  model: FrequencyModel = FrequencyModel()) -> float:
    """Spread of predicted frequency about a fit, in MHz.

    Each record contributes f01(G_measured) - f01(G_fit); the RSD is the
    sample standard deviation of those residuals.  Because f01 is a square
    root, this figure is not invariant under rescaling all conductances
    (unlike CV and normalized heatmaps).
    """
    table = MeasurementTable.from_records(records)
    return _rsd(table.g_uS, fit.predict(_regressor(table, cfg)), model)


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


def _axis(coords: np.ndarray, extra: Iterable[float], descending: bool,
          ) -> tuple[tuple[float, ...], np.ndarray]:
    """A grid axis of coordinates rounded to 6 decimals, and the index of
    each of coords on it.  Each distinct value is rounded once, a value of
    extra only if no coordinate equals it; of equal rounded values (0.0 and
    -0.0) the first seen is kept, coords before extra, as a set built in
    input order keeps it."""
    # np.unique counts 0.0 and -0.0 as one value; first is its first index.
    _, first, inverse = np.unique(coords, return_index=True, return_inverse=True)
    distinct = coords[first].tolist()
    rounded = [round(c, 6) for c in distinct]
    values = set(rounded[k] for k in np.argsort(first).tolist())     # first seen first
    known = set(distinct)
    values.update(round(c, 6) for c in dict.fromkeys(extra) if c not in known)
    axis = tuple(sorted(values, reverse=descending))
    where = {v: k for k, v in enumerate(axis)}
    return axis, np.array([where[r] for r in rounded], dtype=np.intp)[inverse]


def _normalized(table: MeasurementTable, groups: list[DesignGroup]) -> np.ndarray:
    """Each row's G over the mean G of its group, of groups covering table."""
    ratio = np.empty(len(table))
    for _, idx, mean, _ in groups:
        ratio[idx] = table.g_uS[idx] / _nonzero_mean(table, idx, mean)
    return ratio


def _heatmap(x_mm: np.ndarray, y_mm: np.ndarray, ratio: np.ndarray,
             grid: Sequence[WaferPoint]) -> HeatmapGrid:
    """The grid of ratio at the positions (x_mm, y_mm) and the cells of grid."""
    xs, col = _axis(x_mm, (p.x_mm for p in grid), descending=False)
    ys, row = _axis(y_mm, (p.y_mm for p in grid), descending=True)
    cell = row * len(xs) + col
    last = len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]  # later records win
    values = np.zeros((len(ys), len(xs)))
    valid = np.zeros((len(ys), len(xs)), dtype=bool)
    values.flat[cell[last]] = ratio[last]
    valid.flat[cell[last]] = True
    return HeatmapGrid(xs=xs, ys=ys, values=values, valid=valid)


def normalized_heatmap(records: Sequence[MeasurementRecord],
                       grid_positions: Iterable[WaferPoint] = (),
                       ) -> HeatmapGrid:
    """Each kept record's G over the mean G of its identical-design group.

    grid_positions optionally pins extra cells (rejected or excluded
    structures) into the grid; they render blank.
    """
    table = MeasurementTable.from_records(records)
    grid = list(grid_positions)
    return _heatmap(table.x_mm, table.y_mm, _normalized(table, _design_groups(table)), grid)


def _conductivity(table: MeasurementTable, areas: str,
                  geom: EvaporatorGeometry | None = None,
                  fidelity: Fidelity = Fidelity.FULL,
                  area_table: Mapping[str, float] | None = None) -> np.ndarray:
    """Each row's G over its total junction area, as effective_conductivity
    takes the areas."""
    if areas == "designed":
        per_junction = table.a_overlap_designed_um2
    elif area_table is not None:
        try:
            per_junction = np.array([area_table[sid] for sid in table.structure_id.tolist()],
                                    dtype=float)
        except KeyError as exc:
            raise DataError(f"no extracted area for {exc.args[0]}") from exc
    elif geom is None and len(table):
        raise DataError("actual areas need a geometry or an area table")
    else:
        per_junction = variant_areas(geom, table.variant, table.w_bottom_nm, table.w_top_nm,
                                     table.x_mm, table.y_mm, fidelity)
    total = per_junction * table.junction_count
    bad = np.flatnonzero(total <= 0.0)
    if bad.size:
        raise DataError(f"zero junction area for {table.structure_id[bad[0]]}")
    return table.g_uS / total


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
    table = MeasurementTable.from_records(records)
    values = _conductivity(table, areas, geom, fidelity, area_table)
    return list(zip(table.radius_mm().tolist(), values.tolist()))


def _quadratic(radii: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """quadratic_radial_fit of the points (radii, values)."""
    c, b, a = _polyfit(radii, values, 2, "quadratic fit needs at least 3 distinct radii")
    return a, b, c


def quadratic_radial_fit(points: Sequence[tuple[float, float]],
                         ) -> tuple[float, float, float]:
    """Least-squares a + b*d + c*d^2 through (d, value) points."""
    radii = np.asarray([d for d, _ in points], float)
    return _quadratic(radii, np.asarray([v for _, v in points], float))


# ---------------------------------------------------------------------------
# The report's stages, in the order report.build_report runs them; each shares
# a result the public functions would compute again: a sweep die's pass-1 line
# is its unfiltered fit, and the CV's group means normalize the heatmaps.

FitKey = tuple[str, tuple[int, int]]        # (variant, die_index)


def _mean_model(xs: np.ndarray, gs: np.ndarray, who: str) -> float:
    """The uniform pipeline's model of conductances gs: their mean."""
    return _exact_mean(gs)


def _line_model(xs: np.ndarray, gs: np.ndarray, who: str) -> np.ndarray:
    """The sweep pipeline's model of conductances gs: their line against xs, at xs."""
    slope, intercept = _polyfit(xs, gs, 1, f"{who}: regression is underdetermined")
    return slope * xs + intercept


@dataclass(frozen=True)
class DieFilter:
    window: np.ndarray              # its rows in the absolute window
    kept: np.ndarray                # those the relative filter kept
    fit: float | np.ndarray         # its mean, or its pass-2 line, at kept
    unfiltered: float | np.ndarray  # its model fitted to window, at window


@dataclass(frozen=True)
class Filtered:
    """What filter_table keeps of a table; rows are indices into it."""

    pipeline: str                   # "sweep" | "uniform"
    in_window: np.ndarray           # mask of the rows in the absolute window
    keep: np.ndarray                # mask of the rows the relative filter kept
    kept: np.ndarray                # kept rows: in table order, or die by die for a sweep
    dies: dict[FitKey, DieFilter]   # in key order
    xs: np.ndarray                  # each row's regressor
    model: Callable[[np.ndarray, np.ndarray, str], float | np.ndarray]  # of a row set


def filter_table(table: MeasurementTable, cfg: FilterConfig) -> Filtered:
    """The absolute window, then the mean filter if every record has one
    design (variant and area), else each die's two-pass regression."""
    if not len(table):
        raise DataError("no measurement records to analyze")
    g, xs = table.g_uS, _regressor(table, cfg)
    in_window = _in_window(g, cfg)
    window = np.flatnonzero(in_window)
    if not window.size:
        raise DataError("absolute filter rejected every record")
    by_die = {}
    for run in _runs((table.die_y[window], table.die_x[window], table.variant[window])):
        i = window[run[0]]
        key = (VARIANTS[table.variant[i]].value, (int(table.die_x[i]), int(table.die_y[i])))
        by_die[key] = window[run]
    keep, dies = np.zeros(len(table), dtype=bool), {}
    if (np.all(table.variant == table.variant[0])
            and np.all(table.a_overlap_designed_um2 == table.a_overlap_designed_um2[0])):
        keep[window] = _mean_keep(g[window], cfg)
        for key, idx in by_die.items():
            rows = idx[keep[idx]]
            if not rows.size:
                raise FitError(f"die {key[1]}: mean filter rejected every record")
            dies[key] = DieFilter(idx, rows, _exact_mean(g[rows]), _exact_mean(g[idx]))
        return Filtered("uniform", in_window, keep, window[keep[window]], dies, xs, _mean_model)
    for key, idx in by_die.items():
        slope, intercept, die_keep, line1 = _regression(xs[idx], g[idx], key[1], cfg)
        rows = idx[die_keep]
        keep[rows] = True
        dies[key] = DieFilter(idx, rows, slope * xs[rows] + intercept, line1)
    kept = np.concatenate([die.kept for die in dies.values()])
    return Filtered("sweep", in_window, keep, kept, dies, xs, _line_model)


def _wafer_rsds(table: MeasurementTable, filtered: Filtered, rows: np.ndarray,
                fmodel: FrequencyModel, who: str) -> dict[str, float]:
    """Each variant's RSD over its rows among rows, about the model fitted to them."""
    g, rsds = table.g_uS, {}
    for variant, at in variant_rows(table.variant[rows]):
        sub = rows[at]
        fit = filtered.model(filtered.xs[sub], g[sub], f"{variant.value} {who}")
        rsds[variant.value] = _rsd(g[sub], fit, fmodel)
    return rsds


def frequency_rsds(table: MeasurementTable, filtered: Filtered, fmodel: FrequencyModel,
                   dual_rsd: bool = False,
                   ) -> tuple[dict[FitKey, float], dict[str, float],
                              dict[FitKey, float] | None, dict[str, float] | None]:
    """The frequency RSD of the kept rows of each die and of each variant;
    then, with dual_rsd, the same of the rows in the absolute window (else
    None and None)."""
    g, dies = table.g_uS, filtered.dies
    die = {key: _rsd(g[d.kept], d.fit, fmodel) for key, d in dies.items()}
    wafer = _wafer_rsds(table, filtered, filtered.kept, fmodel, "wafer")
    if not dual_rsd:
        return die, wafer, None, None
    return (die, wafer, {key: _rsd(g[d.window], d.unfiltered, fmodel) for key, d in dies.items()},
            _wafer_rsds(table, filtered, np.flatnonzero(filtered.in_window), fmodel,
                        "wafer unfiltered"))


def design_statistics(kept: MeasurementTable,
                      grid_positions: Mapping[str, Sequence[WaferPoint]],
                      ) -> tuple[dict[tuple, CvStats], dict[str, HeatmapGrid]]:
    """conductance_cv of kept at wafer scope, and each variant's
    normalized_heatmap pinning its grid_positions, from one set of design
    groups."""
    groups = _design_groups(kept)
    ratio = _normalized(kept, groups)
    heatmaps = {variant.value: _heatmap(kept.x_mm[at], kept.y_mm[at], ratio[at],
                                        list(grid_positions.get(variant.value, ())))
                for variant, at in variant_rows(kept.variant)}
    return _cv(kept, groups), heatmaps


def conductivity_fits(kept: MeasurementTable, geom: EvaporatorGeometry | None = None,
                      fidelity: Fidelity = Fidelity.FULL,
                      ) -> tuple[dict[str, tuple[float, float, float]],
                                 dict[str, tuple[float, float, float]]]:
    """Each variant's quadratic_radial_fit of the designed-area conductivity
    of kept, and with geom of the actual-area one; a fit that raises
    FitError (too few distinct radii) is left out."""
    designed, actual = {}, {}
    for variant, at in variant_rows(kept.variant):
        sub = kept.take(at)
        radii = sub.radius_mm()
        with suppress(FitError):
            designed[variant.value] = _quadratic(radii, _conductivity(sub, "designed"))
        if geom is not None:
            with suppress(FitError):
                actual[variant.value] = _quadratic(
                    radii, _conductivity(sub, "actual", geom, fidelity))
    return designed, actual
