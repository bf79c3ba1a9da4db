"""Synthetic room-temperature conductance generator and the measurement table.

Produces the measurements of a layout by composing the shadow model
with configurable process disorder, defect injection, and probe-station
parasitics.  Serves as the ground-truth oracle for the analysis pipeline:
defect injections are recorded as truth flags on each measurement.

Per structure, each junction conducts sigma_j times its actual overlap
area, times a multiplicative lognormal disorder draw; the junctions of a
pair add in parallel; series pad/cabling/contact resistance and the
parallel substrate conductance then distort the 2-point reading.

Measurements live in a MeasurementTable, one array per field in record
order.  It is a Sequence of MeasurementRecord whose records are built on
demand, so code written for records keeps working, while synthesis, CSV io
and the report run on whole columns.  Synthesis keeps the arithmetic of a
structure-by-structure loop bit for bit: the batched random draws are the
same streams, the disorder factor is numpy's exp (math.exp differs in the
last bit), the pair sum is (0.0 + g0) + g1 with an open junction as a zero
term, and the radius is math.hypot per element (np.hypot differs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import Check, DataError, raise_first_bad
from .geometry import (
    VARIANT_CODES,
    VARIANTS,
    WAFER_RADIUS_MM,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    WaferPoint,
    actual_overlap_area,  # noqa: F401 -- perfbench/spans.py wraps this binding in traced runs
    variant_areas,
)
from .layout import (
    STRUCTURE_COLUMNS,
    ColumnTable,
    WaferLayout,
    _radii,
    _transpose,
    structure_checks,
)

SHORT_PAIR_G_US = 2000.0
US_OHM = 1.0e6     # uS * ohm: a reading of g uS is a resistance of US_OHM / g ohm

DEFECT_CLASSES = ("open_half", "open_full", "short")


@dataclass(frozen=True)
class ProcessModel:
    """Junction formation parameters for synthesis.

    sigma_j_uS_per_um2 is the nominal per-junction conductivity (a free
    calibration, not a measured constant); lognormal_sigma the width of the
    per-junction multiplicative disorder; p_open / p_short the per-junction
    open and per-structure short probabilities.
    """

    sigma_j_uS_per_um2: float = 1000.0
    lognormal_sigma: float = 0.0
    p_open: float = 0.0
    p_short: float = 0.0
    fidelity: Fidelity = Fidelity.FULL
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma_j_uS_per_um2 <= 0.0:
            raise DataError("sigma_j must be > 0")
        if self.lognormal_sigma < 0.0:
            raise DataError("lognormal_sigma must be >= 0")
        for name in ("p_open", "p_short"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DataError(f"{name} must be in [0, 1]")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ParasiticsModel:
    """2-point measurement parasitics.

    Pad resistance rises linearly with radial distance from the centre
    value to the edge value at 50 mm; cabling is a fixed series term; the
    substrate adds a parallel conductance.  A contact-resistance term (also
    linear in d, zero by default) models the junction-to-pad interface.
    """

    pad_centre_ohm: float = 200.0
    pad_edge_ohm: float = 330.0
    substrate_uS: float = 5.0
    cabling_ohm: float = 5.0
    contact_centre_ohm: float = 0.0
    contact_edge_ohm: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pad_centre_ohm", "pad_edge_ohm", "substrate_uS",
                     "cabling_ohm", "contact_centre_ohm", "contact_edge_ohm"):
            if getattr(self, name) < 0.0:
                raise DataError(f"{name} must be >= 0")

    def series_ohm(self, d_mm: float) -> float:
        frac = d_mm / WAFER_RADIUS_MM
        r = self.pad_centre_ohm + (self.pad_edge_ohm - self.pad_centre_ohm) * frac
        r += self.cabling_ohm
        r += self.contact_centre_ohm + (self.contact_edge_ohm - self.contact_centre_ohm) * frac
        return r


NO_PARASITICS = ParasiticsModel(pad_centre_ohm=0.0, pad_edge_ohm=0.0,
                                substrate_uS=0.0, cabling_ohm=0.0)


def check_conductance(structure_id: str, g_uS: float) -> None:
    if not math.isfinite(g_uS):
        raise DataError(f"non-finite conductance on {structure_id}")
    if g_uS < 0.0:
        raise DataError(f"negative conductance on {structure_id}")


def _conductance_check(sid: Sequence[str], g: np.ndarray) -> Check:
    """The check of a column of readings: finite and >= 0."""
    return ~np.isfinite(g) | (g < 0.0), lambda i: check_conductance(sid[i], g[i].item())


@dataclass(frozen=True)
class MeasurementRecord:
    """One conductance reading with its provenance.

    truth_flags is a frozenset drawn from DEFECT_CLASSES on synthetic data
    and None on records loaded from real measurement files.
    """

    structure_id: str
    die_index: tuple[int, int]
    position: WaferPoint
    design: JunctionDesign
    a_overlap_designed_um2: float
    junction_count: int
    g_uS: float
    truth_flags: frozenset[str] | None = None

    def __post_init__(self) -> None:
        check_conductance(self.structure_id, self.g_uS)


COLUMNS = {**STRUCTURE_COLUMNS, "g_uS": float, "truth_flags": object}


def _record(structure_id, die_x, die_y, x_mm, y_mm, variant, w_bottom_nm, w_top_nm,
            a_overlap_designed_um2, junction_count, g_uS, truth_flags,
            ) -> MeasurementRecord:
    return MeasurementRecord(
        structure_id, (die_x, die_y), WaferPoint(x_mm, y_mm),
        JunctionDesign(VARIANTS[variant], w_bottom_nm, w_top_nm),
        a_overlap_designed_um2, junction_count, g_uS, truth_flags)


class MeasurementTable(ColumnTable):
    """Measurement records stored as columns, in record order.

    The COLUMNS: structure ids, die x/y, position x/y in mm, variant
    (geometry.VARIANTS codes), bottom and top designed widths, designed
    area, junction count, g_uS and truth flags (a frozenset per row, None
    for readings loaded from a file).  Rows are MeasurementRecord objects,
    built on demand.  The constructor makes the checks a record makes of
    its values; the first bad row raises the error of the first check, in a
    record's order, that fails in it.
    """

    COLUMNS = COLUMNS
    __slots__ = tuple(COLUMNS)
    row = staticmethod(_record)

    @staticmethod
    def checks(columns: Mapping[str, Sequence]) -> dict[str, Check]:
        """structure_checks, then a finite conductance >= 0."""
        return {**structure_checks(columns),
                "conductance": _conductance_check(columns["structure_id"], columns["g_uS"])}

    @classmethod
    def from_records(cls, records: Iterable[MeasurementRecord]) -> MeasurementTable:
        """A table of records; a table is returned as it is."""
        if isinstance(records, MeasurementTable):
            return records
        return cls(_transpose([
            (r.structure_id, *r.die_index, r.position.x_mm, r.position.y_mm,
             VARIANT_CODES[r.design.variant], r.design.w_bottom_nm, r.design.w_top_nm,
             r.a_overlap_designed_um2, r.junction_count, r.g_uS, r.truth_flags)
            for r in records], COLUMNS))

    def with_conductance(self, g_uS: Sequence[float]) -> MeasurementTable:
        """The same measurements with new readings, the one column checked."""
        return self.from_checked({**{name: getattr(self, name) for name in COLUMNS},
                                  "g_uS": np.array(g_uS, dtype=float)})._readings_checked()

    def _readings_checked(self) -> MeasurementTable:
        raise_first_bad([_conductance_check(self.structure_id, self.g_uS)])
        return self

    def radius_mm(self) -> np.ndarray:
        return _radii(self.x_mm, self.y_mm)


_CLEAN, _SHORT = frozenset(), frozenset({"short"})
_OPEN_FULL, _OPEN_HALF = frozenset({"open_full"}), frozenset({"open_half"})


def synthesize_wafer(layout: WaferLayout, geom: EvaporatorGeometry,
                     process: ProcessModel,
                     parasitics: ParasiticsModel = ParasiticsModel(),
                     ) -> MeasurementTable:
    """Generate one record per viable structure, deterministically per seed.

    Bridge-style structures are evaluated at basic fidelity (the only level
    the model defines for them), which geom evaluates at its bridge tilt
    alpha_dolan; crossed junctions use the process fidelity.  Disorder and
    defect draws come from independent child streams of the seed, so
    changing defect probabilities alters only the flagged structures.
    """
    disorder, defects = np.random.SeedSequence(process.seed).spawn(2)
    viable = layout.viable()
    columns = {name: getattr(viable, name) for name in STRUCTURE_COLUMNS}
    n = len(viable)
    # Two normals and three uniforms per structure, in structure order: the
    # same streams as drawing them structure by structure.
    draws = np.random.default_rng(disorder).standard_normal((n, 2))
    uniforms = np.random.default_rng(defects).random((n, 3))
    area = variant_areas(geom, columns["variant"], columns["w_bottom_nm"],
                         columns["w_top_nm"], columns["x_mm"], columns["y_mm"],
                         process.fidelity)

    g_j = (process.sigma_j_uS_per_um2 * area)[:, None]
    if process.lognormal_sigma > 0.0:
        g_j = g_j * np.exp(process.lognormal_sigma * draws)
    count = columns["junction_count"]
    present = np.arange(2) < count[:, None]
    opened = present & (uniforms[:, 1:] < process.p_open)
    terms = np.where(present & ~opened, g_j, 0.0)
    g_pair = (0.0 + terms[:, 0]) + terms[:, 1]
    short = uniforms[:, 0] < process.p_short
    g_pair[short] = SHORT_PAIR_G_US

    n_open = opened.sum(axis=1)
    flags = np.full(n, _CLEAN, dtype=object)
    flags[short] = _SHORT
    flags[~short & (n_open == count)] = _OPEN_FULL
    flags[~short & (n_open == 1) & (count == 2)] = _OPEN_HALF

    series = parasitics.series_ohm(_radii(columns["x_mm"], columns["y_mm"]))
    g = np.full(n, parasitics.substrate_uS, dtype=float)
    on = g_pair > 0.0
    g[on] = US_OHM / (US_OHM / g_pair[on] + series[on]) + parasitics.substrate_uS
    return MeasurementTable.from_checked({**columns, "g_uS": g,
                                          "truth_flags": flags})._readings_checked()


def truth_table(records: Iterable[MeasurementRecord]) -> Mapping[str, set[str]]:
    """Index injected defects by class, for scoring filter precision/recall.

    Raises DataError on records without truth flags (real measurements
    carry no ground truth).
    """
    table = MeasurementTable.from_records(records)
    out: dict[str, set[str]] = {cls: set() for cls in DEFECT_CLASSES}
    for sid, flags in zip(table.structure_id.tolist(), table.truth_flags.tolist()):
        if flags is None:
            raise DataError(f"record {sid} has no truth flags")
        for flag in flags:
            out[flag].add(sid)
    return out
