"""Synthetic room-temperature conductance generator.

Produces measurement records for a layout by composing the shadow model
with configurable process disorder, defect injection, and probe-station
parasitics.  Serves as the ground-truth oracle for the analysis pipeline:
defect injections are recorded as truth flags on each record.

Per structure, each junction conducts sigma_j times its actual overlap
area, times a multiplicative lognormal disorder draw; the junctions of a
pair add in parallel; series pad/cabling/contact resistance and the
parallel substrate conductance then distort the 2-point reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .geometry import (
    WAFER_RADIUS_MM,
    EvaporatorGeometry,
    Fidelity,
    JunctionDesign,
    WaferPoint,
    actual_overlap_area,  # noqa: F401 -- perfbench/spans.py wraps this binding in traced runs
    structure_areas,
)
from .layout import WaferLayout

SHORT_PAIR_G_US = 2000.0

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


@dataclass(frozen=True)
class ParasiticsModel:
    """2-point measurement parasitics.

    Pad resistance rises linearly with radial distance from the centre
    value to the edge value at 50 mm; cabling is a fixed series term; the
    substrate adds a parallel conductance.  An optional contact-resistance
    term (also linear in d) models the junction-to-pad interface.
    """

    pad_centre_ohm: float = 200.0
    pad_edge_ohm: float = 330.0
    substrate_uS: float = 5.0
    cabling_ohm: float = 5.0
    contact_enabled: bool = False
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
        if self.contact_enabled:
            r += (self.contact_centre_ohm
                  + (self.contact_edge_ohm - self.contact_centre_ohm) * frac)
        return r


NO_PARASITICS = ParasiticsModel(pad_centre_ohm=0.0, pad_edge_ohm=0.0,
                                substrate_uS=0.0, cabling_ohm=0.0)


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
        if not math.isfinite(self.g_uS):
            raise DataError(f"non-finite conductance on {self.structure_id}")
        if self.g_uS < 0.0:
            raise DataError(f"negative conductance on {self.structure_id}")

    def d_mm(self) -> float:
        return self.position.radius_mm()


def _measured_g(g_pair_uS: float, series_ohm: float, substrate_uS: float) -> float:
    if g_pair_uS <= 0.0:
        return substrate_uS
    return 1.0e6 / (1.0e6 / g_pair_uS + series_ohm) + substrate_uS


def synthesize_wafer(layout: WaferLayout, geom: EvaporatorGeometry,
                     process: ProcessModel,
                     parasitics: ParasiticsModel = ParasiticsModel(),
                     ) -> list[MeasurementRecord]:
    """Generate one record per viable structure, deterministically per seed.

    Bridge-style structures are evaluated at basic fidelity (the only level
    the model defines for them), which geom evaluates at its bridge tilt
    alpha_dolan; crossed junctions use the process fidelity.  Disorder and
    defect draws come from independent child streams of the seed, so
    changing defect probabilities alters only the flagged structures.
    """
    disorder, defects = np.random.SeedSequence(process.seed).spawn(2)
    rng_disorder = np.random.default_rng(disorder)
    rng_defects = np.random.default_rng(defects)

    viable = layout.viable()
    areas = structure_areas(geom, [s.design for s in viable],
                            [s.position for s in viable], process.fidelity)
    records = []
    for s, area in zip(viable, areas):
        draws = rng_disorder.standard_normal(2)
        u_short, u_open0, u_open1 = rng_defects.random(3)

        flags: set[str] = set()
        if u_short < process.p_short:
            flags.add("short")
            g_pair = SHORT_PAIR_G_US
        else:
            opens = [u < process.p_open for u in (u_open0, u_open1)][:s.junction_count]
            g_pair = 0.0
            for j in range(s.junction_count):
                if opens[j]:
                    continue
                g_j = process.sigma_j_uS_per_um2 * area
                if process.lognormal_sigma > 0.0:
                    g_j *= float(np.exp(process.lognormal_sigma * draws[j]))
                g_pair += g_j
            n_open = sum(opens)
            if n_open == s.junction_count and n_open > 0:
                flags.add("open_full")
            elif n_open == 1 and s.junction_count == 2:
                flags.add("open_half")

        g = _measured_g(g_pair, parasitics.series_ohm(s.position.radius_mm()),
                        parasitics.substrate_uS)
        records.append(MeasurementRecord(
            structure_id=s.structure_id,
            die_index=s.die_index,
            position=s.position,
            design=s.design,
            a_overlap_designed_um2=s.a_overlap_designed_um2,
            junction_count=s.junction_count,
            g_uS=g,
            truth_flags=frozenset(flags),
        ))
    return records


def truth_table(records: Iterable[MeasurementRecord]) -> Mapping[str, set[str]]:
    """Index injected defects by class, for scoring filter precision/recall.

    Raises DataError on records without truth flags (real measurements
    carry no ground truth).
    """
    table: dict[str, set[str]] = {cls: set() for cls in DEFECT_CLASSES}
    for rec in records:
        if rec.truth_flags is None:
            raise DataError(f"record {rec.structure_id} has no truth flags")
        for flag in rec.truth_flags:
            table[flag].add(rec.structure_id)
    return table
