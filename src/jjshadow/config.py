"""Plain-text key=value run configuration.

One dotted key per line (block.key = value); '#' starts a comment; unknown
keys are rejected.  Every default is the documented instrument or
pipeline value where one exists; the synthetic-process block is free
calibration.  write_default() emits a fully commented template.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .analysis import FilterConfig, FrequencyModel, Regressor
from .errors import ConfigError
from .geometry import EvaporatorGeometry, Fidelity
from .synth import ParasiticsModel, ProcessModel

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass(frozen=True)
class RunConfig:
    # geometry block
    geometry_d_prime_mm: float = 650.0
    geometry_r_pivot_mm: float = 62.5
    geometry_alpha_deg: float = 35.0
    geometry_alpha_dolan_deg: float = 15.0
    geometry_h_resist_nm: float = 600.0
    geometry_t_bottom_nm: float = 35.0
    geometry_dw_offset_nm: float = 25.0
    # process block (synthesis only; free parameters)
    process_sigma_j_uS_per_um2: float = 1000.0
    process_lognormal_sigma: float = 0.0
    process_p_open: float = 0.0
    process_p_short: float = 0.0
    process_fidelity: str = "full"
    process_seed: int = 0
    # parasitics block
    parasitics_pad_centre_ohm: float = 200.0
    parasitics_pad_edge_ohm: float = 330.0
    parasitics_substrate_uS: float = 5.0
    parasitics_cabling_ohm: float = 5.0
    parasitics_contact_enabled: bool = False
    parasitics_contact_centre_ohm: float = 0.0
    parasitics_contact_edge_ohm: float = 0.0
    # filter block
    filter_abs_low_uS: float = 20.0
    filter_abs_high_uS: float = 500.0
    filter_rel_threshold: float = 0.70
    filter_regressor: str = "variable_width"
    # frequency block
    frequency_f_c_mhz: float = 270.0
    frequency_m_ghz_per_ms: float = 134.0
    # analysis block
    analysis_dual_rsd: bool = False
    analysis_deembed: bool = False

    def geometry(self) -> EvaporatorGeometry:
        return EvaporatorGeometry(
            d_prime_mm=self.geometry_d_prime_mm,
            r_pivot_mm=self.geometry_r_pivot_mm,
            alpha_deg=self.geometry_alpha_deg,
            alpha_dolan_deg=self.geometry_alpha_dolan_deg,
            h_resist_nm=self.geometry_h_resist_nm,
            t_bottom_nm=self.geometry_t_bottom_nm,
            dw_offset_nm=self.geometry_dw_offset_nm,
        )

    def process(self, seed: int | None = None) -> ProcessModel:
        return ProcessModel(
            sigma_j_uS_per_um2=self.process_sigma_j_uS_per_um2,
            lognormal_sigma=self.process_lognormal_sigma,
            p_open=self.process_p_open,
            p_short=self.process_p_short,
            fidelity=self.fidelity(),
            seed=self.process_seed if seed is None else seed,
        )

    def fidelity(self) -> Fidelity:
        try:
            return Fidelity(self.process_fidelity)
        except ValueError as exc:
            raise ConfigError(
                f"process.fidelity must be one of basic/sidewall/full, "
                f"got {self.process_fidelity!r}") from exc

    def parasitics(self) -> ParasiticsModel:
        return ParasiticsModel(
            pad_centre_ohm=self.parasitics_pad_centre_ohm,
            pad_edge_ohm=self.parasitics_pad_edge_ohm,
            substrate_uS=self.parasitics_substrate_uS,
            cabling_ohm=self.parasitics_cabling_ohm,
            contact_enabled=self.parasitics_contact_enabled,
            contact_centre_ohm=self.parasitics_contact_centre_ohm,
            contact_edge_ohm=self.parasitics_contact_edge_ohm,
        )

    def filter(self) -> FilterConfig:
        try:
            reg = Regressor(self.filter_regressor)
        except ValueError as exc:
            raise ConfigError(
                f"filter.regressor must be variable_width or overlap_area, "
                f"got {self.filter_regressor!r}") from exc
        return FilterConfig(
            abs_low_uS=self.filter_abs_low_uS,
            abs_high_uS=self.filter_abs_high_uS,
            rel_threshold=self.filter_rel_threshold,
            regressor=reg,
        )

    def frequency(self) -> FrequencyModel:
        return FrequencyModel(f_c_mhz=self.frequency_f_c_mhz,
                              m_ghz_per_ms=self.frequency_m_ghz_per_ms)


def _key_to_field(key: str) -> str:
    return key.strip().replace(".", "_")


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse key=value lines into a RunConfig over the defaults."""
    cfg = base if base is not None else RunConfig()
    known = {f.name: f.type for f in fields(RunConfig)}
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        name = _key_to_field(key)
        if name not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = known[name]
        try:
            if kind == "bool" or kind is bool:
                if value.lower() not in _BOOL:
                    raise ValueError(f"not a boolean: {value!r}")
                overrides[name] = _BOOL[value.lower()]
            elif kind == "int" or kind is int:
                overrides[name] = int(value)
            elif kind == "float" or kind is float:
                overrides[name] = float(value)
            else:
                overrides[name] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return replace(cfg, **overrides)


def load_config(path: str | Path | None) -> RunConfig:
    """Defaults when path is None, else defaults overridden by the file."""
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def write_default(path: str | Path) -> None:
    """Write a config template listing every key at its default."""
    cfg = RunConfig()
    lines = ["# jjshadow run configuration (key = value, '#' comments)"]
    block = ""
    for f in fields(RunConfig):
        this_block, key = f.name.split("_", 1)
        if this_block != block:
            block = this_block
            lines.append("")
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{block}.{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
