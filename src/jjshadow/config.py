"""Plain-text key=value run configuration.

One dotted key per line (block.key = value); '#' starts a comment.  Each
block is one RunConfig field holding a parameter object, and its keys are
that class's fields: the defaults and range checks are the class's own, types come from
its annotations, and enums are given by value.  A config is validated as a
whole when it is parsed: unknown keys, unparsable or non-finite values
(naming the line) and out-of-range blocks (naming the block) raise
ConfigError.  write_default() emits a template listing every key.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import get_type_hints

from .analysis import FilterConfig, FrequencyModel
from .errors import ConfigError, JJShadowError, open_output
from .geometry import EvaporatorGeometry
from .synth import ParasiticsModel, ProcessModel

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


@dataclass(frozen=True)
class AnalysisOptions:
    """Report switches: RSD also without the relative filter, de-embedding."""

    dual_rsd: bool = False
    deembed: bool = False


@dataclass(frozen=True)
class RunConfig:
    """One parameter object per block, in template order, at class defaults."""

    geometry: EvaporatorGeometry = EvaporatorGeometry()
    process: ProcessModel = ProcessModel()
    parasitics: ParasiticsModel = ParasiticsModel()
    filter: FilterConfig = FilterConfig()
    frequency: FrequencyModel = FrequencyModel()
    analysis: AnalysisOptions = AnalysisOptions()


# Config block name -> parameter class.
BLOCKS = get_type_hints(RunConfig)
_KEY_TYPES = {block: get_type_hints(cls) for block, cls in BLOCKS.items()}


def _parse_value(kind: type, text: str) -> object:
    if kind is bool:
        if text.lower() not in _BOOL:
            raise ValueError(f"not a boolean: {text!r}")
        return _BOOL[text.lower()]
    if issubclass(kind, Enum):
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"expected one of {'/'.join(m.value for m in kind)}, "
                             f"got {text!r}") from None
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse key=value lines into a RunConfig over the class defaults."""
    overrides: dict[str, dict[str, object]] = {block: {} for block in BLOCKS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        block, _, name = key.partition(".")
        kind = _KEY_TYPES.get(block, {}).get(name)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            overrides[block][name] = _parse_value(kind, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    blocks = {}
    for block, cls in BLOCKS.items():
        try:
            blocks[block] = cls(**overrides[block])
        except JJShadowError as exc:
            raise ConfigError(f"{block}: {exc}") from exc
    return RunConfig(**blocks)


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
    lines = ["# jjshadow run configuration (key = value, '#' comments)"]
    for block, cls in BLOCKS.items():
        lines.append("")
        for name, value in asdict(cls()).items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, Enum):
                value = value.value
            lines.append(f"{block}.{name} = {value}")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")
