"""Exception hierarchy shared across the package, and the one rule that
picks which error a table with several bad rows raises.

Each class carries the CLI's exit code and the label its message prints
under.
"""

from typing import Callable, NoReturn, Sequence

import numpy as np


class JJShadowError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    label = "error"


class NumericalError(JJShadowError):
    """Base class for the numerical failures, which exit 3."""

    exit_code = 3
    label = "numerical failure"


class GeometryError(NumericalError):
    """Evaporator geometry violates its invariants (e.g. D <= 0)."""


class ShadowedError(NumericalError):
    """An electrode is fully shadowed (computed width <= 0) at this point."""


class DataError(JJShadowError):
    """Malformed or inconsistent input data (CSV, layout, truth flags)."""

    label = "data error"


class ConfigError(JJShadowError):
    """Bad run configuration: unknown key, unparsable value, bad range."""

    label = "data error"


class FitError(NumericalError):
    """A regression or radial fit is underdetermined or failed."""


class ExtractionError(NumericalError):
    """Image width/area extraction found no usable edges."""


class TargetError(NumericalError):
    """Pre-compensation target area is unattainable at this position."""


def data_error(message: str) -> NoReturn:
    """Raise DataError(message), from an expression."""
    raise DataError(message)


# A check of rows: the mask of the bad rows, and a call raising row i's error.
Check = tuple[np.ndarray, Callable[[int], object]]


def raise_first_bad(checks: Sequence[Check],
                    where: Callable[[int], str] | None = None) -> None:
    """Raise the error of the lowest row any check flags, made by the first
    check in order that flags it, as a row-by-row loop would; with where, as
    a DataError that reads where(row), then the error."""
    firsts = [int(bad.argmax()) for bad, _ in checks if bad.any()]
    if firsts:
        i = min(firsts)
        try:
            next(raise_row for bad, raise_row in checks if bad[i])(i)
        except (ValueError, JJShadowError) as exc:
            if where is None:
                raise
            raise DataError(f"{where(i)}{exc}") from exc
