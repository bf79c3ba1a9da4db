"""Print a SHA-256 digest of every design-path output, for byte-identity checks.

Runs, in one process and against the checkout's own src/:

* ``layout`` for every layout kind,
* ``compensate`` of every layout in both modes at all three fidelities,
  plus a tight width limit that leaves structures unattainable,
* ``fieldmap`` for every quantity at every fidelity on a 2 mm grid,
* ``write-config``.

Each output file prints as ``<sha256>  <name>``, and each command that
exits non-zero as ``exit <code>  <name>``, so two checkouts compare with
one ``diff``:

    python tools/digest_outputs.py > new.txt
    python /path/to/other/checkout/tools/digest_outputs.py > old.txt
    diff old.txt new.txt

``--config FILE`` passes a run configuration to ``compensate`` and
``fieldmap``.  The outputs are written to a temporary directory and
removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jjshadow.cli import main as jjshadow_main       # noqa: E402
from jjshadow.geometry import FIELD_QUANTITIES, Fidelity  # noqa: E402
from jjshadow.layout import LayoutKind               # noqa: E402

FIELDMAP_STEP_MM = "2"
TIGHT_WIDTH_NM = "230"


def _commands(out: Path, config: list[str]) -> list[tuple[str, list[str]]]:
    """(output file name, argv) for every run, in a fixed order."""
    runs = []
    kinds = [k.value for k in LayoutKind if k is not LayoutKind.CUSTOM]
    for kind in kinds:
        runs.append((f"layout-{kind}.csv", ["layout", "--kind", kind]))
    for kind in kinds:
        layout = ["--layout", str(out / f"layout-{kind}.csv")]
        for fid in Fidelity:
            for mode in ("aspect", "fixed-top"):
                runs.append((f"compensate-{kind}-{fid.value}-{mode}.csv",
                             ["compensate", *layout, "--fidelity", fid.value,
                              "--mode", mode, *config]))
        runs.append((f"compensate-{kind}-full-max{TIGHT_WIDTH_NM}.csv",
                     ["compensate", *layout, "--fidelity", "full",
                      "--max-width-nm", TIGHT_WIDTH_NM, *config]))
    for quantity in FIELD_QUANTITIES:
        for fid in Fidelity:
            runs.append((f"fieldmap-{quantity}-{fid.value}.csv",
                         ["fieldmap", "--quantity", quantity, "--step", FIELDMAP_STEP_MM,
                          "--fidelity", fid.value, *config]))
    runs.append(("write-config.cfg", ["write-config"]))
    return runs


def digest_outputs(out: Path, config: str | None) -> list[str]:
    lines = []
    extra = ["--config", config] if config else []
    for name, argv in _commands(out, extra):
        target = out / name
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = jjshadow_main(argv + ["--out", str(target)])
        if code != 0:
            lines.append(f"exit {code}  {name}")
        if target.exists():
            lines.append(f"{hashlib.sha256(target.read_bytes()).hexdigest()}  {name}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None,
                        help="run configuration for compensate and fieldmap")
    args = parser.parse_args()
    config = str(Path(args.config).resolve()) if args.config else None
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_outputs(Path(tmp), config)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
