"""Print a SHA-256 digest of every CLI output, for byte-identity checks.

Runs, in one process and against the checkout's own src/:

* ``layout`` for every layout kind, and for ``planar17q`` and
  ``tsv17q-dolan`` again with the bundled data files passed explicitly
  (``--subarrays``, ``--tsv-file``) and the built-in sweeps written out as
  ``--sweeps`` files,
* ``simulate --seed 3 --truth-out`` of every layout, and ``analyze
  --layout`` of each of those measurement files; again with ``--seed 7``
  when the configuration's process model draws random numbers (disorder,
  opens or shorts), since otherwise no output depends on the seed,
* with the default configuration only, ``simulate`` and ``analyze`` of every
  layout at both seeds under ``dual-rsd.cfg`` (outputs under ``dual-rsd/``):
  the default filter with ``analysis.dual_rsd`` on and the benchmark's
  random process, so the unfiltered RSD of a sweep layout is digested
  under the default filter too,
* ``compensate`` of every layout at all three fidelities, keeping the
  aspect and at a fixed top width (``--fixed-top-nm 160``), plus a tight
  width limit that leaves structures unattainable,
* ``fieldmap`` for every quantity at every fidelity on a 2 mm grid, and on
  a 0.3 mm grid the FULL-fidelity area and the bottom width of a 20 nm
  line, which pinches off into blank cells away from the centre,
* ``render --grid 3 --canvas 256`` of 100 nm electrodes (images and
  manifest) and ``extract --manifest`` of those images,
* ``render --grid 2 --canvas 320 --scale 3`` of the default 200 nm
  electrodes, the metrology benchmark's image size, with about its pixel
  noise (``--noise 0.0314``) and without, and ``extract --thresholds 1``
  and ``--thresholds 40`` of each set,
* ``render --grid 5`` at that size and noise, the benchmark's 25 wafer
  positions, and ``extract`` of it at the benchmark's 11 thresholds,
* ``render --grid 3`` at that size with ``--noise 0.4``, where the
  threshold count changes the extracted widths (at ``--noise 0.3`` and
  below it does not), and ``extract --thresholds 1`` and
  ``--thresholds 11`` of it,
* ``write-config``.

Each output file prints as ``<sha256>  <name>``, and each command that
exits non-zero as ``exit <code>  <name>``, so two checkouts compare with
one ``diff``:

    python tools/digest_outputs.py > new.txt
    python /path/to/other/checkout/tools/digest_outputs.py > old.txt
    diff old.txt new.txt

``--config FILE`` passes a run configuration to ``simulate``, ``analyze``,
``compensate``, ``fieldmap`` and ``render``.  The outputs are written to a temporary
directory and removed afterwards.

``--write`` regenerates the committed reference digests in ``tests/data/``:
one file for the default configuration and one for ``non-default.cfg``,
which sets every configuration key to a non-default value.
``tests/test_output_digests.py`` recomputes both and fails on any
difference, so each regeneration is an intended output change.
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
from jjshadow.config import load_config               # noqa: E402
from jjshadow.geometry import FIELD_QUANTITIES, Fidelity  # noqa: E402
from jjshadow.layout import PLANAR_SWEEPS, TSV_SWEEP, LayoutKind  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = ROOT / "tests" / "data"
BUNDLED = ROOT / "src" / "jjshadow" / "data"
# Reference set name -> config file in DATA_DIR (None: the default config).
REFERENCE_SETS = {"default": None, "non-default": "non-default.cfg"}
# The default filter with dual RSD on and the wafer-mc benchmark's process.
DUAL_RSD_CONFIG = DATA_DIR / "dual-rsd.cfg"
DUAL_RSD_DIR = "dual-rsd"

FIELDMAP_STEP_MM = "2"
FINE_STEP_MM = "0.3"            # ~87k disc cells, near the benchmark's 0.25 mm map
FIXED_TOP_NM = "160"            # the crossed-junction top width of the planar layouts
TIGHT_WIDTH_NM = "230"
SEEDS = ("3", "7")
RENDER_GRID = "3"
RENDER_CANVAS_PX = "256"
RENDER_WIDTH_NM = "100"         # bands well under half the canvas, so edges are found
# The metrology benchmark's image size and scale, rendered noisy and clean.
BENCH_GRID = "2"
BENCH_RENDER = ["--canvas", "320", "--scale", "3"]
BENCH_NOISES = {"noisy": "0.0314", "clean": "0"}
BENCH_THRESHOLDS = ("1", "40")
# The benchmark's 25 positions at its noise: the band edges of each position.
POSITIONS_GRID = "5"
POSITIONS_NOISE = BENCH_NOISES["noisy"]
POSITIONS_THRESHOLDS = "11"
# Noise at which the threshold count changes the extracted widths; at the
# benchmark's noise every threshold finds the same edges.
SWEEP_GRID = "3"
SWEEP_NOISE = "0.4"
SWEEP_THRESHOLDS = ("1", "11")


def _write_sweeps(path: Path, sweeps: dict[str, tuple[float, ...]]) -> None:
    """A width sweep file (group,w_nm) holding the given sweeps."""
    path.write_text("group,w_nm\n" + "".join(f"{group},{w!r}\n"
                                             for group, ws in sweeps.items() for w in ws))


def _seeds(config: str | None) -> tuple[str, ...]:
    """The simulate seeds: the first alone unless the process model is random."""
    process = load_config(config).process
    random_process = max(process.lognormal_sigma, process.p_open, process.p_short) > 0.0
    return SEEDS if random_process else SEEDS[:1]


def _simulate_analyze(out: Path, kinds: list[str], config: list[str],
                      seeds: tuple[str, ...],
                      prefix: str = "") -> list[tuple[list[str], list[str]]]:
    """simulate then analyze of each layout at each seed, outputs named
    under prefix."""
    runs = []
    for kind in kinds:
        layout = ["--layout", str(out / f"layout-{kind}.csv")]
        for seed in seeds:
            sim = f"{prefix}simulate-{kind}-{seed}.csv"
            truth = f"{prefix}truth-{kind}-{seed}.csv"
            runs.append((["simulate", *layout, "--seed", seed, "--out", str(out / sim),
                          "--truth-out", str(out / truth), *config], [sim, truth]))
            report = f"{prefix}analyze-{kind}-{seed}"
            runs.append((["analyze", "--measurements", str(out / sim), *layout,
                          "--out-dir", str(out / report), *config], [report]))
    return runs


def _render_extract(out: Path, grid: str, render: list[str], config: list[str],
                    extracts: list[tuple[str, list[str]]],
                    prefix: str = "") -> list[tuple[list[str], list[str]]]:
    """render of a grid into the directory prefix + "render", then extract
    of its images into each named file with its extra arguments."""
    images = out / f"{prefix}render"
    runs = [(["render", "--grid", grid, *render, "--out-dir", str(images), *config],
             [images.name])]
    pgms = [str(images / f"g{i:02d}_{j:02d}.pgm")
            for i in range(int(grid)) for j in range(int(grid))]
    for name, extra in extracts:
        runs.append((["extract", "--manifest", str(images / "manifest.csv"),
                      "--images", *pgms, *extra, "--out", str(out / name)], [name]))
    return runs


def _commands(out: Path, config: list[str],
              seeds: tuple[str, ...]) -> list[tuple[list[str], list[str]]]:
    """(argv, names of its outputs) for every run, in a fixed order."""
    runs = []
    kinds = [k.value for k in LayoutKind]
    for kind in kinds:
        name = f"layout-{kind}.csv"
        runs.append((["layout", "--kind", kind, "--out", str(out / name)], [name]))
    sites = ["--subarrays", str(BUNDLED / "surface17_subarrays.csv")]
    for kind, extra in (("planar17q", ["--sweeps", str(out / "sweeps-planar.csv")]),
                        ("tsv17q-dolan", ["--tsv-file", str(BUNDLED / "tsv_vias.csv"),
                                          "--sweeps", str(out / "sweeps-tsv.csv")])):
        name = f"layout-{kind}-files.csv"
        runs.append((["layout", "--kind", kind, *sites, *extra, "--out", str(out / name)],
                     [name]))
    runs += _simulate_analyze(out, kinds, config, seeds)
    for kind in kinds:
        layout = ["--layout", str(out / f"layout-{kind}.csv")]
        for fid in Fidelity:
            for mode, extra in (("aspect", []), ("fixed-top", ["--fixed-top-nm", FIXED_TOP_NM])):
                name = f"compensate-{kind}-{fid.value}-{mode}.csv"
                runs.append((["compensate", *layout, "--fidelity", fid.value, *extra,
                              "--out", str(out / name), *config], [name]))
        name = f"compensate-{kind}-full-max{TIGHT_WIDTH_NM}.csv"
        runs.append((["compensate", *layout, "--fidelity", "full", "--max-width-nm",
                      TIGHT_WIDTH_NM, "--out", str(out / name), *config], [name]))
    for quantity in FIELD_QUANTITIES:
        for fid in Fidelity:
            name = f"fieldmap-{quantity}-{fid.value}.csv"
            runs.append((["fieldmap", "--quantity", quantity, "--step", FIELDMAP_STEP_MM,
                          "--fidelity", fid.value, "--out", str(out / name), *config],
                         [name]))
    for name, extra in (("fieldmap-area-full-fine.csv", ["area", "--fidelity", "full"]),
                        ("fieldmap-wb-wb20-fine.csv", ["wb", "--wb", "20"])):
        runs.append((["fieldmap", "--quantity", *extra, "--step", FINE_STEP_MM,
                      "--out", str(out / name), *config], [name]))
    runs += _render_extract(out, RENDER_GRID,
                            ["--canvas", RENDER_CANVAS_PX,
                             "--wb", RENDER_WIDTH_NM, "--wt", RENDER_WIDTH_NM],
                            config, [("extract.csv", [])])
    for label, noise in BENCH_NOISES.items():
        prefix = f"bench-{label}-"
        runs += _render_extract(out, BENCH_GRID, [*BENCH_RENDER, "--noise", noise], config,
                                [(f"{prefix}extract-t{n}.csv", ["--thresholds", n])
                                 for n in BENCH_THRESHOLDS], prefix)
    runs += _render_extract(out, POSITIONS_GRID, [*BENCH_RENDER, "--noise", POSITIONS_NOISE],
                            config, [(f"positions-extract-t{POSITIONS_THRESHOLDS}.csv",
                                      ["--thresholds", POSITIONS_THRESHOLDS])], "positions-")
    runs += _render_extract(out, SWEEP_GRID, [*BENCH_RENDER, "--noise", SWEEP_NOISE], config,
                            [(f"sweep-extract-t{n}.csv", ["--thresholds", n])
                             for n in SWEEP_THRESHOLDS], "sweep-")
    runs.append((["write-config", "--out", str(out / "write-config.cfg")],
                 ["write-config.cfg"]))
    if not config:
        runs += _simulate_analyze(out, kinds, ["--config", str(DUAL_RSD_CONFIG)], SEEDS,
                                  f"{DUAL_RSD_DIR}/")
    return runs


def digest_outputs(out: Path, config: str | None) -> list[str]:
    """Run every command and digest its outputs; a directory output digests
    each file in it."""
    lines = []
    extra = ["--config", config] if config else []
    _write_sweeps(out / "sweeps-planar.csv", PLANAR_SWEEPS)
    _write_sweeps(out / "sweeps-tsv.csv", {"all": TSV_SWEEP})
    (out / DUAL_RSD_DIR).mkdir()
    for argv, names in _commands(out, extra, _seeds(config)):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = jjshadow_main(argv)
        if code != 0:
            lines.append(f"exit {code}  {names[0]}")
        for name in names:
            target = out / name
            for path in sorted(target.iterdir()) if target.is_dir() else [target]:
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{digest}  {path.relative_to(out)}")
    return lines


def run_digests(config: str | Path | None = None) -> list[str]:
    """The digest lines of one full run, made in a temporary directory."""
    config = str(Path(config).resolve()) if config else None
    with tempfile.TemporaryDirectory() as tmp:
        return digest_outputs(Path(tmp), config)


def reference_path(name: str) -> Path:
    return DATA_DIR / f"digests-{name}.txt"


def reference_config(name: str) -> Path | None:
    config = REFERENCE_SETS[name]
    return DATA_DIR / config if config else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default=None,
                        help="run configuration for simulate, analyze, compensate, "
                             "fieldmap and render")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the reference digests in tests/data/")
    args = parser.parse_args()
    if args.write:
        if args.config:
            parser.error("--write takes its configurations from tests/data/")
        for name in REFERENCE_SETS:
            lines = run_digests(reference_config(name))
            reference_path(name).write_text("\n".join(lines) + "\n")
            print(f"wrote {reference_path(name)}: {len(lines)} digests")
        return 0
    print("\n".join(run_digests(args.config)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
