"""Read seeded damaged input files and give one line for what each read
gives, so that two checkouts' readers compare with one ``diff``.

``fuzz(count, seed)`` makes, in a temporary directory, ``count`` damaged
files of each kind the package reads as a table: layout, measurement,
truth, render manifest, sub-array, via and sweep files; then as many
damaged PGM images (below).  Each table file holds 1 to 30 rows (a
sub-array file all 17, in a drawn order) drawn from the rows of its kind
that the checkout writes or bundles: the tsv17q-manhattan, planar17q and
planar35x35-al layouts, measurements and truth synthesized from them, a
manifest of the tsv17q-manhattan structures, the bundled sub-array and via
files and the planar width sweeps.  Then come up to six damages, drawn from
a seeded stream (DAMAGE):

* a cell, or two or three cells of one row, replaced by junk, ``nan``,
  ``inf``, a negative or zero value, an integer outside 64 bits, a bad
  variant or flag, or an empty cell,
* a row with one cell too many or too few,
* blank lines,
* quoted cells: a cell quoted as it is, quoted ids holding a comma or a
  quote, an unclosed quote and a quoted cell that spans lines,
* a row flagged excluded that holds junk,
* a repeated structure id.

A PGM file starts as ``write_pgm`` writes one (P5 magic, scale comment,
width, height, maxval 255, one whitespace byte, a raster of up to 4 x 4
pixels) and takes up to six damages (PGM_DAMAGE): a header field replaced
by another magic (P2 among them), an integer of 20 digits or junk; a gap
between fields replaced by other whitespace (``\x0b`` and ``\x0c`` among
it) or removed; a comment inserted, with or without its newline, or a
scale comment that is good or bad; a raster a byte short or long; the file
cut short.  Half the files are read with a scale given, half with none.

Each file gives one line, ``<name>  error  <message>`` with the
temporary directory stripped, ``<name>  read  <sha256>`` of what the read
gives (a table's columns, or the repr of the values read), or ``<name>
crash  <type>: <message>`` for an exception that is not a package error.

``tools/digest_outputs.py`` commits ``fuzz(300, 0)`` as its ``readers``
reference set, which tier-1 re-runs.  A deeper run is one call from the
repository root; with another checkout's ``src/`` in place of ``src``
(also one that predates this module), two runs compare with one ``diff``:

    PYTHONPATH=src:tools python -c \
        "from fuzz_readers import fuzz; print(*fuzz(3000, 1), sep='\\n')" > new.txt
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from importlib import resources
from pathlib import Path

from jjshadow.errors import JJShadowError
from jjshadow.geometry import EvaporatorGeometry, Variant
from jjshadow.imaging import read_pgm
from jjshadow.io import (
    read_layout_csv,
    read_manifest_csv,
    read_measurements_csv,
    read_truth_csv,
    write_layout_csv,
    write_manifest_csv,
    write_measurements_csv,
    write_truth_csv,
)
from jjshadow.layout import (
    LAYOUT_COLUMNS,
    PLANAR_SWEEPS,
    SWEEP_HEADER,
    build_35x35,
    build_planar_17q,
    build_tsv_17q,
    load_subarray_sites,
    load_sweep_file,
    load_tsv_file,
)
from jjshadow.synth import COLUMNS, ParasiticsModel, ProcessModel, synthesize_wafer

JUNK = ["", "junk", "nan", "NaN", "inf", "-inf", "1e400", "-5.0", "-0.0", "0", "1", "2",
        "3", "-1", "1e3", "1.5", " 2", "1_0", "9" * 20, "-" + "9" * 20, str(2**63),
        str(-2**63), str(2**63 - 1), "bridge", "Dolan", "dolan", "manhattan", "no",
        "True", "true", "false", "a\x00b"]
ROWS_PER_FILE = 30


def _pools() -> dict[str, tuple[str, list[str]]]:
    """The header and body lines the checkout writes or bundles, per file kind."""
    process = ProcessModel(lognormal_sigma=0.05, p_open=0.05, p_short=0.02, seed=1)
    layouts = [build_tsv_17q(Variant.MANHATTAN), build_planar_17q(), build_35x35("al")]
    texts: dict[str, list[list[str]]] = {"layout": [], "measurements": [], "truth": []}
    with tempfile.TemporaryDirectory() as tmp:
        def lines(write, value) -> list[str]:
            write(value, Path(tmp) / "file.csv")
            return Path(tmp, "file.csv").read_text().splitlines()

        for layout in layouts:
            measurements = synthesize_wafer(layout, EvaporatorGeometry(), process,
                                            ParasiticsModel())
            texts["layout"].append(lines(write_layout_csv, layout))
            texts["measurements"].append(lines(write_measurements_csv, measurements))
            texts["truth"].append(lines(write_truth_csv, measurements))
        s = layouts[0].structures
        texts["manifest"] = [lines(write_manifest_csv, zip(
            s.structure_id.tolist(), s.x_mm.tolist(), s.y_mm.tolist(),
            (s.w_bottom_nm // 2).astype(int).tolist(), (s.w_top_nm // 2).astype(int).tolist()))]
    data = resources.files("jjshadow.data")
    texts["subarrays"] = [data.joinpath("surface17_subarrays.csv").read_text().splitlines()]
    texts["vias"] = [data.joinpath("tsv_vias.csv").read_text().splitlines()]
    texts["sweeps"] = [[SWEEP_HEADER, *(f"{group},{width!r}" for group, sweep
                                        in PLANAR_SWEEPS.items() for width in sweep)]]
    return {kind: (files[0][0], [line for text in files for line in text[1:]])
            for kind, files in texts.items()}


# Kinds of damage to a table file, and how often each is drawn.
DAMAGE = {"junk cell": 6, "junk cells": 3, "wrong width": 1, "blank line": 1, "quoted cell": 1,
          "quoted id": 1, "spanning cell": 1, "excluded junk": 2, "repeated id": 1}


def _damage(rng: random.Random, rows: list[list[str]]) -> list[str]:
    """The lines of rows after up to six seeded damages."""
    blanks = []
    for what in rng.choices(list(DAMAGE), list(DAMAGE.values()), k=rng.randrange(7)):
        row = rng.choice(rows)
        if len(row) < 2:                # a short row's cells are already lost
            continue
        if what == "junk cell":
            row[rng.randrange(len(row))] = rng.choice(JUNK)
        elif what == "junk cells":         # the order of checks within a row
            for k in rng.sample(range(1, len(row)), min(len(row) - 1, rng.randint(2, 3))):
                row[k] = rng.choice(JUNK)
        elif what == "wrong width":
            if rng.random() < 0.5:
                row.append(rng.choice(JUNK))
            else:
                row.pop()
        elif what == "blank line":
            blanks.append(rng.randrange(len(rows) + 1))
        elif what == "quoted cell":
            k = rng.randrange(len(row))
            row[k] = '"' + row[k].replace('"', '""') + '"'
        elif what == "quoted id":
            row[0] = rng.choice(['"a,b"', '"q""1"', '"unclosed', 'x"y', '"ab"c'])
        elif what == "spanning cell":
            row[rng.randrange(len(row))] = '"a\nb"'
        elif what == "excluded junk":
            if len(row) > 10:
                row[10] = "true"
            row[rng.randrange(1, len(row))] = rng.choice(JUNK)
        else:
            row[0] = rng.choice(rows)[0]
    lines = [",".join(row) for row in rows]
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    return lines


PGM_FIELDS = [b"P5", b"P2", b"P6", b"p5", b"0", b"1", b"3", b"255", b"256", b"-1", b"+3",
              b"9" * 19, b"9" * 20, b"0" * 19 + b"3", b"3x", b"x", b"1e3", b"3#", b"\xff",
              b"\x00"]
PGM_SPACE = [b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\r\n", b" \x0b\x0c "]
PGM_COMMENTS = [b"# scale_nm_per_px 2.5\n", b"#scale_nm_per_px\t0.5\r\n",
                b"# scale_nm_per_px 1e1\n", b"# scale_nm_per_px\n",
                b"# scale_nm_per_px 2.5 nm\n", b"# scale_nm_per_px abc\n",
                b"# scale_nm_per_px -1\n", b"# scale_nm_per_px nan\n",
                b"# scale_nm_per_px 0\n", b"# scale 2.5\n", b"#\n", b"# a comment\n",
                b"# no newline", b"# scale_nm_per_px 2.5"]

# Kinds of damage to a PGM file, and how often each is drawn.
PGM_DAMAGE = {"field": 4, "space": 3, "no space": 1, "comment": 3, "raster": 1, "cut": 1}


def _pgm(rng: random.Random) -> bytes:
    """A PGM image as write_pgm writes one, after up to six seeded damages."""
    width, height = rng.randint(1, 4), rng.randint(1, 4)
    # lead, magic, gap, width, gap, height, gap, maxval, terminator, raster
    parts = [b"", b"P5", b"\n# scale_nm_per_px 2.0\n", str(width).encode(), b" ",
             str(height).encode(), b"\n", b"255", b"\n", rng.randbytes(width * height)]
    cut = None
    for what in rng.choices(list(PGM_DAMAGE), list(PGM_DAMAGE.values()), k=rng.randrange(7)):
        if what == "field":
            parts[rng.choice((1, 3, 5, 7))] = rng.choice(PGM_FIELDS)
        elif what == "space":
            parts[rng.choice((0, 2, 4, 6, 8))] = rng.choice(PGM_SPACE)
        elif what == "no space":
            parts[rng.choice((2, 4, 6, 8))] = b""
        elif what == "comment":
            at = rng.choice((0, 2, 4, 6))
            parts[at] += rng.choice(PGM_COMMENTS) + rng.choice([b"", *PGM_SPACE])
        elif what == "raster":
            parts[9] = parts[9][:-1] if rng.random() < 0.5 else parts[9] + b"\x80"
        else:
            cut = rng.randrange(len(b"".join(parts)) + 1)
    return b"".join(parts)[:cut]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _columns(table, names) -> str:
    return _digest("\n".join(repr(getattr(table, name).tolist()) for name in names))


def _image(img) -> str:
    return _digest(repr((img.scale_nm_per_px, img.pixels.tolist())))


def fuzz(count: int, seed: int) -> list[str]:
    """One line per damaged file."""
    readers = {
        "layout": lambda path: _columns(read_layout_csv(path).structures, LAYOUT_COLUMNS),
        "measurements": lambda path: _columns(read_measurements_csv(path), COLUMNS),
        # flags sorted: a frozenset's order varies with the string hash seed
        "truth": lambda path: _digest(repr([(sid, sorted(flags)) for sid, flags
                                            in read_truth_csv(path).items()])),
        "manifest": lambda path: _digest(repr(list(read_manifest_csv(path).items()))),
        "subarrays": lambda path: _digest(repr(load_subarray_sites(path))),
        "vias": lambda path: _digest(repr(load_tsv_file(path))),
        "sweeps": lambda path: _digest(repr(load_sweep_file(path))),
    }
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "file")
        path.touch()

        def record(name: str, data: bytes, read) -> None:
            # One file, renamed to each name: on a 2-core ext4 host a create
            # took ~0.35 ms and a rename ~0.02 ms.
            nonlocal path
            path = path.rename(Path(tmp, name))
            path.write_bytes(data)
            try:
                outcome, text = "read", read(path)
            except JJShadowError as exc:
                outcome, text = "error", str(exc).replace(f"{tmp}/", "")
            except Exception as exc:            # a traceback in the CLI
                outcome, text = "crash", f"{type(exc).__name__}: {exc}"
            out.append(f"{name}  {outcome}  {text!r}")

        for kind, (header, pool) in _pools().items():
            rng = random.Random(f"{seed}-{kind}")
            for k in range(count):
                name = f"{kind}-{k:05d}.csv"
                size = (rng.randint(1, ROWS_PER_FILE) if len(pool) > ROWS_PER_FILE
                        else len(pool))         # every row of a sub-array file
                rows = [line.split(",") for line in rng.sample(pool, size)]
                text = "\n".join([header, *_damage(rng, rows)]) + "\n"
                record(name, text.encode(), readers[kind])
        rng = random.Random(f"{seed}-pgm")
        for k in range(count):
            scale = rng.choice([None, 3.0])
            name = f"pgm-{k:05d}{'' if scale is None else '-scaled'}.pgm"
            record(name, _pgm(rng), lambda path: _image(read_pgm(path, scale_nm_per_px=scale)))
    return out
