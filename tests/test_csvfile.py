"""The CSV reader and writer: line breaks in cells, line numbers, and
write∘read identity against the csv module on sampled tables."""

import csv
import io
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jjshadow.csvfile import _parse_column, _read_rows
from jjshadow.errors import DataError, raise_first_bad
from jjshadow.geometry import VARIANTS, JunctionDesign, Variant, WaferPoint
from jjshadow.io import (
    LAYOUT_HEADER,
    MEASUREMENT_HEADER,
    TRUTH_HEADER,
    read_layout_csv,
    read_measurements_csv,
    read_truth_csv,
    write_extraction_csv,
    write_layout_csv,
    write_manifest_csv,
    write_measurements_csv,
    write_truth_csv,
)
from jjshadow.layout import STRUCTURE_COLUMNS, StructureTable, WaferLayout
from jjshadow.layout import TestStructureSpec as Spec      # not a test class
from jjshadow.synth import DEFECT_CLASSES, MeasurementRecord, MeasurementTable

# Every character str.splitlines breaks a line on, and its two-character break.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


def records(ids):
    return [MeasurementRecord(sid, (k, -k), WaferPoint(0.5 * k, -1.0),
                              JunctionDesign(Variant.MANHATTAN, 200.0, 150.0 + k), 0.03,
                              2, 100.0 + k, frozenset({"short"} if k % 2 else set()))
            for k, sid in enumerate(ids)]


def layout(recs):
    return WaferLayout([
        Spec(r.structure_id, r.die_index, 0, (0, 0), r.position, r.design,
             r.a_overlap_designed_um2, "uniform", junction_count=r.junction_count)
        for r in recs])


WRITERS = {
    "measurements": write_measurements_csv,
    "layout": lambda recs, path: write_layout_csv(layout(recs), path),
    "truth": write_truth_csv,
    "manifest": lambda recs, path: write_manifest_csv(
        [(r.structure_id, r.position.x_mm, r.position.y_mm, 40, 62) for r in recs], path),
    "extraction": lambda recs, path: write_extraction_csv(
        [{"structure_id": r.structure_id, "d_mm": 1.0, "w_top_nm": 2.0,
          "w_bottom_nm": 3.0, "a_overlap_um2": 0.5} for r in recs], path),
}
READERS = {"measurements": read_measurements_csv,
           "layout": read_layout_csv, "truth": read_truth_csv}


class TestLineBreaks:
    @pytest.mark.parametrize("kind", list(WRITERS))
    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[repr(b) for b in LINE_BREAKS])
    def test_id_with_a_line_break_rejected_before_writing(self, tmp_path, kind, brk):
        sid = f"x{brk}y"
        path = tmp_path / f"{kind}.csv"
        with pytest.raises(DataError, match=f"^structure id {re.escape(repr(sid))} "
                                            "holds a line break$"):
            WRITERS[kind](records(["a", "b", sid, "c"]), path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", list(READERS))
    def test_quoted_cell_spanning_lines_rejected_at_its_first_line(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        WRITERS[kind](records([f"s{k}" for k in range(12)]), path)
        lines = path.read_text().splitlines()
        lines[3] = '"a' + "\n" + 'b"' + lines[3][lines[3].index(","):]
        lines[9] += ",extra"                # a later bad row is not named first
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: "
                                            "a quoted cell spans more than one line$"):
            READERS[kind](path)
        lines[2] += ",extra"                # but an earlier bad row is
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: expected"):
            READERS[kind](path)

    @pytest.mark.parametrize("kind", list(READERS))
    def test_line_numbers_after_a_quoted_row(self, tmp_path, kind):
        path = tmp_path / f"{kind}.csv"
        WRITERS[kind](records(["a,1", 'b"2', "c", "d", "e", "f"]), path)
        lines = path.read_text().splitlines()
        lines[5] += ",extra"
        path.write_text("\n".join(lines) + "\n")
        width = len(lines[0].split(","))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:6: expected {width} "
                                            f"columns, got {width + 1}$"):
            READERS[kind](path)

    @pytest.mark.parametrize("kind", list(READERS))
    def test_quoted_cell_past_the_field_size_limit_rejected_at_its_line(self, tmp_path, kind):
        # The writers refuse such a cell, so the file is written by hand.
        path = tmp_path / f"{kind}.csv"
        WRITERS[kind](records(["a", "b", "c"]), path)
        lines = path.read_text().splitlines()
        long_id = "x" * (csv.field_size_limit() + 1) + ","
        lines[2] = '"' + long_id + '"' + lines[2][lines[2].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: field larger than"):
            READERS[kind](path)

    @pytest.mark.parametrize("kind", list(WRITERS))
    @pytest.mark.parametrize("long_id", [False, True], ids=["long-flag-or-later-id", "long-id"])
    def test_cell_past_the_field_size_limit_rejected_before_writing(self, tmp_path, kind,
                                                                    long_id):
        # A file holding a quote is read by csv.reader, which refuses a cell
        # longer than csv.field_size_limit(); the writer refuses it first.
        limit = csv.field_size_limit()
        recs = records(["a", "b,", "c" * (limit + 1) if not long_id else "x" * limit + ","])
        if long_id:
            want = (f"structure id {'x' * 20!r}... ({limit + 1} characters) is longer than "
                    f"csv.field_size_limit(), {limit} characters")
        elif kind == "truth":
            recs[1] = replace(recs[1], truth_flags=frozenset({"f" * (limit + 1)}))
            want = (f"cell {'f' * 20!r}... ({limit + 1} characters) of structure id 'b,' "
                    f"is longer than csv.field_size_limit(), {limit} characters")
        else:
            want = (f"structure id {'c' * 20!r}... ({limit + 1} characters) is longer than "
                    f"csv.field_size_limit(), {limit} characters")
        path = tmp_path / f"{kind}.csv"
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            WRITERS[kind](recs, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", list(READERS))
    def test_cells_up_to_the_field_size_limit_round_trip(self, tmp_path, kind):
        # At the limit with a quote, and past it in a quote-free file.
        limit = csv.field_size_limit()
        for ids in (["a", "x" * (limit - 1) + ",", "c"], ["a", "x" * (limit + 1), "c"]):
            path = tmp_path / f"{kind}.csv"
            WRITERS[kind](records(ids), path)
            read = READERS[kind](path)
            got = (list(read) if kind == "truth" else
                   read.structures.structure_id.tolist() if kind == "layout" else
                   read.structure_id.tolist())
            assert got == ids

    def test_truth_flag_with_a_line_break_rejected(self, tmp_path):
        recs = records(["a", "b"])
        recs[1] = replace(recs[1], truth_flags=frozenset({"x\ny"}))
        path = tmp_path / "truth.csv"
        with pytest.raises(DataError, match=re.escape(
                "cell 'x\\ny' of structure id 'b' holds a line break")):
            write_truth_csv(recs, path)
        assert not path.exists()


# Write∘read over sampled tables: ids with commas, quotes, spaces, NUL and
# non-ASCII text (or none of them, so that the quote-free path runs too),
# and float columns at the edges, mostly repeated or all distinct.
ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                blacklist_characters="".join(LINE_BREAKS)), max_size=6)
# Per table, ids from one of these alphabets: quote-free, with commas only,
# with quotes only, or with both.
ID_ALPHABETS = ["ab01_ -.\x00éΩ", "ab ,é", 'ab "é', 'a,"é ']
EDGE_FLOATS = [5e-324, -5e-324, -0.0, 0.0, 1e300, -1e300, 0.1, -49.999999999999]
EDGE_WIDTHS = [0.0, -0.0, 5e-324, 2000.0, 1999.9999999999998, 200.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_columns(draw, n, edges, values):
    """A column of n floats: all drawn afresh, or mostly repeated from a few."""
    value = st.one_of(st.sampled_from(edges), values)
    if draw(st.booleans()):
        return draw(st.lists(value, min_size=n, max_size=n))
    pool = draw(st.lists(value, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def tables(draw):
    """The columns of a measurement table, with an excluded flag per row."""
    alphabet = st.sampled_from(draw(st.sampled_from(ID_ALPHABETS)))
    ids = draw(st.lists(st.one_of(ID_TEXT, st.text(alphabet, max_size=4)), unique=True,
                        max_size=12))
    n = len(ids)
    ints = st.one_of(st.sampled_from([0, -1, 7]), st.integers(-2**63, 2**63 - 1))
    positions = float_columns(n, EDGE_FLOATS, FINITE)
    widths = float_columns(n, EDGE_WIDTHS, st.floats(0.0, 2000.0))
    conductance = float_columns(n, EDGE_FLOATS[:5], st.floats(0.0, 1e300))
    return {
        "structure_id": ids,
        "die_x": draw(st.lists(ints, min_size=n, max_size=n)),
        "die_y": draw(st.lists(ints, min_size=n, max_size=n)),
        "x_mm": draw(positions), "y_mm": draw(positions),
        "variant": draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)),
        "w_bottom_nm": draw(widths), "w_top_nm": draw(widths),
        "a_overlap_designed_um2": draw(positions),
        "junction_count": draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n)),
        "g_uS": [abs(g) for g in draw(conductance)],
        "truth_flags": draw(st.lists(st.frozensets(st.sampled_from(DEFECT_CLASSES)),
                                     min_size=n, max_size=n)),
        "excluded": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }


def csv_module_text(header, rows):
    out = io.StringIO()
    out.write(header + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_module_rows(text):
    """What csv.reader makes of the rows after the header line."""
    return [(n, row) for n, row in enumerate(csv.reader(text.splitlines()[1:]), start=2)
            if row]


def csv_module_read(path, header):
    """What _read_rows gives for path, from what csv.reader makes of it: the
    cells of each of the header's columns in the rows before the first row
    of another width, those rows' line numbers, and that row's error."""
    width = len(header.split(","))
    want = csv_module_rows(path.read_text())
    end = next((k for k, (_, row) in enumerate(want) if len(row) != width), len(want))
    error = None
    if end < len(want):
        error = f"{path}:{want[end][0]}: expected {width} columns, got {len(want[end][1])}"
    cells = [row for _, row in want[:end]]
    columns = [list(col) for col in zip(*cells)] if cells else [[]] * width
    return columns, [lineno for lineno, _ in want[:end]], error


def read_rows(path, header):
    """_read_rows of path, with its line numbers as a list."""
    columns, lines, error = _read_rows(path, header, "")
    return columns, list(lines), error


def assert_same_columns(table, columns, names):
    for name in names:
        got = getattr(table, name)
        want = np.array(columns[name], dtype=got.dtype)
        if got.dtype == np.float64:         # bit for bit: -0.0 is not 0.0
            got, want = got.view(np.int64), want.view(np.int64)
        assert got.tolist() == want.tolist(), name


PROPERTY = settings(max_examples=60, deadline=None)


class TestWriteReadProperty:
    @PROPERTY
    @given(tables())
    def test_measurements(self, columns):
        table = MeasurementTable({k: v for k, v in columns.items() if k != "excluded"})
        names = [VARIANTS[c].value for c in columns["variant"]]
        rows = zip(*[columns[k] if k != "variant" else names for k in STRUCTURE_COLUMNS],
                   ["false"] * len(table), columns["g_uS"])
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "m.csv"
            write_measurements_csv(table, path)
            text = path.read_text()
            assert text == csv_module_text(MEASUREMENT_HEADER, rows)
            assert_same_columns(read_measurements_csv(path), columns, [*STRUCTURE_COLUMNS,
                                                                       "g_uS"])
            assert read_rows(path, MEASUREMENT_HEADER) == csv_module_read(path, MEASUREMENT_HEADER)

    @PROPERTY
    @given(tables())
    def test_layout(self, columns):
        n = len(columns["structure_id"])
        structures = StructureTable({
            **{k: columns[k] for k in (*STRUCTURE_COLUMNS, "excluded")},
            "subarray_index": [0] * n, "cell_row": [0] * n, "cell_col": [0] * n,
            "group": ["uniform"] * n, "exclusion_reason": [""] * n})
        names = [VARIANTS[c].value for c in columns["variant"]]
        rows = zip(*[columns[k] if k != "variant" else names for k in STRUCTURE_COLUMNS],
                   [("false", "true")[e] for e in columns["excluded"]])
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "l.csv"
            write_layout_csv(WaferLayout(structures), path)
            text = path.read_text()
            assert text == csv_module_text(LAYOUT_HEADER, rows)
            assert_same_columns(read_layout_csv(path).structures, columns,
                                [*STRUCTURE_COLUMNS, "excluded"])
            assert read_rows(path, LAYOUT_HEADER) == csv_module_read(path, LAYOUT_HEADER)

    @PROPERTY
    @given(tables())
    def test_truth(self, columns):
        table = MeasurementTable({k: v for k, v in columns.items() if k != "excluded"})
        flags = [";".join(sorted(f)) for f in columns["truth_flags"]]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.csv"
            write_truth_csv(table, path)
            text = path.read_text()
            assert text == csv_module_text(TRUTH_HEADER, zip(columns["structure_id"], flags))
            assert read_truth_csv(path) == dict(zip(columns["structure_id"],
                                                    columns["truth_flags"]))
            assert read_rows(path, TRUTH_HEADER) == csv_module_read(path, TRUTH_HEADER)

    @PROPERTY
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters='"'), max_size=12),
                    max_size=8),
           st.integers(1, 4).map(lambda width: ",".join(["h"] * width)))
    def test_quote_free_text_reads_as_the_csv_module_reads_it(self, lines, header):
        text = "\n".join([header, *lines])
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "q.csv"
            path.write_text(text, newline="")
            assert read_rows(path, header) == csv_module_read(path, header)


def test_truth_flags_parsed_once_per_distinct_cell(tmp_path):
    # Rows with the same flags cell share one parsed frozenset.
    path = tmp_path / "truth.csv"
    write_truth_csv(records([f"s{k}" for k in range(6)]), path)
    truth = read_truth_csv(path)
    assert truth == {f"s{k}": frozenset({"short"} if k % 2 else set()) for k in range(6)}
    assert len({id(flags) for flags in truth.values()}) == 2


# Columns of 20 float cells: all distinct, so each cell is parsed, and
# repeating, so each distinct cell is.
ALL_DISTINCT = [repr(k + 0.5) for k in range(20)]
REPEATING = ["1.5", "-0.0", "2e-3"] * 6 + ["1.5", "7"]


@pytest.mark.parametrize("cells, calls", [
    (ALL_DISTINCT, 20), (ALL_DISTINCT[:11] + ALL_DISTINCT[:9], 20),
    (ALL_DISTINCT[:10] * 2, 10), (REPEATING, 4)])
def test_parse_column_parses_distinct_cells_once_only_where_cells_repeat(cells, calls):
    parsed = []

    def parse(cell):
        parsed.append(cell)
        return float(cell)

    column, (bad, _) = _parse_column(cells, parse, float)
    assert len(parsed) == calls
    assert column.view(np.int64).tolist() == np.array(
        list(map(float, cells))).view(np.int64).tolist()
    assert not bad.any()


@pytest.mark.parametrize("cells", [ALL_DISTINCT, REPEATING])
@pytest.mark.parametrize("at", [0, 13, 19])
def test_parse_column_with_a_bad_cell_gives_the_cell_by_cell_result(cells, at):
    cells = cells[:at] + ["1.5x"] + cells[at + 1:]
    want = []
    for cell in cells:
        try:
            want.append(float(cell))
        except ValueError:
            want.append(0.0)
    with pytest.raises(ValueError) as by_cell:
        float(cells[at])
    column, check = _parse_column(cells, float, float)
    assert column.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    assert np.flatnonzero(check[0]).tolist() == [at]
    with pytest.raises(DataError) as exc:
        raise_first_bad([check], lambda i: f"row {i}: ")
    assert str(exc.value) == f"row {at}: {by_cell.value}"
