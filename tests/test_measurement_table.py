"""MeasurementTable: lazy records, conversion, and CSV identity at the edges."""

import math
import re

import pytest

from jjshadow.errors import DataError, GeometryError
from jjshadow.geometry import JunctionDesign, Variant, WaferPoint
from jjshadow.io import (
    read_layout_csv,
    read_manifest_csv,
    read_measurements_csv,
    read_truth_csv,
    write_extraction_csv,
    write_layout_csv,
    write_manifest_csv,
    write_measurements_csv,
    write_truth_csv,
)
from jjshadow import layout as jlayout
from jjshadow.layout import WaferLayout, build_planar_17q
from jjshadow.synth import (
    COLUMNS,
    MeasurementRecord,
    MeasurementTable,
    ParasiticsModel,
    ProcessModel,
    synthesize_wafer,
)

PROCESS = ProcessModel(lognormal_sigma=0.03, p_open=0.05, p_short=0.02, seed=4)


@pytest.fixture(scope="module")
def planar():
    return build_planar_17q()


@pytest.fixture(scope="module")
def table(planar, geom_module):
    return synthesize_wafer(planar, geom_module, PROCESS, ParasiticsModel())


@pytest.fixture(scope="module")
def geom_module():
    from jjshadow.geometry import EvaporatorGeometry

    return EvaporatorGeometry()


@pytest.fixture(scope="module")
def eager(planar, table):
    """The table's records, built one by one from the layout."""
    return [MeasurementRecord(s.structure_id, s.die_index, s.position, s.design,
                              s.a_overlap_designed_um2, s.junction_count, g, flags)
            for s, g, flags in zip(planar.viable(), table.g_uS.tolist(),
                                   table.truth_flags.tolist())]


def same_record(a: MeasurementRecord, b: MeasurementRecord) -> bool:
    """Equal field by field, down to the Python type of every number."""
    def parts(r):
        return (r.structure_id, *r.die_index, r.position.x_mm, r.position.y_mm,
                r.design.variant, r.design.w_bottom_nm, r.design.w_top_nm,
                r.a_overlap_designed_um2, r.junction_count, r.g_uS, r.truth_flags)
    return all(type(p) is type(q) and (p == q if not isinstance(p, float)
                                       else repr(p) == repr(q))
               for p, q in zip(parts(a), parts(b), strict=True))


class TestLazyRecords:
    def test_iteration_matches_eager_records(self, table, eager):
        assert len(table) == len(eager) == 4352
        assert all(same_record(a, b) for a, b in zip(table, eager, strict=True))

    @pytest.mark.parametrize("i", [0, 1, 1234, 4351, -1, -2, -4352])
    def test_index(self, table, eager, i):
        assert same_record(table[i], eager[i])

    @pytest.mark.parametrize("i", [4352, -4353])
    def test_index_out_of_range(self, table, i):
        with pytest.raises(IndexError):
            table[i]

    @pytest.mark.parametrize("s", [slice(3, 40, 7), slice(None, None, -1),
                                   slice(-5, None), slice(10, 2)])
    def test_slice_is_a_table(self, table, eager, s):
        part = table[s]
        assert isinstance(part, MeasurementTable)
        assert len(part) == len(eager[s])
        assert all(same_record(a, b) for a, b in zip(part, eager[s], strict=True))

    def test_columns_are_read_only(self, table):
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(table, name)[0] = getattr(table, name)[1]


class TestFromRecords:
    def test_round_trip_is_identity(self, table, eager):
        again = MeasurementTable.from_records(eager)
        assert again == table
        assert all(same_record(a, b) for a, b in zip(again, eager, strict=True))

    def test_table_passes_through(self, table):
        assert MeasurementTable.from_records(table) is table

    def test_empty(self):
        empty = MeasurementTable.from_records([])
        assert len(empty) == 0 and list(empty) == [] and len(empty[:]) == 0

    def test_equality_sees_every_column(self, table):
        assert table != table.with_conductance(table.g_uS + 1.0)
        assert table != table[:-1]
        assert table == table.with_conductance(table.g_uS)

    @pytest.mark.parametrize("count", [0, 3, -3])
    def test_undefined_junction_count_rejected(self, eager, count):
        from dataclasses import replace

        bad = replace(eager[5], junction_count=count)
        with pytest.raises(DataError, match=re.escape(
                f"junction_count must be 1 or 2, got {count} on {bad.structure_id}")):
            MeasurementTable.from_records(eager[:5] + [bad])

    def test_bad_conductance_rejected(self, table):
        g = table.g_uS.copy()
        g[7] = -1.0
        with pytest.raises(DataError, match="negative conductance on"):
            table.with_conductance(g)

    @pytest.mark.parametrize("column, value, error, message", [
        ("x_mm", math.nan, GeometryError, "wafer coordinates must be finite, got (nan, {y})"),
        ("y_mm", -math.inf, GeometryError, "wafer coordinates must be finite, got ({x}, -inf)"),
        ("w_bottom_nm", -5.0, GeometryError, "designed widths must be >= 0"),
        ("w_top_nm", math.nan, GeometryError, "designed widths must be finite"),
        ("w_top_nm", math.inf, GeometryError, "designed widths must be finite"),
        ("a_overlap_designed_um2", math.nan, DataError, "non-finite designed area on {sid}"),
        ("variant", 2, DataError, "undefined variant code 2 on {sid}"),
        ("variant", -1, DataError, "undefined variant code -1 on {sid}"),
    ])
    def test_bad_column_value_rejected(self, table, column, value, error, message):
        # Each column is checked as a record checks it; the first bad row is named.
        columns = {name: getattr(table, name).copy() for name in COLUMNS}
        columns[column][[7, 9]] = value
        want = message.format(x=table.x_mm[7], y=table.y_mm[7], sid=table.structure_id[7])
        with pytest.raises(error, match=f"^{re.escape(want)}$"):
            MeasurementTable(columns)

    @pytest.mark.parametrize("kind", ["structures", "measurements"])
    def test_lowest_bad_row_raises(self, planar, table, kind):
        # Rows 1, 2 and 9 hold different defects; row 1's is the last check
        # in order, and it still raises.
        source = planar.structures if kind == "structures" else table
        columns = {name: getattr(source, name).copy() for name in source.COLUMNS}
        sid = source.structure_id[1]
        if kind == "structures":
            columns["junction_count"][1] = 3
            want = f"junction_count must be 1 or 2, got 3 on {sid}"
        else:
            columns["g_uS"][1] = -1.0
            want = f"negative conductance on {sid}"
        columns["x_mm"][2] = math.nan
        columns["w_bottom_nm"][9] = -5.0
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            type(source)(columns)


# Extreme but valid values: subnormal and huge floats, negative zero, and
# widths at the 2000 nm design limit.
EDGE_ROWS = [
    ("e0", (0, 0), (-0.0, 5e-324), Variant.MANHATTAN, 2000.0, 2000.0, 1e300, 2, 5e-324),
    ("e1", (-3, 7), (1e300, -0.0), Variant.DOLAN, 0.0, 2000.0, 5e-324, 1, 1e300),
    ("e,2", (1, -1), (-49.999999999999, 0.1), Variant.MANHATTAN, 1e-300, 1999.9999999999998,
     0.0, 2, 0.0),
    ('q"3', (2, 2), (-5e-324, -1e-300), Variant.DOLAN, 2000.0, 0.0, -0.0, 1, 123.456),
]


class TestChecksRunOnce:
    """A read checks each column once, where it enters; synthesis checks only
    its readings, as its structure columns come from a checked table."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from jjshadow import synth as jsynth

        original, calls = jlayout.structure_checks, []

        def counting(columns):
            calls.append(len(columns["structure_id"]))
            return original(columns)

        monkeypatch.setattr(jlayout, "structure_checks", counting)
        monkeypatch.setattr(jsynth, "structure_checks", counting)
        monkeypatch.setattr(jlayout.StructureTable, "checks", staticmethod(counting))
        return calls

    def test_layout_read(self, tmp_path, planar, calls):
        path = tmp_path / "layout.csv"
        write_layout_csv(planar, path)
        calls.clear()
        read_layout_csv(path)
        assert calls == [4352]

    def test_measurements_read(self, tmp_path, table, calls):
        path = tmp_path / "measurements.csv"
        write_measurements_csv(table, path)
        calls.clear()
        read_measurements_csv(path)
        assert calls == [4352]

    def test_synthesis(self, planar, geom_module, calls):
        synthesize_wafer(planar, geom_module, PROCESS, ParasiticsModel())
        assert calls == []


def edge_records():
    flags = [frozenset(), frozenset({"short"}), frozenset({"open_half"}),
             frozenset({"open_full"})]
    return [MeasurementRecord(sid, die, WaferPoint(*pos), JunctionDesign(v, wb, wt), area,
                              count, g, f)
            for (sid, die, pos, v, wb, wt, area, count, g), f in zip(EDGE_ROWS, flags)]


def as_text(rows):
    """Layout or measurement rows with every float as its repr (-0.0 shows)."""
    return [(r.structure_id, r.die_index, repr(r.position.x_mm), repr(r.position.y_mm),
             r.design.variant, repr(r.design.w_bottom_nm), repr(r.design.w_top_nm),
             repr(r.a_overlap_designed_um2), r.junction_count, repr(getattr(r, "g_uS", None)))
            for r in rows]


class TestCsvIdentityAtTheEdges:
    def test_measurements(self, tmp_path):
        records = edge_records()
        write_measurements_csv(records, tmp_path / "m.csv")
        assert as_text(read_measurements_csv(tmp_path / "m.csv")) == as_text(records)

    def test_layout(self, tmp_path):
        specs = tuple(
            jlayout.TestStructureSpec(
                r.structure_id, r.die_index, 0, (0, 0), r.position, r.design,
                r.a_overlap_designed_um2, "uniform", excluded=k % 2 == 1,
                junction_count=r.junction_count)
            for k, r in enumerate(edge_records()))
        write_layout_csv(WaferLayout(specs), tmp_path / "l.csv")
        back = read_layout_csv(tmp_path / "l.csv").structures
        assert as_text(back) == as_text(specs)
        assert [s.excluded for s in back] == [s.excluded for s in specs]

    def test_truth(self, tmp_path):
        records = edge_records()
        write_truth_csv(records, tmp_path / "t.csv")
        assert read_truth_csv(tmp_path / "t.csv") == {r.structure_id: r.truth_flags
                                                      for r in records}

    def test_manifest_and_extraction(self, tmp_path):
        import csv

        records = edge_records()
        write_manifest_csv([(r.structure_id, r.position.x_mm, r.position.y_mm, 40, 62)
                            for r in records], tmp_path / "m.csv")
        back = read_manifest_csv(tmp_path / "m.csv")
        assert [(sid, repr(p.x_mm), repr(p.y_mm)) for sid, p in back.items()] == [
            (r.structure_id, repr(r.position.x_mm), repr(r.position.y_mm)) for r in records]
        write_extraction_csv([{"structure_id": r.structure_id, "d_mm": r.g_uS,
                               "w_top_nm": 1.0, "w_bottom_nm": 2.0, "a_overlap_um2": 0.5}
                              for r in records], tmp_path / "e.csv")
        rows = list(csv.reader(tmp_path.joinpath("e.csv").read_text().splitlines()[1:]))
        assert [(row[0], row[1]) for row in rows] == [(r.structure_id, repr(r.g_uS))
                                                      for r in records]

    def test_quoting_matches_csv_module(self, tmp_path):
        import csv
        import io

        records = edge_records()
        write_measurements_csv(records, tmp_path / "m.csv")
        body = tmp_path.joinpath("m.csv").read_text().splitlines()[1:]
        parsed = list(csv.reader(body))
        assert [row[0] for row in parsed] == [r.structure_id for r in records]
        expect = io.StringIO()
        csv.writer(expect, lineterminator="\n").writerows(parsed)
        assert "\n".join(body) + "\n" == expect.getvalue()


class TestReaderLocations:
    """Each bad cell is reported for the first bad row, with the message a
    row-by-row reader gives, whatever else is wrong further down."""

    CASES = [
        ("layout", 6, "-5.0", "designed widths must be >= 0"),
        ("layout", 7, "nan", "designed widths must be finite"),
        ("measurements", 11, "nan", "non-finite conductance on Nr00c02"),
        ("layout", 3, "nan", "wafer coordinates must be finite, got (nan, -34.0)"),
        ("measurements", 4, "inf", "wafer coordinates must be finite, got (-30.0, inf)"),
        ("measurements", 8, "nan", "a_overlap_um2 must be finite, got 'nan'"),
        ("layout", 1, "x", "invalid literal for int() with base 10: 'x'"),
        ("measurements", 5, "bridge", "'bridge' is not a valid Variant"),
        ("measurements", 10, "no", "expected true/false, got 'no'"),
        ("layout", 9, "3", "junction_count must be 1 or 2, got 3 on Nr00c02"),
        ("measurements", 9, "0", "junction_count must be 1 or 2, got 0 on Nr00c02"),
        ("measurements", 11, "-1.5", "negative conductance on Nr00c02"),
        ("measurements", 7, "-5.0", "designed widths must be >= 0"),
        ("measurements", 2, "1e3", "invalid literal for int() with base 10: '1e3'"),
        ("measurements", 1, "9" * 20, f"'{'9' * 20}' is outside the 64-bit integer range"),
        ("layout", 9, "-" + "9" * 20, f"'-{'9' * 20}' is outside the 64-bit integer range"),
        ("layout", 4, "inf", "wafer coordinates must be finite, got (-30.0, inf)"),
        ("layout", 7, "-0.5", "designed widths must be >= 0"),
        ("layout", 8, "nan", "a_overlap_um2 must be finite, got 'nan'"),
        ("layout", 5, "bridge", "'bridge' is not a valid Variant"),
        ("layout", 10, "no", "expected true/false, got 'no'"),
        ("layout", 2, "9" * 20, f"'{'9' * 20}' is outside the 64-bit integer range"),
        # Two bad cells in a row: the check a row-by-row read makes first.
        ("layout", (3, 4), ("nan", "abc"), "could not convert string to float: 'abc'"),
        ("measurements", (10, 3), ("no", "junk"), "expected true/false, got 'no'"),
        ("layout", (3, 10), ("junk", "no"), "could not convert string to float: 'junk'"),
        ("layout", (6, 9), ("-5", "3"), "designed widths must be >= 0"),
    ]

    @pytest.mark.parametrize("kind, column, value, message", CASES)
    def test_first_bad_row_named(self, geom_module, tmp_path, kind, column, value, message):
        from jjshadow.layout import build_35x35
        from jjshadow.synth import NO_PARASITICS

        layout = build_35x35("nbtin")
        path = tmp_path / f"{kind}.csv"
        if kind == "layout":
            write_layout_csv(layout, path)
        else:
            write_measurements_csv(
                synthesize_wafer(layout, geom_module, ProcessModel(), NO_PARASITICS), path)
        lines = path.read_text().splitlines()
        for k in (3, 9):                    # the second bad row must not be named
            row = lines[k].split(",")
            for c, v in zip(column, value) if isinstance(column, tuple) else [(column, value)]:
                row[c] = v
            lines[k] = ",".join(row)
        reader = read_layout_csv if kind == "layout" else read_measurements_csv
        for wide in (False, True):
            if wide:                        # nor a later row of the wrong width
                lines[20] = lines[20] + ",extra"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match=f"^{re.escape(f'{path}:4: {message}')}$"):
                reader(path)

    @pytest.mark.parametrize("later, message", [
        (None, "10: repeated structure id 'dup'"),
        ("-5.0", "21: designed widths must be >= 0"),      # a later bad row is named first
        ("-5.0,extra", "21: expected 11 columns, got 12"),
    ])
    def test_duplicate_id_checked_after_every_row(self, tmp_path, later, message):
        from jjshadow.layout import build_35x35

        path = tmp_path / "layout.csv"
        write_layout_csv(build_35x35("nbtin"), path)
        lines = path.read_text().splitlines()
        for k in (3, 9):
            lines[k] = "dup" + lines[k][lines[k].index(","):]
        if later is not None:
            row = lines[20].split(",")
            row[6] = later
            lines[20] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{message}')}$"):
            read_layout_csv(path)

    def test_blank_and_short_rows(self, tmp_path):
        from jjshadow.layout import build_35x35

        path = tmp_path / "layout.csv"
        write_layout_csv(build_35x35("al"), path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[6] = "-5.0"
        lines[3] = ",".join(row)
        lines.insert(2, "")                 # skipped, but counted in line numbers
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:5: designed widths must be >= 0")):
            read_layout_csv(path)
        lines.insert(2, "a,b")              # an earlier short row is named instead
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:3: expected 11 columns, got 2")):
            read_layout_csv(path)

    def test_excluded_rows_are_not_read(self, geom_module, tmp_path):
        from jjshadow.layout import build_35x35

        path = tmp_path / "m.csv"
        written = synthesize_wafer(build_35x35("al"), geom_module, ProcessModel(),
                                   ParasiticsModel())
        write_measurements_csv(written, path)
        lines = path.read_text().splitlines()
        row = lines[6].split(",")
        row[3], row[10], row[11] = "junk", "true", "nan"
        lines[6] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        back = read_measurements_csv(path)
        assert len(back) == len(written) - 1
        assert row[0] not in set(back.structure_id.tolist())
