"""Layout builders: reference structure counts, uniqueness, determinism."""

import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from jjshadow.compensation import compensated_layout
from jjshadow.errors import DataError, JJShadowError
from jjshadow.geometry import EvaporatorGeometry, Fidelity, Variant, WaferPoint
from jjshadow.layout import (
    LAYOUT_COLUMNS,
    PLANAR_SWEEPS,
    STRUCTURE_HALF_MM,
    TSV_SWEEP,
    StructureTable,
    SubarraySite,
    build_35x35,
    build_planar_17q,
    build_tsv_17q,
    load_subarray_sites,
    load_sweep_file,
    load_tsv_file,
)


def via_overlaps(pos, via, diameter_um):
    """Scalar oracle: clamp the via centre to the square footprint."""
    r_mm = diameter_um / 2000.0
    nx = min(max(via.x_mm, pos.x_mm - STRUCTURE_HALF_MM), pos.x_mm + STRUCTURE_HALF_MM)
    ny = min(max(via.y_mm, pos.y_mm - STRUCTURE_HALF_MM), pos.y_mm + STRUCTURE_HALF_MM)
    return math.hypot(via.x_mm - nx, via.y_mm - ny) <= r_mm


def oracle_excluded(layout, vias):
    return [any(via_overlaps(s.position, v, d) for v, d in vias)
            for s in layout.structures]


@pytest.fixture(scope="module")
def planar():
    return build_planar_17q()


@pytest.fixture(scope="module")
def tsv_manhattan():
    return build_tsv_17q(Variant.MANHATTAN)


class TestPlanar17Q:
    def test_counts_per_variant(self, planar):
        counts = Counter(s.design.variant for s in planar.structures)
        assert counts[Variant.DOLAN] == 2176
        assert counts[Variant.MANHATTAN] == 2176

    def test_counts_per_die(self, planar):
        per_die = Counter((s.design.variant, s.die_index) for s in planar.structures)
        assert set(per_die.values()) == {272}          # 17 sub-arrays x 16 cells
        assert len(per_die) == 16

    def test_dolan_width_ratio(self, planar):
        for s in planar.structures:
            if s.design.variant is Variant.DOLAN:
                assert s.design.w_bottom_nm == pytest.approx(3 * s.design.w_top_nm)

    def test_manhattan_fixed_top(self, planar):
        tops = {s.design.w_top_nm for s in planar.structures
                if s.design.variant is Variant.MANHATTAN}
        assert tops == {160.0}

    def test_unique_ids_and_cells(self, planar):
        ids = [s.structure_id for s in planar.structures]
        assert len(set(ids)) == len(ids)
        keys = [(s.design.variant, s.die_index, s.subarray_index, s.cell_index)
                for s in planar.structures]
        assert len(set(keys)) == len(keys)

    def test_positions_on_round_wafer(self, planar):
        assert all(s.position.radius_mm() <= 50.0 for s in planar.structures)

    def test_area_consistent_with_design(self, planar):
        for s in planar.structures[::97]:
            if s.design.variant is Variant.MANHATTAN:
                expect = s.design.w_bottom_nm * s.design.w_top_nm / 1e6
            else:
                expect = s.design.w_top_nm * 200.0 / 1e6
            assert s.a_overlap_designed_um2 == pytest.approx(expect)

    def test_subarray_sweep_strictly_monotone(self, planar):
        by_subarray = {}
        for s in planar.structures:
            key = (s.design.variant, s.die_index, s.subarray_index)
            by_subarray.setdefault(key, []).append(
                (s.cell_index, s.a_overlap_designed_um2))
        for cells in by_subarray.values():
            areas = [a for _, a in sorted(cells)]
            assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_rebuild_is_identical(self, planar):
        assert build_planar_17q() == planar

    def test_missing_sweep_group_rejected(self):
        with pytest.raises(DataError):
            build_planar_17q(sweeps={"l": PLANAR_SWEEPS["l"]})

    def test_malformed_sweep_rejected(self):
        bad = dict(PLANAR_SWEEPS)
        bad["m"] = bad["m"][:10]                      # wrong length
        with pytest.raises(DataError):
            build_planar_17q(sweeps=bad)
        bad["m"] = tuple(reversed(PLANAR_SWEEPS["m"]))  # not increasing
        with pytest.raises(DataError):
            build_planar_17q(sweeps=bad)

    @pytest.mark.parametrize("group, sweep, message", [
        ("h", PLANAR_SWEEPS["h"][:10], "sweep for group 'h' has 10 values, need 16"),
        ("l", tuple(reversed(PLANAR_SWEEPS["l"])),
         "sweep for group 'l' is not strictly increasing"),
        ("l", PLANAR_SWEEPS["l"][:8] * 2, "sweep for group 'l' is not strictly increasing"),
    ])
    def test_malformed_sweep_names_its_group(self, group, sweep, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_planar_17q(sweeps={**PLANAR_SWEEPS, group: sweep})

    def test_first_off_wafer_structure_named(self):
        # Site 6 of the first die straddles the rim: its row 0 stays on the
        # wafer and row 1, column 0 is the first structure off it.
        message = "test structure at (-10.675, 49.074999999999996) mm is off the round wafer"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_planar_17q(sites=moved_site(6, 9.5, 42.8))

    def test_errors_raised_in_build_order(self):
        # An off-wafer site before the first 'h' site is named before the
        # short 'h' sweep; one after it is not.
        short = {**PLANAR_SWEEPS, "h": PLANAR_SWEEPS["h"][:10]}
        with pytest.raises(DataError, match="off the round wafer"):
            build_planar_17q(sweeps=short, sites=moved_site(6, 9.5, 42.8))
        with pytest.raises(DataError, match="^sweep for group 'h' has 10 values, need 16$"):
            build_planar_17q(sweeps=short, sites=moved_site(14, 9.5, 42.8))

    # The 'h' sweep shifted down 600 nm draws negative widths in cells 0-2
    # of every 'h' sub-array; the first is site 13 of the first die.
    @pytest.mark.parametrize("site, dx_mm, dy_mm, message", [
        (6, 9.5, 42.8, "test structure at (-10.675, 49.074999999999996) mm is off the "
                       "round wafer"),                    # site 6 comes before site 13
        (14, 9.5, 42.8, "designed widths must be >= 0"),  # site 14 comes after it
        (13, 0.0, 50.0, "test structure at (-20.175, 55.825) mm is off the round wafer"),
        (13, math.nan, 0.0, "wafer coordinates must be finite, got (nan, 5.825)"),
    ])
    def test_lowest_row_then_first_check_named(self, site, dx_mm, dy_mm, message):
        # The lowest bad cell is named; within a cell, its position and the
        # on-wafer check come before its design.
        negative = {**PLANAR_SWEEPS, "h": tuple(w - 600.0 for w in PLANAR_SWEEPS["h"])}
        with pytest.raises(JJShadowError, match=f"^{re.escape(message)}$"):
            build_planar_17q(sweeps=negative, sites=moved_site(site, dx_mm, dy_mm))


def moved_site(index, dx_mm, dy_mm):
    """The bundled sub-array sites with one site moved to (dx_mm, dy_mm)."""
    sites = list(load_subarray_sites())
    sites[index] = SubarraySite(index, dx_mm, dy_mm, sites[index].group)
    return sites


class TestTsv17Q:
    def test_total_fabricated(self, tsv_manhattan):
        assert len(tsv_manhattan.structures) == 3400   # 8 x 17 x 25

    def test_viable_per_die_is_378(self, tsv_manhattan):
        per_die = Counter(s.die_index for s in tsv_manhattan.viable())
        assert set(per_die.values()) == {378}

    def test_total_viable(self, tsv_manhattan):
        assert len(tsv_manhattan.viable()) == 3024

    def test_empty_via_list_excludes_nothing(self):
        layout = build_tsv_17q(Variant.MANHATTAN, ())
        per_die = Counter(s.die_index for s in layout.viable())
        assert set(per_die.values()) == {425}

    def test_bundled_vias_match_scalar_oracle(self, tsv_manhattan):
        excluded = [s.excluded for s in tsv_manhattan.structures]
        assert excluded == oracle_excluded(tsv_manhattan, load_tsv_file())
        assert sum(excluded) == 376

    def test_tangent_via_counts_as_hit(self):
        cell = build_tsv_17q(Variant.MANHATTAN, ()).structures[1234].position
        edge = cell.x_mm + STRUCTURE_HALF_MM
        via_x = edge + 0.25                       # 500 um diameter: r = 0.25 mm
        assert via_x - edge == 0.25               # exactly tangent in floats
        beyond = math.nextafter(via_x, math.inf)
        for x, hit in ((via_x, True), (beyond, False)):
            vias = [(WaferPoint(x, cell.y_mm), 500.0)]
            layout = build_tsv_17q(Variant.MANHATTAN, vias)
            excluded = [s.excluded for s in layout.structures]
            assert excluded == oracle_excluded(layout, vias)
            assert excluded[1234] is hit

    def test_random_vias_match_scalar_oracle(self):
        rng = np.random.default_rng(3)
        vias = [(WaferPoint(float(x), float(y)), float(d)) for x, y, d in zip(
            rng.uniform(-30.0, 30.0, 300), rng.uniform(0.0, 30.0, 300),
            rng.uniform(20.0, 600.0, 300))]
        layout = build_tsv_17q(Variant.DOLAN, vias)
        excluded = [s.excluded for s in layout.structures]
        assert excluded == oracle_excluded(layout, vias)
        assert 0 < sum(excluded) < len(excluded)

    def test_non_finite_via_rejected(self, tmp_path):
        path = tmp_path / "vias.csv"
        path.write_text("x_mm,y_mm,diameter_um\n1.0,nan,160\n")
        with pytest.raises(DataError, match="malformed via row"):
            load_tsv_file(path)

    @pytest.mark.parametrize("diameter", ["nan", "-400", "inf", "0"])
    def test_bad_via_diameter_names_its_line(self, tmp_path, diameter):
        path = tmp_path / "vias.csv"
        path.write_text(f"x_mm,y_mm,diameter_um\n1.0,2.0,400\n\n3.0,4.0,{diameter}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: malformed via row: "
                                            "diameter_um must be finite and > 0"):
            load_tsv_file(path)

    def test_exclusion_reason_recorded(self, tsv_manhattan):
        excluded = [s for s in tsv_manhattan.structures if s.excluded]
        assert excluded and all(s.exclusion_reason == "tsv_overlap" for s in excluded)

    def test_identical_sweep_in_every_subarray(self, tsv_manhattan):
        sweeps = {}
        for s in tsv_manhattan.structures:
            key = (s.die_index, s.subarray_index)
            sweeps.setdefault(key, []).append((s.cell_index, s.design.w_bottom_nm))
        reference = sorted(sweeps[(1, 1), 0] if ((1, 1), 0) in sweeps
                           else next(iter(sweeps.values())))
        for cells in sweeps.values():
            assert sorted(cells) == reference

    def test_first_off_wafer_structure_named(self):
        # Row 3 of site 6 of the first die lies beyond y = 35 mm.
        message = ("test structure at (-23.799999999999997, 35.150000000000006) mm "
                   "is off the square wafer")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_tsv_17q(Variant.MANHATTAN, (), sites=moved_site(6, -3.4, 28.2))

    @pytest.mark.parametrize("sweep, message", [
        (TSV_SWEEP[:24], "sweep for group 'm' has 24 values, need 25"),
        (TSV_SWEEP[:12] + TSV_SWEEP[11:24], "sweep for group 'm' is not strictly increasing"),
    ])
    def test_malformed_sweep_names_its_group(self, sweep, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_tsv_17q(Variant.DOLAN, (), sweep=sweep)

    def test_dolan_wafer(self):
        layout = build_tsv_17q(Variant.DOLAN)
        assert len(layout.viable()) == 3024
        assert all(s.design.variant is Variant.DOLAN for s in layout.structures)

    def test_dolan_designed_areas_skip_the_crossed_product(self):
        # Widths whose square overflows: a bridge area never forms w_b * w_t.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layout = build_tsv_17q(Variant.DOLAN, (), sweep=[w * 1e152 for w in TSV_SWEEP])
        table = layout.structures
        assert np.array_equal(table.a_overlap_designed_um2, table.w_top_nm * 200 / 1e6)

    def test_positions_on_square_wafer(self, tsv_manhattan):
        for s in tsv_manhattan.structures:
            assert abs(s.position.x_mm) <= 35.0
            assert abs(s.position.y_mm) <= 35.0
            assert s.position.radius_mm() <= 35.0 * math.sqrt(2.0)

    def test_upper_half_only(self, tsv_manhattan):
        assert all(s.position.y_mm > 0 for s in tsv_manhattan.structures)

    def test_via_coverage_near_paper_density(self):
        vias = load_tsv_file()
        per_die_area = sum(math.pi * (d / 2000.0) ** 2 for _, d in vias) / 8.0
        assert per_die_area / 169.0 == pytest.approx(0.017, abs=0.002)


class TestPlanar35x35:
    def test_count(self):
        assert len(build_35x35("nbtin").structures) == 1225

    def test_uniform_design(self):
        layout = build_35x35("tin")
        assert {(s.design.w_bottom_nm, s.design.w_top_nm)
                for s in layout.structures} == {(200.0, 200.0)}
        assert {s.junction_count for s in layout.structures} == {2}

    def test_al_single_junctions_with_omitted_rows(self):
        layout = build_35x35("al", omitted_rows=(33, 34))
        assert {s.junction_count for s in layout.structures} == {1}
        assert len(layout.structures) == 1225
        assert len(layout.viable()) == 1155

    def test_bad_pad_kind(self):
        with pytest.raises(DataError):
            build_35x35("cu")

    def test_bad_pad_kind_message(self):
        with pytest.raises(DataError, match=re.escape(
                "pad kind must be one of ['al', 'nbtin', 'tin'], got 'cu'")):
            build_35x35("Cu")

    @pytest.mark.parametrize("count", [0, 3, -3])
    def test_undefined_junction_count_rejected(self, count):
        from dataclasses import replace

        spec = build_35x35("al").structures[0]
        with pytest.raises(DataError, match=f"junction_count must be 1 or 2, got {count} "
                                            f"on {spec.structure_id}"):
            replace(spec, junction_count=count)

    def test_bad_omitted_rows(self):
        with pytest.raises(DataError):
            build_35x35("al", omitted_rows=(35,))

    @pytest.mark.parametrize("rows, shown", [((35,), "[35]"), ((35, 2, -1), "[-1, 2, 35]")])
    def test_bad_omitted_rows_message(self, rows, shown):
        message = f"omitted rows out of range 0..34: {shown}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_35x35("al", omitted_rows=rows)

    def test_grid_positions(self):
        layout = build_35x35("nbtin")
        xs = sorted({s.position.x_mm for s in layout.structures})
        assert xs[0] == -34.0 and xs[-1] == 34.0 and len(xs) == 35
        assert max(s.position.radius_mm() for s in layout.structures) <= 50.0


def test_subarray_reference_file():
    sites = load_subarray_sites()
    assert len(sites) == 17
    assert Counter(s.group for s in sites) == {"m": 9, "l": 4, "h": 4}


@pytest.mark.parametrize("width", ["nan", "-1.0", "inf"])
def test_bad_sweep_width_names_its_line(tmp_path, width):
    path = tmp_path / "sweeps.csv"
    path.write_text(f"group,w_nm\nall,150.0\nall,{width}\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: malformed sweep row: "
                                        "w_nm must be finite and >= 0"):
        load_sweep_file(path)


def test_header_only_sweep_file_is_empty(tmp_path):
    path = tmp_path / "sweeps.csv"
    path.write_text("group,w_nm\n")
    with pytest.raises(DataError, match=f"^sweep file {re.escape(str(path))} is empty$"):
        load_sweep_file(path)


def test_table_takes_every_column_at_one_length():
    table = build_35x35("tin").structures
    columns = {name: getattr(table, name) for name in StructureTable.COLUMNS}
    with pytest.raises(TypeError, match="^a StructureTable has the columns structure_id, "):
        StructureTable({name: col for name, col in columns.items() if name != "group"})
    with pytest.raises(DataError, match="^StructureTable columns differ in length$"):
        StructureTable({**columns, "group": columns["group"][:-1]})
    assert (table == 5) is False
    assert repr(table) == "StructureTable(1225 rows)"


@pytest.mark.parametrize("loader, header", [
    (load_tsv_file, "y_mm,x_mm,diameter_um"),
    (load_tsv_file, "x_mm,y_mm,diameter_um,note"),
    (load_sweep_file, "w_nm,group"),
    (load_subarray_sites, "sub_index,x_mm,y_mm"),
])
def test_data_file_needs_its_exact_header(tmp_path, loader, header):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n")
    with pytest.raises(DataError, match="bad or missing .* file header"):
        loader(path)


def test_non_finite_subarray_offset_rejected(tmp_path):
    path = tmp_path / "sites.csv"
    rows = ["sub_index,x_mm,y_mm,group"] + [f"{k},{k * 0.5},0.0,m" for k in range(17)]
    rows[4] = "3,nan,0.0,m"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match="malformed sub-array row"):
        load_subarray_sites(path)


@pytest.mark.parametrize("row, index, message", [
    (9, 3, "sub-array index 3 is defined twice"),
    (16, 17, "sub-array index 17 is outside 0..16"),
    (1, -1, "sub-array index -1 is outside 0..16"),
])
def test_bad_subarray_index_names_file_and_index(tmp_path, row, index, message):
    path = tmp_path / "sites.csv"
    rows = ["sub_index,x_mm,y_mm,group"] + [f"{k},{k * 0.5},0.0,m" for k in range(17)]
    rows[row] = f"{index},1.0,0.0,m"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_subarray_sites(path)


def test_subarray_row_count_checked_first(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("sub_index,x_mm,y_mm,group\n" + "".join(f"{k},0.0,0.0,m\n"
                                                           for k in (0, 0, 20)))
    with pytest.raises(DataError, match="^sub-array file must define indices 0..16, "
                                        "got 3 rows$"):
        load_subarray_sites(path)


def test_design_path_builds_no_spec_objects(monkeypatch, tmp_path):
    # Build, pre-compensate, write, read back and synthesize the via wafer
    # on columns: no TestStructureSpec is constructed on the way.
    from jjshadow import layout as jlayout
    from jjshadow.compensation import compensated_layout
    from jjshadow.geometry import EvaporatorGeometry, Fidelity
    from jjshadow.io import read_layout_csv, write_layout_csv
    from jjshadow.synth import NO_PARASITICS, ProcessModel, synthesize_wafer

    built = []
    check = jlayout.TestStructureSpec.__post_init__
    monkeypatch.setattr(jlayout.TestStructureSpec, "__post_init__",
                        lambda spec: built.append(spec.structure_id) or check(spec))
    geom = EvaporatorGeometry()
    layout = build_tsv_17q(Variant.MANHATTAN)
    compensated = compensated_layout(layout, geom, Fidelity.FULL)
    write_layout_csv(compensated, tmp_path / "layout.csv")
    back = read_layout_csv(tmp_path / "layout.csv")
    records = synthesize_wafer(back, geom, ProcessModel(), NO_PARASITICS)
    assert len(records) == 3024
    assert built == []
    assert back.structures[5].structure_id == built[0]     # specs are built on demand


@pytest.mark.parametrize("build", [
    build_planar_17q,
    lambda: build_tsv_17q(Variant.MANHATTAN),
    lambda: build_tsv_17q(Variant.DOLAN),
    lambda: build_35x35("al", omitted_rows=(3, 7)),
    lambda: compensated_layout(build_35x35("nbtin"), EvaporatorGeometry(), Fidelity.FULL,
                               w_max_nm=600.0),
], ids=["planar17q", "tsv17q-manhattan", "tsv17q-dolan", "35x35-al", "compensated"])
def test_built_columns_pass_the_checking_constructor(build, monkeypatch):
    # The builders and compensated_layout make their tables from columns
    # they checked, with from_checked; the checking constructor takes the
    # same columns to an equal table, of the same dtypes and read-only.
    built = []
    from_checked = StructureTable.from_checked.__func__
    monkeypatch.setattr(StructureTable, "from_checked", classmethod(
        lambda cls, columns: built.append(dict(columns)) or from_checked(cls, columns)))
    table = build().structures
    checked = StructureTable(built[-1])
    assert checked == table and len(table) > 0
    for name in LAYOUT_COLUMNS:
        for col in (getattr(checked, name), getattr(table, name)):
            assert col.dtype == np.dtype(LAYOUT_COLUMNS[name]) and not col.flags.writeable
