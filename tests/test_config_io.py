"""Run-config parsing and CSV interchange."""

import re

import pytest

from jjshadow.analysis import Regressor
from jjshadow.compensation import compensated_layout
from jjshadow.config import RunConfig, load_config, parse_config, write_default
from jjshadow.errors import ConfigError, DataError
from jjshadow.geometry import Fidelity, Variant
from jjshadow.io import (
    LAYOUT_HEADER,
    MEASUREMENT_HEADER,
    read_layout_csv,
    read_measurements_csv,
    read_truth_csv,
    write_heatmap_csv,
    write_layout_csv,
    write_measurements_csv,
    write_truth_csv,
)
from jjshadow.layout import build_35x35
from jjshadow.synth import NO_PARASITICS, ProcessModel, synthesize_wafer


# Every template key at a valid non-default value, with the value its
# block's field must then hold.
NON_DEFAULT = {
    "geometry.d_prime_mm": ("700", 700.0),
    "geometry.r_pivot_mm": ("60", 60.0),
    "geometry.alpha_deg": ("30", 30.0),
    "geometry.alpha_dolan_deg": ("20", 20.0),
    "geometry.h_resist_nm": ("550", 550.0),
    "geometry.t_bottom_nm": ("40", 40.0),
    "geometry.dw_offset_nm": ("20", 20.0),
    "process.sigma_j_uS_per_um2": ("900", 900.0),
    "process.lognormal_sigma": ("0.02", 0.02),
    "process.p_open": ("0.01", 0.01),
    "process.p_short": ("0.02", 0.02),
    "process.fidelity": ("sidewall", Fidelity.SIDEWALL),
    "process.seed": ("7", 7),
    "parasitics.pad_centre_ohm": ("150", 150.0),
    "parasitics.pad_edge_ohm": ("300", 300.0),
    "parasitics.substrate_uS": ("4", 4.0),
    "parasitics.cabling_ohm": ("6", 6.0),
    "parasitics.contact_centre_ohm": ("10", 10.0),
    "parasitics.contact_edge_ohm": ("20", 20.0),
    "filter.abs_low_uS": ("25", 25.0),
    "filter.abs_high_uS": ("450", 450.0),
    "filter.rel_threshold": ("0.6", 0.6),
    "filter.regressor": ("overlap_area", Regressor.OVERLAP_AREA),
    "frequency.f_c_mhz": ("250", 250.0),
    "frequency.m_ghz_per_ms": ("140", 140.0),
    "analysis.dual_rsd": ("true", True),
    "analysis.deembed": ("true", True),
}


class TestConfig:
    def test_default_values(self):
        cfg = RunConfig()
        geom = cfg.geometry
        assert (geom.d_prime_mm, geom.r_pivot_mm, geom.alpha_deg) == (650.0, 62.5, 35.0)
        assert (geom.h_resist_nm, geom.t_bottom_nm, geom.dw_offset_nm) == (600.0, 35.0, 25.0)
        assert cfg.geometry.alpha_dolan_deg == 15.0
        par = cfg.parasitics
        assert (par.pad_centre_ohm, par.pad_edge_ohm) == (200.0, 330.0)
        assert (par.substrate_uS, par.cabling_ohm) == (5.0, 5.0)
        filt = cfg.filter
        assert (filt.abs_low_uS, filt.abs_high_uS, filt.rel_threshold) == (20.0, 500.0, 0.70)
        freq = cfg.frequency
        assert (freq.f_c_mhz, freq.m_ghz_per_ms) == (270.0, 134.0)

    def test_parse_overrides(self):
        cfg = parse_config("""
            # comment
            geometry.alpha_deg = 15
            process.lognormal_sigma = 0.02   # inline comment
            analysis.deembed = true
            filter.regressor = overlap_area
        """)
        assert cfg.geometry.alpha_deg == 15.0
        assert cfg.process.lognormal_sigma == 0.02
        assert cfg.analysis.deembed is True
        assert cfg.filter.regressor.value == "overlap_area"

    @pytest.mark.parametrize("key", NON_DEFAULT)
    def test_every_key_reaches_its_object(self, key):
        text, expected = NON_DEFAULT[key]
        block, name = key.split(".")
        got = getattr(getattr(parse_config(f"{key} = {text}"), block), name)
        assert got == expected and type(got) is type(expected)
        assert getattr(getattr(RunConfig(), block), name) != expected

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("geometry.tilt = 35")
        with pytest.raises(ConfigError, match="unknown key 'geometry_alpha_deg'"):
            parse_config("geometry_alpha_deg = 30")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("geometry.alpha_deg = steep")
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config("analysis.deembed = maybe")
        with pytest.raises(ConfigError):
            parse_config("just a line without equals")
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="line 2: .*not a finite number"):
                parse_config(f"process.seed = 1\ngeometry.h_resist_nm = {text}")
        with pytest.raises(ConfigError, match="process: p_open must be in"):
            parse_config("process.p_open = 2")
        with pytest.raises(ConfigError, match="geometry: need d_prime > r_pivot"):
            parse_config("geometry.d_prime_mm = 50")
        for text, message in [
                ("filter.abs_low_uS = 600", "filter: need 0 < abs_low < abs_high"),
                ("filter.rel_threshold = 1.5", "filter: rel_threshold must be in"),
                ("frequency.f_c_mhz = 0", "frequency: frequency constants must be > 0"),
                ("geometry.t_bottom_nm = 0",
                 "geometry: calibrated bottom thickness must be > 0"),
                ("process.lognormal_sigma = -0.1", "process: lognormal_sigma must be >= 0")]:
            with pytest.raises(ConfigError, match=message):
                parse_config(text)

    def test_bad_fidelity_name(self):
        with pytest.raises(ConfigError):
            parse_config("process.fidelity = ultra").process.fidelity

    def test_template_round_trips(self, tmp_path):
        path = tmp_path / "default.cfg"
        write_default(path)
        assert load_config(path) == RunConfig()
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()[1:] if line]
        assert keys == list(NON_DEFAULT)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_seed_override(self):
        cfg = parse_config("process.seed = 7")
        assert cfg.process.seed == 7


class TestCsvRoundTrips:
    def test_layout_round_trip(self, geom, tmp_path):
        # The compensated layout's widths and areas repeat too little for
        # the reader to parse each distinct cell once: it parses each cell.
        plain = build_35x35("al", omitted_rows=(1,))
        compensated = compensated_layout(plain, geom, Fidelity.FULL)
        widths = compensated.structures.w_bottom_nm.tolist()
        assert 2 * len(set(widths)) > len(widths)
        for layout in (plain, compensated):
            path = tmp_path / "layout.csv"
            write_layout_csv(layout, path)
            text = path.read_text().splitlines()
            assert text[0] == LAYOUT_HEADER
            assert len(text) == 1226
            back = read_layout_csv(path)
            assert len(back.structures) == 1225
            assert len(back.viable()) == len(layout.viable())
            for a, b in zip(layout.structures, back.structures):
                assert a.structure_id == b.structure_id
                assert a.position == b.position
                assert a.design == b.design
                assert a.a_overlap_designed_um2 == b.a_overlap_designed_um2
                assert a.excluded == b.excluded

    def test_measurement_round_trip(self, geom, tmp_path):
        layout = build_35x35("nbtin")
        records = synthesize_wafer(
            layout, geom, ProcessModel(lognormal_sigma=0.03, seed=2), NO_PARASITICS)
        path = tmp_path / "meas.csv"
        write_measurements_csv(records, path)
        assert path.read_text().splitlines()[0] == MEASUREMENT_HEADER
        back = read_measurements_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.structure_id == b.structure_id
            assert a.g_uS == b.g_uS                      # repr round-trips exactly
            assert b.truth_flags is None

    def test_truth_round_trip(self, geom, tmp_path):
        layout = build_35x35("nbtin")
        records = synthesize_wafer(
            layout, geom, ProcessModel(p_open=0.05, p_short=0.02, seed=4),
            NO_PARASITICS)
        path = tmp_path / "truth.csv"
        write_truth_csv(records, path)
        table = read_truth_csv(path)
        assert len(table) == len(records)
        for rec in records:
            assert table[rec.structure_id] == rec.truth_flags
        # A measurement file carries no truth flags to write.
        write_measurements_csv(records, tmp_path / "m.csv")
        with pytest.raises(DataError, match=f"^record {records[0].structure_id} "
                                            "has no truth flags$"):
            write_truth_csv(read_measurements_csv(tmp_path / "m.csv"), path)

    def test_bad_headers_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,g\n1,2\n")
        with pytest.raises(DataError):
            read_layout_csv(bad)
        with pytest.raises(DataError):
            read_measurements_csv(bad)

    @pytest.mark.parametrize("kind, column, value", [
        ("layout", 6, "-5.0"), ("layout", 7, "nan"), ("measurements", 11, "nan"),
        ("layout", 3, "nan"), ("measurements", 4, "inf"), ("measurements", 8, "nan"),
    ], ids=["negative-width", "nan-width", "nan-conductance", "nan-x", "inf-y",
            "nan-designed-area"])
    def test_bad_row_rejected_with_location(self, geom, tmp_path, kind, column, value):
        layout = build_35x35("nbtin")
        path = tmp_path / f"{kind}.csv"
        if kind == "layout":
            write_layout_csv(layout, path)
        else:
            write_measurements_csv(
                synthesize_wafer(layout, geom, ProcessModel(), NO_PARASITICS), path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[column] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        reader = read_layout_csv if kind == "layout" else read_measurements_csv
        with pytest.raises(DataError, match=re.escape(f"{path}:4: ")):
            reader(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        layout = build_35x35("nbtin")
        path = tmp_path / "layout.csv"
        write_layout_csv(layout, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            read_layout_csv(path)

    @pytest.mark.parametrize("kind", ["measurements", "truth"])
    def test_duplicate_measurement_and_truth_ids_rejected(self, geom, tmp_path, kind):
        records = synthesize_wafer(build_35x35("al"), geom, ProcessModel(), NO_PARASITICS)
        path = tmp_path / f"{kind}.csv"
        writer, reader = ((write_measurements_csv, read_measurements_csv)
                          if kind == "measurements" else (write_truth_csv, read_truth_csv))
        writer(records, path)
        lines = path.read_text().splitlines()
        lines.append(lines[5])
        path.write_text("\n".join(lines) + "\n")
        message = f"{path}:{len(lines)}: repeated structure id {lines[5].split(',')[0]!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            reader(path)

    def test_heatmap_csv_blank_encoding(self, tmp_path):
        from jjshadow.analysis import normalized_heatmap
        from jjshadow.geometry import WaferPoint
        from test_analysis import mk

        records = [mk("a", 200.0, 100.0, pos=(0.0, 0.0)),
                   mk("b", 200.0, 110.0, pos=(2.0, 0.0))]
        grid = normalized_heatmap(records, grid_positions=[WaferPoint(4.0, 0.0)])
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,x_mm,y_mm,value,valid"
        assert len(lines) == 4
        blanks = [line for line in lines[1:] if line.endswith(",0,0")]
        assert len(blanks) == 1 and blanks[0].startswith("0,2,4.0,")
