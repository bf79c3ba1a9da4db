"""Renderer and threshold-sweep extractor, including round trips."""

import math
import re

import numpy as np
import pytest

from jjshadow.errors import DataError, ExtractionError
from jjshadow.geometry import JunctionDesign, Variant, WaferPoint, actual_width_vertical
from jjshadow.imaging import (
    GrayImage,
    band_pixel_count,
    extract_overlap_area,
    extract_widths,
    read_pgm,
    render_junction,
    write_pgm,
)


def cross_image(height=200, width=200, top_rows=50, bottom_cols=40,
                levels=(40, 110, 180, 240), scale=2.0):
    bg, bottom, top, overlap = levels
    px = np.full((height, width), bg, dtype=np.uint8)
    r0 = (height - top_rows) // 2
    c0 = (width - bottom_cols) // 2
    px[:, c0:c0 + bottom_cols] = bottom
    px[r0:r0 + top_rows, :] = top
    px[r0:r0 + top_rows, c0:c0 + bottom_cols] = overlap
    return GrayImage(scale_nm_per_px=scale, pixels=px)


class TestPgmIO:
    def test_round_trip(self, tmp_path):
        img = cross_image()
        path = tmp_path / "junction.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.scale_nm_per_px == img.scale_nm_per_px

    def test_scale_argument_overrides(self, tmp_path):
        path = tmp_path / "junction.pgm"
        write_pgm(cross_image(scale=2.0), path)
        assert read_pgm(path, scale_nm_per_px=3.5).scale_nm_per_px == 3.5

    def test_foreign_file_needs_scale(self, tmp_path):
        path = tmp_path / "foreign.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
        with pytest.raises(DataError):
            read_pgm(path)
        assert read_pgm(path, scale_nm_per_px=1.0).width_px == 4

    @pytest.mark.parametrize("data, message", [
        (b"P5\nx 2\n255\n" + bytes(8), "decimal integers, got 'x 2 255'"),
        (b"P5\n4 2\n2.5e2\n" + bytes(8), "decimal integers, got '4 2 2.5e2'"),
        (b"P5\n-2 -2\n255\n" + bytes(4), "decimal integers, got '-2 -2 255'"),
        (b"P5\n4 " + b"9" * 5000 + b"\n255\n", "decimal integers, got '4 999"),
        (b"P5\n# scale_nm_per_px 2.0", "truncated PGM header"),
        (b"P5\n4 2\n255\n" + bytes(7), "raster size mismatch"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            read_pgm(path, scale_nm_per_px=1.0)

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(DataError):
            read_pgm(path, scale_nm_per_px=1.0)


class TestRenderer:
    def test_same_seed_identical(self, geom, design_200, origin):
        a = render_junction(geom, design_200, origin, noise_sigma=8 / 255, seed=5)
        b = render_junction(geom, design_200, origin, noise_sigma=8 / 255, seed=5)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_seed_differs(self, geom, design_200, origin):
        a = render_junction(geom, design_200, origin, noise_sigma=8 / 255, seed=5)
        b = render_junction(geom, design_200, origin, noise_sigma=8 / 255, seed=6)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_band_counts_match_truth_helper(self, geom, design_200, origin):
        img = render_junction(geom, design_200, origin)
        overlap_cols = (img.pixels == 240).any(axis=0).sum()
        overlap_rows = (img.pixels == 240).any(axis=1).sum()
        assert overlap_cols == band_pixel_count(225.0, 2.0, 512)
        assert overlap_rows == band_pixel_count(225.0, 2.0, 512)

    def test_edge_band_narrower_by_shadow_loss(self, geom, design_200):
        scale = 2.0
        img_o = render_junction(geom, design_200, WaferPoint(0, 0))
        img_e = render_junction(geom, design_200, WaferPoint(50, 0))

        def bottom_cols(img):
            mask = (img.pixels == 110) | (img.pixels == 240)
            return int(mask.any(axis=0).sum())

        loss_px = 63.8367 / scale
        assert abs((bottom_cols(img_o) - bottom_cols(img_e)) - loss_px) <= 1.0

    def test_canvas_overflow_rejected(self, geom, origin):
        wide = JunctionDesign(Variant.MANHATTAN, 2000.0, 200.0)
        with pytest.raises(DataError):
            render_junction(geom, wide, origin, scale_nm_per_px=1.0,
                            canvas_px=(128, 128))


class TestExtraction:
    def test_noiseless_band_exact_at_every_threshold(self):
        result = extract_widths(cross_image(top_rows=50, bottom_cols=40))
        tops = {wt for wt, _ in result.per_threshold_widths_px.values()}
        assert tops == {50}
        assert result.w_top_nm == 50 * 2.0
        assert result.w_bottom_nm == 40 * 2.0

    def test_bottom_misses_high_thresholds_but_averages_clean(self):
        result = extract_widths(cross_image())
        bottoms = [wb for _, wb in result.per_threshold_widths_px.values()]
        assert 0 in bottoms              # drops out above its intensity
        assert {wb for wb in bottoms if wb} == {40}

    def test_rectangle_area(self):
        img = cross_image(top_rows=50, bottom_cols=40, scale=2.0)
        result = extract_widths(img)
        area = extract_overlap_area(img, result)
        assert area == pytest.approx(2000 * 2.0 * 2.0 / 1e6, rel=1e-12)
        assert result.a_overlap_um2 == pytest.approx(area, rel=1e-12)

    def test_blank_image_fails(self):
        blank = GrayImage(scale_nm_per_px=1.0,
                          pixels=np.full((64, 64), 40, dtype=np.uint8))
        with pytest.raises(ExtractionError):
            extract_widths(blank)

    def test_affine_intensity_invariance(self):
        img = cross_image(levels=(20, 50, 80, 85))
        tripled = GrayImage(scale_nm_per_px=img.scale_nm_per_px,
                            pixels=(img.pixels.astype(np.uint16) * 3).astype(np.uint8))
        a = extract_widths(img)
        b = extract_widths(tripled)
        assert a.per_threshold_widths_px == b.per_threshold_widths_px

    def test_widening_monotonicity(self):
        base = extract_widths(cross_image(top_rows=40)).w_top_nm / 2.0
        for n in (1, 3, 7):
            wider = extract_widths(cross_image(top_rows=40 + n)).w_top_nm / 2.0
            assert abs((wider - base) - n) <= 1.0


class TestRoundTrip:
    def test_noiseless_recovers_rendered_widths(self, geom, design_200):
        for x, y in ((0, 0), (30, 0), (0, -30), (-20, 20)):
            p = WaferPoint(x, y)
            img = render_junction(geom, design_200, p)
            result = extract_widths(img)
            wb_true = band_pixel_count(
                actual_width_vertical(geom, 200.0, p.x_mm), 2.0, 512)
            wt_true = band_pixel_count(
                actual_width_vertical(geom, 200.0, p.y_mm), 2.0, 512)
            assert result.w_bottom_nm / 2.0 == pytest.approx(wb_true, abs=0.5)
            assert result.w_top_nm / 2.0 == pytest.approx(wt_true, abs=0.5)

    def test_noisy_recovery_within_two_pixels(self, geom, design_200):
        scale, canvas = 3.0, 384
        positions = [WaferPoint(x, y) for x, y in
                     ((0, 0), (34, 0), (-34, 0), (0, 34), (24, -24))]
        for seed in range(6):
            for p in positions:
                img = render_junction(geom, design_200, p, scale_nm_per_px=scale,
                                      canvas_px=(canvas, canvas),
                                      noise_sigma=8 / 255, seed=seed)
                result = extract_widths(img)
                wb_true = band_pixel_count(
                    actual_width_vertical(geom, 200.0, p.x_mm), scale, canvas)
                wt_true = band_pixel_count(
                    actual_width_vertical(geom, 200.0, p.y_mm), scale, canvas)
                assert abs(result.w_bottom_nm / scale - wb_true) <= 2.0
                assert abs(result.w_top_nm / scale - wt_true) <= 2.0
