"""Renderer and threshold-sweep extractor, including round trips."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jjshadow.errors import DataError, ExtractionError
from jjshadow.geometry import (
    NM2_PER_UM2,
    EvaporatorGeometry,
    JunctionDesign,
    Variant,
    WaferPoint,
    actual_width_vertical,
)
from jjshadow.imaging import (
    LEVEL_BACKGROUND,
    LEVEL_BOTTOM,
    LEVEL_OVERLAP,
    LEVEL_TOP,
    MAX_NOISE_SIGMA,
    THRESHOLD_RANGE,
    ExtractionResult,
    GrayImage,
    _band_slice,
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

    def test_bad_scale_comment_is_named(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n# scale_nm_per_px ab\xffc\n4 2\n255\n" + bytes(8))
        message = "scale comment must be a number, got 'ab\ufffdc'"
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_pgm(path)
        assert read_pgm(path, scale_nm_per_px=1.0).width_px == 4

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

    def test_noise_bound(self, geom, design_200, origin):
        # The largest sigma renders with no float32 overflow warning; above
        # it nothing is rendered.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_junction(geom, design_200, origin, canvas_px=(128, 128),
                            noise_sigma=MAX_NOISE_SIGMA, seed=1)
        for sigma in (np.nextafter(MAX_NOISE_SIGMA, math.inf), 1e37):
            with pytest.raises(DataError, match=re.escape(f"got {sigma}")):
                render_junction(geom, design_200, origin, noise_sigma=sigma)


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

    def test_malformed_input_rejected(self):
        img = cross_image()
        for pixels, message in [(img.pixels[None], "^image must be a non-empty 2-D array$"),
                                (img.pixels.astype(np.float32), "^image must be 8-bit$")]:
            with pytest.raises(DataError, match=message):
                GrayImage(scale_nm_per_px=2.0, pixels=pixels)
        with pytest.raises(DataError, match="^threshold_count must be >= 1$"):
            extract_widths(img, threshold_count=0)

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


def reference_render_junction(geom, design, p, scale_nm_per_px=2.0, canvas_px=(512, 512),
                              noise_sigma=0.0, seed=0):
    """render_junction as it scaled the noise and rounded into new arrays."""
    width, height = canvas_px
    w_b_nm = actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    w_t_nm = actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    if w_b_nm / scale_nm_per_px > width or w_t_nm / scale_nm_per_px > height:
        raise DataError(
            f"electrode ({w_b_nm:.0f} x {w_t_nm:.0f} nm) exceeds the "
            f"{width}x{height} px canvas at {scale_nm_per_px} nm/px")
    base = np.full((height, width), LEVEL_BACKGROUND, dtype=np.float32)
    cols = _band_slice(w_b_nm, scale_nm_per_px, width)
    rows = _band_slice(w_t_nm, scale_nm_per_px, height)
    base[:, cols] = LEVEL_BOTTOM
    base[rows, :] = LEVEL_TOP
    base[rows, cols] = LEVEL_OVERLAP
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(base.shape, dtype=np.float32)
        base += noise * np.float32(noise_sigma * 255.0)
    pixels = np.clip(np.rint(base), 0, 255).astype(np.uint8)
    return GrayImage(scale_nm_per_px=scale_nm_per_px, pixels=pixels)


def reference_find_band(occupancy, line_length):
    """_find_band as it took the peak in the occupancy's own type."""
    peak = occupancy.max(initial=0)
    if peak < 0.25 * line_length:
        return None
    above = np.flatnonzero(occupancy >= 0.5 * peak)
    return int(above[0]), int(above[-1])


def reference_extract_widths(img, threshold_count):
    """extract_widths as it compared the pixels to the float threshold and
    counted occupancy in int64."""
    pixels = img.pixels
    mean = float(pixels.mean())
    multipliers = tuple(float(m) for m in np.linspace(*THRESHOLD_RANGE, threshold_count))
    per_widths = {}
    tops_px, bottoms_px, areas_px2 = [], [], []
    for mult in multipliers:
        binary = pixels >= mult * mean
        wt = wb = 0
        band = reference_find_band(binary.sum(axis=1), img.width_px)
        if band is not None:
            r0, r1 = band
            wt = r1 - r0 + 1
            tops_px.append(wt)
            binary[r0:r1 + 1] = False
            cols = reference_find_band(binary.sum(axis=0), img.height_px)
            if cols is not None:
                c0, c1 = cols
                wb = c1 - c0 + 1
                bottoms_px.append(wb)
                areas_px2.append(wt * wb)
        per_widths[mult] = (wt, wb)
    if not tops_px or not bottoms_px:
        raise ExtractionError("no electrode edges found at any threshold")
    scale = img.scale_nm_per_px
    return ExtractionResult(
        w_top_nm=float(np.mean(tops_px)) * scale,
        w_bottom_nm=float(np.mean(bottoms_px)) * scale,
        a_overlap_um2=float(np.mean(areas_px2)) * scale * scale / NM2_PER_UM2,
        thresholds_used=multipliers,
        per_threshold_widths_px=per_widths,
    )


def _outcome(extract, img, threshold_count):
    """The repr of an extraction (every float to the bit, the per-threshold
    widths in order), or its error."""
    try:
        return repr(extract(img, threshold_count))
    except ExtractionError as exc:
        return f"ExtractionError: {exc}"


def assert_extraction_matches_reference(pixels, threshold_count, scale=2.0):
    img = GrayImage(scale_nm_per_px=scale, pixels=pixels)
    want = _outcome(reference_extract_widths, img, threshold_count)
    assert _outcome(extract_widths, img, threshold_count) == want
    return want


THRESHOLD_COUNTS = st.sampled_from([1, 2, 11]) | st.integers(1, 40)


@st.composite
def rasters(draw):
    """Crossed-band, random and few-level rasters of 1 to 80 px a side."""
    h, w = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["cross", "random", "levels"]))
    if kind == "random":
        return draw(hnp.arrays(np.uint8, (h, w)))
    if kind == "levels":
        levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=4)),
                          np.uint8)
        return levels[draw(hnp.arrays(np.intp, (h, w),
                                      elements=st.integers(0, levels.size - 1)))]
    # Background, bottom, top and overlap levels in rising order, bands of
    # up to half the image, and up to +-20 of pixel noise.
    levels = np.array(sorted(draw(st.lists(st.integers(0, 255), min_size=4, max_size=4,
                                           unique=True))), np.int16)
    rows, cols = draw(st.integers(1, max(1, h // 2))), draw(st.integers(1, max(1, w // 2)))
    r0, c0 = draw(st.integers(0, h - rows)), draw(st.integers(0, w - cols))
    index = np.zeros((h, w), np.intp)
    index[:, c0:c0 + cols] += 1
    index[r0:r0 + rows, :] += 2
    amplitude = draw(st.integers(0, 20))
    noise = draw(hnp.arrays(np.int16, (h, w), elements=st.integers(-amplitude, amplitude)))
    return np.clip(levels[index] + noise, 0, 255).astype(np.uint8)


def _edge_image(top, bottom, edge):
    """20 x 20 px on a zero background: rows 8-11 at level top, and outside
    them columns 8-11 at level bottom and column 12 at level edge."""
    px = np.zeros((20, 20), np.uint8)
    px[:, 8:12] = bottom
    px[:, 12] = edge
    px[8:12, :] = top
    return px


class TestExtractionEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(rasters(), THRESHOLD_COUNTS)
    def test_rasters(self, pixels, threshold_count):
        assert_extraction_matches_reference(pixels, threshold_count)

    def test_threshold_exactly_an_integer(self):
        # The edge column lies at the threshold, so it widens the bottom band.
        pixels = _edge_image(240, 240, 90)
        assert float(pixels.mean()) == 90.0
        assert assert_extraction_matches_reference(pixels, 1).endswith(
            "per_threshold_widths_px={1.0: (4, 5)})")

    def test_pixel_at_floor_of_fractional_threshold(self):
        # The edge column lies just under the threshold: 86 < 86.44.
        pixels = _edge_image(255, 200, 86)
        assert float(pixels.mean()) == 86.44
        assert assert_extraction_matches_reference(pixels, 1).endswith(
            "per_threshold_widths_px={1.0: (4, 4)})")

    def test_line_of_256_or_more_lit_pixels(self):
        img = cross_image(height=40, width=300, top_rows=10, bottom_cols=60)
        assert "(10, 60)" in assert_extraction_matches_reference(img.pixels, 11)

    def test_lines_longer_than_uint16(self):
        # 1 x 70,000 px: the row counts 66,000 lit pixels; one row never
        # leaves a bottom band to find.
        row = np.zeros((1, 70_000), np.uint8)
        row[0, :66_000] = 200
        assert assert_extraction_matches_reference(row, 11).startswith("ExtractionError")
        # 70,000 x 3 px: rows 100-199 are the top band, and column 0 of the
        # other rows a bottom band of 69,900 lit pixels.
        column = np.zeros((70_000, 3), np.uint8)
        column[:, 0] = 200
        column[100:200] = 200
        assert "(100, 1)" in assert_extraction_matches_reference(column, 11)

    @pytest.mark.parametrize("value", [0, 255])
    def test_uniform_image(self, value):
        pixels = np.full((30, 40), value, np.uint8)
        assert assert_extraction_matches_reference(pixels, 11).startswith("ExtractionError")


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 8.0), st.integers(8, 200), st.integers(8, 200),
       st.just(0.0) | st.floats(0.0, 0.4), st.integers(0, 2**63),
       st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(70.0, 300.0),
       THRESHOLD_COUNTS)
@example(3.0, 320, 320, 8 / 255, 7, 34.0, -17.0, 200.0, 11)
def test_render_and_extract_equal_reference(scale, width, height, noise, seed, x, y, w_nm,
                                            threshold_count):
    args = (EvaporatorGeometry(), JunctionDesign(Variant.MANHATTAN, w_nm, w_nm),
            WaferPoint(x, y), scale, (width, height), noise, seed)
    try:
        want = reference_render_junction(*args)
    except DataError as exc:
        with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
            render_junction(*args)
        return
    got = render_junction(*args)
    assert got.scale_nm_per_px == want.scale_nm_per_px
    assert got.pixels.dtype == np.uint8 and np.array_equal(got.pixels, want.pixels)
    assert_extraction_matches_reference(got.pixels, threshold_count, scale)


# (canvas (width, height), bottom and top band widths in px, scale, noise,
# the bottom band's columns, the top band's rows), all at the wafer centre.
RENDER_CASES = {
    "wider-than-tall": ((48, 30), 12, 8, 10.0, 8 / 255, (18, 30), (11, 19)),
    "taller-than-wide": ((30, 48), 8, 12, 10.0, 8 / 255, (11, 19), (18, 30)),
    "band-at-canvas-edge": ((8, 8), 3, 7, 10.0, 8 / 255, (2, 5), (0, 7)),
    "empty-band": ((8, 8), 0.75, 3, 300.0, 8 / 255, (4, 4), (2, 5)),
    "band-covers-canvas": ((16, 10), 15.7, 4, 10.0, 8 / 255, (0, 16), (3, 7)),
    "both-bands-cover-canvas": ((6, 5), 5.7, 4.7, 10.0, 0.4, (0, 6), (0, 5)),
    "noise-free": ((20, 20), 6, 5, 10.0, 0.0, (7, 13), (7, 12)),
}


@pytest.mark.parametrize("case", list(RENDER_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_render_edge_cases_equal_reference(geom, origin, case, seed):
    canvas, wb_px, wt_px, scale, noise, cols, rows = RENDER_CASES[case]
    # The centre prints each electrode 25 nm wider than designed.
    design = JunctionDesign(Variant.MANHATTAN, wb_px * scale - 25.0, wt_px * scale - 25.0)
    for w_nm, n_px, want in ((design.w_bottom_nm, canvas[0], cols),
                             (design.w_top_nm, canvas[1], rows)):
        band = _band_slice(actual_width_vertical(geom, w_nm, 0.0), scale, n_px)
        assert (band.start, band.stop) == want
    args = (geom, design, origin, scale, canvas, noise, seed)
    got, want = render_junction(*args), reference_render_junction(*args)
    assert got.pixels.shape == (canvas[1], canvas[0])
    assert got.pixels.dtype == np.uint8 and np.array_equal(got.pixels, want.pixels)
    if noise == 0.0:
        assert np.array_equal(got.pixels, cross_image(
            canvas[1], canvas[0], rows[1] - rows[0], cols[1] - cols[0]).pixels)


class TestPgmBuffers:
    @pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[1::2, ::3],
                                      lambda a: a[::-1, 5:]],
                             ids=["transposed", "strided", "reversed"])
    def test_write_of_a_view_writes_its_bytes(self, tmp_path, view):
        pixels = view(np.arange(40 * 30, dtype=np.uint32).reshape(40, 30).astype(np.uint8))
        assert not pixels.flags.c_contiguous
        write_pgm(GrayImage(scale_nm_per_px=2.5, pixels=pixels), tmp_path / "v.pgm")
        height, width = pixels.shape
        assert (tmp_path / "v.pgm").read_bytes() == (
            f"P5\n# scale_nm_per_px 2.5\n{width} {height}\n255\n".encode()
            + pixels.tobytes())

    def test_read_returns_a_writable_array_of_its_own(self, tmp_path):
        img = cross_image(height=20, width=30)
        write_pgm(img, tmp_path / "c.pgm")
        back = read_pgm(tmp_path / "c.pgm")
        assert back.pixels.flags.writeable and back.pixels.flags.owndata
        assert back.pixels.flags.c_contiguous
        assert np.array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("seed", [602, 630])
def test_each_level_added_once(geom, design_200, origin, seed):
    # At seed 602 a top-band pixel, and at 630 a bottom-band pixel, lies so
    # near a rounding boundary that adding its level in two parts (the
    # background, then the rest) moves it to the other integer.
    args = (geom, design_200, origin, 10.0, (64, 48), 8 / 255, seed)
    assert np.array_equal(render_junction(*args).pixels,
                          reference_render_junction(*args).pixels)
