"""Top-view junction rendering and SEM-style width/area extraction.

The renderer draws an idealized micrograph of one crossed junction: a
vertical bottom-electrode band, a brighter horizontal top-electrode band,
the overlap brightest, plus Gaussian pixel noise.  The extractor is the
inverse: it sweeps a range of thresholds proportional to the image mean,
binarizes, locates each electrode band from row/column occupancy, and
averages the band widths and overlap boxes over the thresholds that
detected them.  Render and extraction together form a round-trip oracle
for width metrology.

Images are 8-bit grayscale with a physical scale in nm per pixel; file
interchange is binary PGM (P5).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ExtractionError, open_output
from .geometry import (
    NM2_PER_UM2,
    EvaporatorGeometry,
    JunctionDesign,
    WaferPoint,
    actual_width_vertical,
)

# Render intensity levels (8-bit).  Chosen so the top electrode clears the
# whole 1.0-2.0x-mean threshold range while the bottom electrode drops out
# of the highest thresholds, exercising the non-zero-distance averaging.
LEVEL_BACKGROUND = 40
LEVEL_BOTTOM = 110
LEVEL_TOP = 180
LEVEL_OVERLAP = 240
# The level of each rectangle render_junction adds: rows before, inside and
# after the top band, by columns before, inside and after the bottom band.
_LEVELS = ((LEVEL_BACKGROUND, LEVEL_BOTTOM, LEVEL_BACKGROUND),
           (LEVEL_TOP, LEVEL_OVERLAP, LEVEL_TOP),
           (LEVEL_BACKGROUND, LEVEL_BOTTOM, LEVEL_BACKGROUND))

DEFAULT_THRESHOLD_COUNT = 11
# The pixel size and square canvas side render_junction and render use by default.
DEFAULT_SCALE_NM_PER_PX = 2.0
DEFAULT_CANVAS_PX = 512
# The largest noise sigma render_junction takes.  At 1e3 the noise std is
# 255,000 levels, so about 4 pixels in 10,000 escape clipping to 0 or 255:
# a larger sigma makes no other image, and sigma * 255 times a normal draw
# stays ~1e32 below the float32 raster's range.
MAX_NOISE_SIGMA = 1.0e3
# extract_widths sweeps its thresholds over this range of multiples of the
# image mean.
THRESHOLD_RANGE = (1.0, 2.0)

# A band is accepted only if its peak row/column occupancy spans at least
# this fraction of the scan line; pixel noise stays far below it.
_MIN_OCCUPANCY = 0.25


@dataclass(frozen=True)
class GrayImage:
    """8-bit grayscale raster with a physical scale."""

    scale_nm_per_px: float
    pixels: np.ndarray          # (height, width) uint8, row 0 at top

    def __post_init__(self) -> None:
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise DataError("image must be a non-empty 2-D array")
        if self.pixels.dtype != np.uint8:
            raise DataError("image must be 8-bit")
        if not (math.isfinite(self.scale_nm_per_px) and self.scale_nm_per_px > 0.0):
            raise DataError(f"scale must be finite and > 0, got {self.scale_nm_per_px}")

    @property
    def width_px(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def height_px(self) -> int:
        return int(self.pixels.shape[0])


def write_pgm(img: GrayImage, path: str | Path) -> None:
    """Write binary PGM (P5), scale recorded as a comment.

    The raster is written from its own buffer when that is C-contiguous,
    and from a C-ordered copy (the bytes tobytes() gives) when it is not.
    """
    with open_output(path, "wb") as fh:
        fh.write(f"P5\n# scale_nm_per_px {img.scale_nm_per_px!r}\n"
                 f"{img.width_px} {img.height_px}\n255\n".encode())
        fh.write(np.ascontiguousarray(img.pixels))


# A PGM header token: whitespace (bytes \s is exactly bytes.isspace()), a
# comment up to its newline, or a field, which does not start with '#'.
_PGM_TOKEN = re.compile(rb"\s+|#([^\n]*)\n|([^\s#]\S*)")


def read_pgm(path: str | Path, scale_nm_per_px: float | None = None) -> GrayImage:
    """Read binary PGM (P5), 8-bit only.

    The physical scale comes from the argument if given, else from the
    scale comment this package writes; instrument files must supply it.
    """
    data = Path(path).read_bytes()
    pos = 0
    fields: list[bytes] = []
    comment_scale = None
    while len(fields) < 4:
        token = _PGM_TOKEN.match(data, pos)
        if token is None:           # the data ends, or a comment has no newline
            raise DataError(f"{path}: truncated PGM header")
        pos = token.end()
        words = (token[1] or b"").split()
        if token[2]:
            fields.append(token[2])
        elif len(words) == 2 and words[0] == b"scale_nm_per_px":
            comment_scale = words[1]
    if fields[0] != b"P5":
        raise DataError(f"{path}: not a binary PGM (P5) file")
    # int() refuses a field of thousands of digits; no raster has 20.
    if not all(f.isdigit() and len(f) < 20 for f in fields[1:]):
        raise DataError(f"{path}: PGM width, height and maxval must be decimal integers, "
                        f"got {b' '.join(fields[1:]).decode(errors='replace')!r}")
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise DataError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    pos += 1            # single whitespace after maxval
    raster = memoryview(data)[pos:pos + width * height]     # a view, not a copy
    if len(raster) != width * height:
        raise DataError(f"{path}: raster size mismatch")
    scale = scale_nm_per_px
    if scale is None:
        if comment_scale is None:
            raise DataError(f"{path}: no scale given and none recorded in the file")
        try:
            scale = float(comment_scale)
        except ValueError:
            raise DataError(f"{path}: scale comment must be a number, got "
                            f"{comment_scale.decode(errors='replace')!r}") from None
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    try:
        return GrayImage(scale_nm_per_px=float(scale), pixels=pixels.copy())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _band_slice(width_nm: float, scale_nm_per_px: float, canvas_px: int) -> slice:
    """Pixel rows/columns a band of width_nm centred on the canvas covers.

    A pixel is covered when its centre, at j + 0.5, lies inside the band;
    the slice is clipped to the canvas.
    """
    half = width_nm / scale_nm_per_px / 2.0
    centre = canvas_px / 2.0
    lo = max(0, math.ceil(centre - half - 0.5))
    hi = min(canvas_px, math.ceil(centre + half - 0.5))
    return slice(lo, hi)


def _spans(band: slice, canvas_px: int) -> tuple[slice, slice, slice]:
    """The lines before, inside and after a band, which together cover the
    canvas once; an empty band leaves one empty span."""
    lo = min(band.start, canvas_px)
    hi = max(lo, band.stop)
    return slice(0, lo), slice(lo, hi), slice(hi, canvas_px)


def band_pixel_count(width_nm: float, scale_nm_per_px: float, canvas_px: int) -> int:
    """Number of pixel rows/columns a centred band of width_nm covers.

    This is the rendered ground truth the extractor is checked against.
    """
    band = _band_slice(width_nm, scale_nm_per_px, canvas_px)
    return max(0, band.stop - band.start)


def render_junction(geom: EvaporatorGeometry, design: JunctionDesign, p: WaferPoint,
                    scale_nm_per_px: float = DEFAULT_SCALE_NM_PER_PX,
                    canvas_px: tuple[int, int] = (DEFAULT_CANVAS_PX, DEFAULT_CANVAS_PX),
                    noise_sigma: float = 0.0, seed: int = 0) -> GrayImage:
    """Render a noisy top-view of one crossed junction at wafer point p.

    Band widths follow the first-order shadow model: the vertical bottom
    band is W'_b(x) wide, the horizontal top band W'_t(y).  noise_sigma is
    the Gaussian pixel-noise standard deviation as a fraction of full
    scale.  Deterministic per seed.

    The image is built in the noise buffer itself: the scaled noise is
    drawn into a float32 raster (zeros without noise), each pixel's level
    is added to it exactly once, by nine disjoint rectangles, and the
    rounded raster is clipped straight into the 8-bit output.  float32
    addition is commutative, so level + noise has the same bits as the
    noise added to a raster of levels; adding a level twice would round
    twice and could change them.
    """
    if noise_sigma > MAX_NOISE_SIGMA:
        raise DataError(f"noise sigma must be <= {MAX_NOISE_SIGMA:g}, got {noise_sigma}")
    width, height = canvas_px
    w_b_nm = actual_width_vertical(geom, design.w_bottom_nm, p.x_mm)
    w_t_nm = actual_width_vertical(geom, design.w_top_nm, p.y_mm)
    if w_b_nm / scale_nm_per_px > width or w_t_nm / scale_nm_per_px > height:
        raise DataError(
            f"electrode ({w_b_nm:.0f} x {w_t_nm:.0f} nm) exceeds the "
            f"{width}x{height} px canvas at {scale_nm_per_px} nm/px")
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        raster = rng.standard_normal((height, width), dtype=np.float32)
        raster *= np.float32(noise_sigma * 255.0)
    else:
        raster = np.zeros((height, width), dtype=np.float32)
    col_spans = _spans(_band_slice(w_b_nm, scale_nm_per_px, width), width)
    row_spans = _spans(_band_slice(w_t_nm, scale_nm_per_px, height), height)
    for rows, row_levels in zip(row_spans, _LEVELS):
        for cols, level in zip(col_spans, row_levels):
            raster[rows, cols] += level
    np.rint(raster, out=raster)
    pixels = np.empty((height, width), dtype=np.uint8)
    np.clip(raster, 0, 255, out=pixels, casting="unsafe")
    return GrayImage(scale_nm_per_px=scale_nm_per_px, pixels=pixels)


@dataclass(frozen=True)
class ExtractionResult:
    """Widths and overlap area recovered from one junction image."""

    w_top_nm: float
    w_bottom_nm: float
    a_overlap_um2: float
    thresholds_used: tuple[float, ...]                     # multipliers of the mean
    per_threshold_widths_px: dict[float, tuple[int, int]]  # (w_top, w_bottom); 0 = missed


def _find_band(occupancy: np.ndarray, line_length: int) -> tuple[int, int] | None:
    """Edges of the scan lines whose occupancy marks an electrode band.

    There is a single band per axis, so its edges are the first and last
    lines at or above half the peak occupancy; interior dips from a
    threshold sitting right at the band's intensity cannot shorten it.
    """
    peak = int(occupancy.max(initial=0))
    if peak < _MIN_OCCUPANCY * line_length:
        return None
    above = np.flatnonzero(occupancy >= 0.5 * peak)
    return int(above[0]), int(above[-1])


def bands_below_lowest_threshold(img: GrayImage) -> list[str]:
    """The electrode bands ("bottom", "top") rendered at a level below
    extract_widths' lowest threshold, so that it cannot find them in a
    noise-free image; bands that cover much of the canvas lift the image
    mean, and with it every threshold, that far."""
    lowest = THRESHOLD_RANGE[0] * float(img.pixels.mean())
    return [band for band, level in (("bottom", LEVEL_BOTTOM), ("top", LEVEL_TOP))
            if level < lowest]


def extract_widths(img: GrayImage,
                   threshold_count: int = DEFAULT_THRESHOLD_COUNT) -> ExtractionResult:
    """Recover electrode widths by sweeping mean-proportional thresholds.

    For each threshold in THRESHOLD_RANGE times the mean pixel value the
    image is binarized; the horizontal top band is located from row
    occupancy, then the vertical bottom band from column occupancy with
    the top-band rows blanked out.  Reported widths are the mean of the
    non-zero extents over the threshold sweep, and the overlap area the
    mean of the top-by-bottom boxes over the thresholds that found both
    bands, converted via the image scale.

    The pixels are integers, so a pixel is >= mult * mean exactly when it
    is >= the integer ceiling of that product: the mask is the one a
    float compare gives, without promoting the image to float64.  The
    occupancies are counted in the narrowest unsigned type that holds the
    longer image side, which bounds any row or column count.
    """
    if threshold_count < 1:
        raise DataError("threshold_count must be >= 1")
    pixels = img.pixels
    mean = float(pixels.mean())
    multipliers = tuple(float(m) for m in np.linspace(*THRESHOLD_RANGE, threshold_count))
    count_dtype = np.min_scalar_type(max(pixels.shape))

    binary = np.empty(pixels.shape, dtype=bool)     # one mask for every threshold
    per_widths: dict[float, tuple[int, int]] = {}
    tops_px, bottoms_px, areas_px2 = [], [], []
    for mult in multipliers:
        np.greater_equal(pixels, math.ceil(mult * mean), out=binary)
        wt = wb = 0
        band = _find_band(binary.sum(axis=1, dtype=count_dtype), img.width_px)
        if band is not None:
            r0, r1 = band
            wt = r1 - r0 + 1
            tops_px.append(wt)
            binary[r0:r1 + 1] = False
            cols = _find_band(binary.sum(axis=0, dtype=count_dtype), img.height_px)
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


def extract_overlap_area(img: GrayImage, result: ExtractionResult) -> float:
    """Overlap area in um^2 of an extraction result (its a_overlap_um2)."""
    return result.a_overlap_um2
