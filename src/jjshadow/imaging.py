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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ExtractionError
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

DEFAULT_THRESHOLD_COUNT = 11
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
    """Write binary PGM (P5), scale recorded as a comment."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n# scale_nm_per_px {img.scale_nm_per_px!r}\n".encode())
        fh.write(f"{img.width_px} {img.height_px}\n255\n".encode())
        fh.write(img.pixels.tobytes())


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
        if pos >= len(data):
            raise DataError(f"{path}: truncated PGM header")
        if data[pos:pos + 1].isspace():
            pos += 1
            continue
        if data[pos:pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise DataError(f"{path}: truncated PGM header")
            comment = data[pos + 1:end].split()
            if len(comment) == 2 and comment[0] == b"scale_nm_per_px":
                comment_scale = comment[1]
            pos = end + 1
            continue
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
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
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise DataError(f"{path}: raster size mismatch")
    scale = scale_nm_per_px if scale_nm_per_px is not None else comment_scale
    if scale is None:
        raise DataError(f"{path}: no scale given and none recorded in the file")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    try:
        return GrayImage(scale_nm_per_px=float(scale), pixels=pixels.copy())
    except (ValueError, DataError) as exc:
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


def band_pixel_count(width_nm: float, scale_nm_per_px: float, canvas_px: int) -> int:
    """Number of pixel rows/columns a centred band of width_nm covers.

    This is the rendered ground truth the extractor is checked against.
    """
    band = _band_slice(width_nm, scale_nm_per_px, canvas_px)
    return max(0, band.stop - band.start)


def render_junction(geom: EvaporatorGeometry, design: JunctionDesign, p: WaferPoint,
                    scale_nm_per_px: float = 2.0,
                    canvas_px: tuple[int, int] = (512, 512),
                    noise_sigma: float = 0.0, seed: int = 0) -> GrayImage:
    """Render a noisy top-view of one crossed junction at wafer point p.

    Band widths follow the first-order shadow model: the vertical bottom
    band is W'_b(x) wide, the horizontal top band W'_t(y).  noise_sigma is
    the Gaussian pixel-noise standard deviation as a fraction of full
    scale.  Deterministic per seed.
    """
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
    peak = occupancy.max(initial=0)
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
    """
    if threshold_count < 1:
        raise DataError("threshold_count must be >= 1")
    pixels = img.pixels
    mean = float(pixels.mean())
    multipliers = tuple(float(m) for m in np.linspace(*THRESHOLD_RANGE, threshold_count))

    per_widths: dict[float, tuple[int, int]] = {}
    tops_px, bottoms_px, areas_px2 = [], [], []
    for mult in multipliers:
        binary = pixels >= mult * mean
        wt = wb = 0
        band = _find_band(binary.sum(axis=1), img.width_px)
        if band is not None:
            r0, r1 = band
            wt = r1 - r0 + 1
            tops_px.append(wt)
            binary[r0:r1 + 1] = False
            cols = _find_band(binary.sum(axis=0), img.height_px)
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
