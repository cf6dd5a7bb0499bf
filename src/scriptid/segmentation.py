"""Page decomposition: skew correction, text lines, words.

Lines are the row runs where the horizontal projection profile (row-wise
ink counts) exceeds ``cfg.tau_line``; words are the column runs of each
line's vertical projection above ``cfg.tau_word``, merged across gaps
narrower than a minimum width proportional to the line height.  Both
read their runs with ``imaging._ink_runs``, the run finder of the word
geometry, and cut them with array arithmetic.

The stages read their thresholds from a ``PipelineConfig``;
``rotate_binary``, a primitive, takes a plain angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scriptid import morphology
from scriptid._util import round_half_up
from scriptid.config import PipelineConfig
from scriptid.imaging import _component_runs, _ink_runs, _without_runs, as_binary
from scriptid.imaging import connected_components  # noqa: F401  bench/tracing.py patches it here

__all__ = [
    "LineBand",
    "WordBox",
    "deskew",
    "rotate_binary",
    "segment_lines",
    "segment_words",
]

# rows rotate_binary maps per pass: its float temporaries stay a few
# hundred KB instead of several copies of the page
_ROTATE_BLOCK_ROWS = 64


@dataclass(frozen=True)
class LineBand:
    """Row span of one text line, inclusive."""

    row_start: int
    row_end: int

    @property
    def height(self) -> int:
        return self.row_end - self.row_start + 1


@dataclass(frozen=True)
class WordBox:
    """Column span of one word inside a line, inclusive."""

    line: LineBand
    col_start: int
    col_end: int


def _runs(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, last)`` indices of the maximal runs of True in a 1-D mask."""
    first, length = _ink_runs(flags.view(np.uint8)[None, :])
    return first, first + length - 1


def segment_lines(page, cfg: PipelineConfig = PipelineConfig()) -> list[LineBand]:
    """Text-line bands: maximal row runs with projection above ``cfg.tau_line``.

    Runs shorter than ``cfg.min_line_height`` rows are discarded as noise.
    """
    first, last = _runs(as_binary(page).sum(axis=1, dtype=np.int64) > cfg.tau_line)
    keep = last - first + 1 >= cfg.min_line_height
    return [LineBand(row_start=r0, row_end=r1) for r0, r1 in zip(first[keep].tolist(), last[keep].tolist())]


def segment_words(page, line: LineBand, cfg: PipelineConfig = PipelineConfig()) -> list[WordBox]:
    """Word boxes in one line, split at wide vertical-projection valleys.

    Column gaps (projection <= ``cfg.tau_word``) at least
    ``max(cfg.gap_min_floor, round(cfg.gap_frac * line height))`` wide separate
    words; narrower gaps are treated as inter-character spacing.  Each
    box is trimmed to its ink extent.
    """
    # validate the band this reads, not the whole page
    band = as_binary(np.asarray(page)[line.row_start : line.row_end + 1])
    first, last = _runs(band.sum(axis=0, dtype=np.int64) > cfg.tau_word)
    if first.size == 0:
        return []
    gap_min = max(cfg.gap_min_floor, round_half_up(cfg.gap_frac * line.height))
    # a word ends before each wide gap and the next one starts after it
    cut = np.flatnonzero(first[1:] - last[:-1] - 1 >= gap_min)
    starts = first[np.concatenate(([0], cut + 1))]
    ends = last[np.append(cut, last.size - 1)]
    return [WordBox(line=line, col_start=c0, col_end=c1) for c0, c1 in zip(starts.tolist(), ends.tolist())]


def rotate_binary(img, degrees: float) -> np.ndarray:
    """Rotate a binary raster about its center, nearest-neighbor sampling.

    The output has the input's shape and is a fresh uint8 array; pixels
    whose source falls outside the input are background.  The frame is
    not enlarged, so ink rotated past it is dropped: at larger angles
    the corners of a full frame are cut off.  Values stay in {0, 1}.  A
    non-finite angle raises ``ValueError``.
    """
    if not math.isfinite(degrees):
        raise ValueError(f"rotation angle must be finite, got {degrees}")
    b = as_binary(img)
    if degrees == 0.0:
        return b.copy()
    h, w = b.shape
    a = math.radians(degrees)
    cos_a, sin_a = math.cos(a), math.sin(a)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    dy = np.arange(h, dtype=np.float64)[:, None] - cy
    dx = np.arange(w, dtype=np.float64) - cx
    # row and column terms of the inverse rotation, per row and per column
    row_dy, col_dy = cos_a * dy, -sin_a * dy
    row_dx, col_dx = sin_a * dx, cos_a * dx
    # content rotated by +degrees: sample the source at the inverse rotation;
    # a source outside the input lands on the zero border of the padded copy
    src = np.pad(b, 1)
    out = np.empty((h, w), dtype=np.uint8)
    for r0 in range(0, h, _ROTATE_BLOCK_ROWS):
        r1 = r0 + _ROTATE_BLOCK_ROWS
        src_r = np.rint(row_dy[r0:r1] + row_dx + cy)
        src_c = np.rint(col_dy[r0:r1] + col_dx + cx)
        np.clip(src_r, -1, h, out=src_r)
        np.clip(src_c, -1, w, out=src_c)
        # flat index (r + 1) * (w + 2) + (c + 1), exact in float64
        src_r *= w + 2
        src_r += src_c
        src_r += w + 3
        # every index is in range; "clip" only spares take's buffered out=
        src.take(src_r.astype(np.intp), out=out[r0:r1], mode="clip")
    return out


def _alignment_score(drow: np.ndarray, dcol: np.ndarray, degrees: float) -> float:
    """Variance of the row projection of ink points unrotated by ``degrees``.

    Counts are split linearly between the two neighbouring row bins;
    plain rounding would hand integral angles (where pixel rows quantize
    exactly) an artificial variance bonus over fractional ones.
    """
    a = math.radians(degrees)
    rows = math.cos(a) * drow + math.sin(a) * dcol
    rows -= rows.min()
    lo = rows.astype(np.int64)
    frac = rows - lo
    n_bins = int(lo.max()) + 2
    hist = np.bincount(lo, weights=1.0 - frac, minlength=n_bins)
    hist += np.bincount(lo + 1, weights=frac, minlength=n_bins)
    return float(np.var(hist))


def _grid(lo: float, hi: float, step: float) -> list[float]:
    """The multiples of ``step`` in ``[lo, hi]``, ascending, rounded to 1e-6
    degrees (the rounding to 1e-9 steps guards the ends against float
    error)."""
    k0 = math.ceil(round(lo / step, 9))
    k1 = math.floor(round(hi / step, 9))
    return [round(k * step, 6) for k in range(k0, k1 + 1)]


def deskew(page, cfg: PipelineConfig = PipelineConfig()) -> tuple[np.ndarray, float]:
    """Estimate and remove page skew; returns (deskewed page, angle).

    The page is dilated with ``morphology.dilate`` by a vertical line SE
    of length ``cfg.deskew_dilate_len`` (rows -(L//2) .. L-L//2-1 around
    each pixel, so an even length reaches one row further up than down)
    so characters clump into word blobs.  The blobs are labeled through
    their ink runs (``imaging._component_runs``), with no label map; the
    page ink under the runs of blobs smaller than ``cfg.min_area``
    pixels is dropped.  The skew angle is the candidate in [-max, +max]
    (``cfg.deskew_max_angle``) whose un-rotation packs the surviving ink
    into the sharpest horizontal bands (maximum variance of the row
    projection).  The search runs coarse-to-fine down to
    ``cfg.deskew_step`` degrees.  Pages with fewer than two blobs of at
    least ``cfg.min_area`` pixels are returned unchanged with angle 0.
    """
    max_angle, step = cfg.deskew_max_angle, cfg.deskew_step
    b = as_binary(page)
    blobs = morphology.dilate(b, morphology.StructuringElement(90, cfg.deskew_dilate_len))
    first, length, comp, area = _component_runs(blobs)
    keep = area >= cfg.min_area
    if np.count_nonzero(keep) < 2:
        return b.copy(), 0.0
    # every ink pixel lies in its blob: drop the ink under the small blobs' runs
    dropped = ~keep[comp]
    ink = np.flatnonzero(_without_runs(b, first[dropped], length[dropped]))
    if ink.size > 30000:  # plenty for the variance signal
        ink = ink[np.linspace(0, ink.size - 1, 30000).astype(np.int64)]
    h, w = b.shape
    rr, cc = np.divmod(ink, w)
    drow = rr.astype(np.float64) - (h - 1) / 2.0
    dcol = cc.astype(np.float64) - (w - 1) / 2.0

    def score(angle):
        return _alignment_score(drow, dcol, angle)

    # coarse whole degrees (or ``step``, if coarser) over the whole range,
    # then ``step`` around the coarse winner; max keeps the first best angle
    coarse_step = max(step, 1.0)
    angle = max(_grid(-max_angle, max_angle, coarse_step), key=score)
    if step < coarse_step:
        lo = max(-max_angle, angle - coarse_step)
        hi = min(max_angle, angle + coarse_step)
        angle = max(_grid(lo, hi, step), key=score)
    return rotate_binary(b, -angle), angle
