"""Page decomposition: skew correction, text lines, words.

Lines come from valleys of the horizontal projection profile (row-wise
ink counts), words from valleys of each line's vertical projection.
Inter-word gaps are told apart from inter-character gaps by a minimum
gap width proportional to the line height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scriptid import morphology
from scriptid._util import round_half_up
from scriptid.imaging import as_binary, connected_components

__all__ = [
    "LineBand",
    "WordBox",
    "deskew",
    "horizontal_projection",
    "rotate_binary",
    "segment_lines",
    "segment_words",
    "vertical_projection",
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


def horizontal_projection(img) -> np.ndarray:
    """Per-row object-pixel counts."""
    return as_binary(img).sum(axis=1, dtype=np.int64)


def vertical_projection(img) -> np.ndarray:
    """Per-column object-pixel counts."""
    return as_binary(img).sum(axis=0, dtype=np.int64)


def _runs(flags: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end] (inclusive) runs of True."""
    if not flags.any():
        return []
    padded = np.diff(np.concatenate(([0], flags.view(np.uint8), [0])))
    starts = np.flatnonzero(padded == 1)
    ends = np.flatnonzero(padded == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def segment_lines(page, tau_line: int = 0, min_line_height: int = 5) -> list[LineBand]:
    """Text-line bands: maximal row runs with projection above ``tau_line``.

    Runs shorter than ``min_line_height`` rows are discarded as noise.
    """
    proj = horizontal_projection(page)
    bands = []
    for start, end in _runs(proj > tau_line):
        if end - start + 1 >= min_line_height:
            bands.append(LineBand(row_start=int(start), row_end=int(end)))
    return bands


def segment_words(
    page,
    line: LineBand,
    tau_word: int = 0,
    gap_frac: float = 0.2,
    gap_min_floor: int = 2,
) -> list[WordBox]:
    """Word boxes in one line, split at wide vertical-projection valleys.

    Column gaps (projection <= ``tau_word``) at least
    ``max(gap_min_floor, round(gap_frac * line height))`` wide separate
    words; narrower gaps are treated as inter-character spacing.  Each
    box is trimmed to its ink extent.
    """
    # the projection validates the band it reads, not the whole page
    proj = vertical_projection(np.asarray(page)[line.row_start : line.row_end + 1])
    ink_runs = _runs(proj > tau_word)
    if not ink_runs:
        return []
    gap_min = max(gap_min_floor, round_half_up(gap_frac * line.height))
    boxes = []
    cur_start, cur_end = ink_runs[0]
    for start, end in ink_runs[1:]:
        if start - cur_end - 1 >= gap_min:
            boxes.append(WordBox(line=line, col_start=int(cur_start), col_end=int(cur_end)))
            cur_start, cur_end = start, end
        else:
            cur_end = end
    boxes.append(WordBox(line=line, col_start=int(cur_start), col_end=int(cur_end)))
    return boxes


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


def deskew(
    page,
    max_angle: float = 15.0,
    step: float = 0.1,
    dilate_len: int = 10,
    min_area: int = 15,
) -> tuple[np.ndarray, float]:
    """Estimate and remove page skew; returns (deskewed page, angle).

    The page is dilated with ``morphology.dilate`` by a vertical line SE
    of length ``dilate_len`` (at least 1: rows -(L//2) .. L-L//2-1 around
    each pixel, so an even length reaches one row further up than down)
    so characters clump into word blobs, blobs smaller than
    ``min_area`` pixels are dropped, and the skew angle is the candidate in
    [-max_angle, +max_angle] whose un-rotation packs the surviving ink
    into the sharpest horizontal bands (maximum variance of the row
    projection).  The search runs coarse-to-fine down to ``step``
    degrees.  Pages with fewer than two blobs are returned unchanged
    with angle 0.  ``step`` must be finite and positive, ``max_angle``
    finite and nonnegative.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not (math.isfinite(max_angle) and max_angle >= 0):
        raise ValueError(f"max_angle must be finite and >= 0, got {max_angle}")
    if dilate_len < 1:
        raise ValueError(f"dilate_len must be >= 1, got {dilate_len}")
    b = as_binary(page)
    blobs = morphology.dilate(b, morphology.StructuringElement(90, dilate_len))
    labels, area = connected_components(blobs, connectivity=8)
    keep = np.concatenate(([False], area >= min_area))  # indexed by label
    if np.count_nonzero(keep) < 2:
        return b.copy(), 0.0
    ink = np.flatnonzero(keep[labels] & b.view(bool))
    if ink.size > 30000:  # plenty for the variance signal
        ink = ink[np.linspace(0, ink.size - 1, 30000).astype(np.int64)]
    h, w = b.shape
    rr, cc = np.divmod(ink, w)
    drow = rr.astype(np.float64) - (h - 1) / 2.0
    dcol = cc.astype(np.float64) - (w - 1) / 2.0

    def score(angle):
        return _alignment_score(drow, dcol, angle)

    # each grid holds the multiples of its step within +-max_angle (the
    # round guards against float error); max keeps the first best angle
    coarse_step = max(step, 1.0)
    n = math.floor(round(max_angle / coarse_step, 9))
    coarse = [round(k * coarse_step, 6) for k in range(-n, n + 1)]
    angle = max(coarse, key=score)
    if step < coarse_step:
        lo = max(-max_angle, angle - coarse_step)
        hi = min(max_angle, angle + coarse_step)
        k0 = math.ceil(round(lo / step, 9))
        k1 = math.floor(round(hi / step, 9))
        angle = max((round(k * step, 6) for k in range(k0, k1 + 1)), key=score)
    return rotate_binary(b, -angle), angle
