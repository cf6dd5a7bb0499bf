"""Raster containers, Otsu binarization and per-component geometry.

Images are plain 2-D ``numpy`` arrays.  A grayscale image holds uint8
intensities (0 = black, 255 = white); a binary image holds labels
{0, 1} where 1 marks object (ink) pixels and 0 the background.  The
validators below check those invariants and hand back read-only views;
every operation in the package is a pure function of its inputs, so
images can be processed in parallel without coordination.

Otsu's threshold compares the between-class variances of the splits as
exact ``Fraction`` values, so no rounding can move it.

Component labeling is two functions.  ``connected_components``
returns a read-only ``np.intp`` label map and the area of each label,
counted over the ink pixels alone (a page's label map is mostly
background); despeckling and deskew read only those.
``component_geometry`` gives the bounding boxes and the axis lengths,
for the callers that need them (a word, once).  It has two exact
paths, selected by the map's size.  A map under
``RUN_GEOMETRY_MIN_PX`` pixels is read pixel by pixel: boxes from
``ndi.find_objects``, means and moments from one pass over the ink.
A larger map is read as runs (maximal horizontal stretches of one
label): boxes and means come from the runs, and the second moments
add each run's row term, repeated, with per-pixel column terms in
raster order, so the sums are bitwise those of the pixel pass.  The
run pass takes 1.4-1.9x the pixel pass's time on maps under 2,048
pixels, about 1.05x at 4-8k, 0.8x at 8-16k and 0.5-0.7x above 32k
(2 vCPU, CPython 3.11, numpy 2.4, scipy 1.17), so the threshold sits
at 8,192.  Neither path alone does as well end to end on the same
host: with every map read as runs, the median word of the ``page``
and ``train`` benchmarks (maps under 8,192 pixels) takes 16-22% longer,
and with every map read pixel by pixel the 90th percentile word of
``big_words`` (256 px crops, 8,192 pixels and more) takes 30% longer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import ndimage as ndi

from scriptid._util import label_structure

__all__ = [
    "Geometry",
    "as_binary",
    "as_gray",
    "binarize",
    "component_geometry",
    "connected_components",
    "otsu_threshold",
    "remove_small_objects",
]

# label maps of at least this many pixels get their geometry from runs;
# below it the per-pixel pass is the faster one (module docstring)
RUN_GEOMETRY_MIN_PX = 8192


def as_gray(img) -> np.ndarray:
    """Validate a grayscale image and return it as a read-only uint8 array."""
    a = np.asarray(img)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("grayscale image must be a nonempty 2-D array")
    if a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"grayscale image must be integer-valued, got {a.dtype}")
        if a.min() < 0 or a.max() > 255:
            raise ValueError("grayscale intensities must lie in 0..255")
        a = a.astype(np.uint8)
    v = a.view()
    v.flags.writeable = False
    return v


def as_binary(img) -> np.ndarray:
    """Validate a {0,1} binary image and return it as a read-only uint8 array.

    The value check is a reduction (``max``, plus ``min`` for integer
    types other than uint8), so it makes no image-size temporary; only a
    bool or non-uint8 image is copied, by the conversion.
    """
    a = np.asarray(img)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("binary image must be a nonempty 2-D array")
    if a.dtype == np.bool_:
        a = a.astype(np.uint8)
    elif a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"binary image must be integer-valued, got {a.dtype}")
        if a.min() < 0 or a.max() > 1:
            raise ValueError("binary image values must be 0 or 1")
        a = a.astype(np.uint8)
    elif a.max() > 1:
        raise ValueError("binary image values must be 0 or 1")
    v = a.view()
    v.flags.writeable = False
    return v


class Geometry(NamedTuple):
    """Geometry of labeled components; row ``i`` describes label ``i + 1``.

    ``bbox`` rows are (row_min, col_min, row_max, col_max), inclusive.
    Axis lengths come from each component's equivalent ellipse: the 2x2
    covariance of its pixel coordinates gets a +1/12 per-pixel
    correction (a pixel is a unit square, not a point), and each axis
    is 4*sqrt(eigenvalue).  A single pixel therefore has equal axes.
    """

    bbox: np.ndarray  # (n, 4) np.intp
    major_axis_len: np.ndarray  # (n,) float64
    minor_axis_len: np.ndarray  # (n,) float64


def otsu_threshold(img) -> int:
    """Global threshold maximizing between-class variance of the histogram.

    Each split's variance is an exact ``Fraction``, so the argmax (and
    the smallest-t tie-break of ``max``) is deterministic and free of
    floating-point rounding.  A uniform image has zero between-class
    variance everywhere; its unique intensity is returned.
    """
    hist = np.bincount(as_gray(img).ravel(), minlength=256)
    lo, hi = np.flatnonzero(hist)[[0, -1]].tolist()
    if lo == hi:
        return lo
    # Python ints: the squared difference below overflows int64
    w_cum = hist.cumsum().tolist()
    s_cum = (hist * np.arange(256, dtype=np.int64)).cumsum().tolist()
    total_w, total_s = w_cum[-1], s_cum[-1]

    def between(t: int) -> Fraction:
        # (s0*w1 - s1*w0)^2 / (w0*w1), the variance times N^2; both
        # classes are nonempty for lo <= t < hi
        w0, s0 = w_cum[t], s_cum[t]
        w1 = total_w - w0
        return Fraction((s0 * w1 - (total_s - s0) * w0) ** 2, w0 * w1)

    return max(range(lo, hi), key=between)


def binarize(img, t: int) -> np.ndarray:
    """Map intensities <= t to 1 (ink is dark) and the rest to 0."""
    g = as_gray(img)
    return (g <= t).astype(np.uint8)


def connected_components(img, connectivity: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Label maximal connected sets of 1-pixels; returns ``(labels, area)``.

    ``labels`` is a read-only ``np.intp`` map, 0 on background.  Labels
    run from 1 in raster-scan order of each component's first pixel.
    That order is ``ndi.label``'s own (its union-find keeps the smallest
    label as root and numbers roots in increasing order), and the tests
    pin it against a flood-fill oracle.  ``area[i]`` is the pixel count
    of label ``i + 1``, counted over the ink pixels only.
    """
    b = as_binary(img)
    labels, n = ndi.label(b, structure=label_structure(connectivity), output=np.intp)
    labels.flags.writeable = False
    area = np.bincount(labels.ravel().compress(b.ravel().view(bool)), minlength=n + 1)[1:]
    return labels, area


def component_geometry(labels: np.ndarray, area: np.ndarray) -> Geometry:
    """Bounding boxes and axis lengths of every label.

    ``labels`` and ``area`` are as ``connected_components`` returns them
    (any numbering of 1..n in which every label has a pixel will do).
    A map of ``RUN_GEOMETRY_MIN_PX`` pixels or more is read as runs,
    a smaller one pixel by pixel; both give the same bytes.
    """
    if labels.size >= RUN_GEOMETRY_MIN_PX:
        return _run_geometry(labels, area)
    return _pixel_geometry(labels, area)


def _pixel_geometry(labels: np.ndarray, area: np.ndarray) -> Geometry:
    """Boxes from ``ndi.find_objects``, moments from one pass over the ink pixels."""
    n = len(area)
    boxes = [(r.start, c.start, r.stop - 1, c.stop - 1) for r, c in ndi.find_objects(labels, n)]
    bbox = np.array(boxes, dtype=np.intp).reshape(n, 4)

    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    rows, cols = np.divmod(idx, labels.shape[1])
    # float once: bincount would convert integer weights on every call
    rows = rows.astype(np.float64)
    cols = cols.astype(np.float64)
    mean_r = np.bincount(lab, weights=rows, minlength=n + 1)[1:] / area
    mean_c = np.bincount(lab, weights=cols, minlength=n + 1)[1:] / area
    slot = lab - 1
    return _ellipse_geometry(bbox, area, lab, rows - mean_r[slot], cols - mean_c[slot])


def _run_geometry(labels: np.ndarray, area: np.ndarray) -> Geometry:
    """Boxes and means from the map's runs, moments from the runs' pixels.

    A run is a maximal horizontal stretch of one label, and runs are
    taken in raster order.  Each run's row term is repeated over its
    pixels, so the moment sums add the same values in the same order as
    ``_pixel_geometry``: the bytes are equal.
    """
    n = len(area)
    h, w = labels.shape
    flat = labels.ravel()
    # a stretch starts at every row start and wherever the label changes
    starts = np.ones((h, w), dtype=bool)
    np.not_equal(labels[:, 1:], labels[:, :-1], out=starts[:, 1:])
    first = np.flatnonzero(starts)
    length = np.diff(first, append=flat.size)
    lab = flat[first]
    ink = lab != 0
    first, length, lab = first[ink], length[ink], lab[ink]
    row, c0 = np.divmod(first, w)
    c1 = c0 + length - 1

    # a label's runs in raster order: its first run holds its top row,
    # its last run its bottom row
    order = np.argsort(lab, kind="stable")
    count = np.bincount(lab, minlength=n + 1)[1:]
    end = np.cumsum(count)
    head = end - count
    left = np.minimum.reduceat(c0[order], head)
    right = np.maximum.reduceat(c1[order], head)
    bbox = np.stack((row[order[head]], left, row[order[end - 1]], right), axis=1)

    # exact integer sums; a run covers columns c0..c1
    sum_r = np.bincount(lab, weights=row * length, minlength=n + 1)[1:]
    sum_c = np.bincount(lab, weights=(c0 + c1) * length // 2, minlength=n + 1)[1:]
    mean_r = sum_r / area
    mean_c = sum_c / area
    slot = lab - 1
    # each pixel's column: its run's first column plus its place in the run
    cols = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - c0, length)
    dr = np.repeat(row - mean_r[slot], length)
    dc = cols.astype(np.float64) - np.repeat(mean_c[slot], length)
    return _ellipse_geometry(bbox, area, np.repeat(lab, length), dr, dc)


def _ellipse_geometry(bbox, area, lab, dr, dc) -> Geometry:
    """``Geometry`` from the per-pixel labels and centred coordinates,
    summed in raster order."""
    n = len(area)
    mu_rr = np.bincount(lab, weights=dr * dr, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_cc = np.bincount(lab, weights=dc * dc, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_rc = np.bincount(lab, weights=dr * dc, minlength=n + 1)[1:] / area
    common = np.sqrt((mu_rr - mu_cc) ** 2 + 4.0 * mu_rc**2)
    lam1 = (mu_rr + mu_cc + common) / 2.0
    lam2 = np.maximum((mu_rr + mu_cc - common) / 2.0, 0.0)
    return Geometry(
        bbox=bbox,
        major_axis_len=4.0 * np.sqrt(lam1),
        minor_axis_len=4.0 * np.sqrt(lam2),
    )


def remove_small_objects(img, min_area: int = 15) -> np.ndarray:
    """Drop every 8-connected component with fewer than ``min_area`` pixels.

    Speckle cleanup for scanned pages: quotation marks, stray dots and
    similar debris vanish while every surviving glyph keeps its exact
    shape (the filter is a pure component-area criterion).
    """
    if min_area < 0:
        raise ValueError("min_area must be nonnegative")
    labels, area = connected_components(img, connectivity=8)
    keep = np.concatenate(([False], area >= min_area))  # indexed by label
    return keep.view(np.uint8)[labels]
