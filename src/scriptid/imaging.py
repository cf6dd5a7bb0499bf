"""Raster containers, Otsu binarization and per-component geometry.

Images are plain 2-D ``numpy`` arrays.  A grayscale image holds uint8
intensities (0 = black, 255 = white); a binary image holds labels
{0, 1} where 1 marks object (ink) pixels and 0 the background.  The
validators below check those invariants and hand back read-only views;
every operation in the package is a pure function of its inputs, so
images can be processed in parallel without coordination.

Component labeling is two functions.  ``connected_components``
returns a read-only ``np.intp`` label map and the area of each label;
despeckling and deskew read only those.  ``component_geometry`` makes
the one moment pass behind bounding boxes, centroids and axis lengths,
for the callers that need them (a word, once).
"""

from __future__ import annotations

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

    ``bbox`` rows are (row_min, col_min, row_max, col_max), inclusive;
    ``centroid`` rows are (row, col).  Axis lengths come from each
    component's equivalent ellipse: the 2x2 covariance of its pixel
    coordinates gets a +1/12 per-pixel correction (a pixel is a unit
    square, not a point), and each axis is 4*sqrt(eigenvalue).  A
    single pixel therefore has equal axes.
    """

    bbox: np.ndarray  # (n, 4) int
    centroid: np.ndarray  # (n, 2) float64
    major_axis_len: np.ndarray  # (n,) float64
    minor_axis_len: np.ndarray  # (n,) float64


def otsu_threshold(img) -> int:
    """Global threshold maximizing between-class variance of the histogram.

    The criterion is evaluated in exact integer arithmetic, so the
    argmax (and the smallest-t tie-break) is deterministic and free of
    floating-point rounding.  A uniform image has zero between-class
    variance everywhere; its unique intensity is returned.
    """
    g = as_gray(img)
    hist = np.bincount(g.ravel(), minlength=256)
    lo = int(g.min())
    hi = int(g.max())
    if lo == hi:
        return lo
    w_cum = hist.cumsum()
    s_cum = (hist * np.arange(256, dtype=np.int64)).cumsum()
    total_w = int(w_cum[-1])
    total_s = int(s_cum[-1])
    best_t = 0
    best_num = -1
    best_den = 1
    for t in range(lo, hi):
        w0 = int(w_cum[t])
        w1 = total_w - w0
        if w0 == 0 or w1 == 0:
            continue
        s0 = int(s_cum[t])
        # between-class variance = (s0*w1 - s1*w0)^2 / (w0*w1*N^2);
        # compare the fractions by cross-multiplication in big ints
        d = s0 * w1 - (total_s - s0) * w0
        num = d * d
        if num * best_den > best_num * (w0 * w1):
            best_num = num
            best_den = w0 * w1
            best_t = t
    return best_t


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
    of label ``i + 1``.
    """
    b = as_binary(img)
    labels, n = ndi.label(b, structure=label_structure(connectivity), output=np.intp)
    labels.flags.writeable = False
    area = np.bincount(labels.ravel(), minlength=n + 1)[1:]
    return labels, area


def component_geometry(labels: np.ndarray, area: np.ndarray) -> Geometry:
    """Bounding boxes, centroids and axis lengths of every label.

    ``labels`` and ``area`` are as ``connected_components`` returns them.
    One pass over the ink pixels serves every field.
    """
    n = len(area)
    h, w = labels.shape
    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    rows, cols = np.divmod(idx, w)

    # rows: row_min, col_min, row_max, col_max; one column per label, 0 = background
    bounds = np.array([h, w, -1, -1]).repeat(n + 1).reshape(4, n + 1)
    np.minimum.at(bounds[0], lab, rows)
    np.minimum.at(bounds[1], lab, cols)
    np.maximum.at(bounds[2], lab, rows)
    np.maximum.at(bounds[3], lab, cols)

    # float once: bincount would convert integer weights on every call
    rows = rows.astype(np.float64)
    cols = cols.astype(np.float64)
    mean_r = np.bincount(lab, weights=rows, minlength=n + 1)[1:] / area
    mean_c = np.bincount(lab, weights=cols, minlength=n + 1)[1:] / area

    # centered second moments (computed from residuals for accuracy)
    slot = lab - 1
    dr = rows - mean_r[slot]
    dc = cols - mean_c[slot]
    mu_rr = np.bincount(lab, weights=dr * dr, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_cc = np.bincount(lab, weights=dc * dc, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_rc = np.bincount(lab, weights=dr * dc, minlength=n + 1)[1:] / area

    common = np.sqrt((mu_rr - mu_cc) ** 2 + 4.0 * mu_rc**2)
    lam1 = (mu_rr + mu_cc + common) / 2.0
    lam2 = np.maximum((mu_rr + mu_cc - common) / 2.0, 0.0)
    return Geometry(
        bbox=bounds[:, 1:].T,
        centroid=np.column_stack((mean_r, mean_c)),
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
