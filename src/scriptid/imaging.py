"""Raster containers, Otsu binarization and per-component geometry.

Images are plain 2-D ``numpy`` arrays.  A grayscale image holds uint8
intensities (0 = black, 255 = white); a binary image holds labels
{0, 1} where 1 marks object (ink) pixels and 0 the background.  The
validators below check those invariants and hand back read-only views;
every operation in the package is a pure function of its inputs, so
images can be processed in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from scriptid._util import label_structure

__all__ = [
    "ComponentStats",
    "as_binary",
    "as_gray",
    "binarize",
    "component_eccentricity",
    "component_extent",
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
    """Validate a {0,1} binary image and return it as a read-only uint8 array."""
    a = np.asarray(img)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("binary image must be a nonempty 2-D array")
    if a.dtype == np.bool_:
        a = a.astype(np.uint8)
    elif a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"binary image must be integer-valued, got {a.dtype}")
        if ((a != 0) & (a != 1)).any():
            raise ValueError("binary image values must be 0 or 1")
        a = a.astype(np.uint8)
    else:
        if (a > 1).any():
            raise ValueError("binary image values must be 0 or 1")
    v = a.view()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ComponentStats:
    """Geometry of one connected component.

    ``bbox`` is (row_min, col_min, row_max, col_max), inclusive.  Axis
    lengths come from the component's equivalent ellipse: the 2x2
    covariance of its pixel coordinates gets a +1/12 per-pixel
    correction (a pixel is a unit square, not a point), and each axis
    is 4*sqrt(eigenvalue).  A single pixel therefore has equal axes.
    """

    id: int
    area: int
    bbox: tuple[int, int, int, int]
    centroid: tuple[float, float]
    major_axis_len: float
    minor_axis_len: float

    @property
    def bbox_height(self) -> int:
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def bbox_width(self) -> int:
        return self.bbox[3] - self.bbox[1] + 1


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


def connected_components(img, connectivity: int = 8) -> tuple[list[ComponentStats], np.ndarray]:
    """Label maximal connected sets of 1-pixels.

    Labels run from 1 in raster-scan order of each component's first
    pixel.  That order is ``ndi.label``'s own (its union-find keeps the
    smallest label as root and numbers roots in increasing order), and
    the tests pin it against a flood-fill oracle.  Returns the
    per-component stats and the int32 label map.
    """
    b = as_binary(img)
    labels, n = ndi.label(b, structure=label_structure(connectivity))
    return _component_stats(labels, n), labels


def _component_stats(labels: np.ndarray, n: int) -> list[ComponentStats]:
    h, w = labels.shape
    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    rows = (idx // w).astype(np.float64)
    cols = (idx % w).astype(np.float64)

    area = np.bincount(lab, minlength=n + 1)[1:]
    sum_r = np.bincount(lab, weights=rows, minlength=n + 1)[1:]
    sum_c = np.bincount(lab, weights=cols, minlength=n + 1)[1:]
    mean_r = sum_r / area
    mean_c = sum_c / area

    # centered second moments (computed from residuals for accuracy)
    dr = rows - mean_r[lab - 1]
    dc = cols - mean_c[lab - 1]
    mu_rr = np.bincount(lab, weights=dr * dr, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_cc = np.bincount(lab, weights=dc * dc, minlength=n + 1)[1:] / area + 1.0 / 12.0
    mu_rc = np.bincount(lab, weights=dr * dc, minlength=n + 1)[1:] / area

    common = np.sqrt((mu_rr - mu_cc) ** 2 + 4.0 * mu_rc**2)
    lam1 = (mu_rr + mu_cc + common) / 2.0
    lam2 = np.maximum((mu_rr + mu_cc - common) / 2.0, 0.0)
    major = 4.0 * np.sqrt(lam1)
    minor = 4.0 * np.sqrt(lam2)

    slices = ndi.find_objects(labels, max_label=n)
    stats = []
    for i in range(n):
        sl = slices[i]
        stats.append(
            ComponentStats(
                id=i + 1,
                area=int(area[i]),
                bbox=(sl[0].start, sl[1].start, sl[0].stop - 1, sl[1].stop - 1),
                centroid=(float(mean_r[i]), float(mean_c[i])),
                major_axis_len=float(major[i]),
                minor_axis_len=float(minor[i]),
            )
        )
    return stats


def component_eccentricity(c: ComponentStats) -> float:
    """Minor-axis length over major-axis length, in [0, 1].

    Note this is the axis-length ratio itself, not the conventional
    ellipse eccentricity sqrt(1 - (b/a)^2); round components score near
    1, elongated ones near 0.  A single pixel scores exactly 1.
    """
    return c.minor_axis_len / c.major_axis_len


def component_extent(c: ComponentStats) -> float:
    """Fraction of the bounding box covered by the component, in (0, 1]."""
    return c.area / float(c.bbox_height * c.bbox_width)


def remove_small_objects(img, min_area: int = 15) -> np.ndarray:
    """Drop every 8-connected component with fewer than ``min_area`` pixels.

    Speckle cleanup for scanned pages: quotation marks, stray dots and
    similar debris vanish while every surviving glyph keeps its exact
    shape (the filter is a pure component-area criterion).
    """
    if min_area < 0:
        raise ValueError("min_area must be nonnegative")
    labels, _ = ndi.label(as_binary(img), structure=label_structure(8))
    keep = (np.bincount(labels.ravel()) >= min_area).astype(np.uint8)
    keep[0] = 0
    return keep[labels]
