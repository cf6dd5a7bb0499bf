"""Raster containers, Otsu binarization and per-component geometry.

Images are plain 2-D ``numpy`` arrays.  A grayscale image holds uint8
intensities (0 = black, 255 = white); a binary image holds labels
{0, 1} where 1 marks object (ink) pixels and 0 the background.  The
validators below check those invariants and hand back read-only views;
every operation in the package is a pure function of its inputs, so
images can be processed in parallel without coordination.

Otsu's threshold compares the between-class variances of the splits as
exact ``Fraction`` values, so no rounding can move it.

Words read label maps, pages read runs.  ``connected_components``
only labels: it returns a read-only ``np.intp`` label map and the label
count, as ``ndi.label`` does.  ``component_geometry`` measures the
labeled components, areas with the bounding boxes and the axis
lengths, for the callers that need them (a word, once).  Page-level
callers (despeckling, deskew's blobs and ``preprocess``'s component
count) need only areas, a count or the page less its small
components, so ``_component_runs`` labels the page's ink runs instead
of its pixels (run-based labeling: Rosenfeld and Pfaltz, JACM 1966;
He, Chao and Suzuki, IEEE TIP 2008) and adds up each component's run
lengths.  It joins each run to the runs it touches on the next row,
labels that graph with ``scipy.sparse.csgraph`` and writes no
page-size map.  Words keep ``ndi.label``: their openings read the map,
and on 24-64 px crops the graph labeler's fixed cost loses (217 and
259 us against 48 and 186 us with areas, medians over word crops, 2
vCPU, CPython 3.11, numpy 2.4, scipy 1.17).

``component_geometry`` has two exact paths, selected by the map's
size; no other function switches on it.  A map under
``RUN_GEOMETRY_MIN_PX`` pixels is read pixel by pixel: areas from the
labels of the ink pixels, boxes from ``ndi.find_objects``, means and
moments from one pass over the ink.  A larger one is read as the
image's ink runs (maximal horizontal stretches of ink, found by two
byte comparisons on the uint8 image).  Every horizontal neighbour in
ink shares a component under 4- and 8-connectivity alike, so each run
lies inside one component and the map is read once per run, at its
first pixel.  Areas add up run lengths; boxes and means come from the
runs, and the second moments add each run's row term, repeated, with
per-pixel column terms in raster order, so the sums are bitwise those
of the pixel pass.  The per-component tail of the ellipse runs in
Python floats, one correctly rounded operation per step, as the same
steps over float64 arrays would.

Against the pixel pass, on word crops (2 vCPU, CPython 3.11, numpy
2.4, scipy 1.17), the run geometry takes 1.6x the time under 2,048
pixels, 1.15x at 2-4k, 0.87x at 4-8k, 0.69x at 8-16k and 0.5x above
16k.  The two cross on either side of 8,192 pixels, and an end-to-end
threshold of 4,096 left the median and 90th-percentile ``big_words``
word unchanged within noise, so the threshold stays at 8,192.  Neither
path alone does as well end to end (measured with the geometry alone
on runs): with every map read as runs, the median word of the
``page`` and ``train`` benchmarks (maps under 8,192 pixels) took
16-22% longer, and with every map read pixel by pixel the 90th
percentile word of ``big_words`` (256 px crops, 8,192 pixels and
more) took 30% longer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import ndimage as ndi

from scriptid._util import is_int, label_structure

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

# label maps of at least this many pixels get their geometry from ink
# runs; below it the per-pixel pass is the faster one (module docstring)
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

    ``area`` is each component's pixel count, counted over its ink
    pixels.  ``bbox`` rows are (row_min, col_min, row_max, col_max),
    inclusive.  Axis lengths come from each component's equivalent ellipse: the 2x2
    covariance of its pixel coordinates gets a +1/12 per-pixel
    correction (a pixel is a unit square, not a point), and each axis
    is 4*sqrt(eigenvalue).  A single pixel therefore has equal axes.
    """

    area: np.ndarray  # (n,) np.intp
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
    """Map intensities <= t to 1 (ink is dark) and the rest to 0; ``t``
    is an integer in 0..255, as ``otsu_threshold`` returns."""
    if not (is_int(t) and 0 <= t <= 255):
        raise ValueError(f"threshold must be an integer in 0..255, got {t!r}")
    g = as_gray(img)
    return (g <= t).astype(np.uint8)


def connected_components(img, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label maximal connected sets of 1-pixels; returns ``(labels, n)``.

    ``labels`` is a read-only ``np.intp`` map, 0 on background, and
    ``n`` the label count.  Labels run from 1 in raster-scan order of
    each component's first pixel.  That order is ``ndi.label``'s own
    (its union-find keeps the smallest label as root and numbers roots
    in increasing order), and the tests pin it against a flood-fill
    oracle.  The components' areas come with their geometry
    (``component_geometry``).
    """
    labels, n = ndi.label(as_binary(img), structure=label_structure(connectivity), output=np.intp)
    labels.flags.writeable = False
    return labels, n


def _ink_runs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, length)`` of every maximal horizontal run of ink in
    ``b``, in raster order: the flat index of its first pixel and its
    pixel count.  A run starts where a pixel exceeds its left
    neighbour and ends where it exceeds its right one, the frame read
    as background."""
    starts = np.empty(b.shape, dtype=bool)
    ends = np.empty(b.shape, dtype=bool)
    starts[:, 0] = b[:, 0]
    ends[:, -1] = b[:, -1]
    np.greater(b[:, 1:], b[:, :-1], out=starts[:, 1:])
    np.greater(b[:, :-1], b[:, 1:], out=ends[:, :-1])
    first = np.flatnonzero(starts)
    return first, np.flatnonzero(ends) - first + 1


def _run_pixels(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indices ``first[i] .. first[i] + length[i] - 1`` of every run
    ``i``, run by run."""
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - first, length)


def _without_runs(b: np.ndarray, first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """A writable copy of ``b`` with the pixels of the given runs set to 0."""
    out = b.copy()
    out.ravel()[_run_pixels(first, length)] = 0
    return out


def _component_runs(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 8-connected components of ``b`` as sets of its ink runs:
    ``(first, length, comp, area)``.

    ``first`` and ``length`` are ``_ink_runs(b)``, run ``i`` lies in
    component ``comp[i]`` and ``area[c]`` is the pixel count of
    component ``c`` (``np.intp``), so ``len(area)`` counts the
    components.  The numbering is arbitrary (the graph labeler's own):
    callers read only areas, a count and which runs share a component.
    A run on row r touches the runs on row r + 1 that overlap its
    columns widened by one and clamped to the row.  The runs are in
    raster order, so those form one contiguous range, bisected from the
    runs' last and first pixels.  No label map is written; a generated
    page has about one run per 70 pixels.
    """
    # imported here: scipy.sparse would add about 10 MB to every process,
    # including those that never label a page
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as graph_components

    first, length = _ink_runs(b)
    w = b.shape[1]
    last = first + length - 1
    row_first = first - first % w
    start = np.searchsorted(last, np.maximum(first - 1, row_first) + w)
    stop = np.searchsorted(first, np.minimum(last + 1, row_first + w - 1) + w, side="right")
    count = stop - start
    indptr = np.concatenate(([0], np.cumsum(count)))
    below = _run_pixels(start, count)
    graph = csr_matrix((np.ones(below.size), below, indptr), shape=(first.size, first.size))
    n, comp = graph_components(graph, directed=False)
    # float sums of integer lengths: exact below 2**53
    area = np.bincount(comp, weights=length, minlength=n).astype(np.intp)
    return first, length, comp, area


def component_geometry(img, labels: np.ndarray, n: int) -> Geometry:
    """Areas, bounding boxes and axis lengths of every component of ``img``.

    ``labels`` must label the components of the binary image ``img``
    (4- or 8-connected, any numbering of 1..n, background 0), and ``n``
    count them, as ``connected_components(img)`` returns them.  Like
    the opening's label map, both are trusted, not checked against
    ``img``: a map of some other image gives wrong geometry.  A map of
    ``RUN_GEOMETRY_MIN_PX`` pixels or more is read from ``img``'s ink
    runs, one map read per run, a smaller one pixel by pixel; both give
    the same bytes.  Every horizontal neighbour in ink shares a
    component under either connectivity, so each run lies inside one
    component.
    """
    if labels.size >= RUN_GEOMETRY_MIN_PX:
        return _run_geometry(as_binary(img), labels, n)
    return _pixel_geometry(labels, n)


def _pixel_geometry(labels: np.ndarray, n: int) -> Geometry:
    """Areas from the labels of the ink pixels, boxes from
    ``ndi.find_objects``, moments from one pass over the ink pixels."""
    boxes = [(r.start, c.start, r.stop - 1, c.stop - 1) for r, c in ndi.find_objects(labels, n)]
    bbox = np.array(boxes, dtype=np.intp).reshape(n, 4)

    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    lab = flat[idx]
    area = np.bincount(lab, minlength=n + 1)[1:]
    rows, cols = np.divmod(idx, labels.shape[1])
    # float once: bincount would convert integer weights on every call
    rows = rows.astype(np.float64)
    cols = cols.astype(np.float64)
    mean_r = np.bincount(lab, weights=rows, minlength=n + 1)[1:] / area
    mean_c = np.bincount(lab, weights=cols, minlength=n + 1)[1:] / area
    slot = lab - 1
    return _ellipse_geometry(bbox, area, lab, rows - mean_r[slot], cols - mean_c[slot])


def _run_geometry(b: np.ndarray, labels: np.ndarray, n: int) -> Geometry:
    """Areas, boxes and means from the ink runs of ``b``, moments from
    the runs' pixels.

    Runs are taken in raster order, and each run's label is read at its
    first pixel.  Each run's row term is repeated over its pixels, so
    the moment sums add the same values in the same order as
    ``_pixel_geometry``: the bytes are equal.
    """
    first, length = _ink_runs(b)
    lab = labels.ravel()[first]
    row, c0 = np.divmod(first, b.shape[1])
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
    area = np.bincount(lab, weights=length, minlength=n + 1)[1:].astype(np.intp)
    sum_r = np.bincount(lab, weights=row * length, minlength=n + 1)[1:]
    sum_c = np.bincount(lab, weights=(c0 + c1) * length // 2, minlength=n + 1)[1:]
    mean_r = sum_r / area
    mean_c = sum_c / area
    slot = lab - 1
    # each pixel's column: its run's first column plus its place in the run
    cols = _run_pixels(c0, length)
    dr = np.repeat(row - mean_r[slot], length)
    dc = cols.astype(np.float64) - np.repeat(mean_c[slot], length)
    return _ellipse_geometry(bbox, area, np.repeat(lab, length), dr, dc)


def _ellipse_geometry(bbox, area, lab, dr, dc) -> Geometry:
    """``Geometry`` from the per-pixel labels and centred coordinates,
    summed in raster order."""
    n = len(area)
    s_rr, s_cc, s_rc = (
        np.bincount(lab, weights=w, minlength=n + 1)[1:].tolist() for w in (dr * dr, dc * dc, dr * dc)
    )
    major, minor = _ellipse_axes(s_rr, s_cc, s_rc, area.tolist())
    return Geometry(
        area=area,
        bbox=bbox,
        major_axis_len=np.array(major, dtype=np.float64),
        minor_axis_len=np.array(minor, dtype=np.float64),
    )


def _ellipse_axes(s_rr, s_cc, s_rc, area) -> tuple[list[float], list[float]]:
    """Axis lengths from each component's centred second-moment sums and area.

    Python floats, one component at a time: every step is one correctly
    rounded IEEE operation (``x * x`` for a square, ``math.sqrt``), so
    the bytes are those of the same steps over float64 arrays.  The
    smaller eigenvalue is clamped at 0; it is never -0.0 or NaN, since
    the two variances add up to at least 1/6.
    """
    major, minor = [], []
    for rr, cc, rc, a in zip(s_rr, s_cc, s_rc, area):
        mu_rr = rr / a + 1.0 / 12.0
        mu_cc = cc / a + 1.0 / 12.0
        mu_rc = rc / a
        d = mu_rr - mu_cc
        common = math.sqrt(d * d + 4.0 * (mu_rc * mu_rc))
        lam1 = (mu_rr + mu_cc + common) / 2.0
        lam2 = (mu_rr + mu_cc - common) / 2.0
        major.append(4.0 * math.sqrt(lam1))
        minor.append(4.0 * math.sqrt(lam2 if lam2 > 0.0 else 0.0))
    return major, minor


def remove_small_objects(img, min_area: int) -> np.ndarray:
    """Drop every 8-connected component with fewer than ``min_area`` pixels.

    Speckle cleanup for scanned pages: quotation marks, stray dots and
    similar debris vanish while every surviving glyph keeps its exact
    shape (the filter is a pure component-area criterion).  ``min_area``
    is a nonnegative integer; the pipeline passes ``PipelineConfig.min_area``.
    The image's ink runs are labeled (``_component_runs``), not its
    pixels, and the runs of the small components are zeroed in a copy:
    the result is a fresh, writable uint8 array, even when nothing is
    dropped.
    """
    if not (is_int(min_area) and min_area >= 0):
        raise ValueError(f"min_area must be a nonnegative integer, got {min_area!r}")
    b = as_binary(img)
    first, length, comp, area = _component_runs(b)
    small = (area < min_area)[comp]
    return _without_runs(b, first[small], length[small])
