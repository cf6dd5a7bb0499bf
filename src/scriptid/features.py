"""The 8-dimensional word feature vector.

Every classified sample is a single word image, tightly cropped to its
ink.  Four features are directional on-pixel densities (OPD): the word
is opened by reconstruction with a line SE at 0, 45, 90 and 135
degrees, holes are filled, and the surviving ink fraction of the crop
is recorded.  Components with a long enough stroke in the probed
direction survive whole; everything else vanishes, so the four numbers
profile the word's stroke directions.  The word's holes are filled
once (``WordImage.filled_area``): an opening that keeps all of the
word reuses that fill, and one that keeps none of it has area 0.  An
opening that keeps some of the components is settled from the word's
own fill where that is exact.  The word's hole pixels (background the
fill turned to ink; never on the frame) are bordered, 4-adjacently,
only by ink, and a component "touches a hole" when one of its pixels
is such a border pixel.  Components are whole 8-connected ink, so a
kept and a dropped component are never 4-adjacent.

* No kept component touches a hole: the opening encloses nothing.  A
  region it enclosed has a pixel 4-adjacent to kept ink, which is word
  background (dropped ink is not 4-adjacent to kept ink).  Word
  background is opening background too, so that pixel cannot reach
  the frame through it: it is a hole pixel of the word, touched by a
  kept component.  The area is the kept ink.
* No dropped component touches a hole: a dropped component lies on
  the frame or is bordered only by the word's outside background, so
  dropping it joins its pixels to the outside, while every hole of the
  word stays bordered by kept ink alone.  The opening's holes are the
  word's, and the area is the word's filled area less the dropped ink.
* Otherwise (a speck inside a kept ring, say) the opening's holes are
  filled afresh with ``fill_holes``.

The remaining four are plain regional descriptors: average aspect ratio,
hole-filled pixel ratio, average eccentricity and average extent over
the word's 8-connected components.  The word is labeled once, in
``WordImage.from_image``, into an ``np.intp`` map: the four openings
keep the labels under their eroded markers, taking the label count
from the word's areas (``opening_by_reconstruction(..., labels=,
n=)``), and label and count nothing again; an opening that keeps every
component is a copy of the word.  The component geometry is computed
once, on first read, from that label map, and for a large word from
the crop's ink runs, reading the map once per run.

Canonical feature order (fixed; stamped into model files):
``opd_0, opd_45, opd_90, opd_135, aar, pr, ecc, ext``.
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from dataclasses import dataclass, field

import numpy as np

from scriptid._util import crop_to_ink, round_half_up
from scriptid.imaging import Geometry, as_binary, component_geometry, connected_components
from scriptid.morphology import (
    StructuringElement,
    fill_holes,
    line_se,
    opening_by_reconstruction,
)

__all__ = [
    "DIRECTIONS",
    "FEATURE_NAMES",
    "WordImage",
    "aar",
    "avg_eccentricity",
    "avg_extent",
    "extract_features",
    "format_feature_line",
    "parse_feature_line",
    "pixel_ratio",
    "se_length_for",
]

FEATURE_NAMES = ("opd_0", "opd_45", "opd_90", "opd_135", "aar", "pr", "ecc", "ext")
DIRECTIONS = (0, 45, 90, 135)


@dataclass(frozen=True, eq=False)
class WordImage:
    """A word crop plus its 8-connected components.

    ``img`` is the tight ink crop (first/last rows and columns contain
    ink); ``labels`` and ``area`` are its label map and label areas, and
    ``geometry`` is computed from them and the crop on first read.
    Construct via :meth:`from_image`, which rejects empty images.  Words
    compare by identity.
    """

    img: np.ndarray
    labels: np.ndarray = field(repr=False)
    area: np.ndarray = field(repr=False)

    @classmethod
    def from_image(cls, img) -> "WordImage":
        crop = crop_to_ink(as_binary(img))
        if crop is None:
            raise ValueError("word image contains no ink")
        # a crop of as_binary's read-only view is itself read-only
        labels, area = connected_components(crop, connectivity=8)
        return cls(img=crop, labels=labels, area=area)

    @functools.cached_property
    def geometry(self) -> Geometry:
        """Boxes and axis lengths of the components, one row each."""
        return component_geometry(self.img, self.labels, self.area)

    @functools.cached_property
    def ink(self) -> int:
        """Ink pixel count of the word."""
        return sum(self.area.tolist())

    @functools.cached_property
    def _filled(self) -> np.ndarray:
        return fill_holes(self.img)

    @functools.cached_property
    def filled_area(self) -> int:
        """Ink count of the hole-filled word, computed on first use."""
        return int(np.count_nonzero(self._filled))

    @functools.cached_property
    def _hole_rim(self) -> np.ndarray:
        """Flat indices of the ink pixels 4-adjacent to a hole, repeats
        allowed; empty for a word without holes.  Holes never touch the
        frame, so the four neighbours of a hole pixel are in the crop."""
        if self.filled_area == self.ink:
            return np.empty(0, dtype=np.intp)
        holes = np.flatnonzero(self._filled != self.img)
        w = self.img.shape[1]
        nbrs = np.concatenate((holes - w, holes + w, holes - 1, holes + 1))
        return nbrs[self.img.take(nbrs) == 1]


def se_length_for(word: WordImage, ratio: float = 0.7, min_len: int = 3) -> int:
    """Line-SE length for a word: ``ratio`` of the mean component height.

    Rounded half-up, floored at ``min_len``, bumped up to odd so the SE
    stays centered.  One length is shared by all four directions.
    """
    boxes = word.geometry.bbox.tolist()
    mean_h = sum(r1 - r0 + 1 for r0, _, r1, _ in boxes) / len(boxes)
    length = round_half_up(ratio * mean_h)
    if length < min_len:
        length = min_len
    if length % 2 == 0:
        length += 1
    return length


def _opd(word: WordImage, se: StructuringElement) -> float:
    """Directional on-pixel density after reconstruction and hole fill."""
    opened = opening_by_reconstruction(word.img, se, labels=word.labels, n=len(word.area))
    # the opening is a union of the word's components: keeping all ink
    # means it is the word, so the word's own fill serves; a partial
    # opening takes one of the module docstring's three cases
    kept = np.count_nonzero(opened)
    if kept == 0:
        area = 0
    elif kept == word.ink:
        area = word.filled_area
    else:
        rim = opened.take(word._hole_rim)
        if not rim.any():
            area = kept
        elif rim.all():
            area = word.filled_area - (word.ink - kept)
        else:
            area = np.count_nonzero(fill_holes(opened))
    return float(area / opened.size)


def _mean(values: list[float]) -> float:
    # left to right: sum() compensates float adds from CPython 3.12 on,
    # which would tie feature bytes to the interpreter version
    return functools.reduce(operator.add, values) / len(values)


def aar(word: WordImage) -> float:
    """Average over components of bounding-box height / width."""
    boxes = word.geometry.bbox.tolist()
    return _mean([(r1 - r0 + 1) / (c1 - c0 + 1) for r0, c0, r1, c1 in boxes])


def pixel_ratio(word: WordImage) -> float:
    """Ink fraction of the hole-filled word relative to the crop area."""
    return float(word.filled_area / word.img.size)


def avg_eccentricity(word: WordImage) -> float:
    """Average minor/major axis ratio over components, in [0, 1].

    This is the axis-length ratio itself, not the conventional ellipse
    eccentricity sqrt(1 - (b/a)^2): round components score near 1,
    elongated ones near 0, and a single pixel scores exactly 1.
    """
    g = word.geometry
    axes = zip(g.minor_axis_len.tolist(), g.major_axis_len.tolist())
    return _mean([minor / major for minor, major in axes])


def avg_extent(word: WordImage) -> float:
    """Average fraction of its bounding box a component covers, in (0, 1]."""
    boxes = zip(word.area.tolist(), word.geometry.bbox.tolist())
    return _mean([a / ((r1 - r0 + 1) * (c1 - c0 + 1)) for a, (r0, c0, r1, c1) in boxes])


def extract_features(word: WordImage, ratio: float = 0.7, min_len: int = 3) -> np.ndarray:
    """All 8 features in canonical order as a float64 vector."""
    length = se_length_for(word, ratio=ratio, min_len=min_len)
    vec = [_opd(word, line_se(d, length)) for d in DIRECTIONS]
    vec += [aar(word), pixel_ratio(word), avg_eccentricity(word), avg_extent(word)]
    return np.array(vec, dtype=np.float64)


# ---------------------------------------------------------------------------
# feature dump lines: path,label,f1..f8 (label may be empty)


def format_feature_line(path: str, label: str | None, vec: np.ndarray) -> str:
    if len(vec) != len(FEATURE_NAMES):
        raise ValueError(f"expected {len(FEATURE_NAMES)} features, got {len(vec)}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="")
    writer.writerow([path, label or ""] + [repr(float(v)) for v in vec])
    return buf.getvalue()


def parse_feature_line(line: str) -> tuple[str, str | None, np.ndarray]:
    row = next(csv.reader([line]))
    if len(row) != 2 + len(FEATURE_NAMES):
        raise ValueError(f"malformed feature line ({len(row)} fields): {line!r}")
    vec = np.array([float(v) for v in row[2:]], dtype=np.float64)
    if not np.isfinite(vec).all():
        raise ValueError(f"non-finite feature in line: {line!r}")
    return row[0], row[1] or None, vec
