"""Flat binary morphology with directional line structuring elements.

Provides erosion/dilation/opening with digital line SEs at 0, 45, 90
and 135 degrees, geodesic reconstruction by dilation, opening by
reconstruction, and hole filling.  Out-of-image pixels count as
background for erosion and dilation, so an SE must fit entirely inside
the image (over ink) for a pixel to survive erosion.

Erosion by a line SE of length L is the AND of the L pixels of the
line through each pixel and dilation the OR.  The window holds L//2
steps before the pixel and L - 1 - L//2 after it, so an odd line is
centred and an even one reaches one step further back than forward;
erosion and dilation read the same window, which is dilation by the
reflected SE.  Both pad the image with background along the SE step
and double the window: 2k pixels are two windows of k pixels k apart,
so ceil(log2 L) bitwise passes over shifted slices are exact (the
logarithmic line decomposition of van den Boomgaard & van Balen,
CVGIP: GMIP 1992), diagonals included, with no shear.  ``deskew``'s
vertical dilation is this filter too.
Binary reconstruction by dilation is the union of the mask's connected
components that the marker touches (Vincent, IEEE TIP 1993), so it is
one ``ndi.label`` plus a lookup table; hole filling labels the
background once and fills every component that misses the frame.  Both
give exactly the fixpoint of iterated geodesic dilation.  An opening
by reconstruction is the reconstruction of the eroded image under the
image.  It may instead be handed the image's 8-connected label map
together with its label count (the two go together or not at all); it
then makes only the lookup, so an image opened in four directions is
labeled and counted once, by its caller.

Every label map here is ``np.intp``, as ``imaging.connected_components``
makes it: ``ndi.label`` writes that dtype directly, and a lookup
``table[labels]`` then gathers without first converting the whole map
(an ``int32`` map costs one more full-map pass per lookup).  A marker
that touches every component keeps the whole mask, so the lookup is
skipped and the result is a copy of the mask.

Each public function validates its input with ``as_binary``.
``reconstruct_by_dilation`` checks shapes and containment and then
makes the lookup.  ``opening_by_reconstruction`` erodes through
``erode``; handed a label map, it leaves the input's validation to
``erode``, checks the map against the eroded image's shape, and looks
the eroded marker up in the map directly, since an eroded image always
lies inside its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from scriptid._util import is_int, label_structure
from scriptid.imaging import as_binary

__all__ = [
    "StructuringElement",
    "complement",
    "dilate",
    "erode",
    "fill_holes",
    "line_se",
    "opening",
    "opening_by_reconstruction",
    "reconstruct_by_dilation",
]

# unit steps for the four stroke directions; 45 runs up-right, 135 up-left
_LINE_STEPS = {0: (0, 1), 45: (-1, 1), 90: (1, 0), 135: (-1, -1)}


@dataclass(frozen=True)
class StructuringElement:
    """Digital line SE: ``length`` pixels along ``direction``, through the
    origin (centred when ``length`` is odd)."""

    direction: int
    length: int

    def __post_init__(self):
        if self.direction not in _LINE_STEPS:
            raise ValueError(f"direction must be one of 0, 45, 90, 135; got {self.direction}")
        if not is_int(self.length) or self.length < 1:
            raise ValueError(f"length must be a positive integer, got {self.length!r}")

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        """The (drow, dcol) offset of every SE pixel, the origin included."""
        dr, dc = _LINE_STEPS[self.direction]
        n = self.length
        return tuple((t * dr, t * dc) for t in range(-(n // 2), n - n // 2))


def line_se(direction: int, length: int) -> StructuringElement:
    """Centred digital line SE of odd ``length``.

    0 degrees is horizontal, 90 vertical; 45 and 135 are the pure
    diagonals (one pixel per row), up-right and up-left respectively.
    """
    se = StructuringElement(direction, length)
    if length % 2 == 0:
        raise ValueError(f"length must be a positive odd integer, got {length}")
    return se


def _line_filter(b: np.ndarray, se: StructuringElement, op) -> np.ndarray:
    """``op`` (AND or OR) of the ``se.length`` pixels at ``se.offsets``
    from each pixel, out-of-image pixels read as background."""
    dr, dc = _LINE_STEPS[se.direction]
    before, after = se.length // 2, (se.length - 1) // 2  # window steps around a pixel
    if dr < 0:  # walk the line downwards: the window's two sides swap
        dr, dc = -dr, -dc
        before, after = after, before
    h, w = b.shape
    # a line leaves the image within max(h, w) steps: longer sides change nothing
    before, after = min(before, max(h, w)), min(after, max(h, w))
    n = before + after + 1
    top = before * dr
    left = (before if dc >= 0 else after) * abs(dc)
    win = np.zeros((h + (n - 1) * dr, w + (n - 1) * abs(dc)), dtype=np.uint8)
    win[top : top + h, left : left + w] = b
    # win[p] combines pixels p .. p + (k-1) step; pairing p with p + s step
    # grows that to k + s and drops s steps, so it ends at exactly (h, w)
    k = 1
    while k < n:
        s = min(k, n - k)
        sr, sc = s * dr, s * dc
        rows, cols = win.shape
        if sc >= 0:
            win = op(win[: rows - sr, : cols - sc], win[sr:, sc:])
        else:
            win = op(win[: rows - sr, -sc:], win[sr:, : cols + sc])
        k += s
    return win


def erode(img, se: StructuringElement) -> np.ndarray:
    """Binary erosion: a pixel survives iff the whole SE sits on ink in-bounds."""
    return _line_filter(as_binary(img), se, np.bitwise_and)


def dilate(img, se: StructuringElement) -> np.ndarray:
    """Binary dilation by the reflected SE (Minkowski addition)."""
    return _line_filter(as_binary(img), se, np.bitwise_or)


def opening(img, se: StructuringElement) -> np.ndarray:
    """Erosion followed by dilation; removes structures thinner than the SE."""
    return dilate(erode(img, se), se)


def complement(img) -> np.ndarray:
    """Pointwise 1 - v."""
    return 1 - as_binary(img)


# ---------------------------------------------------------------------------
# geodesic reconstruction by component labeling


def reconstruct_by_dilation(marker, mask, connectivity: int = 8) -> np.ndarray:
    """Geodesic reconstruction of ``marker`` under ``mask``.

    Equivalent to iterating marker <- dilate(marker) & mask until
    stable.  For binary images that fixpoint is the union of the mask's
    connected components that the marker touches, which is what is
    computed: label the mask, mark the labels under the marker, look
    every pixel's label up.  ``marker`` must be pointwise <= ``mask``.
    """
    m = as_binary(marker)
    i = as_binary(mask)
    if m.shape != i.shape:
        raise ValueError(f"marker shape {m.shape} != mask shape {i.shape}")
    if (m > i).any():
        raise ValueError("marker must be contained in mask")
    structure = label_structure(connectivity)  # raises for a bad connectivity
    if not m.any():
        return np.zeros_like(m)
    labels, n = ndi.label(i, structure=structure, output=np.intp)
    return _keep_marked(labels, n, m, i)


def _keep_marked(labels: np.ndarray, n: int, marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """1 on every pixel of ``mask`` whose label (1..n) has a pixel under
    ``marker``; a copy of ``mask`` when every label has one."""
    keep = np.zeros(n + 1, dtype=np.uint8)
    keep[labels[marker.view(bool)]] = 1
    if keep[1:].all():
        return mask.copy()
    return keep[labels]


def opening_by_reconstruction(img, se: StructuringElement, labels=None, n=None) -> np.ndarray:
    """Restore the full shape of every component that survives erosion.

    The eroded image is the marker, the input the mask; components with
    no run of ink >= the SE length in the SE direction disappear, all
    other components come back unchanged.  The result is a fresh,
    writable uint8 array.  Without a map this is
    ``reconstruct_by_dilation(erode(img, se), img)``.

    ``labels`` and ``n`` go together or not at all.  They must be the
    8-connected labeling of ``img`` and its label count, as
    ``imaging.connected_components(img)`` returns them (any numbering
    of the components will do, background 0).  The opening then keeps
    the labels under the eroded marker and labels nothing; a caller
    that opens one image in several directions labels and counts it
    once.  Both are trusted, not checked against ``img`` or each other:
    a map of some other image gives a wrong opening, and a count below
    the map's largest label an ``IndexError``.  Only their form is checked:
    ``ValueError`` for one without the other, for a map that is not an
    integer array of ``img``'s shape, and for an ``n`` that is not a
    nonnegative integer.
    """
    if (labels is None) != (n is None):
        raise ValueError("labels and n go together: pass both or neither")
    if labels is None:
        b = as_binary(img)
        return reconstruct_by_dilation(erode(b, se), b)
    eroded = erode(img, se)  # validates img
    labels = np.asarray(labels)
    if labels.shape != eroded.shape:
        raise ValueError(f"labels shape {labels.shape} != image shape {eroded.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be an integer array, got {labels.dtype}")
    if not is_int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not eroded.any():
        return np.zeros_like(eroded)
    return _keep_marked(labels, n, eroded, np.asarray(img, dtype=np.uint8))


def fill_holes(img) -> np.ndarray:
    """Fill background regions not connected to the image border.

    The background is split into 4-connected components; the ones that
    reach the 1-pixel frame stay background, every other one (a hole)
    becomes ink.  4-connected background is the dual of the 8-connected
    objects used everywhere else; it keeps diagonal ink boundaries
    hole-tight.
    """
    b = as_binary(img)
    labels, n = ndi.label(b == 0, structure=label_structure(4), output=np.intp)
    filled = np.ones(n + 1, dtype=np.uint8)
    filled[labels[0]] = 0
    filled[labels[-1]] = 0
    filled[labels[:, 0]] = 0
    filled[labels[:, -1]] = 0
    filled[0] = 1  # ink
    return filled[labels]
