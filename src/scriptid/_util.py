"""Small shared helpers."""

from __future__ import annotations

import math
import os
import re
import tempfile

import numpy as np

# ndi.label structures: 4 = edge neighbours, 8 = edge and corner neighbours
_STRUCTURES = {
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    8: np.ones((3, 3), dtype=bool),
}


def label_structure(connectivity: int) -> np.ndarray:
    """The 3x3 ``ndi.label`` structure for 4- or 8-connectivity."""
    try:
        return _STRUCTURES[connectivity]
    except KeyError:
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}") from None


def is_int(x) -> bool:
    """True for a Python or numpy integer; False for a bool or anything else."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# plain ASCII decimals: int() and float() also take "1_5", " 3", "+3"
# and non-ASCII digits, none of which the package writes
_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|-?inf|nan")


def parse_int(text: str) -> int:
    """``int(text)`` for an optional minus sign and ASCII digits only."""
    if not _INT.fullmatch(text):
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """``float(text)`` for an ASCII decimal (``repr``'s forms, ``inf`` and
    ``nan`` included) only."""
    if not _FLOAT.fullmatch(text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return float(text)


def crop_to_ink(img: np.ndarray) -> np.ndarray | None:
    """View of ``img`` cut to its ink bounding box; None if it has no ink."""
    rows = np.flatnonzero(img.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(img.any(axis=0))
    return img[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def round_half_up(x: float) -> int:
    """Round to the nearest integer, halves away from zero (for x >= 0)."""
    return math.floor(x + 0.5)


def write_bytes_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + rename.

    Either the complete file appears at ``path`` or nothing does; no
    partial output is left behind on failure.
    """
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path: str, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))
