"""Netpbm readers and writers (PGM P5, PBM P1/P4).

These formats are the canonical image interchange for the toolkit: they
are bit-exact, dependency-free and trivially diffable.  Grayscale pages
travel as binary PGM (``P5``, maxval <= 255); bilevel images travel as
PBM, either raw (``P4``) or plain text (``P1``).

PBM stores 1 = black.  That matches the library's binary convention
(1 = ink), so pixel values map through unchanged in both directions.

The plain-PBM codec has no per-byte loop: the reader strips comments
with one regex and classes the raster bytes through a lookup table;
the writer lays digits, spaces and line breaks out in one byte array.
The writers validate through ``as_binary``/``as_gray`` before any
cast, so a value a cast would change (256, 0.7, -1) is an error.
"""

from __future__ import annotations

import re

import numpy as np

from scriptid._util import write_bytes_atomic
from scriptid.imaging import as_binary, as_gray

_WHITESPACE = b" \t\n\r\x0b\x0c"
# whitespace and comments, then one header token (empty only at the end)
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n?)*([^ \t\n\r\x0b\x0c#]*)")
_COMMENT = re.compile(rb"#[^\n]*")
# P1 raster byte classes: 0 = bad byte, 1 = whitespace, 2 = digit
_P1_CLASS = np.zeros(256, dtype=np.uint8)
_P1_CLASS[list(_WHITESPACE)] = 1
_P1_CLASS[[0x30, 0x31]] = 2


class NetpbmError(ValueError):
    """Malformed or unsupported Netpbm data."""


class _Scanner:
    """Whitespace/comment-aware tokenizer over the header bytes of ``path``."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.pos = 0

    def token(self) -> bytes:
        m = _TOKEN.match(self.data, self.pos)
        if not m.group(1):
            raise NetpbmError(f"{self.path}: unexpected end of header")
        self.pos = m.end()
        return m.group(1)

    def int_token(self) -> int:
        tok = self.token()
        if not tok.isdigit():
            raise NetpbmError(f"{self.path}: expected integer, got {tok!r}")
        return int(tok)

    def raster(self) -> bytes:
        # Exactly one whitespace byte separates the header from the raster.
        if self.pos >= len(self.data) or self.data[self.pos] not in _WHITESPACE:
            raise NetpbmError(f"{self.path}: missing whitespace before raster")
        return self.data[self.pos + 1 :]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def read(path: str) -> tuple[str, np.ndarray]:
    """Read a Netpbm file.

    Returns ``("gray", img)`` for P5 with intensities 0..255, or
    ``("binary", img)`` for P1/P4 with values in {0, 1} (1 = ink).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise NetpbmError(f"{path}: not a Netpbm file")
    magic = data[:2]
    sc = _Scanner(data, path)
    tok = sc.token()
    if tok != magic:
        raise NetpbmError(f"{path}: bad magic {tok!r}")

    if magic not in (b"P1", b"P4", b"P5"):
        raise NetpbmError(f"{path}: unsupported format {magic!r}")
    width = sc.int_token()
    height = sc.int_token()
    maxval = sc.int_token() if magic == b"P5" else 1  # PBM has no maxval field
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: bad dimensions {width}x{height}")

    if magic == b"P5":
        if not 1 <= maxval <= 255:
            raise NetpbmError(f"{path}: unsupported maxval {maxval}")
        raster = sc.raster()
        if len(raster) < width * height:
            raise NetpbmError(f"{path}: truncated raster")
        img = np.frombuffer(raster[: width * height], dtype=np.uint8).reshape(height, width)
        if int(img.max()) > maxval:
            raise NetpbmError(f"{path}: pixel value {int(img.max())} above maxval {maxval}")
        return "gray", _readonly(img.copy())

    if magic == b"P4":
        raster = sc.raster()
        row_bytes = (width + 7) // 8
        if len(raster) < row_bytes * height:
            raise NetpbmError(f"{path}: truncated raster")
        packed = np.frombuffer(raster[: row_bytes * height], dtype=np.uint8).reshape(height, row_bytes)
        img = np.unpackbits(packed, axis=1)[:, :width]
        return "binary", _readonly(img)

    # P1: digits may be packed; bytes after the last needed one are never read
    raw = np.frombuffer(_COMMENT.sub(b"", data[sc.pos :]), dtype=np.uint8)
    kind = _P1_CLASS[raw]
    digits = np.flatnonzero(kind == 2)
    need = width * height
    end = digits[need - 1] if digits.size >= need else raw.size
    bad = np.flatnonzero(kind[:end] == 0)
    if bad.size:
        raise NetpbmError(f"{path}: bad P1 raster byte {int(raw[bad[0]])!r}")
    if digits.size < need:
        raise NetpbmError(f"{path}: truncated raster")
    return "binary", _readonly((raw[digits[:need]] - 0x30).reshape(height, width))


def read_gray(path: str) -> np.ndarray:
    kind, img = read(path)
    if kind != "gray":
        raise NetpbmError(f"{path}: expected grayscale PGM, got bilevel PBM")
    return img


def read_binary(path: str) -> np.ndarray:
    kind, img = read(path)
    if kind != "binary":
        raise NetpbmError(f"{path}: expected bilevel PBM, got grayscale PGM")
    return img


def _checked(validate, img) -> np.ndarray:
    """``validate(img)``, its ``ValueError`` re-raised as ``NetpbmError``."""
    try:
        return validate(img)
    except ValueError as exc:
        raise NetpbmError(str(exc)) from exc


def write_pgm(path: str, img: np.ndarray) -> None:
    """Write a grayscale image as binary PGM (P5, maxval 255)."""
    a = _checked(as_gray, img)
    h, w = a.shape
    write_bytes_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + a.tobytes())


def write_pbm(path: str, img: np.ndarray, plain: bool = False) -> None:
    """Write a {0,1} image as PBM: raw P4, or plain P1 when ``plain``.

    P1 rows are digits joined by spaces, broken after every 34th digit
    so that no line reaches 70 characters.
    """
    a = _checked(as_binary, img)
    h, w = a.shape
    if not plain:
        write_bytes_atomic(path, f"P4\n{w} {h}\n".encode("ascii") + np.packbits(a, axis=1).tobytes())
        return
    cells = np.full((h, w, 3), 0x0A, dtype=np.uint8)  # digit, separator, break
    cells[..., 0] = a + 0x30
    cells[:, :-1, 1] = 0x20
    keep = np.zeros((w, 3), dtype=bool)
    keep[:, :2] = keep[33:-1:34, 2] = True
    raster = cells[np.broadcast_to(keep, cells.shape)]
    write_bytes_atomic(path, f"P1\n{w} {h}\n".encode("ascii") + raster.tobytes())
