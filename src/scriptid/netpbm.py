"""Netpbm readers and writers (PGM P5, PBM P1/P4).

These formats are the canonical image interchange for the toolkit: they
are bit-exact, dependency-free and trivially diffable.  Grayscale pages
travel as binary PGM (``P5``, maxval <= 255); bilevel images travel as
PBM, either raw (``P4``) or plain text (``P1``).

PBM stores 1 = black.  That matches the library's binary convention
(1 = ink), so pixel values map through unchanged in both directions.
"""

from __future__ import annotations

import numpy as np

from scriptid._util import write_bytes_atomic

_WHITESPACE = b" \t\n\r\x0b\x0c"


class NetpbmError(ValueError):
    """Malformed or unsupported Netpbm data."""


class _Scanner:
    """Whitespace/comment-aware tokenizer over the header bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def token(self) -> bytes:
        data, i, n = self.data, self.pos, len(self.data)
        while i < n:
            if data[i] in _WHITESPACE:
                i += 1
            elif data[i] == 0x23:  # '#'
                j = data.find(b"\n", i)
                i = n if j < 0 else j + 1
            else:
                break
        if i >= n:
            raise NetpbmError("unexpected end of header")
        j = i
        while j < n and data[j] not in _WHITESPACE and data[j] != 0x23:
            j += 1
        self.pos = j
        return data[i:j]

    def int_token(self) -> int:
        tok = self.token()
        if not tok.isdigit():
            raise NetpbmError(f"expected integer, got {tok!r}")
        return int(tok)

    def raster(self) -> bytes:
        # Exactly one whitespace byte separates the header from the raster.
        if self.pos >= len(self.data) or self.data[self.pos] not in _WHITESPACE:
            raise NetpbmError("missing whitespace before raster")
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
    sc = _Scanner(data)
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

    # P1: plain-format digits may be packed together; comments are legal anywhere.
    bits = bytearray()
    i, n = sc.pos, len(data)
    need = width * height
    while i < n and len(bits) < need:
        b = data[i]
        if b in (0x30, 0x31):  # '0' '1'
            bits.append(b - 0x30)
            i += 1
        elif b == 0x23:  # '#'
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
        elif b in _WHITESPACE:
            i += 1
        else:
            raise NetpbmError(f"{path}: bad P1 raster byte {b!r}")
    if len(bits) < need:
        raise NetpbmError(f"{path}: truncated raster")
    img = np.frombuffer(bytes(bits), dtype=np.uint8).reshape(height, width)
    return "binary", _readonly(img.copy())


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


def write_pgm(path: str, img: np.ndarray) -> None:
    """Write a grayscale image as binary PGM (P5, maxval 255)."""
    a = np.ascontiguousarray(img, dtype=np.uint8)
    if a.ndim != 2 or a.size == 0:
        raise NetpbmError("grayscale image must be a nonempty 2-D array")
    h, w = a.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    write_bytes_atomic(path, header + a.tobytes())


def write_pbm(path: str, img: np.ndarray, plain: bool = False) -> None:
    """Write a {0,1} image as PBM: raw P4, or plain P1 when ``plain``."""
    a = np.ascontiguousarray(img, dtype=np.uint8)
    if a.ndim != 2 or a.size == 0:
        raise NetpbmError("binary image must be a nonempty 2-D array")
    if (a > 1).any():
        raise NetpbmError("binary image values must be 0 or 1")
    h, w = a.shape
    if plain:
        lines = [f"P1\n{w} {h}\n"]
        for row in a:
            s = " ".join("1" if v else "0" for v in row)
            # plain-format lines should stay under 70 characters
            for k in range(0, len(s), 68):
                lines.append(s[k : k + 68] + "\n")
        write_bytes_atomic(path, "".join(lines).encode("ascii"))
        return
    header = f"P4\n{w} {h}\n".encode("ascii")
    packed = np.packbits(a, axis=1)
    write_bytes_atomic(path, header + packed.tobytes())
