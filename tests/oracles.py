"""Independent reference implementations used to check the library.

Everything here is deliberately naive: exhaustive scans, per-pixel set
definitions, BFS flood fill, fixpoint iteration, full sorts.  None of
it shares code with the package.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided


def brute_otsu(img: np.ndarray) -> int:
    """Exhaustive between-class-variance scan with exact rationals."""
    flat = np.asarray(img).ravel()
    hist = [0] * 256
    for v in flat:
        hist[int(v)] += 1
    total = len(flat)
    total_sum = sum(i * h for i, h in enumerate(hist))
    if min(flat) == max(flat):
        return int(flat[0])
    best_t, best = 0, Fraction(-1)
    for t in range(256):
        w0 = sum(hist[: t + 1])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        s0 = sum(i * hist[i] for i in range(t + 1))
        mu0 = Fraction(s0, w0)
        mu1 = Fraction(total_sum - s0, w1)
        var = Fraction(w0) * Fraction(w1) * (mu0 - mu1) ** 2
        if var > best:
            best, best_t = var, t
    return best_t


def naive_erode(img: np.ndarray, offsets) -> np.ndarray:
    """Set definition: survive iff every offset lands in-bounds on ink."""
    h, w = img.shape
    out = np.zeros_like(img)
    for r in range(h):
        for c in range(w):
            ok = True
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if not (0 <= rr < h and 0 <= cc < w) or img[rr, cc] == 0:
                    ok = False
                    break
            out[r, c] = 1 if ok else 0
    return out


def naive_dilate(img: np.ndarray, offsets) -> np.ndarray:
    """Set definition with the reflected SE; out-of-bounds is background."""
    h, w = img.shape
    out = np.zeros_like(img)
    for r in range(h):
        for c in range(w):
            hit = False
            for dr, dc in offsets:
                rr, cc = r - dr, c - dc
                if 0 <= rr < h and 0 <= cc < w and img[rr, cc] == 1:
                    hit = True
                    break
            out[r, c] = 1 if hit else 0
    return out


def filter_line(img: np.ndarray, se, filter1d) -> np.ndarray:
    """Running ``filter1d`` (``ndi.minimum_filter1d`` or ``maximum_filter1d``)
    of ``se.length`` pixels along the SE direction, centred, zero padded.

    The diagonals are sheared into columns of an (h, w+h) buffer through
    a strided view, filtered as columns and sheared back.  Unlike the
    naive scans this is fast enough for large images and long SEs.
    """
    img = np.asarray(img, dtype=np.uint8)
    if se.direction in (0, 90):
        axis = 1 if se.direction == 0 else 0
        return filter1d(img, se.length, axis=axis, mode="constant", cval=0)
    h, w = img.shape

    def diagonal(buf):
        # pixel (r, c) sits at column c + r (45) or c - r + h - 1 (135)
        flat = buf.reshape(-1)
        if se.direction == 45:
            return as_strided(flat, shape=(h, w), strides=(w + h + 1, 1))
        return as_strided(flat[h - 1 :], shape=(h, w), strides=(w + h - 1, 1))

    sheared = np.zeros((h, w + h), dtype=np.uint8)
    diagonal(sheared)[...] = img
    filtered = filter1d(sheared, se.length, axis=0, mode="constant", cval=0)
    return diagonal(filtered).copy()


def naive_vertical_dilation(img: np.ndarray, length: int) -> np.ndarray:
    """out[r, c] = 1 iff some img[r + dr, c] is ink, dr in -(L//2) .. L-L//2-1.

    The window is deskew's vertical dilation; an even length reaches one
    row further up than down.
    """
    h, w = img.shape
    out = np.zeros_like(img)
    for r in range(h):
        for c in range(w):
            for dr in range(-(length // 2), length - length // 2):
                if 0 <= r + dr < h and img[r + dr, c] == 1:
                    out[r, c] = 1
                    break
    return out


def naive_rotate(img: np.ndarray, degrees: float) -> np.ndarray:
    """Nearest-neighbor rotation about the center through a full coordinate grid.

    Every output pixel samples the input at the inverse rotation; a
    sample outside the input is background.
    """
    img = np.asarray(img)
    if degrees == 0.0:
        return img.copy()
    h, w = img.shape
    a = math.radians(degrees)
    cos_a, sin_a = math.cos(a), math.sin(a)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dy = rr - cy
    dx = cc - cx
    src_r = np.rint(cos_a * dy + sin_a * dx + cy).astype(np.int64)
    src_c = np.rint(-sin_a * dy + cos_a * dx + cx).astype(np.int64)
    valid = (src_r >= 0) & (src_r < h) & (src_c >= 0) & (src_c < w)
    out = np.zeros_like(img)
    out[valid] = img[src_r[valid], src_c[valid]]
    return out


def _shift_or(img: np.ndarray, connectivity: int) -> np.ndarray:
    h, w = img.shape
    out = img.copy()
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for dr, dc in steps:
        src = img[max(0, dr) : h + min(0, dr), max(0, dc) : w + min(0, dc)]
        out[max(0, -dr) : h + min(0, -dr), max(0, -dc) : w + min(0, -dc)] |= src
    return out


def iterative_reconstruct(marker: np.ndarray, mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Geodesic dilation iterated to the fixpoint."""
    cur = (np.asarray(marker) & np.asarray(mask)).astype(np.uint8)
    while True:
        nxt = _shift_or(cur, connectivity) & mask
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def flood_components(img: np.ndarray, connectivity: int = 8) -> list[set[tuple[int, int]]]:
    """BFS flood fill; components ordered by raster-first pixel."""
    h, w = img.shape
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    seen = np.zeros((h, w), dtype=bool)
    comps = []
    for r in range(h):
        for c in range(w):
            if img[r, c] == 1 and not seen[r, c]:
                comp = set()
                queue = deque([(r, c)])
                seen[r, c] = True
                while queue:
                    cr, cc = queue.popleft()
                    comp.add((cr, cc))
                    for dr, dc in steps:
                        nr, nc = cr + dr, cc + dc
                        if 0 <= nr < h and 0 <= nc < w and img[nr, nc] == 1 and not seen[nr, nc]:
                            seen[nr, nc] = True
                            queue.append((nr, nc))
                comps.append(comp)
    return comps


def moment_axes(pixels) -> tuple[float, float]:
    """(major, minor) axis lengths by direct centered summation."""
    rows = [p[0] for p in pixels]
    cols = [p[1] for p in pixels]
    n = len(pixels)
    mr = sum(rows) / n
    mc = sum(cols) / n
    mrr = sum((r - mr) ** 2 for r in rows) / n + 1.0 / 12.0
    mcc = sum((c - mc) ** 2 for c in cols) / n + 1.0 / 12.0
    mrc = sum((r - mr) * (c - mc) for r, c in pixels) / n
    common = math.sqrt((mrr - mcc) ** 2 + 4.0 * mrc**2)
    lam1 = (mrr + mcc + common) / 2.0
    lam2 = max((mrr + mcc - common) / 2.0, 0.0)
    return 4.0 * math.sqrt(lam1), 4.0 * math.sqrt(lam2)


def array_ellipse_axes(s_rr, s_cc, s_rc, area) -> tuple[np.ndarray, np.ndarray]:
    """(major, minor) axis lengths from centred second-moment sums, one
    float64 array operation per step over all components at once."""
    area = np.asarray(area)
    mu_rr = np.asarray(s_rr, dtype=np.float64) / area + 1.0 / 12.0
    mu_cc = np.asarray(s_cc, dtype=np.float64) / area + 1.0 / 12.0
    mu_rc = np.asarray(s_rc, dtype=np.float64) / area
    common = np.sqrt((mu_rr - mu_cc) ** 2 + 4.0 * mu_rc**2)
    lam1 = (mu_rr + mu_cc + common) / 2.0
    lam2 = np.maximum((mu_rr + mu_cc - common) / 2.0, 0.0)
    return 4.0 * np.sqrt(lam1), 4.0 * np.sqrt(lam2)


def knn_oracle(train: np.ndarray, labels, q: np.ndarray, k: int) -> str:
    """Full sort by (distance, index); majority with the documented ties."""
    dists = [
        (math.sqrt(math.fsum((train[i][j] - q[j]) ** 2 for j in range(len(q)))), i)
        for i in range(len(train))
    ]
    dists.sort()
    voters = dists[:k]
    votes: dict[str, int] = {}
    sums: dict[str, float] = {}
    for d, i in voters:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        sums[labels[i]] = sums.get(labels[i], 0.0) + d
    top = max(votes.values())
    tied = sorted([lab for lab, n in votes.items() if n == top], key=lambda lab: (sums[lab], lab))
    return tied[0]


def row_sum_distances(train: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``q`` to each row of ``train`` through
    numpy's own row sum of the squared differences; the classifier's
    fixed summation order must give these bits."""
    return np.sqrt(((train - q) ** 2).sum(axis=1))


def background_touches_border(img: np.ndarray) -> bool:
    """True iff every 4-connected background component touches the border."""
    h, w = img.shape
    bg = (np.asarray(img) == 0).astype(np.uint8)
    for comp in flood_components(bg, connectivity=4):
        if not any(r in (0, h - 1) or c in (0, w - 1) for r, c in comp):
            return False
    return True


_PBM_WHITESPACE = b" \t\n\r\x0b\x0c"


def loop_read_p1_raster(raster: bytes, width: int, height: int) -> np.ndarray:
    """The plain-PBM raster read byte by byte: '0'/'1' digits, whitespace
    and '#' comments up to the end of the line, until ``width * height``
    digits are in.  Raises ``ValueError`` with the reader's error text."""
    bits = bytearray()
    i, n = 0, len(raster)
    need = width * height
    while i < n and len(bits) < need:
        b = raster[i]
        if b in (0x30, 0x31):
            bits.append(b - 0x30)
            i += 1
        elif b == 0x23:
            j = raster.find(b"\n", i)
            i = n if j < 0 else j + 1
        elif b in _PBM_WHITESPACE:
            i += 1
        else:
            raise ValueError(f"bad P1 raster byte {b!r}")
    if len(bits) < need:
        raise ValueError("truncated raster")
    return np.frombuffer(bytes(bits), dtype=np.uint8).reshape(height, width)


def loop_write_p1(img: np.ndarray) -> bytes:
    """Plain PBM file bytes built digit by digit: each row's digits joined
    by spaces and cut into lines of at most 68 characters."""
    h, w = img.shape
    lines = [f"P1\n{w} {h}\n"]
    for row in img:
        s = " ".join("1" if v else "0" for v in row)
        for k in range(0, len(s), 68):
            lines.append(s[k : k + 68] + "\n")
    return "".join(lines).encode("ascii")
