"""Synthetic word and page corpus for training, tests and demos.

Three stylized glyph sets ship with the package as pre-rendered PBM
fixtures (24 px base height):

* ``Devnagari``: every glyph carries a full-width headline bar at the
  top, so side-by-side glyphs fuse into one wide component the way a
  shirorekha joins a printed word; full-height stems hang from it.
* ``EnglishNumeral``: digit-like glyphs built around full-height
  vertical strokes with only short horizontal segments.
* ``Kannada``: rounded open arcs and thick diagonal strokes, with no
  long vertical or horizontal run.

Words are 1..6 glyphs scaled (nearest-neighbor) to a per-word height of
10..36 px and composed left to right; Devnagari glyphs sit flush so the
headline stays continuous, other scripts get a one-column gap (below
any word-splitting threshold, but enough to keep components separate).
Pages are lines of words with generous inter-word and inter-line gaps
plus a ground-truth box list.  All randomness comes from a single
``random.Random`` so corpora are byte-reproducible from a seed.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from scriptid._util import crop_to_ink, round_half_up, write_text_atomic
from scriptid.netpbm import read_binary, write_pbm
from scriptid.segmentation import rotate_binary

__all__ = [
    "PageTruth",
    "WordTruth",
    "compose_word",
    "generate_corpus",
    "load_glyphs",
    "render_page",
    "render_word",
    "scale_to_height",
    "sprinkle_speckles",
]

HEADLINE_CLASS = "Devnagari"  # glyphs compose flush (continuous headline)


def load_glyphs(root: str | Path | None = None) -> dict[str, list[np.ndarray]]:
    """Load glyph sets: one subdirectory per class, one PBM per glyph.

    Glyphs are trimmed to their ink bounding box on load.  Raises if the
    directory is missing or any class is empty.
    """
    root = Path(root) if root is not None else Path(str(resources.files("scriptid") / "glyphs"))
    if not root.is_dir():
        raise FileNotFoundError(f"glyph directory not found: {root}")
    bank: dict[str, list[np.ndarray]] = {}
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        glyphs = []
        for path in sorted(class_dir.glob("*.pbm")):
            glyph = crop_to_ink(read_binary(str(path)))
            if glyph is None:
                raise ValueError(f"empty glyph: {path}")
            glyphs.append(np.ascontiguousarray(glyph))
        if glyphs:
            bank[class_dir.name] = glyphs
    if not bank:
        raise FileNotFoundError(f"no glyph classes under {root}")
    return bank


def scale_to_height(glyph: np.ndarray, height: int) -> np.ndarray:
    """Nearest-neighbor resize to the given height, preserving aspect."""
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    h, w = glyph.shape
    out_w = max(1, round_half_up(w * height / h))
    rows = (np.arange(height, dtype=np.int64) * h) // height
    cols = (np.arange(out_w, dtype=np.int64) * w) // out_w
    return glyph[rows[:, None], cols]


def compose_word(glyph_imgs: list[np.ndarray], gap: int) -> np.ndarray:
    """Place equal-height glyph bitmaps side by side with ``gap`` blank columns."""
    h = glyph_imgs[0].shape[0]
    width = sum(g.shape[1] for g in glyph_imgs) + gap * (len(glyph_imgs) - 1)
    out = np.zeros((h, width), dtype=np.uint8)
    x = 0
    for g in glyph_imgs:
        out[:, x : x + g.shape[1]] = g
        x += g.shape[1] + gap
    return out


def render_word(
    rng: random.Random,
    bank: dict[str, list[np.ndarray]],
    label: str,
    n_glyphs: int,
    height: int,
) -> tuple[np.ndarray, list[int], int]:
    """One synthetic word of ``n_glyphs`` glyphs, ``height`` px tall;
    returns (image, glyph indices, height)."""
    glyphs = bank[label]
    ids = [rng.randrange(len(glyphs)) for _ in range(n_glyphs)]
    scaled = [scale_to_height(glyphs[i], height) for i in ids]
    gap = 0 if label == HEADLINE_CLASS else 1
    return compose_word(scaled, gap), ids, height


@dataclass(frozen=True)
class WordTruth:
    label: str
    line_index: int
    row_start: int
    row_end: int
    col_start: int
    col_end: int


@dataclass(frozen=True)
class PageTruth:
    line_bands: tuple[tuple[int, int], ...]  # (row_start, row_end) per line
    words: tuple[WordTruth, ...]


def render_page(
    rng: random.Random,
    bank: dict[str, list[np.ndarray]],
    n_lines: int = 4,
    words_per_line: tuple[int, int] = (3, 5),
    heights: tuple[int, int] = (12, 28),
    margin: int = 40,
    classes: tuple[str, ...] | None = None,
) -> tuple[np.ndarray, PageTruth]:
    """A multi-line page of mixed-script words plus its ground truth.

    Words in a line are top-aligned; inter-word gaps are ~45% of the
    line height (comfortably above the word-splitting threshold) and
    lines are separated by blank rows.
    """
    classes = tuple(classes) if classes else tuple(sorted(bank))
    rendered: list[list[tuple[str, np.ndarray]]] = []
    for _ in range(n_lines):
        count = rng.randint(*words_per_line)
        line = []
        for _ in range(count):
            label = classes[rng.randrange(len(classes))]
            img, _, _ = render_word(rng, bank, label, n_glyphs=1 + rng.randrange(4),
                                    height=rng.randint(*heights))
            line.append((label, img))
        rendered.append(line)

    line_heights = [max(img.shape[0] for _, img in line) for line in rendered]
    word_gaps = [max(4, round_half_up(0.45 * h)) for h in line_heights]
    line_gaps = [max(4, round_half_up(0.35 * h)) for h in line_heights]
    content_widths = [
        sum(img.shape[1] for _, img in line) + word_gaps[i] * (len(line) - 1)
        for i, line in enumerate(rendered)
    ]
    page_w = 2 * margin + max(content_widths)
    page_h = 2 * margin + sum(line_heights) + sum(line_gaps[:-1])
    page = np.zeros((page_h, page_w), dtype=np.uint8)

    bands = []
    words = []
    y = margin
    for li, line in enumerate(rendered):
        x = margin
        for label, img in line:
            h, w = img.shape
            page[y : y + h, x : x + w] = img
            words.append(
                WordTruth(
                    label=label,
                    line_index=li,
                    row_start=y,
                    row_end=y + h - 1,
                    col_start=x,
                    col_end=x + w - 1,
                )
            )
            x += w + word_gaps[li]
        bands.append((y, y + line_heights[li] - 1))
        y += line_heights[li] + line_gaps[li]
    return page, PageTruth(line_bands=tuple(bands), words=tuple(words))


def sprinkle_speckles(
    rng: random.Random, page: np.ndarray, count: int, max_size: int = 2
) -> np.ndarray:
    """Add small square speckles on empty background, clear of any ink.

    Speckles stay at least 2 pixels away from existing objects so they
    form their own tiny components (removable by area filtering without
    disturbing the glyphs).
    """
    out = page.copy()
    h, w = out.shape
    placed = 0
    attempts = 0
    while placed < count and attempts < 50 * count:
        attempts += 1
        size = 1 + rng.randrange(max_size)
        r = rng.randrange(h - size)
        c = rng.randrange(w - size)
        r0, c0 = max(0, r - 2), max(0, c - 2)
        if out[r0 : r + size + 2, c0 : c + size + 2].any():
            continue
        out[r : r + size, c : c + size] = 1
        placed += 1
    return out


def generate_corpus(
    out_root: str | Path,
    per_class: int,
    seed: int = 0,
    glyph_root: str | Path | None = None,
    heights: tuple[int, int] = (10, 36),
    skew: float = 0.0,
    noise: float = 0.0,
) -> list[tuple[str, str, int, int, str]]:
    """Write a labeled word corpus; returns the manifest rows.

    Layout: one directory per class under ``out_root`` with word PBMs
    inside, plus ``manifest.csv`` (file, label, glyphs, height,
    glyph_ids).  Word glyph counts cycle 1..6 so every class contains
    single-glyph words.  ``skew`` rotates each word by a uniform random
    angle up to +-skew degrees; ``noise`` flips background pixels to ink
    with the given probability.  Fixed seed -> byte-identical corpus.
    Bad arguments raise ``ValueError`` before anything is written.
    """
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if not 1 <= heights[0] <= heights[1]:
        raise ValueError(f"heights must satisfy 1 <= min <= max, got {heights[0]}..{heights[1]}")
    if not (math.isfinite(skew) and skew >= 0.0):
        raise ValueError(f"skew must be a finite angle >= 0, got {skew}")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must be a probability in [0, 1], got {noise}")
    bank = load_glyphs(glyph_root)
    out_root = Path(out_root)
    rng = random.Random(seed)
    rows = []
    for label in sorted(bank):
        class_dir = out_root / label
        class_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            n_glyphs = 1 + (i % 6)
            img, ids, height = render_word(rng, bank, label, n_glyphs=n_glyphs,
                                           height=rng.randint(*heights))
            if skew > 0.0:
                img = _skew_word(rng, img, skew)
            if noise > 0.0:
                img = _noise_word(rng, img, noise)
            name = f"w{i:04d}.pbm"
            write_pbm(str(class_dir / name), img)
            rows.append((f"{label}/{name}", label, n_glyphs, height, "+".join(map(str, ids))))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["file", "label", "glyphs", "height", "glyph_ids"])
    writer.writerows(rows)
    write_text_atomic(str(out_root / "manifest.csv"), buf.getvalue())
    return rows


def _skew_word(rng: random.Random, img: np.ndarray, max_deg: float) -> np.ndarray:
    angle = rng.uniform(-max_deg, max_deg)
    h, w = img.shape
    pad_r = max(2, h // 4)
    pad_c = max(2, w // 4)
    canvas = np.zeros((h + 2 * pad_r, w + 2 * pad_c), dtype=np.uint8)
    canvas[pad_r : pad_r + h, pad_c : pad_c + w] = img
    crop = crop_to_ink(rotate_binary(canvas, angle))
    if crop is None:
        return img
    return np.ascontiguousarray(crop)


def _noise_word(rng: random.Random, img: np.ndarray, p: float) -> np.ndarray:
    npr = np.random.default_rng(rng.randrange(2**32))
    flips = (npr.random(img.shape) < p) & (img == 0)
    out = img.copy()
    out[flips] = 1
    return out
