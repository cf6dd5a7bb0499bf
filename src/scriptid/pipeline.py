"""The page pipeline as plain functions over a ``PipelineConfig``.

``preprocess`` turns a grayscale scan into a clean binary page (Otsu,
despeckle, deskew), ``words`` cuts a binary page into named word
crops, and ``vector`` computes one word's 8 features.  The CLI and
library callers run these same functions, so both read a scan alike;
a gray image of one intensity, say, is blank (``otsu_binarize``).
Each stage reads its thresholds from the ``cfg`` passed straight
through; only ``remove_small_objects``, a primitive, is handed
``cfg.min_area``.

Every step is called through its module (``imaging.binarize``,
``features.extract_features``, ...), never through a name imported
here, so replacing a module attribute (a tracer, a test's recorder)
reaches the pipeline too.  ``vector`` makes one ``WordImage`` and one
feature vector per call; classify its result word by word.
"""

from __future__ import annotations

import numpy as np

from scriptid import features, imaging, netpbm, segmentation
from scriptid.config import PipelineConfig

__all__ = ["load_binary", "otsu_binarize", "preprocess", "vector", "words"]


def otsu_binarize(gray) -> tuple[np.ndarray, int]:
    """``(binary, Otsu threshold)``; an image of one intensity is all background."""
    t = imaging.otsu_threshold(gray)
    binary = imaging.binarize(gray, t)
    if binary.all():  # Otsu's threshold lies below any other image's top
        binary[...] = 0
    return binary, t


def load_binary(path: str) -> np.ndarray:
    """Read a word or page image; PGM input is Otsu-binarized."""
    kind, img = netpbm.read(path)
    return img if kind == "binary" else otsu_binarize(img)[0]


def preprocess(gray, cfg: PipelineConfig = PipelineConfig()) -> tuple[np.ndarray, int, float]:
    """``(page, threshold, skew angle)``: binarize, despeckle, deskew."""
    page, t = otsu_binarize(gray)
    page = imaging.remove_small_objects(page, min_area=cfg.min_area)
    page, angle = segmentation.deskew(page, cfg)
    return page, t, angle


def words(page, cfg: PipelineConfig = PipelineConfig()) -> list:
    """``(name, box, crop)`` per word of a binary page, named ``L###_W###``."""
    out = []
    for li, band in enumerate(segmentation.segment_lines(page, cfg), start=1):
        for wi, box in enumerate(segmentation.segment_words(page, band, cfg), start=1):
            crop = page[band.row_start : band.row_end + 1, box.col_start : box.col_end + 1]
            out.append((f"L{li:03d}_W{wi:03d}", box, crop))
    return out


def vector(img, cfg: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """The 8-feature vector of one word image; ``ValueError`` if it holds no ink."""
    word = features.WordImage.from_image(img)
    return features.extract_features(word, cfg)
