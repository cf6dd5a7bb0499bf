"""Word-level script identification for bilingual document images.

The pipeline: Otsu binarization, speckle removal, deskew,
projection-profile line and word segmentation, an 8-feature vector per
word (four directional densities from opening-by-reconstruction plus
aspect ratio, pixel ratio, eccentricity and extent), and a KNN
classifier.  See ``scriptid.cli`` for the batch frontend.

The top level re-exports what a page-to-labels script needs; everything
else is imported from its submodule (``scriptid.morphology``,
``scriptid.classifier``, ...).
"""

from scriptid.classifier import classify_knn, load_model
from scriptid.features import WordImage, extract_features
from scriptid.imaging import binarize, otsu_threshold, remove_small_objects
from scriptid.segmentation import deskew, segment_lines, segment_words

__version__ = "0.1.0"

__all__ = [
    "WordImage",
    "binarize",
    "classify_knn",
    "deskew",
    "extract_features",
    "load_model",
    "otsu_threshold",
    "remove_small_objects",
    "segment_lines",
    "segment_words",
    "__version__",
]
