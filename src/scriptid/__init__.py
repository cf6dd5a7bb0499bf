"""Word-level script identification for bilingual document images.

The pipeline: Otsu binarization, speckle removal, deskew,
projection-profile line and word segmentation, an 8-feature vector per
word (four directional densities from opening-by-reconstruction plus
aspect ratio, pixel ratio, eccentricity and extent), and a KNN
classifier.  ``scriptid.pipeline`` holds those steps and ``scriptid.cli``
is the batch frontend over it.

The top level re-exports what a page-to-labels script needs: the
pipeline and the classifier.  Everything else is imported from its
submodule (``scriptid.segmentation``, ``scriptid.morphology``, ...).
"""

from scriptid import pipeline
from scriptid.classifier import classify_knn, load_model

__version__ = "0.1.0"

__all__ = ["classify_knn", "load_model", "pipeline", "__version__"]
