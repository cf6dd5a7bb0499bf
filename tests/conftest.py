import numpy as np
import pytest

from scriptid import features, imaging
from scriptid.corpus import load_glyphs


@pytest.fixture(scope="session")
def glyph_bank():
    return load_glyphs()


def random_binary(rng, h, w, density=0.5):
    return (rng.random((h, w)) < density).astype(np.uint8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def geometry_calls(monkeypatch):
    """Label-map shapes of every component-geometry pass run while the test runs.

    ``features`` imports ``component_geometry`` by name, so the name is
    patched in both modules that hold it.
    """
    calls = []
    real = imaging.component_geometry

    def counting(img, labels, area):
        calls.append(labels.shape)
        return real(img, labels, area)

    for module in (imaging, features):
        monkeypatch.setattr(module, "component_geometry", counting)
    return calls
