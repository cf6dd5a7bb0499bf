import numpy as np
import pytest

from scriptid import imaging
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
    """Label-map shapes of every component-geometry pass run while the test runs."""
    calls = []
    real = imaging._geometry

    def counting(labels, area):
        calls.append(labels.shape)
        return real(labels, area)

    monkeypatch.setattr(imaging, "_geometry", counting)
    return calls
