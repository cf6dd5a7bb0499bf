import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from scriptid.corpus import (
    compose_word,
    generate_corpus,
    load_glyphs,
    render_page,
    render_word,
    scale_to_height,
    sprinkle_speckles,
)
from scriptid.imaging import connected_components, remove_small_objects


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- glyph fixtures
def test_glyph_bank_structure(glyph_bank):
    assert set(glyph_bank) == {"Devnagari", "EnglishNumeral", "Kannada"}
    for cls, glyphs in glyph_bank.items():
        assert len(glyphs) >= 8
        for g in glyphs:
            assert g.any(axis=1).all(), cls  # trimmed: ink in every row
            assert g.any(axis=0).all(), cls
            _, area = connected_components(g, 8)
            assert len(area) == 1, cls  # one component per glyph


def test_load_glyphs_missing_root(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_glyphs(tmp_path / "nope")


# ---------------------------------------------------------------- scaling/composition
def test_scale_to_height_dimensions(glyph_bank):
    g = glyph_bank["Kannada"][0]
    for h in (10, 17, 24, 36):
        s = scale_to_height(g, h)
        assert s.shape[0] == h and s.flags.c_contiguous
        assert abs(s.shape[1] - round(g.shape[1] * h / g.shape[0])) <= 1
        assert s.any(axis=1).all() and s.any(axis=0).all()


def test_scale_rejects_bad_height(glyph_bank):
    with pytest.raises(ValueError):
        scale_to_height(glyph_bank["Kannada"][0], 0)


def test_compose_word_gap_layout():
    a = np.ones((4, 3), np.uint8)
    b = np.ones((4, 2), np.uint8)
    w = compose_word([a, b], gap=2)
    assert w.shape == (4, 7)
    assert not w[:, 3:5].any()
    assert w[:, :3].all() and w[:, 5:].all()


def test_render_word_component_counts(glyph_bank):
    rng = random.Random(4)
    for n in (1, 3, 5):
        img, ids, h = render_word(rng, glyph_bank, "EnglishNumeral", n_glyphs=n, height=20)
        assert img.shape[0] == 20
        assert len(ids) == n
        _, area = connected_components(img, 8)
        assert len(area) == n  # digits stay separate

        img, _, _ = render_word(rng, glyph_bank, "Devnagari", n_glyphs=n, height=20)
        _, area = connected_components(img, 8)
        assert len(area) == 1  # headline fuses the word


def test_render_word_height_range(glyph_bank):
    rng = random.Random(8)
    for _ in range(20):
        img, _, h = render_word(rng, glyph_bank, "Kannada")
        assert 10 <= h <= 36
        assert img.shape[0] == h


# ---------------------------------------------------------------- pages
def test_render_page_ground_truth_boxes(glyph_bank):
    rng = random.Random(6)
    page, truth = render_page(rng, glyph_bank, n_lines=3)
    for wt in truth.words:
        crop = page[wt.row_start : wt.row_end + 1, wt.col_start : wt.col_end + 1]
        assert crop.any(axis=1).all()  # every row inked (top-aligned solid glyphs)
        cols_inked = crop.any(axis=0)
        assert cols_inked[0] and cols_inked[-1]  # box trimmed to ink extent
        # interior blank runs are single columns (inter-glyph gaps), so no
        # word-splitting threshold can ever cut a word apart
        gaps = np.diff(np.flatnonzero(cols_inked))
        assert gaps.max(initial=1) <= 2
    # line bands exactly cover the ink rows
    ink_rows = np.flatnonzero(page.any(axis=1))
    covered = set()
    for r0, r1 in truth.line_bands:
        covered.update(range(r0, r1 + 1))
    assert set(ink_rows.tolist()) <= covered


def test_page_words_sorted_reading_order(glyph_bank):
    rng = random.Random(13)
    _, truth = render_page(rng, glyph_bank)
    key = [(w.line_index, w.col_start) for w in truth.words]
    assert key == sorted(key)


# ---------------------------------------------------------------- corpus builder
def test_generate_corpus_layout_and_counts(tmp_path, glyph_bank):
    rows = generate_corpus(tmp_path / "corpus", per_class=10, seed=1)
    assert len(rows) == 30
    for cls in glyph_bank:
        files = sorted((tmp_path / "corpus" / cls).glob("*.pbm"))
        assert len(files) == 10
    manifest = (tmp_path / "corpus" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "file,label,glyphs,height,glyph_ids"
    assert len(manifest) == 31


def test_generate_corpus_contains_single_glyph_words(tmp_path):
    rows = generate_corpus(tmp_path / "corpus", per_class=7, seed=2)
    for cls in ("Devnagari", "EnglishNumeral", "Kannada"):
        counts = [r[2] for r in rows if r[1] == cls]
        assert 1 in counts


def test_generate_corpus_reproducible(tmp_path):
    generate_corpus(tmp_path / "a", per_class=6, seed=42)
    generate_corpus(tmp_path / "b", per_class=6, seed=42)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    generate_corpus(tmp_path / "c", per_class=6, seed=43)
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")


def test_generate_corpus_perturbations(tmp_path):
    rows = generate_corpus(tmp_path / "p", per_class=4, seed=3, skew=3.0, noise=0.002)
    assert len(rows) == 12  # still one file per word
    for f, label, _, _, _ in rows:
        assert (tmp_path / "p" / f).exists()


def test_generate_corpus_rejects_bad_args(tmp_path):
    with pytest.raises(ValueError):
        generate_corpus(tmp_path / "x", per_class=0, seed=1)


@pytest.mark.parametrize("bad", [
    {"heights": (40, 20)},
    {"heights": (0, 20)},
    {"skew": float("nan")},
    {"skew": float("inf")},
    {"skew": -5.0},
    {"noise": 1.5},
    {"noise": -0.5},
    {"noise": float("nan")},
])
def test_generate_corpus_rejects_bad_args_before_writing(tmp_path, bad):
    kwargs = {"per_class": 2, "seed": 1, **bad}
    with pytest.raises(ValueError):
        generate_corpus(tmp_path / "x", **kwargs)
    assert not (tmp_path / "x").exists()


def test_generate_corpus_accepts_range_edges(tmp_path):
    rows = generate_corpus(tmp_path / "x", per_class=2, seed=1, heights=(1, 1), noise=1.0)
    assert {height for _, _, _, height, _ in rows} == {1}


def test_digit_words_have_tall_aspect(glyph_bank):
    # numeral glyphs are built around tall strokes, so per-component
    # height/width averages above 1 across the whole scale range
    from scriptid.features import WordImage, aar

    rng = random.Random(77)
    for h in (10, 16, 24, 36):
        img, _, _ = render_word(rng, glyph_bank, "EnglishNumeral", n_glyphs=3, height=h)
        assert aar(WordImage.from_image(img)) > 1.0


# ---------------------------------------------------------------- speckles
def test_sprinkle_speckles_removable(glyph_bank):
    rng = random.Random(17)
    page, _ = render_page(rng, glyph_bank, n_lines=2)
    noisy = sprinkle_speckles(rng, page, count=40)
    assert noisy.sum() > page.sum()
    cleaned = remove_small_objects(noisy, min_area=15)
    assert np.array_equal(cleaned, remove_small_objects(page, min_area=15))
