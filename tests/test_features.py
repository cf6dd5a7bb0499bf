import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import flood_components, moment_axes
from scriptid import features, imaging, morphology
from scriptid._util import label_structure
from scriptid.features import (
    DIRECTIONS,
    FEATURE_NAMES,
    WordImage,
    aar,
    avg_eccentricity,
    avg_extent,
    extract_features,
    format_feature_line,
    parse_feature_line,
    pixel_ratio,
    se_length_for,
)
from scriptid.morphology import fill_holes, line_se, opening_by_reconstruction


def word_from(img):
    return WordImage.from_image(np.asarray(img, dtype=np.uint8))


def rand_word(rng, h=20, w=30, density=0.4):
    while True:
        img = (rng.random((h, w)) < density).astype(np.uint8)
        if img.any():
            return word_from(img)


# ---------------------------------------------------------------- WordImage
def test_word_image_crops_tight():
    img = np.zeros((10, 12), np.uint8)
    img[3:7, 4:9] = 1
    w = word_from(img)
    assert w.img.shape == (4, 5)
    assert w.img.any(axis=1).all() and w.img.any(axis=0).all()
    assert len(w.area) == 1


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_word_image_is_read_only(dtype):
    img = np.zeros((6, 7), dtype)
    img[1:4, 2:5] = 1
    w = WordImage.from_image(img)
    assert w.img.dtype == np.uint8 and not w.img.flags.writeable
    with pytest.raises(ValueError):
        w.img[0, 0] = 0


def test_word_image_rejects_empty():
    with pytest.raises(ValueError):
        word_from(np.zeros((5, 5), np.uint8))


def test_word_images_compare_by_identity():
    a = word_from(np.ones((3, 4)))
    b = word_from(np.ones((3, 4)))
    assert a == a
    assert a != b


@st.composite
def thin_words(draw, max_len=40):
    """1x1, 1xN, Nx1 and 1-px diagonal words, with gaps along the stroke."""
    n = draw(st.integers(1, max_len))
    ink = draw(hnp.arrays(np.uint8, n, elements=st.integers(0, 1)))
    assume(ink.any())
    shape = draw(st.sampled_from(("row", "column", "diagonal", "antidiagonal")))
    if shape == "row":
        return ink[None, :]
    if shape == "column":
        return ink[:, None]
    diag = np.diag(ink)
    return diag if shape == "diagonal" else diag[:, ::-1]


@settings(max_examples=200, deadline=None)
@given(img=thin_words())
@example(img=np.ones((1, 1), np.uint8))
def test_word_image_components_match_flood_fill_on_thin_words(img):
    w = word_from(img)
    oracle = flood_components(w.img, connectivity=8)
    assert len(w.area) == len(oracle)
    for i, pixels in enumerate(oracle):
        rows = [p[0] for p in pixels]
        cols = [p[1] for p in pixels]
        assert w.area[i] == len(pixels)
        assert w.geometry.bbox[i].tolist() == [min(rows), min(cols), max(rows), max(cols)]


# ---------------------------------------------------------------- SE length
def test_se_length_single_component_height_10():
    img = np.zeros((12, 6), np.uint8)
    img[1:11, 2:5] = 1  # height 10
    assert se_length_for(word_from(img)) == 7  # 0.7 * 10


def test_se_length_rounds_half_up_then_odd():
    img = np.zeros((24, 20), np.uint8)
    img[0:10, 1:4] = 1  # height 10
    img[0:20, 8:11] = 1  # height 20 -> mean 15 -> 10.5 -> 11 (odd already)
    assert se_length_for(word_from(img)) == 11


def test_se_length_clamps_to_minimum():
    img = np.zeros((4, 4), np.uint8)
    img[1:3, 1:3] = 1  # height 2 -> 1.4 -> 1 -> clamp 3
    assert se_length_for(word_from(img)) == 3


def test_se_length_even_bumps_to_odd():
    img = np.zeros((30, 6), np.uint8)
    img[0:20, 1:5] = 1  # height 20 -> 14 -> odd bump 15
    assert se_length_for(word_from(img)) == 15


# ---------------------------------------------------------------- OPD
def test_opd_zero_when_no_long_run():
    img = np.zeros((10, 10), np.uint8)
    img[1:9, 1:3] = 1  # vertical bar: no horizontal run >= 3
    w = word_from(img)
    assert extract_features(w)[0] == 0.0


def test_opd_solid_rectangle_vertical_is_one():
    img = np.ones((12, 7), np.uint8)
    w = word_from(img)
    assert extract_features(w)[2] == pytest.approx(1.0)


def test_opd_bar_and_dot_hand_traced():
    # 16x16 crop: 1x12 vertical bar plus a far dot pinning the bbox
    img = np.zeros((16, 16), np.uint8)
    img[0:12, 0] = 1
    img[15, 15] = 1
    w = word_from(img)
    assert w.img.shape == (16, 16)
    # computed SE length: mean height (12+1)/2 -> 0.7*6.5 = 4.55 -> 5
    assert se_length_for(w) == 5
    assert extract_features(w)[2] == pytest.approx(12 / 256)
    # the stated length-9 probe gives the same surviving ink
    g = fill_holes(opening_by_reconstruction(w.img, line_se(90, 9)))
    assert int(g.sum()) == 12
    assert g.sum() / g.size == pytest.approx(12 / 256)


# ---------------------------------------------------------------- one hole fill per word
@st.composite
def word_images(draw, max_side=32):
    """Any non-empty binary image, or nested rings with optional speckle
    anywhere and inside the holes."""
    if draw(st.booleans()):
        h = draw(st.integers(1, max_side))
        w = draw(st.integers(1, max_side))
        img = draw(hnp.arrays(np.uint8, (h, w), elements=st.integers(0, 1)))
    else:
        n = draw(st.integers(1, 4))
        thick = draw(st.integers(1, 3))
        step = thick + draw(st.integers(1, 3))
        h = 2 * n * step + draw(st.integers(0, 4))
        w = 2 * n * step + draw(st.integers(0, 4))
        pad = draw(st.integers(0, 3))
        img = np.zeros((h + 2 * pad, w + 2 * pad), np.uint8)
        for i in range(n):
            o = pad + i * step
            img[o : o + h - 2 * i * step, o : o + w - 2 * i * step] = 1
            img[o + thick : o + h - 2 * i * step - thick, o + thick : o + w - 2 * i * step - thick] = 0
        specks = st.tuples(st.integers(0, img.shape[0] - 1), st.integers(0, img.shape[1] - 1))
        for r, c in draw(st.lists(specks, max_size=6)):
            img[r, c] = 1
        # specks inside the rings' holes: an opening that keeps a ring and
        # drops its specks has to refill
        holes = np.argwhere(fill_holes(img) > img).tolist()
        if holes:
            for r, c in draw(st.lists(st.sampled_from(holes), max_size=4)):
                img[r, c] = 1
    assume(img.any())
    return img


def thin_ring(h, w):
    img = np.ones((h, w), np.uint8)
    img[1:-1, 1:-1] = 0
    return img


def refilled_density(word, direction, length):
    """The definition: fill the holes of every opening afresh."""
    g = fill_holes(opening_by_reconstruction(word.img, line_se(direction, length)))
    return float(int(g.sum()) / g.size)


SE_PARAMS = ((0.7, 3), (0.3, 1), (1.0, 5), (1.5, 3))


@settings(max_examples=300, deadline=None)
@given(img=word_images(), params=st.sampled_from(SE_PARAMS))
@example(img=np.ones((1, 1), np.uint8), params=(0.7, 3))
@example(img=np.ones((1, 1), np.uint8), params=(0.3, 1))
@example(img=np.ones((1, 17), np.uint8), params=(0.7, 3))
@example(img=np.ones((17, 1), np.uint8), params=(0.3, 1))
@example(img=np.eye(9, dtype=np.uint8), params=(0.7, 3))
@example(img=np.eye(9, dtype=np.uint8)[::-1].copy(), params=(1.0, 5))
@example(img=thin_ring(9, 13), params=(0.7, 3))
@example(img=thin_ring(3, 3), params=(0.3, 1))
def test_opd_and_pixel_ratio_match_refill_oracle(img, params):
    ratio, min_len = params
    word = word_from(img)
    length = se_length_for(word, ratio=ratio, min_len=min_len)
    opds = extract_features(word, ratio=ratio, min_len=min_len)[:4].tolist()
    assert opds == [refilled_density(word, d, length) for d in DIRECTIONS]
    filled = fill_holes(word.img)
    pr = pixel_ratio(word)
    assert pr == float(int(filled.sum()) / filled.size)
    # the fill of a subset of the word lies inside the word's fill
    assert all(v <= pr for v in opds)


@pytest.fixture
def fill_calls(monkeypatch):
    calls = []
    real = features.fill_holes

    def counting(img):
        calls.append(img)
        return real(img)

    monkeypatch.setattr(features, "fill_holes", counting)
    return calls


def opening_kinds(word):
    """Per direction: 'none', 'all' or 'partial' ink kept by the opening."""
    length = se_length_for(word)
    ink = np.count_nonzero(word.img)
    kinds = []
    for d in DIRECTIONS:
        kept = np.count_nonzero(opening_by_reconstruction(word.img, line_se(d, length)))
        kinds.append("none" if kept == 0 else "all" if kept == ink else "partial")
    return kinds


def test_clean_word_fills_holes_once(fill_calls):
    word = word_from(thin_ring(12, 12) | np.pad(thin_ring(10, 10), 1))  # 2-px-thick ring
    assert opening_kinds(word) == ["all", "none", "all", "none"]
    extract_features(word)
    assert len(fill_calls) == 1
    extract_features(word)  # the fill is cached on the word
    assert len(fill_calls) == 1


def test_speckled_word_refills_only_partial_openings(fill_calls):
    img = np.zeros((12, 16), np.uint8)
    img[:, :12] = thin_ring(12, 12) | np.pad(thin_ring(10, 10), 1)
    img[11, 15] = 1  # the speck survives no opening
    word = word_from(img)
    kinds = opening_kinds(word)
    assert kinds == ["partial", "none", "partial", "none"]
    extract_features(word)
    # the dropped speck lies outside the ring: the word's fill serves
    assert len(fill_calls) == 1


def bar_and_small_ring():
    img = np.zeros((10, 6), np.uint8)
    img[:, 0] = 1
    img[7:, 3:] = thin_ring(3, 3)
    return img


def ring_over_bar():
    img = np.zeros((11, 9), np.uint8)
    img[:7, :7] = thin_ring(7, 7)
    img[10] = 1
    return img


def ring_with_inner_speck():
    img = thin_ring(12, 12) | np.pad(thin_ring(10, 10), 1)
    img[6, 6] = 1  # inside the hole; survives no opening
    return img


@pytest.mark.parametrize(
    "img, kinds, refills",
    [
        # the kept bar borders no hole: the area is the bar's ink
        (bar_and_small_ring(), ["none", "none", "partial", "none"], 0),
        # the dropped bar borders no hole: the word's fill less the bar
        (ring_over_bar(), ["all", "none", "partial", "none"], 0),
        # kept ring and dropped speck both border the hole: refill
        (ring_with_inner_speck(), ["partial", "none", "partial", "none"], 2),
    ],
    ids=["kept-border-no-hole", "dropped-border-no-hole", "both-border-a-hole"],
)
def test_partial_opening_cases(fill_calls, img, kinds, refills):
    word = word_from(img)
    assert opening_kinds(word) == kinds
    length = se_length_for(word)
    vec = extract_features(word)
    assert len(fill_calls) == 1 + refills
    assert vec[:4].tolist() == [refilled_density(word, d, length) for d in DIRECTIONS]


def speckled_ring():
    img = np.zeros((12, 16), np.uint8)
    img[:, :12] = thin_ring(12, 12) | np.pad(thin_ring(10, 10), 1)
    img[11, 15] = 1
    return img


def test_word_geometry_computed_once(geometry_calls):
    word = word_from(speckled_ring())
    assert geometry_calls == []
    extract_features(word)
    assert geometry_calls == [word.img.shape]
    # every later reader shares the cached pass
    for reader in (se_length_for, aar, avg_eccentricity, avg_extent):
        reader(word)
    assert word.geometry is word.geometry
    assert geometry_calls == [word.img.shape]


def test_extract_features_makes_no_8_connected_labeling(monkeypatch):
    # the openings keep labels of the word's own map; only the hole fill
    # labels anything, and it labels the 4-connected background
    word = word_from(speckled_ring())
    assert opening_kinds(word) == ["partial", "none", "partial", "none"]
    structures = []
    real = morphology.ndi.label

    def recording(img, structure=None, **kwargs):
        structures.append(structure)
        return real(img, structure=structure, **kwargs)

    monkeypatch.setattr(morphology.ndi, "label", recording)
    extract_features(word)
    assert structures
    assert not any(np.array_equal(s, label_structure(8)) for s in structures)


@pytest.mark.parametrize(
    "img",
    [speckled_ring(), ring_with_inner_speck(), ring_over_bar(), np.ones((1, 1), np.uint8)],
    ids=["speckled-ring", "ring-with-inner-speck", "ring-over-bar", "1x1"],
)
def test_word_path_labels_into_intp_maps(monkeypatch, img):
    # an int32 map makes every table[labels] lookup convert the whole map
    outputs = []
    real = morphology.ndi.label

    def recording(img, structure=None, output=None, **kwargs):
        outputs.append(output)
        return real(img, structure=structure, output=output, **kwargs)

    # imaging and morphology both call scipy.ndimage.label
    monkeypatch.setattr(morphology.ndi, "label", recording)
    extract_features(word_from(img))
    assert len(outputs) >= 2  # the word's ink and its background
    assert all(out is np.intp for out in outputs), outputs


def test_word_path_validation_count(monkeypatch):
    calls = []
    real = imaging.as_binary

    def counting(img):
        calls.append(np.shape(img))
        return real(img)

    for module in (imaging, morphology, features):
        monkeypatch.setattr(module, "as_binary", counting)
    word = word_from(speckled_ring())
    assert len(calls) == 2  # the ink crop and its labeling
    assert opening_kinds(word) == ["partial", "none", "partial", "none"]
    calls.clear()
    extract_features(word)
    # per direction the opening's erosion, then the word's fill; the
    # partial openings drop only a speck outside the ring, so nothing is
    # refilled, and a map this small takes no run geometry
    assert len(calls) == 4 + 1


# ---------------------------------------------------------------- regional features
def test_aar_single_and_mean():
    img = np.zeros((12, 7), np.uint8)
    img[1:11, 1:6] = 1  # 10 high, 5 wide
    assert aar(word_from(img)) == pytest.approx(2.0)

    img = np.zeros((14, 20), np.uint8)
    img[1:11, 1:6] = 1  # 10x5 -> 2.0
    img[1:6, 9:19] = 1  # 5x10 -> 0.5
    assert aar(word_from(img)) == pytest.approx(1.25)


def test_pixel_ratio_solid_and_ring():
    img = np.zeros((8, 10), np.uint8)
    img[2:6, 3:8] = 1
    w = word_from(img)
    assert pixel_ratio(w) == pytest.approx(1.0)  # tight crop of a solid rect

    ring = np.ones((5, 5), np.uint8)
    ring[1:4, 1:4] = 0
    assert pixel_ratio(word_from(ring)) == pytest.approx(1.0)  # filled


def test_pixel_ratio_at_least_raw_density(rng):
    for _ in range(100):
        w = rand_word(rng, 12, 16, float(rng.uniform(0.2, 0.8)))
        raw = w.img.sum() / w.img.size
        assert pixel_ratio(w) >= raw - 1e-12


def test_avg_eccentricity_square_and_pair():
    assert avg_eccentricity(word_from(np.ones((7, 7)))) == pytest.approx(1.0)

    img = np.zeros((10, 24), np.uint8)
    img[0:10, 0:3] = 1
    img[2:5, 10:22] = 1
    w = word_from(img)
    e = []
    for comp in [(slice(0, 10), slice(0, 3)), (slice(2, 5), slice(10, 22))]:
        block = np.zeros_like(img)
        block[comp] = 1
        major, minor = moment_axes(list(zip(*np.nonzero(block))))
        e.append(minor / major)
    assert avg_eccentricity(w) == pytest.approx(sum(e) / 2, rel=1e-12)


def test_avg_extent_rect_and_plus():
    assert avg_extent(word_from(np.ones((6, 9)))) == pytest.approx(1.0)
    plus = np.zeros((3, 3), np.uint8)
    plus[1, :] = 1
    plus[:, 1] = 1
    assert avg_extent(word_from(plus)) == pytest.approx(5 / 9)


def _fold_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def test_regional_means_fold_left_to_right():
    # dot, 1x3 bar, dot: a compensated sum (CPython 3.12+ sum()) of
    # 1.0 + 1/3 + 1.0 lands one ulp away from the left-to-right fold, so
    # feature bytes would depend on the interpreter version
    assert _fold_mean([1.0, 1 / 3, 1.0]) != math.fsum([1.0, 1 / 3, 1.0]) / 3
    w = word_from([[1, 0, 1, 1, 1, 0, 1]])
    c = w.geometry
    assert c.bbox.tolist() == [[0, 0, 0, 0], [0, 2, 0, 4], [0, 6, 0, 6]]
    assert aar(w) == _fold_mean([1 / 1, 1 / 3, 1 / 1])
    ecc = [minor / major for minor, major in zip(c.minor_axis_len.tolist(), c.major_axis_len.tolist())]
    assert ecc[0] == ecc[2] == 1.0
    assert avg_eccentricity(w) == _fold_mean(ecc)
    assert avg_extent(w) == _fold_mean([1 / 1, 3 / 3, 1 / 1])


# ---------------------------------------------------------------- extract
def test_extract_features_order_and_composition():
    img = np.zeros((14, 9), np.uint8)
    img[1:13, 2:7] = 1
    w = word_from(img)
    vec = extract_features(w)
    assert vec.shape == (8,)
    expected = [refilled_density(w, d, se_length_for(w)) for d in DIRECTIONS] + [
        aar(w), pixel_ratio(w), avg_eccentricity(w), avg_extent(w),
    ]
    assert np.array_equal(vec, np.array(expected))


def test_feature_ranges_on_random_words(rng):
    for _ in range(50):
        w = rand_word(rng, 14, 18, float(rng.uniform(0.2, 0.8)))
        v = extract_features(w)
        opds, aar_v, pr, ecc, ext = v[:4], v[4], v[5], v[6], v[7]
        assert ((opds >= 0) & (opds <= 1)).all()
        assert (opds <= pr + 1e-12).all()
        assert 0 <= pr <= 1
        assert 0 <= ecc <= 1 + 1e-12
        assert 0 < ext <= 1
        assert aar_v > 0


def test_extract_deterministic(rng):
    w = rand_word(rng)
    a = extract_features(w)
    b = extract_features(WordImage.from_image(w.img.copy()))
    assert a.tobytes() == b.tobytes()


def test_translation_invariance_via_padding(rng):
    img = (rng.random((10, 14)) < 0.5).astype(np.uint8)
    img[0, 0] = img[-1, -1] = 1
    padded = np.zeros((20, 28), np.uint8)
    padded[4:14, 7:21] = img
    a = extract_features(word_from(img))
    b = extract_features(word_from(padded))
    assert a.tobytes() == b.tobytes()


def test_scale_coherence_on_upscaling(glyph_bank):
    import random as pyrandom

    from scriptid.corpus import render_word

    rng = pyrandom.Random(9)
    for label in sorted(glyph_bank):
        img, _, _ = render_word(rng, glyph_bank, label, n_glyphs=2, height=20)
        big = np.repeat(np.repeat(img, 2, axis=0), 2, axis=1)
        v1 = extract_features(word_from(img))
        v2 = extract_features(word_from(big))
        for name, idx in (("aar", 4), ("ecc", 6), ("ext", 7)):
            assert abs(v1[idx] - v2[idx]) < 0.05, (label, name, v1[idx], v2[idx])


def test_stroke_direction_sensitivity():
    vbar = np.zeros((20, 9), np.uint8)
    vbar[1:19, 3:6] = 1
    v = extract_features(word_from(vbar))
    assert v[2] > v[0]  # opd_90 > opd_0

    hbar = np.zeros((9, 20), np.uint8)
    hbar[3:5, 1:19] = 1  # thinner than the minimum SE length
    h = extract_features(word_from(hbar))
    assert h[0] > h[2]  # opd_0 > opd_90


# ---------------------------------------------------------------- dump lines
def test_feature_line_round_trip(rng):
    vec = rng.random(8)
    line = format_feature_line("corpus/Kannada/w0001.pbm", "Kannada", vec)
    path, label, back = parse_feature_line(line)
    assert path == "corpus/Kannada/w0001.pbm"
    assert label == "Kannada"
    assert back.tobytes() == vec.tobytes()


def test_feature_line_empty_label(rng):
    line = format_feature_line("x.pbm", None, np.zeros(8))
    path, label, vec = parse_feature_line(line)
    assert label is None
    assert not vec.any()


def test_feature_line_rejects_malformed():
    with pytest.raises(ValueError):
        parse_feature_line("a,b,1,2")
    with pytest.raises(ValueError):
        format_feature_line("p", "l", np.zeros(5))


def test_feature_line_rejects_non_finite():
    ok = format_feature_line("w.pbm", "A", np.zeros(8))
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="non-finite"):
            parse_feature_line(ok.replace(",0.0", "," + bad, 1))


def test_feature_names_shape():
    assert FEATURE_NAMES == ("opd_0", "opd_45", "opd_90", "opd_135", "aar", "pr", "ecc", "ext")
    assert DIRECTIONS == (0, 45, 90, 135)
