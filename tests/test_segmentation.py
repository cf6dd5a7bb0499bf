import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scriptid.segmentation as segmentation
from oracles import (
    angle_grid,
    loop_line_bands,
    loop_word_boxes,
    naive_rotate,
    naive_vertical_dilation,
    symmetric_angle_grid,
)
from scriptid.config import PipelineConfig
from scriptid.corpus import render_page
from scriptid.segmentation import (
    LineBand,
    deskew,
    rotate_binary,
    segment_lines,
    segment_words,
)


# ---------------------------------------------------------------- lines
def test_segment_lines_two_bands():
    page = np.zeros((40, 30), np.uint8)
    page[5:15, 3:25] = 1
    page[22:30, 4:20] = 1
    bands = segment_lines(page)
    assert bands == [LineBand(5, 14), LineBand(22, 29)]


def test_segment_lines_blank_page():
    assert segment_lines(np.zeros((20, 20), np.uint8)) == []


def test_segment_lines_discards_short_bands():
    page = np.zeros((30, 30), np.uint8)
    page[2:4, :] = 1  # 2 rows < min_line_height
    page[10:20, :] = 1
    assert segment_lines(page, PipelineConfig(min_line_height=5)) == [LineBand(10, 19)]


def test_segment_lines_on_generated_page(glyph_bank):
    rng = random.Random(5)
    page, truth = render_page(rng, glyph_bank, n_lines=3)
    bands = segment_lines(page)
    assert len(bands) == 3
    for band, (r0, r1) in zip(bands, truth.line_bands):
        assert band.row_start == r0
        assert band.row_end == r1


# ---------------------------------------------------------------- words
def test_segment_words_two_blobs():
    page = np.zeros((20, 60), np.uint8)
    page[5:15, 5:20] = 1
    page[5:15, 28:50] = 1  # gap of 8 cols ~ 0.8 * height
    band = segment_lines(page)[0]
    boxes = segment_words(page, band)
    assert [(b.col_start, b.col_end) for b in boxes] == [(5, 19), (28, 49)]


def test_segment_words_single_blob_trims_to_ink():
    page = np.zeros((20, 40), np.uint8)
    page[5:15, 7:31] = 1
    band = segment_lines(page)[0]
    boxes = segment_words(page, band)
    assert [(b.col_start, b.col_end) for b in boxes] == [(7, 30)]


def test_segment_words_narrow_gap_does_not_split():
    page = np.zeros((20, 40), np.uint8)
    page[3:17, 5:15] = 1
    page[3:17, 16:25] = 1  # 1-col gap, line height 14 -> gap_min 3
    band = segment_lines(page)[0]
    assert len(segment_words(page, band)) == 1


def test_segment_words_validates_the_band_it_reads():
    page = np.zeros((20, 40), np.uint8)
    page[5:15, 7:31] = 1
    band = segment_lines(page)[0]
    for r, c in ((band.row_start, 35), (band.row_end, 0), (10, 20)):
        bad = page.copy()
        bad[r, c] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            segment_words(bad, band)


def test_segment_words_on_generated_pages(glyph_bank):
    rng = random.Random(11)
    for _ in range(3):
        page, truth = render_page(rng, glyph_bank)
        bands = segment_lines(page)
        assert len(bands) == len(truth.line_bands)
        recovered = []
        for band in bands:
            recovered.extend(segment_words(page, band))
        assert len(recovered) == len(truth.words)
        for box, gt in zip(recovered, sorted(truth.words, key=lambda w: (w.line_index, w.col_start))):
            assert abs(box.col_start - gt.col_start) <= 1
            assert abs(box.col_end - gt.col_end) <= 1
            assert box.line.row_start <= gt.row_start
            assert box.line.row_end >= gt.row_end


def test_word_boxes_disjoint_and_sorted(glyph_bank):
    rng = random.Random(2)
    page, _ = render_page(rng, glyph_bank)
    for band in segment_lines(page):
        boxes = segment_words(page, band)
        for a, b in zip(boxes, boxes[1:]):
            assert a.col_end < b.col_start


# ---------------------------------------------------------------- run arithmetic
@st.composite
def sparse_pages(draw):
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    seed = draw(st.integers(0, 2**32 - 1))
    return (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)


_THRESHOLDS = dict(
    tau_line=st.integers(0, 3),
    tau_word=st.integers(0, 3),
    min_line_height=st.integers(1, 4),
    gap_frac=st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.9]),
    gap_min_floor=st.integers(1, 4),
)


def _boxes(page, band, tau_word, gap_frac, gap_min_floor):
    return [
        (box.col_start, box.col_end)
        for box in segment_words(
            page, band, PipelineConfig(tau_word=tau_word, gap_frac=gap_frac, gap_min_floor=gap_min_floor)
        )
    ]


@settings(max_examples=300, deadline=None)
@given(page=sparse_pages(), **_THRESHOLDS)
@example(page=np.zeros((6, 9), np.uint8), tau_line=0, tau_word=0, min_line_height=1, gap_frac=0.2, gap_min_floor=2)
@example(page=np.ones((6, 9), np.uint8), tau_line=0, tau_word=0, min_line_height=1, gap_frac=0.2, gap_min_floor=2)
@example(page=np.ones((6, 9), np.uint8), tau_line=8, tau_word=5, min_line_height=1, gap_frac=0.2, gap_min_floor=2)
@example(page=np.array([[1, 0, 1, 1, 0, 0, 1]], np.uint8), tau_line=0, tau_word=0, min_line_height=1,
         gap_frac=0.2, gap_min_floor=2)
@example(page=np.array([[1], [0], [1], [1]], np.uint8), tau_line=0, tau_word=0, min_line_height=2,
         gap_frac=0.2, gap_min_floor=1)
def test_segmentation_matches_loop_oracle(page, tau_line, tau_word, min_line_height, gap_frac, gap_min_floor):
    bands = segment_lines(page, PipelineConfig(tau_line=tau_line, min_line_height=min_line_height))
    assert [(b.row_start, b.row_end) for b in bands] == loop_line_bands(page, tau_line, min_line_height)
    # the whole page as one band too, so that empty and all-ink bands
    # are read whatever the line thresholds keep
    for band in bands + [LineBand(0, page.shape[0] - 1)]:
        boxes = _boxes(page, band, tau_word, gap_frac, gap_min_floor)
        assert boxes == loop_word_boxes(page, (band.row_start, band.row_end), tau_word, gap_frac, gap_min_floor)
        assert all(type(c) is int for box in boxes for c in box)


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(1, 30),
    gap_frac=st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    gap_min_floor=st.integers(1, 4),
    widths=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    short=st.booleans(),
    tau_word=st.integers(0, 2),
)
def test_word_gap_of_gap_min_splits_and_one_less_does_not(height, gap_frac, gap_min_floor, widths, short, tau_word):
    gap_min = max(gap_min_floor, math.floor(gap_frac * height + 0.5))
    gap = gap_min - 1 if short else gap_min
    page = np.zeros((height, 2 + widths[0] + gap + widths[1]), np.uint8)
    page[:, 1 : 1 + widths[0]] = 1
    page[:, 1 + widths[0] + gap : -1] = 1
    band = LineBand(0, height - 1)
    boxes = _boxes(page, band, tau_word, gap_frac, gap_min_floor)
    assert boxes == loop_word_boxes(page, (0, height - 1), tau_word, gap_frac, gap_min_floor)
    if height <= tau_word:
        assert boxes == []
    else:
        assert len(boxes) == (1 if short else 2)


@settings(max_examples=300, deadline=None)
@given(max_angle=st.floats(0.0, 45.0), step=st.floats(1.0, 50.0))
@example(max_angle=5.0, step=3.0)
@example(max_angle=5.5, step=1.0)
@example(max_angle=0.0, step=1.0)
@example(max_angle=15.0, step=1.0)
def test_grid_equals_the_symmetric_coarse_grid(max_angle, step):
    assert segmentation._grid(-max_angle, max_angle, step) == symmetric_angle_grid(max_angle, step)


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-45.0, 45.0), width=st.floats(0.0, 4.0), step=st.floats(0.01, 1.0))
@example(lo=-5.0, width=2.0, step=0.1)
@example(lo=0.3, width=0.3, step=0.1)
def test_grid_equals_the_fine_grid(lo, width, step):
    assert segmentation._grid(lo, lo + width, step) == angle_grid(lo, lo + width, step)


# ---------------------------------------------------------------- rotation
def test_rotate_zero_is_copy(rng):
    img = (rng.random((10, 10)) < 0.5).astype(np.uint8)
    out = rotate_binary(img, 0.0)
    assert np.array_equal(out, img)
    assert out is not img


@pytest.mark.parametrize("degrees", [float("nan"), float("inf"), float("-inf")])
def test_rotate_rejects_non_finite_angle(degrees):
    with pytest.raises(ValueError, match="finite"):
        rotate_binary(np.ones((5, 5), np.uint8), degrees)


def test_rotate_stays_binary(rng):
    img = (rng.random((20, 20)) < 0.5).astype(np.uint8)
    out = rotate_binary(img, 13.7)
    assert set(np.unique(out)) <= {0, 1}


def test_rotate_round_trip_center_block():
    img = np.zeros((41, 41), np.uint8)
    img[17:24, 15:26] = 1
    back = rotate_binary(rotate_binary(img, 9.0), -9.0)
    # nearest-neighbor round trip matches up to 1-px edge jitter
    assert (img & back).sum() >= 0.85 * img.sum()


@settings(max_examples=300, deadline=None)
@given(
    img=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=59),
                   elements=st.integers(0, 1)),
    degrees=st.one_of(
        st.integers(-200, 200).map(lambda k: k / 10),  # the deskew search grid
        st.integers(-90, 90).map(float),
        st.floats(-20.0, 20.0),
    ),
)
@example(img=np.ones((1, 1), np.uint8), degrees=45.0)
@example(img=np.ones((1, 7), np.uint8), degrees=90.0)
@example(img=np.ones((6, 9), np.uint8), degrees=-17.3)
def test_rotate_matches_naive_oracle(img, degrees):
    out = rotate_binary(img, degrees)
    assert out.dtype == np.uint8
    assert np.array_equal(out, naive_rotate(img, degrees))


# heights around every multiple of the row block, up to 300 rows
_BLOCK = segmentation._ROTATE_BLOCK_ROWS
SEAM_HEIGHTS = sorted({k * _BLOCK + d for k in range(1, 300 // _BLOCK + 1) for d in (-1, 0, 1)})


@settings(max_examples=80, deadline=None)
@given(
    h=st.one_of(st.sampled_from(SEAM_HEIGHTS), st.integers(1, 300)),
    w=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    degrees=st.one_of(
        st.integers(-200, 200).map(lambda k: k / 10),
        st.integers(-90, 90).map(float),
        st.floats(-20.0, 20.0),
    ),
    read_only=st.booleans(),
)
@example(h=_BLOCK + 1, w=3, seed=0, density=1.0, degrees=7.3, read_only=False)
@example(h=2 * _BLOCK - 1, w=48, seed=1, density=0.5, degrees=-90.0, read_only=True)
def test_rotate_block_seams_match_naive_oracle(h, w, seed, density, degrees, read_only):
    img = (np.random.default_rng(seed).random((h, w)) < density).astype(np.uint8)
    img.flags.writeable = not read_only
    out = rotate_binary(img, degrees)
    assert out.dtype == np.uint8 and out.shape == img.shape
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, img)
    assert np.array_equal(out, naive_rotate(img, degrees))


def test_rotate_clips_ink_past_the_frame():
    # the output keeps the input's shape, so nothing is padded: a full
    # frame loses its corners at 45 degrees ...
    img = np.ones((41, 61), np.uint8)
    out = rotate_binary(img, 45.0)
    assert out.shape == img.shape
    assert out[0, 0] == out[0, -1] == out[-1, 0] == out[-1, -1] == 0
    assert out.sum() < img.sum()
    assert np.array_equal(out, naive_rotate(img, 45.0))
    # ... and a corner pixel of a wide frame lands outside it at 90 degrees
    dot = np.zeros((11, 31), np.uint8)
    dot[0, 0] = 1
    assert not rotate_binary(dot, 90.0).any()
    assert not rotate_binary(dot, -90.0).any()


# ---------------------------------------------------------------- deskew
def test_deskew_unskewed_page(glyph_bank):
    rng = random.Random(21)
    page, _ = render_page(rng, glyph_bank, n_lines=5, margin=60)
    _, angle = deskew(page)
    assert abs(angle) <= 0.2


@pytest.mark.parametrize("true_angle", [3.0, -7.5])
def test_deskew_recovers_known_rotation(glyph_bank, true_angle):
    rng = random.Random(int(true_angle * 10) & 0xFFFF)
    page, _ = render_page(rng, glyph_bank, n_lines=6, words_per_line=(4, 6), margin=90)
    skewed = rotate_binary(page, true_angle)
    _, angle = deskew(skewed)
    assert abs(angle - true_angle) <= 0.5


def test_deskew_stability_under_repetition(glyph_bank):
    rng = random.Random(33)
    page, _ = render_page(rng, glyph_bank, n_lines=5, margin=90)
    skewed = rotate_binary(page, 4.0)
    once, angle1 = deskew(skewed)
    _, angle2 = deskew(once)
    assert abs(angle1 - 4.0) <= 0.5
    assert abs(angle2) <= 0.5


def test_deskew_reads_only_blob_areas(glyph_bank, geometry_calls):
    rng = random.Random(34)
    page, _ = render_page(rng, glyph_bank, n_lines=4, margin=90)
    _, angle = deskew(rotate_binary(page, 3.0))
    assert abs(angle - 3.0) <= 0.5
    assert geometry_calls == []


def test_deskew_subsamples_a_large_page(glyph_bank, monkeypatch):
    # 87,412 ink pixels, all in blobs that deskew keeps: the variance
    # search reads 30,000 of them
    rng = random.Random(9)
    page, _ = render_page(rng, glyph_bank, n_lines=14, words_per_line=(8, 10), heights=(20, 36))
    skewed = rotate_binary(page, 2.0)
    samples = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **kw: samples.append(a) or linspace(*a, **kw))
    _, angle = deskew(skewed)
    assert angle == 2.0
    assert samples == [(0, np.count_nonzero(skewed) - 1, 30000)]
    assert np.count_nonzero(skewed) == 87412


def test_deskew_too_few_components_returns_zero():
    page = np.zeros((30, 30), np.uint8)
    page[10:14, 10:20] = 1  # one blob only
    out, angle = deskew(page)
    assert angle == 0.0
    assert np.array_equal(out, page)


def test_deskew_vertical_dilation_matches_window_oracle(rng, monkeypatch):
    # the blob image deskew labels must be the page dilated over rows
    # -(L//2) .. L-L//2-1, for odd and even L alike
    seen = []
    labeler = segmentation.connected_components

    def capture(img, *args, **kwargs):
        seen.append(np.array(img))
        return labeler(img, *args, **kwargs)

    monkeypatch.setattr(segmentation, "connected_components", capture)
    for _ in range(2):
        page = (rng.random((40, 56)) < 0.04).astype(np.uint8)
        for length in range(1, 13):
            seen.clear()
            deskew(page, PipelineConfig(deskew_dilate_len=length))
            assert len(seen) == 1
            assert np.array_equal(seen[0], naive_vertical_dilation(page, length)), length


def test_deskew_dilation_longer_than_twice_the_page_is_clamped(rng):
    # from L = 2h on the vertical dilation is each column's OR, so a longer
    # length gives the same page and angle and costs no more than the page
    page = (rng.random((12, 40)) < 0.05).astype(np.uint8)
    page[3, 1:39] = 1
    page[8, 1:39] = 1
    want = deskew(page, PipelineConfig(deskew_dilate_len=24))
    for length in (25, 1_000_000):
        tracemalloc.start()
        try:
            got = deskew(page, PipelineConfig(deskew_dilate_len=length))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (length, peak)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    column_or = np.broadcast_to(page.any(axis=0), page.shape)
    assert np.array_equal(naive_vertical_dilation(page, 24), column_or)


def test_deskew_rejects_nonpositive_dilate_len():
    page = np.zeros((10, 10), np.uint8)
    with pytest.raises(ValueError, match="dilate_len"):
        deskew(page, PipelineConfig(deskew_dilate_len=0))


@pytest.mark.parametrize("true_angle", [5.8, -5.9])
@pytest.mark.parametrize("max_angle, step", [(5.0, 3.0), (5.5, 1.0)])
def test_deskew_stays_within_max_angle(glyph_bank, true_angle, max_angle, step):
    # rounding max_angle / step to the nearest integer would try +-6.0 here
    page, _ = render_page(random.Random(35), glyph_bank, n_lines=4, margin=90)
    cfg = PipelineConfig(deskew_max_angle=max_angle, deskew_step=step)
    _, angle = deskew(rotate_binary(page, true_angle), cfg)
    assert abs(angle) <= max_angle


@pytest.fixture(scope="module")
def page_skewed_3_degrees(glyph_bank):
    page, _ = render_page(random.Random(34), glyph_bank, n_lines=4, margin=90)
    return rotate_binary(page, 3.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"deskew_step": 0.0},
        {"deskew_step": -1.0},
        {"deskew_step": math.inf},
        {"deskew_step": math.nan},
        {"deskew_max_angle": -5.0},
        {"deskew_max_angle": math.inf},
        {"deskew_max_angle": math.nan},
    ],
    ids=["step=0", "step=-1", "step=inf", "step=nan", "max_angle=-5", "max_angle=inf", "max_angle=nan"],
)
def test_deskew_rejects_malformed_angles(page_skewed_3_degrees, kwargs):
    # each of these used to return angle 0.0 or fail deep in the search;
    # the config that carries them refuses them before deskew runs
    with pytest.raises(ValueError, match=r"^need 0 < deskew_step <= deskew_max_angle <= 45$"):
        deskew(page_skewed_3_degrees, PipelineConfig(**kwargs))


def test_deskew_drops_blobs_below_min_area(page_skewed_3_degrees):
    # every blob is smaller than the page, so none survives: no skew search
    page = page_skewed_3_degrees
    out, angle = deskew(page, PipelineConfig(min_area=page.size))
    assert angle == 0.0
    assert np.array_equal(out, page)
    _, angle = deskew(page, PipelineConfig(min_area=1))
    assert abs(angle - 3.0) <= 0.5
