import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scriptid.segmentation as segmentation
from oracles import naive_rotate, naive_vertical_dilation
from scriptid.corpus import render_page
from scriptid.segmentation import (
    LineBand,
    deskew,
    horizontal_projection,
    rotate_binary,
    segment_lines,
    segment_words,
    vertical_projection,
)


# ---------------------------------------------------------------- projections
def test_projections_trivial():
    img = np.zeros((6, 10), np.uint8)
    assert not horizontal_projection(img).any()
    assert not vertical_projection(img).any()
    img[2, :] = 1
    assert horizontal_projection(img)[2] == 10
    img2 = np.zeros((7, 4), np.uint8)
    img2[:, 1] = 1
    assert vertical_projection(img2)[1] == 7


def test_projection_sums_equal_ink_count(rng):
    img = (rng.random((20, 30)) < 0.4).astype(np.uint8)
    assert horizontal_projection(img).sum() == img.sum()
    assert vertical_projection(img).sum() == img.sum()


def test_projection_transpose_symmetry(rng):
    img = (rng.random((12, 18)) < 0.5).astype(np.uint8)
    assert np.array_equal(vertical_projection(img), horizontal_projection(img.T))


def test_projection_bounds(rng):
    img = (rng.random((15, 9)) < 0.7).astype(np.uint8)
    assert (horizontal_projection(img) <= 9).all()
    assert (vertical_projection(img) <= 15).all()


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
    assert segment_lines(page, min_line_height=5) == [LineBand(10, 19)]


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
            deskew(page, dilate_len=length)
            assert len(seen) == 1
            assert np.array_equal(seen[0], naive_vertical_dilation(page, length)), length


def test_deskew_dilation_longer_than_twice_the_page_is_clamped(rng):
    # from L = 2h on the vertical dilation is each column's OR, so a longer
    # length gives the same page and angle and costs no more than the page
    page = (rng.random((12, 40)) < 0.05).astype(np.uint8)
    page[3, 1:39] = 1
    page[8, 1:39] = 1
    want = deskew(page, dilate_len=24)
    for length in (25, 1_000_000):
        tracemalloc.start()
        try:
            got = deskew(page, dilate_len=length)
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
        deskew(page, dilate_len=0)


@pytest.fixture(scope="module")
def page_skewed_3_degrees(glyph_bank):
    page, _ = render_page(random.Random(34), glyph_bank, n_lines=4, margin=90)
    return rotate_binary(page, 3.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"step": 0.0}, "step"),
        ({"step": -1.0}, "step"),
        ({"step": math.inf}, "step"),
        ({"step": math.nan}, "step"),
        ({"max_angle": -5.0}, "max_angle"),
        ({"max_angle": math.inf}, "max_angle"),
        ({"max_angle": math.nan}, "max_angle"),
    ],
    ids=["step=0", "step=-1", "step=inf", "step=nan", "max_angle=-5", "max_angle=inf", "max_angle=nan"],
)
def test_deskew_rejects_malformed_angles(page_skewed_3_degrees, kwargs, name):
    # each of these used to return angle 0.0 or fail deep in the search
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        deskew(page_skewed_3_degrees, **kwargs)
