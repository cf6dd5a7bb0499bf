import tracemalloc

import numpy as np
import pytest
from scipy import ndimage as ndi
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    background_touches_border,
    filter_line,
    flood_components,
    iterative_reconstruct,
    naive_dilate,
    naive_erode,
)
from scriptid._util import label_structure
from scriptid.imaging import connected_components
from scriptid.morphology import (
    StructuringElement,
    complement,
    dilate,
    erode,
    fill_holes,
    line_se,
    opening,
    opening_by_reconstruction,
    reconstruct_by_dilation,
)


def rand_img(rng, h=16, w=16, density=0.5):
    return (rng.random((h, w)) < density).astype(np.uint8)


# ---------------------------------------------------------------- line SEs
def test_line_se_offsets():
    assert set(line_se(0, 3).offsets) == {(0, -1), (0, 0), (0, 1)}
    assert set(line_se(90, 3).offsets) == {(-1, 0), (0, 0), (1, 0)}
    assert set(line_se(45, 5).offsets) == {(2, -2), (1, -1), (0, 0), (-1, 1), (-2, 2)}
    assert set(line_se(135, 5).offsets) == {(-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)}


def test_line_se_is_direction_and_length():
    se = line_se(135, 7)
    assert se == StructuringElement(135, 7)
    assert (se.direction, se.length) == (135, 7)


def test_line_se_always_contains_origin_and_length():
    for d in (0, 45, 90, 135):
        for length in (1, 3, 7, 15):
            se = line_se(d, length)
            assert (0, 0) in se.offsets
            assert len(se.offsets) == length


def test_line_se_rejects_bad_arguments():
    with pytest.raises(ValueError):
        line_se(0, 4)
    with pytest.raises(ValueError):
        line_se(0, 0)
    with pytest.raises(ValueError):
        line_se(0, -3)
    with pytest.raises(ValueError):
        line_se(30, 3)


@pytest.mark.parametrize(
    "direction, length, match",
    [(30, 3, "direction"), (0, 0, "length"), (0, -3, "length")],
)
def test_structuring_element_rejects_bad_arguments(direction, length, match):
    # an unknown direction used to raise KeyError inside erode, length 0
    # returned the input and a negative length failed on a numpy broadcast
    with pytest.raises(ValueError, match=match):
        StructuringElement(direction, length)


@pytest.mark.parametrize("length", [True, 3.0, np.float64(3), "3", None])
def test_se_length_must_be_an_integer(length):
    # erode raises TypeError for a float length and reads True as 1
    with pytest.raises(ValueError, match="length must be a positive integer"):
        StructuringElement(0, length)
    with pytest.raises(ValueError, match="length must be a positive integer"):
        line_se(0, length)


def test_se_length_may_be_a_numpy_integer():
    img = np.ones((3, 7), np.uint8)
    for length in (np.int64(3), np.intp(5), np.uint8(3)):
        assert np.array_equal(erode(img, line_se(0, length)), erode(img, line_se(0, int(length))))


# ---------------------------------------------------------------- erode/dilate
def test_erode_background_padding_on_full_image():
    img = np.ones((5, 5), np.uint8)
    out = erode(img, line_se(90, 3))
    expected = np.zeros((5, 5), np.uint8)
    expected[1:4] = 1
    assert np.array_equal(out, expected)


def test_erode_single_pixel_vanishes():
    img = np.zeros((5, 5), np.uint8)
    img[2, 2] = 1
    for d in (0, 45, 90, 135):
        assert not erode(img, line_se(d, 3)).any()


def test_erode_matches_naive_oracle(rng):
    for d in (0, 45, 90, 135):
        for length in (1, 3, 5, 9):
            se = line_se(d, length)
            for _ in range(5):
                img = rand_img(rng)
                assert np.array_equal(erode(img, se), naive_erode(img, se.offsets))


def test_erode_matches_naive_on_rectangles_and_long_ses(rng):
    # non-square shapes exercise the shear path; SEs longer than the image
    # must produce empty output under background padding
    for d in (0, 45, 90, 135):
        for h, w in ((5, 19), (19, 5), (1, 12), (12, 1), (7, 7)):
            img = rand_img(rng, h, w, 0.8)
            for length in (3, 9, 21):
                se = line_se(d, length)
                assert np.array_equal(erode(img, se), naive_erode(img, se.offsets)), (d, h, w, length)


def test_even_length_se_reaches_one_step_further_back():
    assert StructuringElement(0, 4).offsets == ((0, -2), (0, -1), (0, 0), (0, 1))
    assert StructuringElement(45, 2).offsets == ((1, -1), (0, 0))
    assert StructuringElement(135, 4).offsets == ((2, 2), (1, 1), (0, 0), (-1, -1))


@pytest.mark.parametrize("direction", (0, 45, 90, 135))
def test_line_window_of_any_length_matches_naive_oracle(rng, direction):
    # L//2 steps before each pixel and L-1-L//2 after it, odd and even L
    # alike; dilation ORs the same window, i.e. dilates by the reflected SE
    for h, w in ((1, 1), (1, 9), (9, 1), (2, 6), (5, 7), (8, 3)):
        for density in (0.5, 0.9):
            img = rand_img(rng, h, w, density)
            for length in range(1, 9):
                se = StructuringElement(direction, length)
                reflected = [(-dr, -dc) for dr, dc in se.offsets]
                case = (h, w, length)
                assert np.array_equal(erode(img, se), naive_erode(img, se.offsets)), case
                assert np.array_equal(dilate(img, se), naive_dilate(img, reflected)), case


def test_dilate_single_pixel_becomes_bar():
    img = np.zeros((5, 5), np.uint8)
    img[2, 2] = 1
    out = dilate(img, line_se(90, 3))
    expected = np.zeros((5, 5), np.uint8)
    expected[1:4, 2] = 1
    assert np.array_equal(out, expected)


def test_dilate_empty_stays_empty():
    assert not dilate(np.zeros((4, 4), np.uint8), line_se(0, 3)).any()


def test_erode_dilate_duality_in_interior(rng):
    # dilate(img) == ~erode(~img) away from the border (padding breaks it there)
    for d in (0, 45, 90, 135):
        se = line_se(d, 3)
        for _ in range(10):
            img = rand_img(rng, 20, 20)
            a = dilate(img, se)
            b = complement(erode(complement(img), se))
            assert np.array_equal(a[2:-2, 2:-2], b[2:-2, 2:-2])


def test_se_longer_than_image_costs_the_image_size(rng):
    # from half-length max(h, w) on, every line leaves the image on both
    # sides, so a longer SE gives the same result and must not pad by its length
    word = rand_img(rng, 20, 50, 0.7)
    for op in (erode, dilate):
        for d in (0, 45, 90, 135):
            for length in (2_000_001, 2_000_000):
                tracemalloc.start()
                try:
                    out = op(word, StructuringElement(d, length))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2**20, (op.__name__, d, length, peak)
                assert np.array_equal(out, op(word, line_se(d, 2 * 50 + 1))), (op.__name__, d, length)


# ---------------------------------------------------------------- opening
def test_opening_removes_thin_structures():
    img = np.zeros((9, 9), np.uint8)
    img[4, 1:8] = 1  # 1-px tall line
    assert not opening(img, line_se(90, 3)).any()


def test_opening_preserves_se_shape():
    img = np.zeros((9, 9), np.uint8)
    img[3:6, 4] = 1  # exactly a vertical length-3 SE
    assert np.array_equal(opening(img, line_se(90, 3)), img)


def test_opening_anti_extensive_and_idempotent(rng):
    for _ in range(30):
        img = rand_img(rng, 20, 20, 0.6)
        for d in (0, 90):
            se = line_se(d, 3)
            opened = opening(img, se)
            assert ((opened == 1) <= (img == 1)).all()
            assert np.array_equal(opening(opened, se), opened)


# ---------------------------------------------------------------- reconstruction
def test_reconstruct_fixed_points():
    img = (np.arange(25).reshape(5, 5) % 3 == 0).astype(np.uint8)
    assert np.array_equal(reconstruct_by_dilation(img, img), img)
    assert not reconstruct_by_dilation(np.zeros_like(img), img).any()


def test_reconstruct_picks_marked_blob_only():
    mask = np.zeros((10, 10), np.uint8)
    mask[1:4, 1:4] = 1  # blob A
    mask[6:9, 6:9] = 1  # blob B
    marker = np.zeros_like(mask)
    marker[2, 2] = 1
    out = reconstruct_by_dilation(marker, mask)
    expected = np.zeros_like(mask)
    expected[1:4, 1:4] = 1
    assert np.array_equal(out, expected)


def test_reconstruct_matches_iterative_oracle(rng):
    for conn in (8, 4):
        for _ in range(40):
            h = int(rng.integers(4, 32))
            w = int(rng.integers(4, 32))
            mask = rand_img(rng, h, w, float(rng.uniform(0.2, 0.9)))
            marker = (rand_img(rng, h, w, 0.15) & mask).astype(np.uint8)
            got = reconstruct_by_dilation(marker, mask, connectivity=conn)
            assert np.array_equal(got, iterative_reconstruct(marker, mask, conn))


def test_reconstruct_spiral_one_winding_component():
    # a long spiral defeats any fixed number of raster sweeps: a single
    # component whose geodesic path winds through the whole image
    n = 41
    mask = np.zeros((n, n), np.uint8)
    top, bottom, left, right = 0, n - 1, 0, n - 1
    while top <= bottom and left <= right:
        mask[top, left : right + 1] = 1
        mask[top : bottom + 1, right] = 1
        mask[bottom, left : right + 1] = 1
        mask[top + 1 : bottom + 1, left] = 1
        top += 2
        bottom -= 2
        left += 2
        right -= 2
    marker = np.zeros_like(mask)
    marker[0, 0] = 1
    out = reconstruct_by_dilation(marker, mask, connectivity=4)
    assert np.array_equal(out, iterative_reconstruct(marker, mask, 4))


def test_reconstruct_degenerate_shapes(rng):
    for h, w in ((1, 1), (1, 17), (17, 1), (2, 2), (1, 64)):
        for conn in (4, 8):
            mask = rand_img(rng, h, w, 0.7)
            marker = (rand_img(rng, h, w, 0.3) & mask).astype(np.uint8)
            got = reconstruct_by_dilation(marker, mask, connectivity=conn)
            assert np.array_equal(got, iterative_reconstruct(marker, mask, conn)), (h, w, conn)


def test_reconstruct_connectivity_matters():
    mask = np.eye(5, dtype=np.uint8)  # diagonal chain
    marker = np.zeros_like(mask)
    marker[0, 0] = 1
    assert reconstruct_by_dilation(marker, mask, connectivity=8).sum() == 5
    assert reconstruct_by_dilation(marker, mask, connectivity=4).sum() == 1


def test_reconstruct_monotone_in_marker(rng):
    for _ in range(20):
        mask = rand_img(rng, 24, 24, 0.6)
        m2 = (rand_img(rng, 24, 24, 0.2) & mask).astype(np.uint8)
        m1 = (rand_img(rng, 24, 24, 0.5) & m2).astype(np.uint8)
        r1 = reconstruct_by_dilation(m1, mask)
        r2 = reconstruct_by_dilation(m2, mask)
        assert ((r1 == 1) <= (r2 == 1)).all()


@pytest.mark.parametrize(
    "img",
    [
        np.ones((3, 3, 3), np.uint8),
        np.zeros((0, 4), np.uint8),
        np.ones((3, 3), np.float64),
        np.array([[0, 2], [2, 0]], np.uint8),
        np.array([[0, 2], [2, 0]], np.int64),
    ],
    ids=["3d", "empty", "float", "uint8-0-2", "int64-0-2"],
)
def test_opening_by_reconstruction_rejects_bad_input(img):
    with pytest.raises(ValueError):
        opening_by_reconstruction(img, line_se(0, 3))


def test_reconstruct_rejects_bad_pairs():
    mask = np.zeros((4, 4), np.uint8)
    marker = np.zeros((4, 5), np.uint8)
    with pytest.raises(ValueError):
        reconstruct_by_dilation(marker, mask)
    marker = np.ones((4, 4), np.uint8)
    with pytest.raises(ValueError):
        reconstruct_by_dilation(marker, mask)
    with pytest.raises(ValueError):
        reconstruct_by_dilation(mask, mask, connectivity=6)


# ---------------------------------------------------------------- opening by reconstruction
def test_obr_restores_tall_bar_removes_dot():
    img = np.zeros((16, 16), np.uint8)
    img[2:14, 3] = 1  # tall bar
    img[8, 10] = 1  # dot
    out = opening_by_reconstruction(img, line_se(90, 7))
    expected = np.zeros_like(img)
    expected[2:14, 3] = 1
    assert np.array_equal(out, expected)


def test_obr_empty_when_no_long_run():
    img = np.zeros((8, 8), np.uint8)
    img[3, 1:7] = 1
    assert not opening_by_reconstruction(img, line_se(90, 3)).any()


def test_obr_equals_component_union_oracle(rng):
    for _ in range(20):
        img = rand_img(rng, 32, 32, 0.45)
        se = line_se([0, 45, 90, 135][int(rng.integers(4))], 3)
        eroded = erode(img, se)
        expected = np.zeros_like(img)
        for comp in flood_components(img, 8):
            if any(eroded[r, c] for r, c in comp):
                for r, c in comp:
                    expected[r, c] = 1
        assert np.array_equal(opening_by_reconstruction(img, se), expected)


def test_obr_anti_extensive_and_idempotent(rng):
    se = line_se(0, 3)
    for _ in range(20):
        img = rand_img(rng, 20, 20, 0.5)
        out = opening_by_reconstruction(img, se)
        assert ((out == 1) <= (img == 1)).all()
        assert np.array_equal(opening_by_reconstruction(out, se), out)


def test_obr_rejects_labels_of_another_shape():
    img = np.ones((4, 5), np.uint8)
    for shape in ((5, 4), (4, 6), (20,)):
        with pytest.raises(ValueError, match="labels shape"):
            opening_by_reconstruction(img, line_se(0, 3), labels=np.ones(shape, np.intp), n=1)


# ---------------------------------------------------------------- fill holes
def test_fill_holes_ring():
    img = np.zeros((7, 7), np.uint8)
    img[1:6, 1:6] = 1
    img[2:5, 2:5] = 0
    out = fill_holes(img)
    expected = np.zeros_like(img)
    expected[1:6, 1:6] = 1
    assert np.array_equal(out, expected)


def test_fill_holes_border_ring_fills_whole_image():
    img = np.ones((5, 5), np.uint8)
    img[1:4, 1:4] = 0
    assert fill_holes(img).all()


def test_fill_holes_no_holes_unchanged():
    img = np.zeros((8, 8), np.uint8)
    img[2:6, 2:6] = 1
    assert np.array_equal(fill_holes(img), img)


def test_fill_holes_properties_on_random_images(rng):
    for _ in range(40):
        img = rand_img(rng, 16, 16, float(rng.uniform(0.2, 0.8)))
        out = fill_holes(img)
        assert ((img == 1) <= (out == 1)).all()
        assert background_touches_border(out)
        assert np.array_equal(fill_holes(out), out)


def test_fill_holes_diagonal_boundary_keeps_hole():
    # diamond outline: the inside leaks under 8-connected background,
    # but stays a hole under the 4-connected background convention
    img = np.zeros((7, 7), np.uint8)
    for t in range(4):
        img[3 - t, t] = img[3 - t, 6 - t] = 1
        img[3 + t, t] = img[3 + t, 6 - t] = 1
    out = fill_holes(img)
    assert out[3, 3] == 1


# ---------------------------------------------------------------- complement
def test_complement_basics(rng):
    assert complement(np.zeros((3, 3), np.uint8)).all()
    img = rand_img(rng)
    assert np.array_equal(complement(complement(img)), img)
    assert np.array_equal(complement(img), 1 - img)
    assert complement(img).dtype == np.uint8


def test_obr_rejects_a_non_integer_map_or_a_bad_count():
    img = np.ones((4, 5), np.uint8)
    se = line_se(0, 3)
    labels, count = connected_components(img)
    for bad in (labels.astype(np.float64), labels.astype(bool)):
        with pytest.raises(ValueError, match="integer array"):
            opening_by_reconstruction(img, se, labels=bad, n=count)
    for n in (-1, 1.0, 1.5, True, "1", np.float64(1)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            opening_by_reconstruction(img, se, labels=labels, n=n)
    with pytest.raises(ValueError, match="labels and n go together"):
        opening_by_reconstruction(img, se, n=count)
    with pytest.raises(ValueError, match="labels and n go together"):
        opening_by_reconstruction(img, se, labels=labels)
    for n in (count, np.intp(count)):
        assert np.array_equal(opening_by_reconstruction(img, se, labels=labels, n=n), img)


# ---------------------------------------------------------------- properties
@st.composite
def binary_images(draw, max_side=24):
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    return draw(hnp.arrays(np.uint8, (h, w), elements=st.integers(0, 1)))


@st.composite
def marker_mask_pairs(draw):
    mask = draw(binary_images())
    seeds = draw(hnp.arrays(np.uint8, mask.shape, elements=st.integers(0, 1)))
    return seeds & mask, mask


def nested_rings(k):
    """``k`` nested square rings of ink around a dot, one pixel apart."""
    side = 4 * k + 1
    img = np.zeros((side, side), np.uint8)
    for i in range(2 * k + 1):
        img[i : side - i, i : side - i] = 1 - i % 2
    return img


def assert_fresh(out, img):
    """``out`` is a writable uint8 array that writes leave ``img`` alone."""
    assert out.dtype == np.uint8 and out.shape == img.shape and out.flags.writeable
    assert not np.shares_memory(out, img)
    before = img.copy()
    out ^= 1
    assert np.array_equal(img, before)
    out ^= 1


# SE lengths up to 61 outrun both sides of any drawn image
se_lengths = st.integers(0, 30).map(lambda k: 2 * k + 1)
props = settings(max_examples=150, deadline=None)


@props
@given(img=binary_images(), direction=st.sampled_from((0, 45, 90, 135)), length=se_lengths)
@example(img=np.ones((1, 1), np.uint8), direction=45, length=3)
@example(img=np.ones((1, 9), np.uint8), direction=0, length=9)
@example(img=np.ones((1, 9), np.uint8), direction=135, length=3)
@example(img=np.ones((9, 1), np.uint8), direction=90, length=9)
@example(img=np.ones((9, 1), np.uint8), direction=45, length=3)
@example(img=np.ones((5, 7), np.uint8), direction=135, length=11)
def test_erode_property_matches_naive_oracle(img, direction, length):
    se = line_se(direction, length)
    out = erode(img, se)
    assert out.dtype == np.uint8
    assert np.array_equal(out, naive_erode(img, se.offsets))


@props
@given(img=binary_images(), direction=st.sampled_from((0, 45, 90, 135)), length=se_lengths)
@example(img=np.ones((1, 1), np.uint8), direction=45, length=3)
@example(img=np.array([[0, 0, 0, 1, 0, 0, 0, 0, 0]], np.uint8), direction=0, length=9)
@example(img=np.array([[0, 1, 0, 0, 0, 0, 0, 1, 0]], np.uint8), direction=135, length=3)
@example(img=np.array([[0], [0], [1], [0], [0], [0], [0], [0], [1]], np.uint8), direction=90, length=9)
@example(img=np.array([[0], [1], [0], [0], [0], [0], [0], [0], [0]], np.uint8), direction=45, length=3)
@example(img=np.eye(5, 7, 1, np.uint8)[::-1], direction=45, length=11)
@example(img=np.eye(5, 7, 1, np.uint8), direction=135, length=11)
def test_dilate_matches_naive_oracle(img, direction, length):
    se = line_se(direction, length)
    out = dilate(img, se)
    assert out.dtype == np.uint8
    assert np.array_equal(out, naive_dilate(img, se.offsets))


@st.composite
def large_line_cases(draw):
    """(image, SE) up to 300 px a side; lengths run past both sides and
    hit the window-doubling edges 2^k - 1, 2^k + 1 and 1."""
    h, w = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = (rng.random((h, w)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    if draw(st.booleans()):
        img.setflags(write=False)
    length = draw(st.one_of(
        st.integers(0, max(h, w) + 1).map(lambda k: 2 * k + 1),
        st.sampled_from([2**k + e for k in range(1, 10) for e in (-1, 1)]),
        st.just(1),
    ))
    return img, line_se(draw(st.sampled_from((0, 45, 90, 135))), length)


@settings(max_examples=200, deadline=None)
@given(case=large_line_cases())
@example(case=(np.ones((300, 300), np.uint8), line_se(45, 1)))
@example(case=(np.ones((1, 300), np.uint8), line_se(0, 255)))
@example(case=(np.ones((300, 1), np.uint8), line_se(90, 257)))
@example(case=(np.ones((200, 120), np.uint8), line_se(135, 127)))
@example(case=(np.ones((120, 200), np.uint8), line_se(45, 129)))
def test_erode_dilate_match_running_filter_on_large_images(case):
    img, se = case
    for op, filter1d in ((erode, ndi.minimum_filter1d), (dilate, ndi.maximum_filter1d)):
        out = op(img, se)
        assert out.dtype == np.uint8 and out.shape == img.shape
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, img)
        assert np.array_equal(out, filter_line(img, se, filter1d)), (op.__name__, img.shape, se.length)


@props
@given(pair=marker_mask_pairs(), connectivity=st.sampled_from((4, 8)))
@example(pair=(np.ones((1, 1), np.uint8), np.ones((1, 1), np.uint8)), connectivity=4)
def test_reconstruct_property_matches_iterative_oracle(pair, connectivity):
    marker, mask = pair
    out = reconstruct_by_dilation(marker, mask, connectivity=connectivity)
    assert out.dtype == np.uint8
    assert np.array_equal(out, iterative_reconstruct(marker, mask, connectivity))


@props
@given(img=binary_images())
@example(img=np.zeros((1, 1), np.uint8))
@example(img=np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], np.uint8))
def test_fill_holes_property_extensive_and_border_reaching(img):
    out = fill_holes(img)
    assert out.dtype == np.uint8
    assert ((img == 1) <= (out == 1)).all()
    assert background_touches_border(out)
    # only holes are filled: every background pixel that reaches the frame stays
    frame = np.zeros_like(img)
    frame[0, :] = frame[-1, :] = frame[:, 0] = frame[:, -1] = 1
    bg = (1 - img).astype(np.uint8)
    outside = iterative_reconstruct(bg & frame, bg, 4)
    assert np.array_equal(out, 1 - outside)


@props
@given(img=binary_images(), direction=st.sampled_from((0, 45, 90, 135)), length=se_lengths)
@example(img=np.ones((1, 1), np.uint8), direction=45, length=3)
@example(img=np.ones((1, 1), np.uint8), direction=0, length=1)
@example(img=np.array([[1, 1, 1, 0, 1, 0, 1, 1]], np.uint8), direction=0, length=3)
@example(img=np.array([[1], [1], [0], [1], [1], [1]], np.uint8), direction=90, length=3)
@example(img=np.eye(6, dtype=np.uint8)[::-1], direction=45, length=5)
# length 1 keeps every component, a line longer than the image none
@example(img=np.ones((1, 9), np.uint8), direction=90, length=1)
@example(img=np.ones((9, 1), np.uint8), direction=135, length=11)
@example(img=np.indices((9, 11)).sum(axis=0).astype(np.uint8) % 2, direction=0, length=1)
@example(img=np.indices((9, 11)).sum(axis=0).astype(np.uint8) % 2, direction=45, length=5)
@example(img=nested_rings(3), direction=45, length=1)
@example(img=nested_rings(3), direction=0, length=3)
@example(img=nested_rings(3), direction=90, length=13)
@example(img=nested_rings(3), direction=135, length=3)
def test_obr_with_labels_equals_obr_without(img, direction, length):
    se = line_se(direction, length)
    want = opening_by_reconstruction(img, se)
    assert np.array_equal(want, reconstruct_by_dilation(erode(img, se), img))
    assert_fresh(want, img)
    labels, n = connected_components(img)
    # any numbering of the components will do: reverse it too
    reversed_labels = np.where(labels > 0, labels.max() + 1 - labels, 0)
    for lab in (labels, reversed_labels):
        out = opening_by_reconstruction(img, se, labels=lab, n=n)
        assert np.array_equal(out, want)
        assert_fresh(out, img)


@props
@given(img=binary_images(), connectivity=st.sampled_from((4, 8)))
@example(img=np.ones((1, 1), np.uint8), connectivity=8)
@example(img=np.ones((1, 9), np.uint8), connectivity=4)
@example(img=np.ones((9, 1), np.uint8), connectivity=8)
@example(img=np.indices((9, 11)).sum(axis=0).astype(np.uint8) % 2, connectivity=4)
@example(img=np.indices((9, 11)).sum(axis=0).astype(np.uint8) % 2, connectivity=8)
@example(img=nested_rings(3), connectivity=4)
def test_reconstruct_from_a_pixel_of_every_component_is_a_copy_of_the_mask(img, connectivity):
    labels, n = ndi.label(img, structure=label_structure(connectivity))
    marker = np.zeros_like(img)
    # the first pixel of every component, in raster order
    ids, first = np.unique(labels.ravel(), return_index=True)
    marker.flat[first[ids > 0]] = 1
    assert np.count_nonzero(marker) == n
    out = reconstruct_by_dilation(marker, img, connectivity=connectivity)
    assert np.array_equal(out, img)
    assert_fresh(out, img)
