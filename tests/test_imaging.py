import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import array_ellipse_axes, brute_otsu, flood_components, moment_axes
import scriptid
from scriptid import imaging
from scriptid.features import WordImage, extract_features
from scriptid.imaging import (
    as_binary,
    as_gray,
    binarize,
    component_geometry,
    connected_components,
    otsu_threshold,
    remove_small_objects,
)


# ---------------------------------------------------------------- validators
def test_as_gray_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        as_gray(np.zeros((0, 4), np.uint8))
    with pytest.raises(ValueError):
        as_gray(np.zeros(4, np.uint8))
    with pytest.raises(ValueError):
        as_gray(np.full((2, 2), 300, np.int32))
    with pytest.raises(ValueError):
        as_gray(np.zeros((2, 2), np.float64))


def test_as_binary_rejects_values_outside_01():
    with pytest.raises(ValueError):
        as_binary(np.full((2, 2), 2, np.uint8))
    with pytest.raises(ValueError):
        as_binary(np.full((2, 2), -1, np.int8))
    out = as_binary([[0, 1], [1, 0]])
    assert out.dtype == np.uint8
    assert not out.flags.writeable


# ---------------------------------------------------------------- otsu
def test_otsu_uniform_image_returns_unique_intensity():
    assert otsu_threshold(np.full((8, 8), 200, np.uint8)) == 200
    assert otsu_threshold(np.zeros((3, 3), np.uint8)) == 0


def test_otsu_two_value_image_separates_classes():
    img = np.zeros((10, 10), np.uint8)
    img[:5] = 40
    img[5:] = 210
    t = otsu_threshold(img)
    assert 40 <= t <= 209
    assert t == brute_otsu(img)


def test_otsu_tie_between_splits_goes_to_the_smallest_threshold():
    # three equal levels: the 10|20 and 20|30 splits have the same
    # between-class variance, exactly
    img = np.repeat(np.array([10, 20, 30], np.uint8), 4).reshape(3, 4)
    assert otsu_threshold(img) == brute_otsu(img) == 10
    assert otsu_threshold(img[::-1]) == 10


def test_otsu_takes_other_integer_dtypes_in_range():
    img = np.array([[0, 200], [10, 250]], np.int16)
    assert otsu_threshold(img) == brute_otsu(img.astype(np.uint8)) == 10
    with pytest.raises(ValueError, match="grayscale intensities must lie in 0..255"):
        otsu_threshold(np.array([[0, 300], [10, 250]], np.int16))


def test_otsu_matches_bruteforce_on_random_images(rng):
    for _ in range(30):
        img = rng.integers(0, 256, (64, 64)).astype(np.uint8)
        assert otsu_threshold(img) == brute_otsu(img)


def test_otsu_matches_bruteforce_on_structured_images(rng):
    for _ in range(10):
        img = np.full((32, 32), 220, np.uint8)
        n = int(rng.integers(10, 200))
        rr = rng.integers(0, 32, n)
        cc = rng.integers(0, 32, n)
        img[rr, cc] = rng.integers(0, 80, n)
        assert otsu_threshold(img) == brute_otsu(img)


# ---------------------------------------------------------------- binarize
def test_binarize_trivial_cases():
    assert not binarize(np.full((4, 4), 255, np.uint8), 128).any()
    assert binarize(np.zeros((4, 4), np.uint8), 128).all()


def test_binarize_bimodal_maps_dark_pixels():
    img = np.full((6, 6), 210, np.uint8)
    img[2:4, 2:4] = 40
    t = otsu_threshold(img)
    out = binarize(img, t)
    assert np.array_equal(out, (img == 40).astype(np.uint8))


@pytest.mark.parametrize("t", [math.nan, 300, -5, 256, 2.5, True, "128"])
def test_binarize_takes_only_integer_thresholds_in_byte_range(t):
    # nan and -5 used to give no ink, 300 all ink; 2.5 and True passed
    ramp = np.arange(100, dtype=np.uint8).reshape(10, 10)
    with pytest.raises(ValueError, match="threshold must be an integer in 0..255"):
        binarize(ramp, t)


def test_binarize_takes_numpy_integer_thresholds():
    ramp = np.arange(100, dtype=np.uint8).reshape(10, 10)
    for t in (0, np.uint8(49), np.int64(255)):
        assert np.array_equal(binarize(ramp, t), (ramp <= int(t)).astype(np.uint8))


def test_binarize_monotone_in_threshold(rng):
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    prev = binarize(img, 0)
    for t in range(0, 256, 17):
        cur = binarize(img, t)
        assert ((prev == 1) <= (cur == 1)).all()
        prev = cur


# ---------------------------------------------------------------- components
def test_components_empty_image():
    img = np.zeros((5, 5), np.uint8)
    labels, n = connected_components(img)
    assert n == 0
    geom = component_geometry(img, labels, n)
    assert geom.area.shape == (0,)
    assert geom.bbox.shape == (0, 4)
    assert not labels.any()


def test_components_diagonal_connectivity():
    img = np.zeros((4, 4), np.uint8)
    img[1, 1] = img[2, 2] = 1
    assert connected_components(img, connectivity=8)[1] == 1
    assert connected_components(img, connectivity=4)[1] == 2


@st.composite
def ink_images(draw, max_side=40):
    """Any shape from 1x1 to max_side square, any ink density from 0 to 1."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    density = draw(st.floats(0.0, 1.0))
    noise = draw(hnp.arrays(np.float64, (h, w), elements=st.floats(0.0, 1.0, exclude_max=True)))
    return (noise < density).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(img=ink_images(), conn=st.sampled_from((4, 8)))
@example(img=np.ones((1, 40), np.uint8), conn=4)
@example(img=np.array([[1, 0, 1, 0, 1]], np.uint8), conn=8)
@example(img=np.array([[1], [0], [1], [1]], np.uint8), conn=8)
@example(img=np.eye(5, dtype=np.uint8)[::-1], conn=4)
@example(img=np.zeros((3, 2), np.uint8), conn=8)
def test_components_match_flood_fill_oracle(img, conn):
    labels, n = connected_components(img, connectivity=conn)
    geom = component_geometry(img, labels, n)
    oracle = flood_components(img, connectivity=conn)
    assert labels.dtype == np.intp
    assert np.array_equal(labels > 0, img == 1)
    assert n == len(geom.area) == len(oracle)
    # the oracle lists components by raster-first pixel, so this pins the
    # order; entry i describes label i + 1
    for i, pixels in enumerate(oracle):
        assert set(zip(*np.nonzero(labels == i + 1))) == pixels
        assert geom.area[i] == len(pixels)
        rows = [p[0] for p in pixels]
        cols = [p[1] for p in pixels]
        assert geom.bbox[i].tolist() == [min(rows), min(cols), max(rows), max(cols)]


def test_components_labels_partition_ink(rng):
    img = (rng.random((40, 40)) < 0.3).astype(np.uint8)
    labels, n = connected_components(img)
    assert np.array_equal(labels > 0, img == 1)
    assert component_geometry(img, labels, n).area.sum() == img.sum()


def test_components_raster_discovery_order(rng):
    img = (rng.random((30, 30)) < 0.1).astype(np.uint8)
    labels, _ = connected_components(img)
    flat = labels.ravel()
    firsts = [np.flatnonzero(flat == lab)[0] for lab in range(1, flat.max() + 1)]
    assert firsts == sorted(firsts)


def test_components_label_map_is_read_only(rng, geometry_calls):
    # a word computes its geometry from the map later, so a write into
    # the returned map must not be able to make it stale
    img = (rng.random((20, 20)) < 0.3).astype(np.uint8)
    labels, n = connected_components(img)
    assert labels.dtype == np.intp
    assert not labels.flags.writeable
    with pytest.raises(ValueError):
        labels[0, 0] = 7
    assert geometry_calls == []  # labeling alone makes no moment pass
    geom = imaging.component_geometry(img, labels, n)
    assert geom.bbox.shape == (n, 4)
    assert len(geom.area) == len(geom.major_axis_len) == len(geom.minor_axis_len) == n
    assert geometry_calls == [(20, 20)]  # one pass serves every field


def test_components_rejects_bad_connectivity():
    with pytest.raises(ValueError):
        connected_components(np.zeros((2, 2), np.uint8), connectivity=6)


# map shapes at the run path's size threshold, and the thin extremes
_T = imaging.RUN_GEOMETRY_MIN_PX
_NEAR_THRESHOLD = [(1, _T - 1), (1, _T), (_T, 1), (64, _T // 64), (91, 90), (64, 129), (127, 65)]


def _near_threshold_or_small(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_NEAR_THRESHOLD))
    return draw(st.integers(1, 40)), draw(st.integers(1, 40))


@st.composite
def labelings(draw):
    """``(img, labels)``: random ink and its 4- or 8-connected labeling,
    renumbered by a random permutation of 1..n."""
    h, w = _near_threshold_or_small(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = (rng.random((h, w)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    labels, n = connected_components(img, connectivity=draw(st.sampled_from((4, 8))))
    if draw(st.booleans()):
        # any numbering of the components will do
        labels = np.concatenate(([0], rng.permutation(n) + 1))[labels]
    return img, labels


# a 4-connected labeling, renumbered 3, 1, 2
_PERMUTED_IMG = np.array([[1, 1, 0, 1], [0, 0, 0, 1], [1, 0, 1, 1]], np.uint8)
_PERMUTED_LABELS = np.array([[3, 3, 0, 1], [0, 0, 0, 1], [2, 0, 1, 1]])


@settings(max_examples=300, deadline=None)
@given(case=labelings())
@example(case=(np.ones((3, 4), np.uint8), np.ones((3, 4), np.intp)))
@example(case=(np.ones((1, 40), np.uint8), np.ones((1, 40), np.intp)))
@example(case=(np.ones((40, 1), np.uint8), np.ones((40, 1), np.intp)))
@example(case=(np.array([[1, 1, 0, 1]], np.uint8), np.array([[2, 2, 0, 1]])))
@example(case=(_PERMUTED_IMG, _PERMUTED_LABELS))
@example(case=(np.zeros((3, 2), np.uint8), np.zeros((3, 2), np.intp)))
def test_run_geometry_equals_pixel_geometry_byte_for_byte(case):
    img, labels = case
    n = int(labels.max())
    runs = imaging._run_geometry(img, labels, n)
    pixels = imaging._pixel_geometry(labels, n)
    for name, a, b in zip(imaging.Geometry._fields, runs, pixels):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_component_geometry_reads_runs_from_the_threshold_on(monkeypatch):
    seen = []
    for path in ("_run_geometry", "_pixel_geometry"):
        def recording(*args, path=path, real=getattr(imaging, path)):
            seen.append(path)
            return real(*args)

        monkeypatch.setattr(imaging, path, recording)
    for shape in ((1, _T - 1), (1, _T)):
        img = np.ones(shape, np.uint8)
        component_geometry(img, *connected_components(img))
    assert seen == ["_pixel_geometry", "_run_geometry"]


@st.composite
def ink_at_the_threshold(draw):
    """Ink images at and around the run geometry's size threshold, the thin
    extremes, small ones, and empty and full ones of any of those shapes."""
    h, w = _near_threshold_or_small(draw)
    fill = draw(st.sampled_from(("random", "empty", "full")))
    if fill == "empty":
        return np.zeros((h, w), np.uint8)
    if fill == "full":
        return np.ones((h, w), np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((h, w)) < draw(st.floats(0.0, 1.0))).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(img=ink_at_the_threshold(), conn=st.sampled_from((4, 8)))
@example(img=np.ones((1, _T), np.uint8), conn=4)
@example(img=np.ones((_T, 1), np.uint8), conn=8)
@example(img=np.zeros((64, _T // 64), np.uint8), conn=8)
@example(img=np.eye(91, dtype=np.uint8)[:, ::-1], conn=4)
def test_component_areas_equal_label_counts(img, conn):
    labels, n = connected_components(img, connectivity=conn)
    area = component_geometry(img, labels, n).area
    assert area.dtype == np.intp
    assert np.array_equal(area, np.bincount(labels.ravel(), minlength=n + 1)[1:])


def _recording_ink_runs(monkeypatch):
    """Shapes of every image ``imaging._ink_runs`` reads from now on."""
    seen = []
    real = imaging._ink_runs

    def recording(b):
        seen.append(b.shape)
        return real(b)

    monkeypatch.setattr(imaging, "_ink_runs", recording)
    return seen


def test_connected_components_reads_no_ink_runs(monkeypatch):
    # labeling only labels: the areas come with the geometry
    seen = _recording_ink_runs(monkeypatch)
    for shape in ((1, _T - 1), (1, _T), (64, 2 * _T // 64)):
        connected_components(np.ones(shape, np.uint8))
    assert seen == []


def test_a_large_word_reads_its_ink_runs_once(monkeypatch):
    seen = _recording_ink_runs(monkeypatch)
    img = np.zeros((96, 100), np.uint8)
    img[::4, 5:] = 1  # 24 bars
    img[:, :3] = 1  # joined by a post
    word = WordImage.from_image(img)
    assert word.img.size >= _T
    extract_features(word)
    assert seen == [word.img.shape]


@st.composite
def run_images(draw):
    """Random ink of density 0.05-0.8 in small and thin shapes, and empty
    and full images of those shapes."""
    if draw(st.booleans()):
        h, w = draw(st.sampled_from(((1, 60), (60, 1), (1, 1))))
    else:
        h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    fill = draw(st.sampled_from(("random", "random", "empty", "full")))
    if fill != "random":
        return np.full((h, w), fill == "full", np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((h, w)) < draw(st.floats(0.05, 0.8))).astype(np.uint8)


@settings(max_examples=400, deadline=None)
@given(img=run_images())
@example(img=np.zeros((5, 7), np.uint8))
@example(img=np.ones((5, 7), np.uint8))
@example(img=np.ones((1, 40), np.uint8))
@example(img=np.ones((40, 1), np.uint8))
@example(img=np.eye(9, dtype=np.uint8)[:, ::-1])
@example(img=np.array([[1, 0, 1], [0, 0, 0], [1, 0, 1]], np.uint8))
def test_component_runs_group_runs_as_the_label_map_does(img):
    first, length, comp, area = imaging._component_runs(img)
    labels, n = connected_components(img, connectivity=8)
    assert all(np.array_equal(a, b) for a, b in zip((first, length), imaging._ink_runs(img)))
    # a bijection between run components and labels
    lab = labels.ravel()[first]
    pairs = set(zip(comp.tolist(), lab.tolist()))
    assert len(area) == n == len(pairs) == len({c for c, _ in pairs}) == len({x for _, x in pairs})
    comp_of_label = np.zeros(n, np.intp)
    comp_of_label[lab - 1] = comp
    assert area.dtype == np.intp
    assert np.array_equal(area[comp_of_label], component_geometry(img, labels, n).area)


def test_importing_the_cli_does_not_load_the_graph_labeler():
    # the run labeler imports scipy.sparse and its csgraph on first use,
    # not at start-up
    env = dict(os.environ)
    src = str(Path(scriptid.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, scriptid.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


_SUMS = st.floats(0.0, 1e12, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(
    sums=st.lists(
        st.tuples(_SUMS, _SUMS, st.floats(-1e12, 1e12, allow_subnormal=False), st.integers(1, 2**20)),
        max_size=40,
    )
)
@example(sums=[(0.0, 0.0, 0.0, 1)])  # a single pixel
@example(sums=[(2.0, 0.0, 0.0, 4), (0.0, 8.25, -0.0, 10)])  # bars
@example(sums=[(9.0, 9.0, 9.0, 9), (9.0, 9.0, -9.0, 9)])  # diagonals: lam2 rounds to about 0
def test_scalar_ellipse_axes_equal_array_axes_byte_for_byte(sums):
    columns = [list(c) for c in zip(*sums)] or [[], [], [], []]
    major, minor = imaging._ellipse_axes(*columns)
    want_major, want_minor = array_ellipse_axes(*columns)
    assert np.array(major, dtype=np.float64).tobytes() == want_major.tobytes()
    assert np.array(minor, dtype=np.float64).tobytes() == want_minor.tobytes()


# ---------------------------------------------------------------- geometry
def _components(img):
    """``(area, geometry)`` of a binary image's 8-components."""
    img = np.asarray(img, dtype=np.uint8)
    geom = component_geometry(img, *connected_components(img))
    return geom.area, geom


def _single_component(img):
    area, geom = _components(img)
    assert len(area) == 1
    return area, geom


def _eccentricity(geom):
    return geom.minor_axis_len / geom.major_axis_len


def _extent(area, geom):
    r0, c0, r1, c1 = geom.bbox.T
    return area / ((r1 - r0 + 1) * (c1 - c0 + 1))


def test_eccentricity_single_pixel_is_one():
    _, c = _single_component([[0, 0], [0, 1]])
    assert _eccentricity(c)[0] == pytest.approx(1.0)


def test_eccentricity_filled_square_is_one():
    _, c = _single_component(np.ones((9, 9)))
    assert _eccentricity(c)[0] == pytest.approx(1.0)


def test_eccentricity_bar_matches_moment_oracle():
    img = np.zeros((3, 12), np.uint8)
    img[1, 1:11] = 1
    _, c = _single_component(img)
    major, minor = moment_axes(list(zip(*np.nonzero(img))))
    assert c.major_axis_len[0] == pytest.approx(major, rel=1e-12)
    assert c.minor_axis_len[0] == pytest.approx(minor, rel=1e-12)
    assert _eccentricity(c)[0] == pytest.approx(minor / major, rel=1e-12)


def test_axis_lengths_match_oracle_on_random_blobs(rng):
    for _ in range(20):
        img = (rng.random((20, 20)) < 0.3).astype(np.uint8)
        if not img.any():
            continue
        labels, n = connected_components(img)
        geom = component_geometry(img, labels, n)
        for i in range(n):
            pixels = list(zip(*np.nonzero(labels == i + 1)))
            major, minor = moment_axes(pixels)
            assert geom.major_axis_len[i] == pytest.approx(major, rel=1e-9)
            assert geom.minor_axis_len[i] == pytest.approx(minor, rel=1e-9)


def test_geometry_ranges_on_random_images(rng):
    for _ in range(50):
        img = (rng.random((24, 24)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        area, c = _components(img)
        assert (0.0 <= _eccentricity(c)).all() and (_eccentricity(c) <= 1.0 + 1e-12).all()
        assert (0.0 < _extent(area, c)).all() and (_extent(area, c) <= 1.0).all()
        assert (c.minor_axis_len <= c.major_axis_len + 1e-12).all()


def test_extent_trivial_cases():
    assert _extent(*_single_component(np.ones((4, 7))))[0] == pytest.approx(1.0)
    plus = np.zeros((3, 3), np.uint8)
    plus[1, :] = 1
    plus[:, 1] = 1
    assert _extent(*_single_component(plus))[0] == pytest.approx(5 / 9)


# ---------------------------------------------------------------- despeckle
def test_remove_small_objects_thresholds():
    dot = np.zeros((8, 8), np.uint8)
    dot[3:5, 3:5] = 1  # 4 px
    assert not remove_small_objects(dot, min_area=15).any()

    blob = np.zeros((10, 10), np.uint8)
    blob[2:8, 2:7] = 1  # 30 px
    assert np.array_equal(remove_small_objects(blob, min_area=15), blob)


def test_remove_small_objects_matches_component_oracle(rng):
    images = [(rng.random((48, 48)) < d).astype(np.uint8) for d in (0.2, 0.5)]
    images.append(np.zeros((9, 7), np.uint8))
    for img in images:
        comps = flood_components(img, 8)
        largest = max((len(comp) for comp in comps), default=0)
        for min_area in (0, 1, 15, largest, largest + 1):
            out = remove_small_objects(img, min_area=min_area)
            expected = np.zeros_like(img)
            for comp in comps:
                if len(comp) >= min_area:
                    for r, c in comp:
                        expected[r, c] = 1
            assert out.dtype == np.uint8
            assert np.array_equal(out, expected), min_area


def test_remove_small_objects_reads_only_areas(rng, monkeypatch, geometry_calls):
    # one run labeling, no label map and no moment pass
    labelings = []
    real = imaging._component_runs

    def counting(b):
        labelings.append(b.shape)
        return real(b)

    def no_map(*args, **kwargs):
        raise AssertionError("connected_components called")

    monkeypatch.setattr(imaging, "_component_runs", counting)
    monkeypatch.setattr(imaging, "connected_components", no_map)
    img = (rng.random((32, 32)) < 0.3).astype(np.uint8)
    remove_small_objects(img, min_area=5)
    assert labelings == [(32, 32)]
    assert geometry_calls == []


@pytest.mark.parametrize("min_area", [math.nan, 2.5, True, -1])
def test_remove_small_objects_rejects_non_integer_or_negative_min_area(min_area):
    # min_area=nan used to blank the page
    blob = np.zeros((10, 10), np.uint8)
    blob[2:8, 2:7] = 1
    with pytest.raises(ValueError, match="min_area must be a nonnegative integer"):
        remove_small_objects(blob, min_area)


def test_remove_small_objects_takes_numpy_integer_min_area():
    blob = np.zeros((10, 10), np.uint8)
    blob[2:8, 2:7] = 1
    blob[0, 9] = 1
    want = blob.copy()
    want[0, 9] = 0
    assert np.array_equal(remove_small_objects(blob, np.int64(15)), want)


@pytest.mark.parametrize("min_area", [0, 15, 1000])
def test_remove_small_objects_returns_a_fresh_writable_array(min_area):
    # drops nothing, the dot, everything
    img = np.zeros((10, 10), np.uint8)
    img[2:8, 2:7] = 1
    img[0, 9] = 1
    img.flags.writeable = False
    out = remove_small_objects(img, min_area)
    assert out.dtype == np.uint8 and out.flags.writeable
    assert not np.shares_memory(out, img)
    assert np.count_nonzero(out) == {0: 31, 15: 30, 1000: 0}[min_area]


def test_remove_small_objects_idempotent(rng):
    img = (rng.random((32, 32)) < 0.25).astype(np.uint8)
    once = remove_small_objects(img, min_area=10)
    assert np.array_equal(remove_small_objects(once, min_area=10), once)
