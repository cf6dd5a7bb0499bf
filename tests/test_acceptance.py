"""Acceptance suite: one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    background_touches_border,
    brute_otsu,
    iterative_reconstruct,
    knn_oracle,
)
from scriptid import cli
from scriptid.classifier import Model, classify_knn, classify_nn, leave_one_out, load_model
from scriptid.corpus import load_glyphs, render_page, render_word
from scriptid.features import WordImage, extract_features
from scriptid.imaging import otsu_threshold
from scriptid.morphology import (
    complement,
    dilate,
    erode,
    fill_holes,
    line_se,
    opening,
    opening_by_reconstruction,
    reconstruct_by_dilation,
)
from scriptid.netpbm import write_pbm
from scriptid.segmentation import deskew, rotate_binary, segment_lines, segment_words


def note(n: int, msg: str) -> None:
    print(f"[criterion {n:2d}] PASS - {msg}")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Corpus (150 words/class), feature dump and model, built via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus"
    dump = root / "features.csv"
    model = root / "model.txt"
    t0 = time.perf_counter()
    assert cli.main(["--seed", "101", "gen-corpus", "--out", str(corpus),
                     "--per-class", "150"]) == 0
    assert cli.main(["extract", str(corpus), "--out", str(dump)]) == 0
    assert cli.main(["train", str(dump), "--out", str(model), "--k", "3"]) == 0
    return {
        "root": root,
        "corpus": corpus,
        "dump": dump,
        "model": model,
        "build_seconds": time.perf_counter() - t0,
    }


def test_criterion_1_reconstruction_matches_iterative_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        h = int(rng.integers(8, 65))
        w = int(rng.integers(8, 65))
        density = float(rng.uniform(0.1, 0.9))
        mask = (rng.random((h, w)) < density).astype(np.uint8)
        marker = ((rng.random((h, w)) < 0.2) & (mask == 1)).astype(np.uint8)
        fast = reconstruct_by_dilation(marker, mask, connectivity=8)
        assert np.array_equal(fast, iterative_reconstruct(marker, mask, 8)), (h, w, density)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    note(1, f"label-based reconstruction == iterated geodesic dilation on {checked} pairs in {elapsed:.2f}s")


def test_criterion_2_otsu_matches_exhaustive_scan():
    rng = np.random.default_rng(1002)
    images = []
    for _ in range(60):  # random
        h, w = rng.integers(8, 64, 2)
        images.append(rng.integers(0, 256, (h, w)).astype(np.uint8))
    for _ in range(40):  # structured: near-bimodal scanned-page statistics
        img = np.full((32, 32), int(rng.integers(180, 250)), np.uint8)
        n = int(rng.integers(5, 300))
        img[rng.integers(0, 32, n), rng.integers(0, 32, n)] = rng.integers(0, 90, n)
        images.append(img)
    images.append(np.full((5, 5), 200, np.uint8))  # uniform
    two = np.zeros((10, 10), np.uint8)
    two[:5] = 40
    two[5:] = 210
    images.append(two)
    for img in images:
        assert otsu_threshold(img) == brute_otsu(img)
    note(2, f"threshold == brute-force argmax on {len(images)} images")


def test_criterion_3_fill_holes_background_reaches_border():
    rng = np.random.default_rng(1003)
    for i in range(100):
        h = int(rng.integers(4, 40))
        w = int(rng.integers(4, 40))
        img = (rng.random((h, w)) < rng.uniform(0.15, 0.85)).astype(np.uint8)
        g = fill_holes(img)
        assert ((img == 1) <= (g == 1)).all(), f"image {i}: not extensive"
        assert background_touches_border(g), f"image {i}: hole survived"
    note(3, "fill_holes extensive + hole-free on 100 random images")


def test_criterion_4_morphology_algebra():
    rng = np.random.default_rng(1004)
    directions = (0, 45, 90, 135)
    for i in range(100):
        img = (rng.random((20, 20)) < rng.uniform(0.3, 0.8)).astype(np.uint8)
        se = line_se(directions[i % 4], 3 + 2 * (i % 2))

        opened = opening(img, se)
        assert ((opened == 1) <= (img == 1)).all()
        assert np.array_equal(opening(opened, se), opened)

        obr = opening_by_reconstruction(img, se)
        assert ((obr == 1) <= (img == 1)).all()
        assert np.array_equal(opening_by_reconstruction(obr, se), obr)
        assert ((opened == 1) <= (obr == 1)).all()  # plain opening never exceeds obr

        filled = fill_holes(img)
        assert np.array_equal(fill_holes(filled), filled)

        # duality away from the zero-padded border
        m = se.length // 2 + 1
        a = dilate(img, se)[m:-m, m:-m]
        b = complement(erode(complement(img), se))[m:-m, m:-m]
        assert np.array_equal(a, b)

        # reconstruction monotone in the marker
        mask = (rng.random((20, 20)) < 0.6).astype(np.uint8)
        m2 = ((rng.random((20, 20)) < 0.3) & (mask == 1)).astype(np.uint8)
        m1 = ((rng.random((20, 20)) < 0.5) & (m2 == 1)).astype(np.uint8)
        r1 = reconstruct_by_dilation(m1, mask)
        r2 = reconstruct_by_dilation(m2, mask)
        assert ((r1 == 1) <= (r2 == 1)).all()
    note(4, "anti-extensivity, idempotence, duality, monotonicity on 100 images per law")


def test_criterion_5_knn_equals_bruteforce_oracle():
    rng = np.random.default_rng(1005)
    labels_pool = ("Devnagari", "EnglishNumeral", "Kannada", "Telugu")
    for trial in range(500):
        n_classes = int(rng.integers(2, 5))
        per_class = int(rng.integers(4, 11))
        vectors = []
        labels = []
        for ci in range(n_classes):
            center = rng.random(8) * 3
            vectors.append(center + rng.normal(0, 0.8, (per_class, 8)))
            labels.extend([labels_pool[ci]] * per_class)
        model = Model(vectors=np.vstack(vectors), labels=tuple(labels), k=3)
        q = rng.random(8) * 3

        nn_label, _ = classify_nn(model, q)
        assert classify_knn(model, q, 1)[0] == nn_label, f"trial {trial}"
        for k in (3, 5, 7):
            assert classify_knn(model, q, k)[0] == knn_oracle(model.vectors, model.labels, q, k)
    note(5, "knn(k=1) == nn and knn == full-sort oracle for k in {3,5,7} on 500 pairs")


@pytest.mark.parametrize("angle", [-10.0, -7.5, -3.0, 0.0, 3.0, 7.5, 10.0])
def test_criterion_6_deskew_recovery(glyph_bank, angle):
    rng = random.Random(int(abs(angle) * 10) + 600)
    page, _ = render_page(rng, glyph_bank, n_lines=6, words_per_line=(4, 6), margin=90)
    skewed = rotate_binary(page, angle)
    _, recovered = deskew(skewed)
    assert abs(recovered - angle) <= 0.5, f"{angle} -> {recovered}"
    note(6, f"skew {angle:+.1f} deg recovered as {recovered:+.1f} deg")


def test_criterion_7_segmentation_matches_generator(glyph_bank):
    words_checked = 0
    for seed in range(20):
        rng = random.Random(700 + seed)
        page, truth = render_page(rng, glyph_bank, n_lines=int(rng.randint(2, 5)))
        bands = segment_lines(page)
        assert len(bands) == len(truth.line_bands), f"page {seed}: line count"
        for band, (r0, r1) in zip(bands, truth.line_bands):
            assert abs(band.row_start - r0) <= 1 and abs(band.row_end - r1) <= 1
        recovered = []
        for band in bands:
            recovered.extend(segment_words(page, band))
        assert len(recovered) == len(truth.words), f"page {seed}: word count"
        gt = sorted(truth.words, key=lambda w: (w.line_index, w.col_start))
        for box, wt in zip(recovered, gt):
            assert abs(box.col_start - wt.col_start) <= 1
            assert abs(box.col_end - wt.col_end) <= 1
        words_checked += len(recovered)
    note(7, f"20 pages, {words_checked} words: bands/boxes within 1 px, counts exact")


def test_criterion_8_corpus_classification(artifacts):
    t0 = time.perf_counter()
    manifest = (artifacts["corpus"] / "manifest.csv").read_text().splitlines()[1:]
    assert len(manifest) == 450
    glyph_counts = {}
    heights = []
    for line in manifest:
        _, label, n_glyphs, height, _ = line.split(",")
        glyph_counts.setdefault(label, set()).add(int(n_glyphs))
        heights.append(int(height))
    for label, counts in glyph_counts.items():
        assert 1 in counts, f"{label}: no single-glyph words"
    assert min(heights) <= 12 and max(heights) >= 32  # 10..36 pt scaling exercised

    model = load_model(str(artifacts["model"]))
    assert len(model) == 450
    report = leave_one_out(model, k=3)
    elapsed = artifacts["build_seconds"] + (time.perf_counter() - t0)
    assert report.overall >= 0.90, f"LOO accuracy {report.overall:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"

    # stroke-direction sensitivity invariant (vertical vs horizontal bar words)
    vbar = np.zeros((20, 9), np.uint8)
    vbar[1:19, 3:6] = 1
    v = extract_features(WordImage.from_image(vbar))
    hbar = np.zeros((9, 20), np.uint8)
    hbar[3:5, 1:19] = 1
    h = extract_features(WordImage.from_image(hbar))
    assert v[2] > v[0] and h[0] > h[2]

    per_class = ", ".join(f"{lab}={acc:.3f}" for lab, acc in report.per_class.items())
    note(8, f"LOO k=3 overall {report.overall:.4f} ({per_class}) in {elapsed:.1f}s")


def test_criterion_9_throughput_on_256px_words(tmp_path, glyph_bank, artifacts):
    rng = random.Random(900)
    word_dir = tmp_path / "big"
    word_dir.mkdir()
    labels = sorted(glyph_bank)
    paths = []
    for i in range(100):
        img, _, _ = render_word(rng, glyph_bank, labels[i % 3], n_glyphs=3, height=256)
        img = np.ascontiguousarray(img[:, :256])
        assert img.shape == (256, 256)
        p = word_dir / f"w{i:03d}.pbm"
        write_pbm(str(p), img)
        paths.append(str(p))

    out = tmp_path / "preds.csv"
    args = ["classify", "--model", str(artifacts["model"]), "--out", str(out)] + paths
    assert cli.main(args) == 0
    times = [float(line.split(",")[3]) for line in out.read_text().splitlines()]
    assert len(times) == 100
    mean_ms = 1000 * sum(times) / len(times)
    assert mean_ms < 50.0, f"mean {mean_ms:.1f} ms"
    note(9, f"mean classify time {mean_ms:.1f} ms per 256x256 word (100 words)")


def test_criterion_10_end_to_end_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        base = tmp_path / run
        corpus = base / "corpus"
        dump = base / "dump.csv"
        model = base / "model.txt"
        report = base / "report.txt"
        conf = base / "confusion.csv"
        assert cli.main(["--seed", "77", "gen-corpus", "--out", str(corpus),
                         "--per-class", "12"]) == 0
        assert cli.main(["extract", str(corpus), "--out", str(dump)]) == 0
        assert cli.main(["train", str(dump), "--out", str(model), "--k", "3"]) == 0
        assert cli.main(["evaluate", str(dump), "--loo", "--report", str(report),
                         "--csv", str(conf)]) == 0

        import hashlib

        h = hashlib.sha256()
        for p in sorted(base.rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(base)).encode())
                h.update(p.read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    note(10, f"two seeded runs byte-identical (sha256 {digests[0][:12]}...)")
