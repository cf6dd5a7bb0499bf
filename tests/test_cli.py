import random
import re
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from scriptid import classifier, cli, features
from scriptid.classifier import load_model
from scriptid.config import PipelineConfig, load_config
from scriptid.corpus import render_page, render_word, sprinkle_speckles
from scriptid.features import WordImage, extract_features, parse_feature_line
from scriptid.imaging import binarize, connected_components, otsu_threshold, remove_small_objects
from scriptid.netpbm import read_binary, write_pbm, write_pgm
from scriptid.segmentation import deskew, rotate_binary


def page_to_gray(page, ink=40, paper=215):
    return np.where(page == 1, ink, paper).astype(np.uint8)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory, glyph_bank):
    """Corpus + feature dump + model, built once through the CLI."""
    root = tmp_path_factory.mktemp("cliwork")
    corpus = root / "corpus"
    dump = root / "features.csv"
    model = root / "model.txt"
    assert cli.main(["--seed", "5", "gen-corpus", "--out", str(corpus), "--per-class", "12"]) == 0
    assert cli.main(["extract", str(corpus), "--out", str(dump)]) == 0
    assert cli.main(["train", str(dump), "--out", str(model), "--k", "3"]) == 0
    return {"root": root, "corpus": corpus, "dump": dump, "model": model}


# ---------------------------------------------------------------- preprocess
def test_preprocess_matches_library_pipeline(tmp_path, glyph_bank, capsys):
    rng = random.Random(3)
    page, _ = render_page(rng, glyph_bank, n_lines=3, margin=50)
    noisy = sprinkle_speckles(rng, page, count=25)
    gray = page_to_gray(noisy)
    src = tmp_path / "page.pgm"
    out = tmp_path / "page.pbm"
    write_pgm(str(src), gray)

    assert cli.main(["preprocess", str(src), "--out", str(out)]) == 0

    cfg = PipelineConfig()
    t = otsu_threshold(gray)
    expected = remove_small_objects(binarize(gray, t), cfg.min_area)
    expected, angle = deskew(expected)
    assert np.array_equal(read_binary(str(out)), expected)

    report = dict(
        line.split("=") for line in (tmp_path / "page.pbm.report.txt").read_text().splitlines()
    )
    assert int(report["threshold"]) == t
    assert float(report["skew_degrees"]) == pytest.approx(angle)
    assert int(report["components"]) == len(connected_components(expected)[1])


def test_preprocess_blank_page(tmp_path, capsys):
    # blank = clean paper with a little dust, all below the speckle threshold
    gray = np.full((40, 40), 230, np.uint8)
    gray[5:7, 8:10] = 40
    gray[30:32, 20:22] = 45
    src = tmp_path / "blank.pgm"
    write_pgm(str(src), gray)
    out = tmp_path / "blank.pbm"
    assert cli.main(["preprocess", str(src), "--out", str(out)]) == 0
    assert not read_binary(str(out)).any()
    report = (tmp_path / "blank.pbm.report.txt").read_text()
    assert "components=0" in report


@pytest.mark.parametrize("intensity", [0, 255])
def test_preprocess_uniform_page_is_blank(tmp_path, capsys, intensity):
    # Otsu returns a uniform image's one intensity, which binarize would
    # turn into a page of ink; one intensity means no foreground
    src = tmp_path / "uniform.pgm"
    write_pgm(str(src), np.full((40, 40), intensity, np.uint8))
    out = tmp_path / "uniform.pbm"
    assert cli.main(["preprocess", str(src), "--out", str(out)]) == 0
    assert not read_binary(str(out)).any()
    report = (tmp_path / "uniform.pbm.report.txt").read_text()
    assert f"threshold={intensity}\n" in report
    assert "components=0" in report


def test_preprocess_corrupt_input_leaves_no_output(tmp_path, capsys):
    src = tmp_path / "bad.pgm"
    src.write_bytes(b"P5\n10 10\n255\nshort")
    out = tmp_path / "bad.pbm"
    assert cli.main(["preprocess", str(src), "--out", str(out)]) == 1
    assert not out.exists()
    assert not (tmp_path / "bad.pbm.report.txt").exists()
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------- segment
def test_segment_generated_page(tmp_path, glyph_bank, capsys):
    rng = random.Random(9)
    page, truth = render_page(rng, glyph_bank, n_lines=3, words_per_line=(3, 4))
    src = tmp_path / "page.pbm"
    write_pbm(str(src), page)
    out_dir = tmp_path / "words"
    assert cli.main(["segment", str(src), "--out-dir", str(out_dir)]) == 0

    manifest = (out_dir / "manifest.csv").read_text().splitlines()
    assert len(manifest) == len(truth.words)
    gt = sorted(truth.words, key=lambda w: (w.line_index, w.col_start))
    for line, wt in zip(manifest, gt):
        name, r0, r1, c0, c1 = line.split(",")
        assert (out_dir / name).exists()
        assert abs(int(c0) - wt.col_start) <= 1
        assert abs(int(c1) - wt.col_end) <= 1
        assert int(r0) <= wt.row_start and int(r1) >= wt.row_end


def test_segment_blank_page(tmp_path, capsys):
    src = tmp_path / "blank.pbm"
    write_pbm(str(src), np.zeros((30, 30), np.uint8))
    out_dir = tmp_path / "w"
    assert cli.main(["segment", str(src), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "manifest.csv").read_text() == ""


def test_segment_deterministic_rerun(tmp_path, glyph_bank, capsys):
    rng = random.Random(10)
    page, _ = render_page(rng, glyph_bank, n_lines=2)
    src = tmp_path / "p.pbm"
    write_pbm(str(src), page)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["segment", str(src), "--out-dir", str(d1)]) == 0
    assert cli.main(["segment", str(src), "--out-dir", str(d2)]) == 0
    f1 = sorted(p.name for p in d1.iterdir())
    assert f1 == sorted(p.name for p in d2.iterdir())
    for name in f1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# ---------------------------------------------------------------- extract
def test_extract_single_rectangle_word(tmp_path, capsys):
    img = np.zeros((14, 9), np.uint8)
    img[1:13, 2:7] = 1
    src = tmp_path / "word.pbm"
    write_pbm(str(src), img)
    assert cli.main(["extract", str(src)]) == 0
    line = capsys.readouterr().out.strip()
    path, label, vec = parse_feature_line(line)
    assert path == str(src)
    assert label is None
    expected = extract_features(WordImage.from_image(img))
    assert vec.tobytes() == expected.tobytes()


def test_extract_corpus_counts_and_labels(small_corpus):
    lines = Path(small_corpus["dump"]).read_text().splitlines()
    assert len(lines) == 36
    labels = {parse_feature_line(ln)[1] for ln in lines}
    assert labels == {"Devnagari", "EnglishNumeral", "Kannada"}


def test_extract_deterministic_for_identical_images(tmp_path, glyph_bank, capsys):
    rng = random.Random(30)
    img, _, _ = render_word(rng, glyph_bank, "Kannada", n_glyphs=2, height=18)
    d = tmp_path / "c" / "X"
    d.mkdir(parents=True)
    write_pbm(str(d / "a.pbm"), img)
    write_pbm(str(d / "b.pbm"), img)
    assert cli.main(["extract", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out.splitlines()
    va = parse_feature_line(out[0])[2]
    vb = parse_feature_line(out[1])[2]
    assert va.tobytes() == vb.tobytes()


def test_extract_skips_unreadable_nonzero_only_when_empty(tmp_path, capsys):
    d = tmp_path / "c" / "A"
    d.mkdir(parents=True)
    (d / "bad.pbm").write_bytes(b"garbage")
    img = np.zeros((8, 8), np.uint8)
    img[2:6, 2:6] = 1
    write_pbm(str(d / "ok.pbm"), img)
    assert cli.main(["extract", str(tmp_path / "c")]) == 0
    captured = capsys.readouterr()
    assert "skipping" in captured.err
    assert len(captured.out.splitlines()) == 1

    empty = tmp_path / "c2" / "A"
    empty.mkdir(parents=True)
    (empty / "bad.pbm").write_bytes(b"garbage")
    assert cli.main(["extract", str(tmp_path / "c2")]) == 1
    assert "no images could be processed" in capsys.readouterr().err

    (tmp_path / "c3").mkdir()
    assert cli.main(["extract", str(tmp_path / "c3")]) == 1
    assert "no class directories with images" in capsys.readouterr().err


def test_extract_parallel_equals_serial(tmp_path, small_corpus):
    out = tmp_path / "par.csv"
    assert cli.main(["--jobs", "2", "extract", str(small_corpus["corpus"]), "--out", str(out)]) == 0
    assert out.read_text() == Path(small_corpus["dump"]).read_text()


def test_extract_parallel_skips_bad_file_like_serial(tmp_path, small_corpus, capsys):
    corpus = tmp_path / "c"
    (corpus / "A").mkdir(parents=True)
    for src in sorted((small_corpus["corpus"] / "Kannada").glob("*.pbm"))[:4]:
        (corpus / "A" / src.name).write_bytes(src.read_bytes())
    (corpus / "A" / "bad.pbm").write_bytes(b"garbage")
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert cli.main(["--jobs", jobs, "extract", str(corpus), "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_text()))
    (serial, serial_dump), (parallel, parallel_dump) = runs
    assert "skipping" in serial.err and "bad.pbm" in serial.err
    assert parallel.err == serial.err
    assert parallel.out.replace("jobs2", "jobs1") == serial.out
    assert parallel_dump == serial_dump
    assert len(serial_dump.splitlines()) == 4


def test_extract_pool_failure_is_an_error_not_skips(tmp_path, small_corpus, monkeypatch, capsys):
    class DyingPool:
        """A pool whose workers die after the first result."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = iter(tasks)
            yield fn(next(tasks))
            raise BrokenProcessPool("a worker died")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", DyingPool)
    out = tmp_path / "f.csv"
    assert cli.main(["--jobs", "2", "extract", str(small_corpus["corpus"]), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "a worker died" in err
    assert "skipping" not in err
    assert not out.exists()


def test_extract_program_fault_fails_without_dump(tmp_path, small_corpus, monkeypatch, capsys):
    # only unreadable or blank words are skipped: a fault in the feature
    # code must not turn into a warning and a short dump
    real = features.extract_features
    seen = []

    def faulty(word, **kwargs):
        seen.append(word)
        if len(seen) == 5:
            raise IndexError("bug in feature code")
        return real(word, **kwargs)

    monkeypatch.setattr(features, "extract_features", faulty)
    out = tmp_path / "f.csv"
    with pytest.raises(IndexError, match="bug in feature code"):
        cli.main(["--jobs", "1", "extract", str(small_corpus["corpus"]), "--out", str(out)])
    assert "skipping" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_below_one_is_usage_error(small_corpus, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--jobs", jobs, "extract", str(small_corpus["corpus"])])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_capped_at_task_count(tmp_path, small_corpus, monkeypatch):
    workers = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: runs each task in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            assert chunksize >= 1
            return map(fn, tasks)

    corpus = tmp_path / "c3"
    (corpus / "A").mkdir(parents=True)
    for src in sorted((small_corpus["corpus"] / "Kannada").glob("*.pbm"))[:3]:
        (corpus / "A" / src.name).write_bytes(src.read_bytes())
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "f.csv"
    assert cli.main(["--jobs", "5000", "extract", str(corpus), "--out", str(out)]) == 0
    assert workers == [3]
    assert len(out.read_text().splitlines()) == 3


# ---------------------------------------------------------------- train
def test_train_reports_class_counts(tmp_path, small_corpus, capsys):
    out = tmp_path / "m.txt"
    assert cli.main(["train", str(small_corpus["dump"]), "--out", str(out), "--k", "3"]) == 0
    printed = capsys.readouterr().out
    for line in ("Devnagari: 12", "EnglishNumeral: 12", "Kannada: 12", "total: 36 samples"):
        assert line in printed
    model = load_model(str(out))
    assert len(model) == 36
    assert model.k == 3
    assert model.label_set == ("Devnagari", "EnglishNumeral", "Kannada")


def test_train_round_trip_reserialization(tmp_path, small_corpus):
    m1 = Path(small_corpus["model"]).read_bytes()
    model = load_model(str(small_corpus["model"]))
    from scriptid.classifier import save_model

    save_model(str(tmp_path / "again.txt"), model)
    assert (tmp_path / "again.txt").read_bytes() == m1


def test_train_rejects_unlabeled_and_bad_k(tmp_path, small_corpus, capsys):
    dump = Path(small_corpus["dump"]).read_text().splitlines()
    bad = tmp_path / "bad.csv"
    first = dump[0].split(",")
    first[1] = ""
    bad.write_text(",".join(first) + "\n")
    assert cli.main(["train", str(bad), "--out", str(tmp_path / "m.txt")]) == 1
    assert not (tmp_path / "m.txt").exists()

    good = tmp_path / "good.csv"
    good.write_text("\n".join(dump[:4]) + "\n")
    assert cli.main(["train", str(good), "--out", str(tmp_path / "m2.txt"), "--k", "9"]) == 1


# ---------------------------------------------------------------- classify
def test_classify_training_image_confidence_one(small_corpus, capsys):
    word = next((small_corpus["corpus"] / "Kannada").glob("*.pbm"))
    assert cli.main(["classify", "--model", str(small_corpus["model"]), str(word)]) == 0
    line = capsys.readouterr().out.strip()
    path, label, conf, secs = line.split(",")
    assert path == str(word)
    assert label == "Kannada"
    assert float(conf) == 1.0
    assert float(secs) > 0


def test_classify_timing_field_always_present(small_corpus, capsys):
    words = sorted((small_corpus["corpus"] / "Devnagari").glob("*.pbm"))[:5]
    args = ["classify", "--model", str(small_corpus["model"])] + [str(w) for w in words]
    assert cli.main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for ln in lines:
        assert float(ln.split(",")[3]) > 0


def test_classify_page_mode(tmp_path, glyph_bank, small_corpus, capsys):
    rng = random.Random(12)
    page, truth = render_page(rng, glyph_bank, n_lines=2, words_per_line=(3, 3), heights=(14, 26))
    src = tmp_path / "page.pbm"
    write_pbm(str(src), page)
    assert cli.main(["classify", "--model", str(small_corpus["model"]), "--page", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(truth.words)
    gt = sorted(truth.words, key=lambda w: (w.line_index, w.col_start))
    hits = sum(ln.split(",")[1] == wt.label for ln, wt in zip(lines, gt))
    assert hits >= len(gt) - 1  # page words come from the same generator


def test_classify_skips_bad_words(tmp_path, small_corpus, capsys):
    model = str(small_corpus["model"])
    word = str(next((small_corpus["corpus"] / "Kannada").glob("*.pbm")))
    blank = tmp_path / "blank.pbm"
    write_pbm(str(blank), np.zeros((5, 5), np.uint8))
    missing = tmp_path / "missing.pbm"

    assert cli.main(["classify", "--model", model, word]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert cli.main(["classify", "--model", model, word, str(blank), str(missing)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [ln.rsplit(",", 1)[0] for ln in lines] == [ln.rsplit(",", 1)[0] for ln in alone]
    assert f"skipping {blank}: word image contains no ink" in captured.err
    assert f"skipping {missing}" in captured.err

    assert cli.main(["classify", "--model", model, str(blank), str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no word could be classified" in captured.err


def test_classify_bad_k_fails(small_corpus, capsys):
    word = str(next((small_corpus["corpus"] / "Kannada").glob("*.pbm")))
    assert cli.main(["classify", "--model", str(small_corpus["model"]), "--k", "99", word]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k=99 must lie in" in captured.err


def word_image_calls(monkeypatch) -> list:
    """Records one entry per ``features.WordImage.from_image`` call."""
    calls = []
    real = features.WordImage.from_image.__func__

    def from_image(cls, img):
        calls.append("from_image")
        return real(cls, img)

    monkeypatch.setattr(features.WordImage, "from_image", classmethod(from_image))
    return calls


def test_classify_checks_k_once_before_any_word(small_corpus, monkeypatch, capsys):
    words = [str(p) for p in sorted((small_corpus["corpus"] / "Kannada").glob("*.pbm"))[:3]]
    made = word_image_calls(monkeypatch)
    assert cli.main(["classify", "--model", str(small_corpus["model"]), "--k", "99", *words]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    n = len(load_model(str(small_corpus["model"])))
    assert err.splitlines() == [f"scriptid: error: k=99 must lie in 1..{n}"]
    assert made == []


@pytest.mark.parametrize("command", ["classify", "evaluate"])
def test_even_k_fails_against_a_model(small_corpus, monkeypatch, capsys, command):
    # the Model rule: a model file can hold no even k, so --k may not be even either
    model = str(small_corpus["model"])
    if command == "classify":
        word = str(next((small_corpus["corpus"] / "Kannada").glob("*.pbm")))
        args = ["classify", "--model", model, "--k", "2", word]
    else:
        args = ["evaluate", str(small_corpus["dump"]), "--model", model, "--k", "2"]
    made = word_image_calls(monkeypatch)
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "scriptid: error: k must be odd, got 2\n"
    assert made == []


def test_evaluate_loo_checks_k_against_the_other_samples(small_corpus, capsys):
    dump = str(small_corpus["dump"])
    n = len(Path(dump).read_text().splitlines())  # 36: the last odd k is n - 1 = 35
    assert cli.main(["evaluate", dump, "--loo", "--k", str(n + 1)]) == 1
    assert capsys.readouterr().err == f"scriptid: error: k={n + 1} must lie in 1..{n - 1}\n"
    assert cli.main(["evaluate", dump, "--loo", "--k", str(n - 1)]) == 0


def test_classify_page_calls_each_word_in_clock_order(tmp_path, glyph_bank, small_corpus,
                                                      monkeypatch, capsys):
    # a per-word clock starts in WordImage.from_image and stops when
    # classify_knn returns: each word must make exactly these three calls,
    # in this order, one word at a time
    calls = word_image_calls(monkeypatch)
    extract, knn = features.extract_features, classifier.classify_knn

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(features, "extract_features", recording("extract_features", extract))
    monkeypatch.setattr(classifier, "classify_knn", recording("classify_knn", knn))
    page, truth = render_page(random.Random(12), glyph_bank, n_lines=2, words_per_line=(3, 3))
    src = tmp_path / "page.pbm"
    write_pbm(str(src), page)
    assert cli.main(["classify", "--model", str(small_corpus["model"]), "--page", str(src)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(truth.words) > 0
    assert calls == ["from_image", "extract_features", "classify_knn"] * len(rows)

    calls.clear()
    assert cli.main(["extract", str(small_corpus["corpus"]), "--out", str(tmp_path / "d.csv")]) == 0
    n_files = len(list(small_corpus["corpus"].glob("*/*.pbm")))
    assert calls == ["from_image", "extract_features"] * n_files > []


def test_classify_page_binarizes_but_does_not_deskew(tmp_path, glyph_bank, small_corpus, capsys):
    rng = random.Random(21)
    page, _ = render_page(rng, glyph_bank, n_lines=3, words_per_line=(4, 4), heights=(14, 26))
    gray = page_to_gray(rotate_binary(page, 3.0))
    pgm = tmp_path / "skewed.pgm"
    write_pgm(str(pgm), gray)

    def predictions(src):
        assert cli.main(["classify", "--model", str(small_corpus["model"]), "--page", str(src)]) == 0
        return [ln.rsplit(",", 1)[0] for ln in capsys.readouterr().out.splitlines()]

    got = predictions(pgm)
    binarized = tmp_path / "binarized.pbm"
    write_pbm(str(binarized), binarize(gray, otsu_threshold(gray)))
    assert got == predictions(binarized)
    preprocessed = tmp_path / "preprocessed.pbm"
    assert cli.main(["preprocess", str(pgm), "--out", str(preprocessed)]) == 0
    capsys.readouterr()
    assert got != predictions(preprocessed)


def test_classify_requires_input(small_corpus, capsys):
    assert cli.main(["classify", "--model", str(small_corpus["model"])]) == 2


def test_classify_rejects_words_with_page(tmp_path, glyph_bank, small_corpus, capsys):
    page, _ = render_page(random.Random(3), glyph_bank, n_lines=1, words_per_line=(2, 2))
    src = tmp_path / "page.pbm"
    write_pbm(str(src), page)
    word = str(next((small_corpus["corpus"] / "Kannada").glob("*.pbm")))
    capsys.readouterr()
    args = ["classify", "--model", str(small_corpus["model"]), "--page", str(src), word]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "not both" in err


# ---------------------------------------------------------------- evaluate
def test_evaluate_training_set_k1_is_perfect(tmp_path, small_corpus, capsys):
    csv_path = tmp_path / "conf.csv"
    assert (
        cli.main(
            ["evaluate", str(small_corpus["dump"]), "--model", str(small_corpus["model"]),
             "--k", "1", "--csv", str(csv_path)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "overall,1.0000,1.0000" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "true_label,Devnagari,EnglishNumeral,Kannada"
    for row in rows[1:]:
        cells = row.split(",")
        assert sum(int(x) for x in cells[1:]) == 12


def test_evaluate_loo_and_report_determinism(tmp_path, small_corpus, capsys):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    for r in (r1, r2):
        assert cli.main(["evaluate", str(small_corpus["dump"]), "--loo", "--report", str(r)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    assert "samples=36" in r1.read_text()


def test_evaluate_model_defaults_to_the_models_k(tmp_path, small_corpus, capsys):
    # as classify does: without --k, evaluate --model takes the model's k;
    # --loo has no model and keeps the config's k
    dump, model = str(small_corpus["dump"]), str(tmp_path / "k5.txt")
    assert cli.main(["train", dump, "--out", model, "--k", "5"]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", dump, "--model", model]) == 0
    default = capsys.readouterr().out
    assert "k=5" in default.splitlines()
    assert cli.main(["evaluate", dump, "--model", model, "--k", "5"]) == 0
    assert capsys.readouterr().out == default
    assert cli.main(["evaluate", dump, "--model", model, "--k", "1"]) == 0
    assert "k=1" in capsys.readouterr().out.splitlines()
    assert cli.main(["evaluate", dump, "--loo"]) == 0
    assert "k=3" in capsys.readouterr().out.splitlines()


def test_evaluate_without_model_or_loo_is_usage_error(small_corpus, capsys):
    assert cli.main(["evaluate", str(small_corpus["dump"])]) == 2


def test_evaluate_rejects_model_with_loo(small_corpus, capsys):
    # leave-one-out would ignore the model
    args = ["evaluate", str(small_corpus["dump"]), "--loo", "--model", str(small_corpus["model"])]
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "not both" in err


# ---------------------------------------------------------------- gen-corpus + config
def test_classify_accepts_pgm_words(tmp_path, glyph_bank, small_corpus, capsys):
    rng = random.Random(40)
    img, _, _ = render_word(rng, glyph_bank, "EnglishNumeral", n_glyphs=3, height=24)
    src = tmp_path / "word.pgm"
    write_pgm(str(src), page_to_gray(img))
    assert cli.main(["classify", "--model", str(small_corpus["model"]), str(src)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.split(",")[1] == "EnglishNumeral"


@pytest.mark.parametrize("intensity", [0, 255])
def test_uniform_pgm_word_is_skipped_as_blank(tmp_path, glyph_bank, small_corpus, capsys,
                                             intensity):
    corpus = tmp_path / "c"
    (corpus / "A").mkdir(parents=True)
    rng = random.Random(41)
    img, _, _ = render_word(rng, glyph_bank, "Kannada", n_glyphs=2, height=20)
    ok = corpus / "A" / "ok.pgm"
    write_pgm(str(ok), page_to_gray(img))
    uniform = corpus / "A" / "uniform.pgm"
    write_pgm(str(uniform), np.full((12, 20), intensity, np.uint8))

    assert cli.main(["classify", "--model", str(small_corpus["model"]), str(ok), str(uniform)]) == 0
    captured = capsys.readouterr()
    assert f"skipping {uniform}: word image contains no ink" in captured.err
    assert [line.split(",")[0] for line in captured.out.splitlines()] == [str(ok)]

    assert cli.main(["extract", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert f"skipping {uniform}: word image contains no ink" in captured.err
    assert [parse_feature_line(line)[0] for line in captured.out.splitlines()] == ["A/ok.pgm"]


def test_gen_corpus_perturbation_flags(tmp_path, capsys):
    out = tmp_path / "pert"
    code = cli.main(
        ["--seed", "3", "gen-corpus", "--out", str(out), "--per-class", "4",
         "--skew", "2.0", "--noise", "0.001", "--min-height", "14", "--max-height", "20"]
    )
    assert code == 0
    assert len(list((out / "Kannada").glob("*.pbm"))) == 4


@pytest.mark.parametrize("flags", [
    ["--min-height", "40", "--max-height", "20"],
    ["--min-height", "0"],
    ["--skew", "nan"],
    ["--skew", "inf"],
    ["--skew", "-5"],
    ["--noise", "1.5"],
    ["--noise", "-0.5"],
])
def test_gen_corpus_bad_ranges_fail_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "x"
    assert cli.main(["gen-corpus", "--out", str(out), "--per-class", "3", *flags]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_gen_corpus_missing_glyph_dir(tmp_path, capsys):
    code = cli.main(
        ["gen-corpus", "--out", str(tmp_path / "x"), "--per-class", "3", "--glyphs",
         str(tmp_path / "missing")]
    )
    assert code == 1


def test_config_overrides_and_validation(tmp_path, glyph_bank, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("min_area = 1   # keep everything\nk=5\n")
    rng = random.Random(2)
    page, _ = render_page(rng, glyph_bank, n_lines=2)
    src = tmp_path / "p.pgm"
    write_pgm(str(src), page_to_gray(page))
    out = tmp_path / "p.pbm"
    assert cli.main(["--config", str(cfgfile), "preprocess", str(src), "--out", str(out)]) == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense=1\n")
    assert cli.main(["--config", str(bad), "preprocess", str(src), "--out", str(out)]) == 2

    bad.write_text("k=4\n")  # even k rejected
    assert cli.main(["--config", str(bad), "preprocess", str(src), "--out", str(out)]) == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"k": 2, "deskew_step": 0.0}, "need 0 < deskew_step <= deskew_max_angle <= 45"),
        ({"deskew_step": -0.5}, "need 0 < deskew_step <= deskew_max_angle <= 45"),
        ({"deskew_max_angle": float("nan")}, "need 0 < deskew_step <= deskew_max_angle <= 45"),
        ({"k": 2}, "k must be a positive odd integer, got 2"),
        ({"min_area": -1}, "min_area must be >= 0, got -1"),
        ({"gap_frac": 1.0}, "gap_frac must lie in (0, 1), got 1.0"),
    ],
    ids=["k=2,deskew_step=0", "deskew_step=-0.5", "deskew_max_angle=nan", "k=2", "min_area=-1", "gap_frac=1"],
)
def test_config_is_checked_when_constructed(overrides, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig(**overrides)


@pytest.mark.parametrize(
    "entry",
    ["min_area=1_5", "se_ratio=0_7", "min_area=\u0661\u0665", "se_ratio=\u0660.7", "k=+3", "gap_frac=+0.2"],
    ids=["int-separator", "float-separator", "int-arabic-indic", "float-arabic-indic", "int-plus", "float-plus"],
)
def test_config_values_are_plain_ascii_decimals(tmp_path, entry):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(entry + "\n", encoding="utf-8")
    key, _, value = entry.partition("=")
    message = f"{cfgfile}:1: bad value for {key}: {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(str(cfgfile))


def test_config_reads_plain_decimals_and_spaces_around_them(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("min_area = 7\nse_ratio=.5\ndeskew_step=1e-1\n")
    cfg = load_config(str(cfgfile))
    assert (cfg.min_area, cfg.se_ratio, cfg.deskew_step) == (7, 0.5, 0.1)


def test_config_rejects_repeated_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("k=3\n# a later override would silently win\nk = 5\n")
    message = f"{cfgfile}:3: repeated config entry 'k = 5'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(str(cfgfile))
    assert cli.main(["--config", str(cfgfile), "evaluate", "x.csv", "--loo"]) == 2
    assert f"{cfgfile}:3: repeated" in capsys.readouterr().err
