"""Batch command-line frontend.

Subcommands wire the library end to end: ``preprocess`` (binarize,
despeckle, deskew), ``segment`` (page -> word files), ``extract``
(word images -> feature dump), ``train`` (dump -> model), ``classify``
(words or whole pages), ``evaluate`` (accuracy report + confusion
matrix) and ``gen-corpus`` (synthetic labeled corpus).

Every command writes primary outputs atomically (temp file + rename)
and exits nonzero on failure, so a crashed run never leaves a partial
artifact behind.
"""

from __future__ import annotations

import argparse
import collections
import csv
import io
import sys
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from pathlib import Path

import numpy as np
from scipy import ndimage as ndi

from scriptid import classifier, corpus, features, imaging, netpbm, segmentation
from scriptid._util import label_structure, write_text_atomic
from scriptid.config import PipelineConfig, load_config

IMAGE_SUFFIXES = (".pbm", ".pgm")


def _otsu_binarize(gray: np.ndarray) -> tuple[np.ndarray, int]:
    """``(binary, Otsu threshold)``; an image of one intensity is all
    background (Otsu's threshold lies below any other image's top)."""
    t = imaging.otsu_threshold(gray)
    binary = imaging.binarize(gray, t)
    if binary.all():
        binary[...] = 0
    return binary, t


def _load_word_binary(path: str) -> np.ndarray:
    """Load a word/page image; PGM input is Otsu-binarized."""
    kind, img = netpbm.read(path)
    if kind == "binary":
        return img
    return _otsu_binarize(img)[0]


def _preprocess_page(gray: np.ndarray, cfg: PipelineConfig):
    page, t = _otsu_binarize(gray)
    page = imaging.remove_small_objects(page, min_area=cfg.min_area)
    page, angle = segmentation.deskew(
        page,
        max_angle=cfg.deskew_max_angle,
        step=cfg.deskew_step,
        dilate_len=cfg.deskew_dilate_len,
        min_area=cfg.min_area,
    )
    return page, t, angle


def cmd_preprocess(args, cfg: PipelineConfig) -> int:
    gray = netpbm.read_gray(args.input)
    page, t, angle = _preprocess_page(gray, cfg)
    _, n_components = ndi.label(page, structure=label_structure(8))
    netpbm.write_pbm(args.out, page)
    report = f"threshold={t}\nskew_degrees={angle:.2f}\ncomponents={n_components}\n"
    write_text_atomic(args.out + ".report.txt", report)
    print(f"{args.out}: threshold={t} skew={angle:.2f} components={n_components}")
    return 0


def _segment_page(page: np.ndarray, cfg: PipelineConfig):
    """``(name, box, crop)`` per word of a binary page, names ``L###_W###``."""
    bands = segmentation.segment_lines(
        page, tau_line=cfg.tau_line, min_line_height=cfg.min_line_height
    )
    out = []
    for li, band in enumerate(bands, start=1):
        boxes = segmentation.segment_words(
            page, band, tau_word=cfg.tau_word,
            gap_frac=cfg.gap_frac, gap_min_floor=cfg.gap_min_floor,
        )
        for wi, box in enumerate(boxes, start=1):
            crop = page[box.line.row_start : box.line.row_end + 1, box.col_start : box.col_end + 1]
            out.append((f"L{li:03d}_W{wi:03d}", box, crop))
    return out


def cmd_segment(args, cfg: PipelineConfig) -> int:
    page = netpbm.read_binary(args.page)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, box, crop in _segment_page(page, cfg):
        netpbm.write_pbm(str(out_dir / f"{name}.pbm"), crop)
        manifest.append(
            f"{name}.pbm,{box.line.row_start},{box.line.row_end},{box.col_start},{box.col_end}"
        )
    manifest.sort()
    write_text_atomic(str(out_dir / "manifest.csv"), "".join(m + "\n" for m in manifest))
    print(f"{args.page}: {len(manifest)} words -> {out_dir}")
    return 0


def _extract_one(task: tuple[str, str, str, float, int]) -> tuple[str, str, list[float]] | str:
    """``(name, label, vector)`` of one word file, or the text of its
    read or input error; any other exception is a program fault and propagates."""
    path, name, label, ratio, min_len = task
    try:
        word = features.WordImage.from_image(_load_word_binary(path))
        vec = features.extract_features(word, ratio=ratio, min_len=min_len)
    except (OSError, ValueError) as exc:
        return str(exc)
    return name, label, [float(v) for v in vec]


def _collect_corpus_files(root: Path) -> list[tuple[str, str, str]]:
    """(absolute path, root-relative name, label) per corpus image.

    Dump lines carry the relative name so a seeded corpus produces a
    byte-identical dump no matter where it lives.
    """
    entries = []
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for path in sorted(class_dir.iterdir()):
            if path.suffix.lower() in IMAGE_SUFFIXES:
                entries.append((str(path), f"{class_dir.name}/{path.name}", class_dir.name))
    return entries


def cmd_extract(args, cfg: PipelineConfig) -> int:
    root = Path(args.path)
    entries = _collect_corpus_files(root) if root.is_dir() else [(str(root), str(root), "")]
    if not entries:
        print(f"scriptid: error: no class directories with images under {root}", file=sys.stderr)
        return 1
    tasks = [(p, name, lab, cfg.se_ratio, cfg.se_min_len) for p, name, lab in entries]

    # one map, in this process or over a pool with about four chunks per worker
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_extract_one, tasks, chunksize=-(-len(tasks) // (4 * workers))))
    else:
        outcomes = map(_extract_one, tasks)
    results = []
    for task, outcome in zip(tasks, outcomes):
        if isinstance(outcome, str):
            print(f"scriptid: warning: skipping {task[0]}: {outcome}", file=sys.stderr)
        else:
            results.append(outcome)
    failures = len(tasks) - len(results)
    if not results:
        print("scriptid: error: no images could be processed", file=sys.stderr)
        return 1
    results.sort(key=lambda r: r[0])
    lines = [
        features.format_feature_line(path, label, np.array(vec)) for path, label, vec in results
    ]
    text = "".join(line + "\n" for line in lines)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"{len(results)} words -> {args.out}" + (f" ({failures} skipped)" if failures else ""))
    else:
        sys.stdout.write(text)
    return 0


def _read_dump(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Vectors and labels of a labeled feature dump."""
    vectors, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            p, label, vec = features.parse_feature_line(line)
            if label is None:
                raise ValueError(f"{path}: unlabeled feature line for {p!r}")
            vectors.append(vec)
            labels.append(label)
    if not vectors:
        raise ValueError(f"{path}: empty feature dump")
    return np.array(vectors), tuple(labels)


def cmd_train(args, cfg: PipelineConfig) -> int:
    vectors, labels = _read_dump(args.dump)
    k = args.k if args.k is not None else cfg.k
    model = classifier.Model(vectors=vectors, labels=labels, k=k)
    classifier.save_model(args.out, model)
    counts = {lab: labels.count(lab) for lab in model.label_set}
    for lab in model.label_set:
        print(f"{lab}: {counts[lab]}")
    print(f"total: {len(labels)} samples, k={k} -> {args.out}")
    return 0


def cmd_classify(args, cfg: PipelineConfig) -> int:
    model = classifier.load_model(args.model)
    k = args.k if args.k is not None else model.k
    out_lines = []

    def classify_crop(name: str, crop: np.ndarray) -> None:
        start = time.perf_counter()
        word = features.WordImage.from_image(crop)
        vec = features.extract_features(word, ratio=cfg.se_ratio, min_len=cfg.se_min_len)
        label, votes = classifier.classify_knn(model, vec, k)
        elapsed = time.perf_counter() - start
        conf = votes[label] / k
        out_lines.append(f"{name},{label},{conf:.4f},{elapsed:.6f}")

    if args.page:
        page = _load_word_binary(args.page)
        page = imaging.remove_small_objects(page, min_area=cfg.min_area)
        for name, _, crop in _segment_page(page, cfg):
            classify_crop(name, crop)
    else:
        # one unreadable or blank word is skipped, not the whole batch
        for path in sorted(args.words):
            try:
                classify_crop(path, _load_word_binary(path))
            except (OSError, ValueError) as exc:
                print(f"scriptid: warning: skipping {path}: {exc}", file=sys.stderr)
        if not out_lines:
            print("scriptid: error: no word could be classified", file=sys.stderr)
            return 1

    text = "".join(line + "\n" for line in out_lines)
    if args.out:
        write_text_atomic(args.out, text)
        print(f"{len(out_lines)} predictions -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _report_text(nn: classifier.EvalReport, knn: classifier.EvalReport, k: int) -> str:
    lines = [f"samples={knn.total}", f"k={k}", "script,nn_accuracy,knn_accuracy"]
    for lab in knn.label_order:
        lines.append(f"{lab},{nn.per_class.get(lab, 0.0):.4f},{knn.per_class[lab]:.4f}")
    lines.append(f"overall,{nn.overall:.4f},{knn.overall:.4f}")
    return "".join(line + "\n" for line in lines)


def _confusion_csv(report: classifier.EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["true_label"] + list(report.label_order))
    for i, lab in enumerate(report.label_order):
        writer.writerow([lab] + [int(v) for v in report.confusion[i]])
    return buf.getvalue()


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    vectors, labels = _read_dump(args.dump)
    k = args.k if args.k is not None else cfg.k
    if args.loo:
        model = classifier.Model(vectors=vectors, labels=labels, k=k)
        nn_report = classifier.leave_one_out(model, k=1)
        knn_report = classifier.leave_one_out(model, k=k)
    else:
        if not args.model:
            print("scriptid: error: --model is required without --loo", file=sys.stderr)
            return 2
        model = classifier.load_model(args.model)
        test = list(zip(vectors, labels))
        nn_report = classifier.evaluate(model, test, k=1)
        knn_report = classifier.evaluate(model, test, k=k)
    text = _report_text(nn_report, knn_report, k)
    sys.stdout.write(text)
    if args.report:
        write_text_atomic(args.report, text)
    if args.csv:
        write_text_atomic(args.csv, _confusion_csv(knn_report))
    return 0


def cmd_gen_corpus(args, cfg: PipelineConfig) -> int:
    rows = corpus.generate_corpus(
        args.out,
        per_class=args.per_class,
        seed=args.seed,
        glyph_root=args.glyphs,
        heights=(args.min_height, args.max_height),
        skew=args.skew,
        noise=args.noise,
    )
    by_class = collections.Counter(row[1] for row in rows)
    for label in sorted(by_class):
        print(f"{label}: {by_class[label]}")
    print(f"total: {len(rows)} words -> {args.out}")
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scriptid",
        description="Word-level script identification: morphology features + KNN.",
    )
    parser.add_argument("--config", metavar="PATH", help="key=value config overrides")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for gen-corpus")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers for extract")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="binarize, despeckle and deskew a grayscale page")
    p.add_argument("input", help="grayscale page (PGM)")
    p.add_argument("--out", required=True, help="output binary page (PBM)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("segment", help="split a binary page into word images")
    p.add_argument("page", help="binary page (PBM)")
    p.add_argument("--out-dir", required=True, help="directory for word PBMs + manifest.csv")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("extract", help="compute feature vectors for words")
    p.add_argument("path", help="corpus root (class subdirectories) or a single word image")
    p.add_argument("--out", help="feature dump file (default: stdout)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="build a KNN model from a labeled feature dump")
    p.add_argument("dump", help="labeled feature dump")
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--k", type=int, help="neighbour count (default from config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="predict the script of words or a whole page")
    p.add_argument("words", nargs="*", help="word images (PBM/PGM)")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--page", help="classify every word of a binary page instead")
    p.add_argument("--k", type=int, help="neighbour count (default from model)")
    p.add_argument("--out", help="write predictions to a file instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="accuracy report and confusion matrix")
    p.add_argument("dump", help="labeled feature dump")
    p.add_argument("--model", help="model file (omit with --loo)")
    p.add_argument("--k", type=int, help="neighbour count")
    p.add_argument("--loo", action="store_true", help="leave-one-out over the dump itself")
    p.add_argument("--report", help="also write the text report to this path")
    p.add_argument("--csv", help="write the KNN confusion matrix as CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-corpus", help="generate a synthetic labeled word corpus")
    p.add_argument("--out", required=True, help="corpus root directory")
    p.add_argument("--per-class", type=int, required=True, help="words per script class")
    p.add_argument("--glyphs", help="glyph fixture root (default: bundled set)")
    p.add_argument("--min-height", type=int, default=10, help="smallest word height (px)")
    p.add_argument("--max-height", type=int, default=36, help="largest word height (px)")
    p.add_argument("--skew", type=float, default=0.0, help="max per-word skew (degrees)")
    p.add_argument("--noise", type=float, default=0.0, help="background speckle probability")
    p.set_defaults(func=cmd_gen_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"scriptid: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "classify" and bool(args.page) == bool(args.words):
        print("scriptid: error: classify needs word images or --page, not both", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (OSError, ValueError, BrokenExecutor) as exc:
        print(f"scriptid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
