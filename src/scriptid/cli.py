"""Batch command-line frontend over ``scriptid.pipeline``.

Subcommands parse arguments, read and write files and time words:
``preprocess`` (binarize, despeckle, deskew), ``segment`` (page -> word
files), ``extract`` (word images -> feature dump), ``train`` (dump ->
model), ``classify`` (words or whole pages), ``evaluate`` (accuracy
report + confusion matrix) and ``gen-corpus`` (synthetic labeled corpus).

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

from scriptid import classifier, corpus, features, imaging, netpbm, pipeline
from scriptid._util import write_text_atomic
from scriptid.config import PipelineConfig, load_config

IMAGE_SUFFIXES = (".pbm", ".pgm")


def cmd_preprocess(args, cfg: PipelineConfig) -> int:
    page, t, angle = pipeline.preprocess(netpbm.read_gray(args.input), cfg)
    n_components = len(imaging.connected_components(page)[1])
    netpbm.write_pbm(args.out, page)
    report = f"threshold={t}\nskew_degrees={angle:.2f}\ncomponents={n_components}\n"
    write_text_atomic(args.out + ".report.txt", report)
    print(f"{args.out}: threshold={t} skew={angle:.2f} components={n_components}")
    return 0


def cmd_segment(args, cfg: PipelineConfig) -> int:
    page = netpbm.read_binary(args.page)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, box, crop in pipeline.words(page, cfg):
        netpbm.write_pbm(str(out_dir / f"{name}.pbm"), crop)
        manifest.append(
            f"{name}.pbm,{box.line.row_start},{box.line.row_end},{box.col_start},{box.col_end}"
        )
    manifest.sort()
    write_text_atomic(str(out_dir / "manifest.csv"), "".join(m + "\n" for m in manifest))
    print(f"{args.page}: {len(manifest)} words -> {out_dir}")
    return 0


def _extract_one(task: tuple[str, str, str, PipelineConfig]) -> tuple[str, str, np.ndarray] | str:
    """``(name, label, vector)`` of one word file, or the text of its
    read or input error; any other exception is a program fault and propagates."""
    path, name, label, cfg = task
    try:
        return name, label, pipeline.vector(pipeline.load_binary(path), cfg)
    except (OSError, ValueError) as exc:
        return str(exc)


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
    tasks = [(p, name, lab, cfg) for p, name, lab in entries]

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
    text = "".join(features.format_feature_line(*r) + "\n" for r in results)
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


def _predict(model: classifier.Model, k: int, cfg: PipelineConfig, name: str, img) -> str:
    """The ``name,label,confidence,seconds`` line of one word image."""
    start = time.perf_counter()
    label, votes = classifier.classify_knn(model, pipeline.vector(img, cfg), k)
    elapsed = time.perf_counter() - start
    return f"{name},{label},{votes[label] / k:.4f},{elapsed:.6f}"


def cmd_classify(args, cfg: PipelineConfig) -> int:
    model = classifier.load_model(args.model)
    k = classifier.check_k(args.k if args.k is not None else model.k, len(model))
    if args.page:
        page = imaging.remove_small_objects(pipeline.load_binary(args.page), min_area=cfg.min_area)
        crops = pipeline.words(page, cfg)
        out_lines = [_predict(model, k, cfg, name, crop) for name, _, crop in crops]
    else:
        # one unreadable or blank word is skipped, not the whole batch
        out_lines = []
        for path in sorted(args.words):
            try:
                out_lines.append(_predict(model, k, cfg, path, pipeline.load_binary(path)))
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
        lines.append(f"{lab},{nn.per_class[lab]:.4f},{knn.per_class[lab]:.4f}")
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
    if args.loo:
        k = args.k if args.k is not None else cfg.k
        model = classifier.Model(vectors, labels, k=classifier.check_k(k, len(labels) - 1))
        nn_report = classifier.leave_one_out(model, k=1)
        knn_report = classifier.leave_one_out(model, k=k)
    else:
        model = classifier.load_model(args.model)
        k = classifier.check_k(args.k if args.k is not None else model.k, len(model))
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
    p.add_argument("--k", type=int, help="neighbour count (default from model, or config with --loo)")
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
    if args.command == "evaluate" and args.loo == bool(args.model):
        print("scriptid: error: evaluate needs --model or --loo, not both", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (OSError, ValueError, BrokenExecutor) as exc:
        print(f"scriptid: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
