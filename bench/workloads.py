"""The benchmark's three workloads.

Each workload generates its inputs from the seed with ``scriptid.corpus``
(``setup``), runs one closed-loop item (``execute``, the only timed
call) and checks that item's outputs against the generator's truth
(``verify``).  An operation is one word.  A word *fails* when its item
raises, when segmentation loses it, or when an output check breaks; a
word whose label differs from the truth is not a failure but lowers
``accuracy``.

* ``page``: grayscale pages run through ``preprocess`` and then
  ``classify --page`` via ``scriptid.cli.main``.  The only workload
  with Otsu, despeckling, deskew and segmentation; its words are
  small, so fixed per-word costs dominate.
* ``big_words``: word crops at heights 24, 64 and 256 px go straight
  through ``WordImage.from_image`` -> ``extract_features`` ->
  ``classify_knn``.  Morphology does almost all the work.
* ``train``: a degraded corpus run as ``extract`` -> ``train`` ->
  ``evaluate --loo`` via the CLI: many small file reads, the feature
  dump and model writes, and the O(n^2) leave-one-out.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scriptid import classifier, cli, corpus, features, netpbm, segmentation
from tracing import Patches, WordClock


@dataclass
class ItemRun:
    """The verified outcome of one execution of one item."""

    wall: float                      # seconds of the timed call
    words: int                       # operations attempted
    failed: int                      # operations failed
    right: int                       # labels equal to the generator's truth
    latencies: dict = field(default_factory=dict)  # op key -> seconds
    groups: dict = field(default_factory=dict)     # op key -> latency bucket
    digest: str = ""                 # sha256 of the item's outputs
    errors: list = field(default_factory=list)
    scale: float = 1.0               # machine-speed factor of the item's segment


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _vec_bytes(vec) -> bytes:
    return ",".join(repr(float(x)) for x in vec).encode()


def build_model(seed: int, bank, per_class: int) -> classifier.Model:
    """A clean training set like ``gen-corpus`` (heights 10-36 px), k = 3."""
    rng = random.Random(f"model-{seed}")
    vectors, labels = [], []
    for label in sorted(bank):
        for i in range(per_class):
            img, _, _ = corpus.render_word(rng, bank, label, n_glyphs=1 + i % 6,
                                           height=rng.randint(10, 36))
            vectors.append(features.extract_features(features.WordImage.from_image(img)))
            labels.append(label)
    return classifier.Model(vectors=np.array(vectors), labels=tuple(labels), k=3)


class Workload:
    """Interface: ``setup`` -> items; ``execute(item)`` -> (wall, raw);
    ``verify(item, wall, raw)`` -> ``ItemRun``.  ``hooks`` installs the
    per-word clock for the whole timed phase."""

    name = ""

    def __init__(self, small: bool):
        self.small = small
        self.items: list = []
        self.input_digest = ""

    def hooks(self, patches: Patches) -> None:
        pass


# ---------------------------------------------------------------------------
# page


@dataclass
class PageItem:
    key: str
    pgm: str
    pbm: str
    pred: str
    truth: list  # truth labels per line, in reading order

    @property
    def words(self) -> int:
        return sum(len(line) for line in self.truth)


class PageWorkload(Workload):
    """Generated grayscale pages through ``preprocess`` + ``classify --page``."""

    name = "page"

    def __init__(self, small: bool):
        super().__init__(small)
        self.n_pages, self.n_lines, self.model_per_class = (2, 6, 30) if small else (12, 30, 150)
        self.canvas = (40 * self.n_lines + 80, 1000)
        self.clock = WordClock(features, classifier, "classify_knn", capture_vectors=True)
        self.model_path = ""

    def setup(self, seed: int, workdir: Path) -> None:
        bank = corpus.load_glyphs()
        self.model_path = str(workdir / "model.txt")
        classifier.save_model(self.model_path, build_model(seed, bank, self.model_per_class))
        rng = random.Random(f"page-{seed}")
        items, parts = [], [Path(self.model_path).read_bytes()]
        for i in range(self.n_pages):
            page, truth = self._render(rng, bank)
            page = corpus.sprinkle_speckles(rng, page, count=200)
            angle = rng.choice((-1.0, 1.0)) * rng.uniform(1.8, 2.2)
            page = segmentation.rotate_binary(page, angle)
            npr = np.random.default_rng(rng.randrange(2**32))
            gray = np.where(page == 1, 40.0, 210.0) + npr.normal(0.0, 16.0, page.shape)
            gray = np.clip(np.rint(gray), 0, 255).astype(np.uint8)
            stem = workdir / f"page{i:02d}"
            netpbm.write_pgm(f"{stem}.pgm", gray)
            lines = [[] for _ in truth.line_bands]
            for w in truth.words:
                lines[w.line_index].append(w.label)
            items.append(PageItem(f"page{i:02d}", f"{stem}.pgm", f"{stem}.pbm",
                                  f"{stem}.pred.txt", lines))
            parts += [gray.tobytes(), repr(lines).encode()]
        self.items = items
        self.input_digest = sha256(*parts)

    def _render(self, rng: random.Random, bank):
        """A page on a fixed canvas, so that every page costs the same to
        rotate and deskew; drawn again in the rare case it does not fit."""
        height, width = self.canvas
        while True:
            page, truth = corpus.render_page(rng, bank, n_lines=self.n_lines,
                                             words_per_line=(10, 10), heights=(12, 28))
            h, w = page.shape
            if h <= height and w <= width:
                canvas = np.zeros(self.canvas, dtype=np.uint8)
                top, left = (height - h) // 2, (width - w) // 2
                canvas[top : top + h, left : left + w] = page
                return canvas, truth

    def hooks(self, patches: Patches) -> None:
        self.clock.install(patches)

    def execute(self, item: PageItem):
        self.clock.reset()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc_pre = cli.main(["preprocess", item.pgm, "--out", item.pbm])
            rc_cls = cli.main(["classify", "--model", self.model_path,
                               "--page", item.pbm, "--out", item.pred])
        wall = time.perf_counter() - start
        return wall, (rc_pre, rc_cls, list(self.clock.latencies), list(self.clock.vectors))

    def verify(self, item: PageItem, wall: float, raw) -> ItemRun:
        rc_pre, rc_cls, latencies, vectors = raw
        words = item.words
        run = ItemRun(wall=wall, words=words, failed=0, right=0)
        if rc_pre != 0 or rc_cls != 0:
            run.failed = words
            run.errors.append(f"{item.key}: CLI exit codes {rc_pre}, {rc_cls}")
            return run
        rows = [line.split(",") for line in Path(item.pred).read_text().splitlines()]
        if len(latencies) != len(rows) or len(vectors) != len(rows):
            run.errors.append(f"{item.key}: {len(rows)} predictions but "
                              f"{len(latencies)} timed words")
            run.failed = words
            return run
        predicted: dict[int, list] = {}
        for (name, label, _conf, _secs), lat in zip(rows, latencies):
            li = int(name[1:4])
            predicted.setdefault(li, []).append(label)
            run.latencies[(item.key, name)] = lat
        for li, truth in enumerate(item.truth, start=1):
            got = predicted.get(li, [])
            if len(got) != len(truth):
                run.failed += len(truth)  # lost, merged or split by segmentation
            else:
                run.right += sum(a == b for a, b in zip(got, truth))
        if len(predicted) != len(item.truth):
            run.errors.append(f"{item.key}: {len(predicted)} lines, expected {len(item.truth)}")
        if run.failed:
            run.errors.append(f"{item.key}: {run.failed} words lost by segmentation")
        report = Path(item.pbm + ".report.txt").read_bytes()
        parts = [report] + [",".join(r[:3]).encode() + b";" + _vec_bytes(v)
                            for r, v in zip(rows, vectors)]
        run.digest = sha256(*parts)
        return run


# ---------------------------------------------------------------------------
# big_words


@dataclass
class CropItem:
    key: str
    label: str
    height: int
    img: np.ndarray
    words = 1


class BigWordsWorkload(Workload):
    """Word crops at 24/64/256 px straight through features and KNN.

    A few 256 px crops take ten times the bucket's median, depending on
    which glyphs they hold, so the pool is stratified: for every height,
    script and glyph count n, it holds all cyclic shifts of a seeded
    glyph order, each glyph n times.  The seed changes the words but
    not how often each glyph occurs.  64 px gets two cycles, so the
    word-latency median falls inside the 64 px bucket and the 90th
    percentile inside the 256 px bucket.
    """

    name = "big_words"
    CYCLES = {24: 1, 64: 2, 256: 1}

    def __init__(self, small: bool):
        super().__init__(small)
        self.glyph_counts = (1, 2) if small else (1, 2, 3, 4, 5, 6)
        self.model_per_class = 30 if small else 150
        self.model = None

    def setup(self, seed: int, workdir: Path) -> None:
        bank = corpus.load_glyphs()
        self.model = build_model(seed, bank, self.model_per_class)
        rng = random.Random(f"big_words-{seed}")
        items = []
        for height, cycles in self.CYCLES.items():
            for label in sorted(bank):
                glyphs = [corpus.scale_to_height(g, height) for g in bank[label]]
                gap = 0 if label == corpus.HEADLINE_CLASS else 1
                for n in self.glyph_counts:
                    for cycle in range(cycles):
                        order = rng.sample(range(len(glyphs)), len(glyphs))
                        shifts = range(2) if self.small else range(len(glyphs))
                        for c in shifts:
                            ids = [order[(c + j) % len(glyphs)] for j in range(n)]
                            img = corpus.compose_word([glyphs[i] for i in ids], gap)
                            key = f"h{height}-{label}-{n}-{cycle}-{c}"
                            items.append(CropItem(key, label, height, img))
        # interleave heights so that a partial pass has the pool's mix
        rng.shuffle(items)
        self.items = items
        self.input_digest = sha256(self.model.vectors.tobytes(),
                                   *(i.key.encode() + i.img.tobytes() for i in items))

    def execute(self, item: CropItem):
        start = time.perf_counter()
        word = features.WordImage.from_image(item.img)
        vec = features.extract_features(word)
        label, votes = classifier.classify_knn(self.model, vec)
        wall = time.perf_counter() - start
        return wall, (label, votes, vec)

    def verify(self, item: CropItem, wall: float, raw) -> ItemRun:
        label, votes, vec = raw
        run = ItemRun(wall=wall, words=1, failed=0, right=int(label == item.label))
        run.latencies[item.key] = wall
        run.groups[item.key] = f"h{item.height}"
        if not np.all(np.isfinite(vec)):
            run.failed = 1
            run.errors.append(f"{item.key}: non-finite feature vector")
        run.digest = sha256(label.encode(), repr(sorted(votes.items())).encode(), _vec_bytes(vec))
        return run


# ---------------------------------------------------------------------------
# train


@dataclass
class CorpusItem:
    key: str
    root: str
    truth: list  # (root-relative name, label) in manifest order

    @property
    def words(self) -> int:
        return len(self.truth)


class TrainWorkload(Workload):
    """A degraded corpus through ``extract`` -> ``train`` -> ``evaluate --loo``."""

    name = "train"

    def __init__(self, small: bool):
        super().__init__(small)
        self.per_class = 20 if small else 300
        self.clock = WordClock(features, features, "extract_features", capture_vectors=False)
        self.out = ""

    def setup(self, seed: int, workdir: Path) -> None:
        root = workdir / "corpus"
        rows = corpus.generate_corpus(root, per_class=self.per_class, seed=seed,
                                      heights=(10, 36), skew=5.0, noise=0.005)
        truth = [(name, label) for name, label, *_ in rows]
        self.items = [CorpusItem("corpus", str(root), truth)]
        self.out = str(workdir / "out")
        self.input_digest = sha256(*((root / name).read_bytes() for name, _ in truth))

    def hooks(self, patches: Patches) -> None:
        self.clock.install(patches)

    def execute(self, item: CorpusItem):
        self.clock.reset()
        dump, model, report, conf = (f"{self.out}.{ext}"
                                     for ext in ("dump.csv", "model.txt", "report.txt", "conf.csv"))
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rcs = (
                cli.main(["extract", item.root, "--out", dump]),
                cli.main(["train", dump, "--out", model, "--k", "3"]),
                cli.main(["evaluate", dump, "--loo", "--report", report, "--csv", conf]),
            )
        wall = time.perf_counter() - start
        return wall, (rcs, list(self.clock.latencies), dump, model, report, conf)

    def verify(self, item: CorpusItem, wall: float, raw) -> ItemRun:
        rcs, latencies, dump, model_path, report, conf = raw
        words = item.words
        run = ItemRun(wall=wall, words=words, failed=0, right=0)
        if any(rcs):
            run.failed = words
            run.errors.append(f"{item.key}: CLI exit codes {rcs}")
            return run
        dump_bytes = Path(dump).read_bytes()
        entries = list(csv.reader(io.StringIO(dump_bytes.decode())))
        names = [e[0] for e in entries]
        vectors = np.array([[float(x) for x in e[2:]] for e in entries])
        expected = dict(item.truth)
        present = set(names)
        run.failed = sum(1 for name in expected if name not in present)
        if run.failed:
            run.errors.append(f"{item.key}: {run.failed} words missing from the dump")
        if any(expected.get(e[0]) != e[1] for e in entries):
            run.errors.append(f"{item.key}: dump labels differ from the corpus manifest")
        if vectors.shape != (len(entries), len(features.FEATURE_NAMES)) or \
                not np.all(np.isfinite(vectors)):
            run.errors.append(f"{item.key}: malformed feature vectors in the dump")
        if len(latencies) != len(entries):
            run.errors.append(f"{item.key}: {len(entries)} dump lines but "
                              f"{len(latencies)} timed words")
        else:
            run.latencies = {(item.key, n): lat for n, lat in zip(names, latencies)}
        model = classifier.load_model(model_path)
        if model.labels != tuple(e[1] for e in entries) or \
                not np.array_equal(model.vectors, vectors) or model.k != 3:
            run.errors.append(f"{item.key}: the model does not load back to the dump")
        with open(conf, newline="") as fh:
            matrix = [[int(x) for x in row[1:]] for row in list(csv.reader(fh))[1:]]
        total = sum(map(sum, matrix))
        run.right = sum(matrix[i][i] for i in range(len(matrix)))
        if total != len(entries):
            run.errors.append(f"{item.key}: LOO classified {total} of {len(entries)} words")
        run.digest = sha256(dump_bytes, Path(model_path).read_bytes(), Path(report).read_bytes())
        return run


WORKLOADS = {w.name: w for w in (PageWorkload, BigWordsWorkload, TrainWorkload)}

