"""Interposition on scriptid's public functions.

Two instruments are installed by setting module attributes and put back
afterwards; no library code changes:

* ``WordClock`` times one word's library calls inside a CLI command
  (``WordImage.from_image`` entry to the last call of the word).  It
  is on in every run, because per-word latency on the CLI workloads
  comes from the benchmark's own timer, not from the CLI's output.
* ``Tracer`` records a span with its parent around every public
  function of ``cli``, ``netpbm``, ``imaging``, ``segmentation``,
  ``features``, ``morphology`` and ``classifier``.  A layer's self
  time is its spans' durations minus the time their child spans cover.

Each wrapper goes on the attribute that callers look up.  Some modules
import functions by name: ``features`` holds its own references to
``fill_holes``, ``opening_by_reconstruction`` and
``connected_components``, and ``segmentation`` to
``connected_components``, so those names are patched in every module
that holds them.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Per-layer span names, in the order BENCHMARK.json lists them.
DIRECTIONS = (0, 45, 90, 135)
SPAN_NAMES = (
    "netpbm.read_s",
    "netpbm.write_s",
    "imaging.otsu_s",
    "imaging.despeckle_s",
    "imaging.components_s",
    "segmentation.deskew_s",
    "segmentation.segment_s",
    "features.word_image_s",
    "features.regional_s",
    "features.extract_s",
    "features.dump_s",
    *(f"morphology.erode_s.{d}" for d in DIRECTIONS),
    *(f"morphology.reconstruct_s.{d}" for d in DIRECTIONS),
    "morphology.fill_holes_s",
    "classifier.knn_s",
    "classifier.loo_s",
    "classifier.model_io_s",
    "cli.self_s",
)


def calls_name(span_name: str) -> str:
    """``morphology.erode_s.45`` -> ``morphology.erode_calls.45``."""
    layer, _, tag = span_name.partition("_s")
    return f"{layer}_calls{tag}"


class Patches:
    """Replace attributes; restore them in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def _wrap_classmethod(owner, name, make):
    """Wrap the function behind a classmethod; returns a new classmethod."""
    return classmethod(make(vars(owner)[name].__func__))


class WordClock:
    """Latency of each word's library calls inside one CLI command.

    The clock starts when ``WordImage.from_image`` is entered and stops
    when ``stop_attr`` of ``stop_owner`` returns.  With
    ``capture_vectors`` it also keeps every vector ``extract_features``
    returns, for the output digest.
    """

    def __init__(self, features, stop_owner, stop_attr: str, capture_vectors: bool):
        self._features = features
        self._stop = (stop_owner, stop_attr)
        self._capture = capture_vectors
        self._start = 0.0
        self.latencies: list[float] = []
        self.vectors: list = []

    def reset(self) -> None:
        self.latencies = []
        self.vectors = []

    def install(self, patches: Patches) -> None:
        clock = self
        perf = time.perf_counter

        def make_start(fn):
            def from_image(cls, img):
                clock._start = perf()
                return fn(cls, img)
            return from_image

        word_cls = self._features.WordImage
        patches.set(word_cls, "from_image", _wrap_classmethod(word_cls, "from_image", make_start))

        if self._capture:
            extract = self._features.extract_features

            def extract_features(*args, **kwargs):
                vec = extract(*args, **kwargs)
                clock.vectors.append(vec)
                return vec

            patches.set(self._features, "extract_features", extract_features)

        owner, attr = self._stop
        stop_fn = getattr(owner, attr)

        def stop(*args, **kwargs):
            out = stop_fn(*args, **kwargs)
            clock.latencies.append(perf() - clock._start)
            return out

        patches.set(owner, attr, stop)


def _se_direction(args, kwargs) -> int:
    se = args[1] if len(args) > 1 else kwargs["se"]
    return se.direction


class Tracer:
    """Spans around scriptid's public functions, folded into per-layer totals.

    Spans are kept in memory as ``[name, parent, t0, t1]`` until the
    timed segment closes, then folded into ``self_ns`` / ``calls`` by
    :meth:`fold`.  ``pixels`` counts the pixels of every image passed
    to ``erode`` and ``reconstruct_by_dilation``.
    """

    def __init__(self, modules):
        self._m = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.self_ns: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.pixels = 0

    def _run(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, parent, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def fold(self, scale: float = 1.0) -> None:
        """Add the recorded spans' self times, times ``scale``, and call
        counts to the totals."""
        spans = self.spans
        child = [0] * len(spans)
        for _, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, parent, t0, t1) in enumerate(spans):
            self.self_ns[name] += ((t1 - t0) - child[i]) * scale
            # a span nested in one of the same layer is not a new call
            if parent < 0 or spans[parent][0] != name:
                self.calls[name] += 1
        self.spans = []

    def installed(self) -> Patches:
        """Install every wrapper; the returned ``Patches`` removes them on exit."""
        m = self._m
        patches = Patches()
        fixed = [
            ((m.netpbm,), ("read", "read_gray", "read_binary"), "netpbm.read_s"),
            ((m.netpbm,), ("write_pbm", "write_pgm"), "netpbm.write_s"),
            ((m.imaging,), ("otsu_threshold", "binarize"), "imaging.otsu_s"),
            ((m.imaging,), ("remove_small_objects",), "imaging.despeckle_s"),
            ((m.imaging, m.features, m.segmentation), ("connected_components",),
             "imaging.components_s"),
            ((m.segmentation,), ("deskew", "rotate_binary"), "segmentation.deskew_s"),
            ((m.segmentation,), ("segment_lines", "segment_words"), "segmentation.segment_s"),
            ((m.features,), ("extract_features",), "features.extract_s"),
            ((m.features,), ("aar", "pixel_ratio", "avg_eccentricity", "avg_extent"),
             "features.regional_s"),
            ((m.features,), ("format_feature_line", "parse_feature_line"), "features.dump_s"),
            ((m.morphology, m.features), ("fill_holes",), "morphology.fill_holes_s"),
            ((m.classifier,), ("classify_knn", "classify_nn", "evaluate"), "classifier.knn_s"),
            ((m.classifier,), ("leave_one_out",), "classifier.loo_s"),
            ((m.classifier,), ("save_model", "load_model"), "classifier.model_io_s"),
            ((m.cli,), ("main",), "cli.self_s"),
        ]
        for owners, attrs, name in fixed:
            for owner in owners:
                for attr in attrs:
                    patches.set(owner, attr, self._fixed(name, getattr(owner, attr)))

        for owner in (m.morphology, m.features):
            patches.set(owner, "opening_by_reconstruction",
                        self._opening(getattr(owner, "opening_by_reconstruction")))
        patches.set(m.morphology, "erode", self._erode(m.morphology.erode))
        patches.set(m.morphology, "reconstruct_by_dilation",
                    self._reconstruct(m.morphology.reconstruct_by_dilation))

        word_cls = m.features.WordImage
        run = self._run

        def make_from_image(fn):
            def from_image(cls, img):
                return run("features.word_image_s", fn, (cls, img), {})
            return from_image

        patches.set(word_cls, "from_image",
                    _wrap_classmethod(word_cls, "from_image", make_from_image))
        return patches

    def _fixed(self, name, fn):
        run = self._run

        def traced(*args, **kwargs):
            return run(name, fn, args, kwargs)
        return traced

    def _opening(self, fn):
        run = self._run

        def traced(*args, **kwargs):
            name = f"morphology.reconstruct_s.{_se_direction(args, kwargs)}"
            return run(name, fn, args, kwargs)
        return traced

    def _erode(self, fn):
        def traced(*args, **kwargs):
            self.pixels += args[0].size
            name = f"morphology.erode_s.{_se_direction(args, kwargs)}"
            return self._run(name, fn, args, kwargs)
        return traced

    def _reconstruct(self, fn):
        def traced(*args, **kwargs):
            self.pixels += args[0].size
            # reconstruction belongs to its caller: the directional opening
            # it finishes, or the hole fill it implements
            parent = self._parent_name() or ""
            if parent.startswith("morphology.reconstruct_s.") or parent == "morphology.fill_holes_s":
                name = parent
            else:
                name = "morphology.reconstruct_s.other"
            return self._run(name, fn, args, kwargs)
        return traced
