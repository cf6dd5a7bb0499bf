"""Nearest-neighbour and k-nearest-neighbour classification.

Distances are plain Euclidean over the raw 8-feature vectors (no
normalization; the model header records that explicitly).  All
tie-breaks are deterministic: distance ties at the k-boundary go to the
lower sample index, vote ties to the tied label with the smallest
summed voter distance, then to lexicographic label order.

Every decision (``classify_nn``, ``classify_knn``, ``evaluate`` and
``leave_one_out``) goes through one kernel:

- Distances from a block of queries to all n samples, as a (B, n)
  array.  The model keeps a feature-major copy of its vectors, and the
  eight squared differences add in the fixed order
  ``((f0+f1)+(f2+f3))+((f4+f5)+(f6+f7))``.  That is numpy's pairwise
  order for an 8-element row, so each distance has the same bits as
  ``np.sqrt(((V - q) ** 2).sum(axis=1))``.
- The exact stable top k of each row without sorting it:
  ``np.partition`` finds the k-th smallest distance, and only the
  entries at or below it are ordered, by distance and then by index.
  That is the first k of a stable argsort of the row.
- The vote over those k samples.

A block holds about ``_BLOCK_CELLS`` distances (at least one query
row), so ``evaluate`` and ``leave_one_out`` never hold an n x n matrix:
a block's eight squared terms take 512 KiB for any model of up to 8192
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from scriptid._util import is_int, parse_float, parse_int, write_text_atomic
from scriptid.features import FEATURE_NAMES

__all__ = [
    "EvalReport",
    "Model",
    "ModelFormatError",
    "check_k",
    "classify_knn",
    "classify_nn",
    "evaluate",
    "leave_one_out",
    "load_model",
    "save_model",
]

MODEL_VERSION = 1
# distances per query block (64 KiB of float64); the eight squared terms
# take eight times that.  Larger blocks cost memory for no measurable speed.
_BLOCK_CELLS = 8192

class ModelFormatError(ValueError):
    """Unreadable, unknown-version or incompatible model file."""


def _k_in_range(k: int, n: int) -> int:
    """``k`` if it is an integer (not a bool) in 1..n; else ``ValueError``."""
    if not is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must lie in 1..{n}")
    return k


def check_k(k: int, n: int) -> int:
    """``k`` if a model of ``n`` samples may keep it (odd, in 1..n); else ``ValueError``."""
    if _k_in_range(k, n) % 2 == 0:
        raise ValueError(f"k must be odd, got {k}")
    return k


@dataclass(frozen=True, eq=False)
class Model:
    """Labeled training samples plus classifier metadata.

    ``vectors`` is the model's own read-only copy of the caller's array,
    so a later write to that array changes no prediction.  Models
    compare and hash by identity.
    """

    vectors: np.ndarray  # (n, 8) float64, read-only
    labels: tuple[str, ...]
    k: int = 3
    label_set: tuple[str, ...] = field(init=False)
    _by_feature: np.ndarray = field(init=False, repr=False)  # (8, n)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"vectors must be (n, {len(FEATURE_NAMES)}), got {v.shape}")
        if v.shape[0] == 0:
            raise ValueError("model needs at least one sample")
        if not np.isfinite(v).all():
            raise ValueError("feature vectors must be finite (no nan or inf)")
        if len(self.labels) != v.shape[0]:
            raise ValueError("one label per sample required")
        check_k(self.k, v.shape[0])
        by_feature = np.ascontiguousarray(v.T)
        v.flags.writeable = False
        by_feature.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_by_feature", by_feature)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "label_set", tuple(sorted(set(self.labels))))

    def __len__(self) -> int:
        return self.vectors.shape[0]


def _query(v) -> np.ndarray:
    """A caller's query as a float64 vector; raises unless it is 8 finite values."""
    q = np.asarray(v, dtype=np.float64)
    if q.shape != (len(FEATURE_NAMES),):
        raise ValueError(f"query must have shape ({len(FEATURE_NAMES)},), got {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("query must be finite (no nan or inf)")
    return q


def _block_distances(by_feature: np.ndarray, queries: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(B, n) distances from ``queries`` (B, 8) to the samples held
    feature-major in ``by_feature`` (8, n), computed in ``buf`` (8, B, n)."""
    t = np.subtract(by_feature[:, None, :], queries.T[:, :, None], out=buf)
    t *= t
    # ((f0+f1)+(f2+f3))+((f4+f5)+(f6+f7)): numpy's pairwise order for a row of 8
    t[0] += t[1]
    t[2] += t[3]
    t[0] += t[2]
    t[4] += t[5]
    t[6] += t[7]
    t[4] += t[6]
    t[0] += t[4]
    return np.sqrt(t[0], out=t[0])


def _neighbours(model: Model, queries: np.ndarray, k: int, exclude_self: bool = False):
    """Yield ``(dists, order)`` per query row: its distances to every
    sample and its nearest samples, nearest first.

    ``order`` holds every sample at or below the k-th smallest distance,
    ordered by distance, then index, so its first k are the first k of a
    stable argsort of the row.  With ``exclude_self`` query i is sample
    i, and its own distance is ``inf``, so it comes last.  ``dists`` is a
    view into a buffer that the next block overwrites: use it before
    asking for the next row.
    """
    n = len(model)
    step = max(1, _BLOCK_CELLS // n)
    buf = np.empty((len(FEATURE_NAMES), min(step, len(queries)), n))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        dists = _block_distances(model._by_feature, block, buf[:, : len(block)])
        if exclude_self:
            rows = np.arange(len(block))
            dists[rows, start + rows] = np.inf
        for row, kth in zip(dists, np.partition(dists, k - 1, axis=1)[:, k - 1]):
            near = np.flatnonzero(row <= kth)  # ascending index
            yield row, near[np.argsort(row[near], kind="stable")]


def _vote(model: Model, dists: np.ndarray, order: np.ndarray, k: int) -> tuple[str, dict[str, int]]:
    voters = order[:k]
    votes: dict[str, int] = {}
    dist_sum: dict[str, float] = {}
    for i in voters:
        lab = model.labels[i]
        votes[lab] = votes.get(lab, 0) + 1
        dist_sum[lab] = dist_sum.get(lab, 0.0) + float(dists[i])
    top = max(votes.values())
    tied = [lab for lab, n in votes.items() if n == top]
    winner = min(tied, key=lambda lab: (dist_sum[lab], lab))
    return winner, votes


def classify_nn(model: Model, v) -> tuple[str, float]:
    """Label of the closest training sample (ties: lowest index)."""
    dists, order = next(_neighbours(model, _query(v)[None, :], 1))
    i = order[0]
    return model.labels[i], float(dists[i])


def classify_knn(model: Model, v, k: int | None = None) -> tuple[str, dict[str, int]]:
    """Majority label among the k nearest samples, plus the vote counts."""
    k = _k_in_range(model.k if k is None else k, len(model))
    dists, order = next(_neighbours(model, _query(v)[None, :], k))
    return _vote(model, dists, order, k)


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix and accuracies over a labeled test set."""

    label_order: tuple[str, ...]
    confusion: np.ndarray  # confusion[i][j] = count of true-i predicted-j
    per_class: dict[str, float]
    overall: float
    total: int


def _make_report(label_order, true_labels, pred_labels) -> EvalReport:
    index = {lab: i for i, lab in enumerate(label_order)}
    conf = np.zeros((len(label_order), len(label_order)), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        conf[index[t], index[p]] += 1
    row_sums = conf.sum(axis=1)
    per_class = {}
    for i, lab in enumerate(label_order):
        per_class[lab] = float(conf[i, i] / row_sums[i]) if row_sums[i] else 0.0
    total = int(conf.sum())
    overall = float(np.trace(conf) / total) if total else 0.0
    return EvalReport(
        label_order=tuple(label_order),
        confusion=conf,
        per_class=per_class,
        overall=overall,
        total=total,
    )


def evaluate(model: Model, test: list[tuple[np.ndarray, str]], k: int | None = None) -> EvalReport:
    """Classify a labeled test set; report confusion and accuracies."""
    if not test:
        raise ValueError("test set must be nonempty")
    k = _k_in_range(model.k if k is None else k, len(model))
    queries = np.array([_query(vec) for vec, _ in test])
    preds = [_vote(model, dists, order, k)[0] for dists, order in _neighbours(model, queries, k)]
    truths = [lab for _, lab in test]
    label_order = sorted(set(model.label_set) | set(truths))
    return _make_report(label_order, truths, preds)


def leave_one_out(model: Model, k: int | None = None) -> EvalReport:
    """Classify each sample against the model minus itself."""
    k = _k_in_range(model.k if k is None else k, len(model) - 1)
    neighbours = _neighbours(model, model.vectors, k, exclude_self=True)
    preds = [_vote(model, dists, order, k)[0] for dists, order in neighbours]
    return _make_report(model.label_set, model.labels, preds)


# ---------------------------------------------------------------------------
# model file format: line-oriented text, version header + one sample per line


def save_model(path: str, model: Model) -> None:
    for lab in model.label_set:
        if any(ch in lab for ch in ",=\n\r"):
            raise ValueError(f"label {lab!r} contains reserved characters")
    lines = [
        f"version={MODEL_VERSION}",
        f"k={model.k}",
        "features=" + ",".join(FEATURE_NAMES),
        "normalization=none",
    ]
    for vec, lab in zip(model.vectors, model.labels):
        lines.append(lab + "," + ",".join(repr(float(x)) for x in vec))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        raw = [ln.rstrip("\n") for ln in fh if ln.strip()]
    headers: dict[str, str] = {}
    body_at = 0
    for line in raw:
        key, eq, value = line.partition("=")
        if not eq or "," in key:
            break
        if key in headers:
            raise ModelFormatError(f"{path}: duplicate header {key!r}")
        if key not in ("version", "k", "features", "normalization"):
            raise ModelFormatError(f"{path}: unknown header {key!r}")
        headers[key] = value
        body_at += 1
    for required in ("version", "k", "features", "normalization"):
        if required not in headers:
            raise ModelFormatError(f"{path}: missing header {required!r}")
    if headers["version"] != str(MODEL_VERSION):
        raise ModelFormatError(f"{path}: unsupported version {headers['version']!r}")
    if headers["normalization"] != "none":
        raise ModelFormatError(f"{path}: unsupported normalization {headers['normalization']!r}")
    feature_order = tuple(headers["features"].split(","))
    if feature_order != FEATURE_NAMES:
        raise ModelFormatError(
            f"{path}: feature order mismatch: {feature_order} != {FEATURE_NAMES}"
        )
    try:
        k = parse_int(headers["k"])
    except ValueError:
        raise ModelFormatError(f"{path}: bad k {headers['k']!r}") from None

    vectors = []
    labels = []
    for line in raw[body_at:]:
        parts = line.split(",")
        if len(parts) != 1 + len(FEATURE_NAMES):
            raise ModelFormatError(f"{path}: malformed sample line {line!r}")
        labels.append(parts[0])
        try:
            vectors.append([parse_float(x) for x in parts[1:]])
        except ValueError:
            raise ModelFormatError(f"{path}: non-numeric feature in {line!r}") from None
    if not vectors:
        raise ModelFormatError(f"{path}: no samples")
    try:
        return Model(
            vectors=np.array(vectors, dtype=np.float64),
            labels=tuple(labels),
            k=k,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
