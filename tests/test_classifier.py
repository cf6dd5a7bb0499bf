import re
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import knn_oracle, row_sum_distances
from scriptid import classifier
from scriptid.classifier import (
    Model,
    ModelFormatError,
    classify_knn,
    classify_nn,
    evaluate,
    leave_one_out,
    load_model,
    save_model,
)
from scriptid.features import FEATURE_NAMES


def make_model(rng, n_per_class=10, classes=("A", "B", "C"), spread=0.05, k=3):
    centers = rng.random((len(classes), 8)) * 4
    vectors = []
    labels = []
    for i, cls in enumerate(classes):
        vectors.append(centers[i] + rng.normal(0, spread, (n_per_class, 8)))
        labels.extend([cls] * n_per_class)
    return Model(vectors=np.vstack(vectors), labels=tuple(labels), k=k)


# ---------------------------------------------------------------- NN
def test_nn_exact_training_sample(rng):
    m = make_model(rng)
    label, d = classify_nn(m, m.vectors[17])
    assert label == m.labels[17]
    assert d == 0.0


def test_nn_separated_clusters(rng):
    m = Model(
        vectors=np.vstack([np.zeros((5, 8)), np.ones((5, 8)) * 10]),
        labels=("A",) * 5 + ("B",) * 5,
        k=3,
    )
    label, _ = classify_nn(m, np.full(8, 0.3))
    assert label == "A"
    label, _ = classify_nn(m, np.full(8, 9.5))
    assert label == "B"


def test_nn_tie_breaks_by_lowest_index():
    vecs = np.zeros((4, 8))
    vecs[0] = vecs[2] = 1.0  # duplicate points, different labels
    m = Model(vectors=vecs, labels=("Z", "M", "A", "M"), k=1)
    label, _ = classify_nn(m, np.ones(8))
    assert label == "Z"


def test_knn_k1_equals_nn(rng):
    m = make_model(rng, spread=1.0)
    for _ in range(100):
        q = rng.random(8) * 4
        assert classify_knn(m, q, 1)[0] == classify_nn(m, q)[0]


# ---------------------------------------------------------------- KNN
def test_knn_majority_two_to_one():
    vecs = np.zeros((3, 8))
    vecs[0, 0] = 0.1
    vecs[1, 0] = 0.2
    vecs[2, 0] = 0.3
    m = Model(vectors=vecs, labels=("A", "A", "B"), k=3)
    label, votes = classify_knn(m, np.zeros(8), 3)
    assert label == "A"
    assert votes == {"A": 2, "B": 1}


def test_knn_matches_full_sort_oracle(rng):
    for trial in range(100):
        m = make_model(rng, n_per_class=8, spread=2.0)
        q = rng.random(8) * 4
        for k in (3, 5, 7):
            assert classify_knn(m, q, k)[0] == knn_oracle(m.vectors, m.labels, q, k)


@st.composite
def grid_models_and_queries(draw):
    """Integer-grid samples: exact distances, frequent distance and vote ties."""
    n = draw(st.integers(1, 12))
    grid = st.integers(-3, 3)
    vectors = draw(hnp.arrays(np.float64, (n, 8), elements=grid))
    labels = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    q = draw(hnp.arrays(np.float64, 8, elements=grid))
    k = 2 * draw(st.integers(0, (n - 1) // 2)) + 1
    return Model(vectors=vectors, labels=labels, k=1), q, k


@settings(max_examples=300, deadline=None)
@given(case=grid_models_and_queries())
def test_knn_matches_oracle_on_integer_grid(case):
    m, q, k = case
    assert classify_knn(m, q, k)[0] == knn_oracle(m.vectors, m.labels, q, k)


def test_knn_vote_tie_broken_by_summed_distance():
    # query at origin; voters at 1, 2, 3, 4.5 (vote tie exercised with even k)
    vecs = np.zeros((5, 8))
    vecs[0, 0] = 1.0
    vecs[1, 0] = 2.0
    vecs[2, 0] = 3.0
    vecs[3, 0] = 4.5
    vecs[4, 0] = 9.0
    m = Model(vectors=vecs, labels=("B", "A", "A", "B", "C"), k=3)
    label, votes = classify_knn(m, np.zeros(8), 4)
    assert votes == {"A": 2, "B": 2}
    assert label == "A"  # A sum 5 < B sum 5.5
    m2 = Model(vectors=vecs, labels=("A", "B", "B", "A", "C"), k=3)
    label2, votes2 = classify_knn(m2, np.zeros(8), 4)
    assert votes2 == {"A": 2, "B": 2}
    assert label2 == "B"  # B sum 5 < A sum 5.5


def test_knn_vote_tie_equal_sums_falls_to_label_order():
    vecs = np.zeros((4, 8))
    vecs[0, 0] = 1.0
    vecs[1, 0] = 2.0
    vecs[2, 0] = -1.0
    vecs[3, 0] = -2.0
    m = Model(vectors=vecs, labels=("B", "B", "A", "A"), k=3)
    label, _ = classify_knn(m, np.zeros(8), 4)
    assert label == "A"  # both sum to 3 -> lexicographic


def test_knn_distance_tie_at_boundary_prefers_lower_index():
    vecs = np.zeros((4, 8))
    vecs[1, 0] = 1.0  # samples 1,2,3 all at distance 1
    vecs[2, 0] = -1.0
    vecs[3, 1] = 1.0
    vecs[0, 0] = 0.1
    m = Model(vectors=vecs, labels=("A", "B", "C", "D"), k=1)
    _, votes = classify_knn(m, np.zeros(8), 2)
    assert votes == {"A": 1, "B": 1}  # index 1 beats 2 and 3 at the boundary


def test_knn_rejects_bad_k(rng):
    m = make_model(rng, n_per_class=2)
    with pytest.raises(ValueError):
        classify_knn(m, np.zeros(8), 7)
    with pytest.raises(ValueError):
        classify_knn(m, np.zeros(8), 0)


@pytest.mark.parametrize(
    "query",
    [np.full(8, np.nan), np.r_[np.zeros(7), np.inf], [5.0], np.zeros((1, 8)), np.zeros(9)],
    ids=["nan", "inf", "length-1", "row-matrix", "length-9"],
)
def test_knn_and_nn_reject_bad_query(query):
    m = Model(vectors=np.eye(3, 8), labels=("B", "A", "C"), k=1)
    with pytest.raises(ValueError, match="query"):
        classify_knn(m, query, 1)
    with pytest.raises(ValueError, match="query"):
        classify_nn(m, query)


def test_prediction_invariant_under_training_permutation(rng):
    m = make_model(rng, n_per_class=12, spread=0.3)
    perm = rng.permutation(len(m))
    m2 = Model(vectors=m.vectors[perm], labels=tuple(m.labels[i] for i in perm), k=3)
    for _ in range(50):
        q = rng.random(8) * 4
        assert classify_knn(m, q, 3)[0] == classify_knn(m2, q, 3)[0]


# ---------------------------------------------------------------- evaluation
def test_evaluate_memorization_is_perfect(rng):
    m = make_model(rng)
    test = list(zip(m.vectors, m.labels))
    rep = evaluate(m, test, k=1)
    assert rep.overall == 1.0
    assert np.array_equal(rep.confusion, np.diag([10, 10, 10]))
    assert all(v == 1.0 for v in rep.per_class.values())


def test_evaluate_separable_clusters(rng):
    m = make_model(rng, spread=0.01)
    test = [(v + 0.001, lab) for v, lab in zip(m.vectors, m.labels)]
    rep = evaluate(m, test, k=3)
    assert rep.overall == 1.0


def test_evaluate_order_invariance(rng):
    m = make_model(rng, spread=2.0)
    test = [(rng.random(8) * 4, m.labels[int(rng.integers(len(m)))]) for _ in range(40)]
    r1 = evaluate(m, test, k=3)
    r2 = evaluate(m, list(reversed(test)), k=3)
    assert np.array_equal(r1.confusion, r2.confusion)
    assert r1.overall == r2.overall


def test_evaluate_confusion_row_sums(rng):
    m = make_model(rng, spread=3.0)
    test = [(rng.random(8) * 4, ("A", "B", "C")[i % 3]) for i in range(30)]
    rep = evaluate(m, test, k=3)
    sums = dict(zip(rep.label_order, rep.confusion.sum(axis=1)))
    assert sums == {"A": 10, "B": 10, "C": 10}
    assert rep.confusion.sum() == rep.total == 30
    assert rep.overall == pytest.approx(np.trace(rep.confusion) / 30)


def test_evaluate_rejects_empty(rng):
    with pytest.raises(ValueError):
        evaluate(make_model(rng), [], k=1)


def test_evaluate_handles_labels_absent_from_model(rng):
    m = make_model(rng, classes=("A", "B"))
    test = [(m.vectors[0], "A"), (rng.random(8) * 4, "Z")]
    rep = evaluate(m, test, k=1)
    assert "Z" in rep.label_order
    assert rep.per_class["Z"] == 0.0  # can never be predicted
    assert rep.confusion.sum() == 2


def test_report_rates_are_read_from_the_matrix(rng):
    # "C" is in the model but not in the test set: its row is all zeros
    m = make_model(rng, spread=3.0)
    test = [(rng.random(8) * 4, ("A", "B")[i % 2]) for i in range(25)]
    rep = evaluate(m, test, k=3)
    conf = rep.confusion
    assert rep.label_order == ("A", "B", "C")
    assert conf.dtype == np.int64 and conf[2].sum() == 0
    assert rep.total == 25 and type(rep.total) is int
    assert rep.overall == (conf[0, 0] + conf[1, 1] + conf[2, 2]) / 25
    assert rep.per_class == {"A": conf[0, 0] / 13, "B": conf[1, 1] / 12, "C": 0.0}
    assert all(type(v) is float for v in [rep.overall, *rep.per_class.values()])


def test_report_rates_of_a_hand_built_matrix():
    rep = classifier.EvalReport(["x", "y", "z"], [[3, 1, 0], [2, 2, 0], [0, 0, 0]])
    assert rep.label_order == ("x", "y", "z")
    assert rep.total == 8
    assert rep.overall == 5 / 8
    assert rep.per_class == {"x": 3 / 4, "y": 2 / 4, "z": 0.0}
    empty = classifier.EvalReport(("x",), np.zeros((1, 1), dtype=np.int64))
    assert (empty.total, empty.overall, empty.per_class) == (0, 0.0, {"x": 0.0})


def test_report_confusion_is_read_only(rng):
    m = make_model(rng)
    rep = leave_one_out(m, k=1)
    before = rep.overall
    with pytest.raises(ValueError, match="read-only"):
        rep.confusion[0, 1] += 1
    assert rep.overall == before
    # a hand-built report keeps its own copy
    counts = np.eye(2, dtype=np.int64)
    hand = classifier.EvalReport(("a", "b"), counts)
    counts[0, 1] = 5
    assert hand.total == 2 and not hand.confusion.flags.writeable


def test_reports_compare_and_hash_by_identity(rng):
    m = make_model(rng)
    r1, r2 = leave_one_out(m, k=1), leave_one_out(m, k=1)
    assert np.array_equal(r1.confusion, r2.confusion)
    assert r1 != r2 and r1 == r1
    assert len({r1, r2, r1}) == 2


# ---------------------------------------------------------------- leave-one-out
def test_loo_twin_pairs_are_perfect():
    vecs = np.vstack([np.zeros((2, 8)), np.ones((2, 8))])
    m = Model(vectors=vecs, labels=("A", "A", "B", "B"), k=1)
    rep = leave_one_out(m, k=1)
    assert rep.overall == 1.0


def test_loo_single_outlier_misclassified(rng):
    vecs = np.vstack([np.zeros((4, 8)), np.ones((4, 8)), np.full((1, 8), 0.1)])
    labels = ("A",) * 4 + ("B",) * 4 + ("B",)  # outlier labeled B inside cluster A
    m = Model(vectors=vecs, labels=labels, k=1)
    rep = leave_one_out(m, k=1)
    assert rep.total == 9
    assert rep.confusion.sum() == 9
    assert rep.per_class["A"] == 1.0
    assert rep.per_class["B"] == pytest.approx(4 / 5)


def test_loo_rejects_too_small_model():
    m = Model(vectors=np.zeros((3, 8)), labels=("A", "B", "C"), k=3)
    with pytest.raises(ValueError):
        leave_one_out(m, k=3)


@pytest.mark.parametrize("k", [-1, 0, 10])
def test_loo_rejects_k_outside_one_to_n_minus_one(rng, k):
    m = make_model(rng, n_per_class=5, classes=("A", "B"), k=1)
    with pytest.raises(ValueError, match=rf"k={k} must lie in 1\.\.9"):
        leave_one_out(m, k=k)
    assert leave_one_out(m, k=9).total == 10


@pytest.mark.parametrize("k", [True, False, 3.0, np.float64(3), "3", None])
def test_k_must_be_an_integer(rng, k):
    # save_model would write k=True as "k=True", which load_model rejects,
    # and np.partition raises TypeError for a float k
    m = make_model(rng, n_per_class=5, classes=("A", "B"), k=1)
    q = m.vectors[0]
    with pytest.raises(ValueError, match="k must be an integer"):
        Model(vectors=m.vectors, labels=m.labels, k=k)
    if k is not None:  # None means the model's k
        for call in (
            lambda: classify_knn(m, q, k),
            lambda: evaluate(m, [(q, m.labels[0])], k=k),
            lambda: leave_one_out(m, k=k),
            lambda: classifier.check_k(k, len(m)),
        ):
            with pytest.raises(ValueError, match="k must be an integer"):
                call()


def test_numpy_integer_k_round_trips(tmp_path, rng):
    m = make_model(rng, n_per_class=5, classes=("A", "B"), k=np.int64(3))
    path = tmp_path / "m.txt"
    save_model(str(path), m)
    assert "k=3\n" in path.read_text()
    assert load_model(str(path)).k == 3
    assert classify_knn(m, m.vectors[0], np.intp(5))[0] == m.labels[0]


def test_library_accepts_even_k_per_query(rng):
    # the CLI holds k to the Model rule; the library's per-call k may be even
    m = make_model(rng, n_per_class=5, classes=("A", "B"), k=1)
    q = m.vectors[0]
    assert sum(classify_knn(m, q, 2)[1].values()) == 2
    assert evaluate(m, [(q, m.labels[0])], k=2).total == 1
    with pytest.raises(ValueError, match="k must be odd, got 2"):
        classifier.check_k(2, len(m))
    assert classifier.check_k(9, len(m)) == 9


@st.composite
def grid_models(draw):
    """Integer-grid models of 1-150 samples (exact distances, frequent
    distance and vote ties) and a block size from one query row up."""
    n = draw(st.integers(1, 150))
    vectors = draw(hnp.arrays(np.float64, (n, 8), elements=st.integers(-2, 2)))
    labels = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)))
    cells = draw(st.sampled_from([1, 64, 500, classifier._BLOCK_CELLS]))
    return Model(vectors=vectors, labels=labels, k=1), cells


@settings(max_examples=40, deadline=None)
@given(case=grid_models())
def test_loo_matches_oracle_on_model_minus_sample(case):
    m, cells = case
    n = len(m)
    with mock.patch.object(classifier, "_BLOCK_CELLS", cells):
        for k in (1, 3, 5):
            if k > n - 1:
                with pytest.raises(ValueError, match="must lie in"):
                    leave_one_out(m, k=k)
                continue
            expected = [
                knn_oracle(np.delete(m.vectors, i, axis=0), m.labels[:i] + m.labels[i + 1 :], m.vectors[i], k)
                for i in range(n)
            ]
            kernel = classifier._neighbours(m, m.vectors, k, exclude_self=True)
            assert [classifier._vote(m, d, order, k)[0] for d, order in kernel] == expected
            rep = leave_one_out(m, k=k)
            index = {lab: i for i, lab in enumerate(rep.label_order)}
            confusion = np.zeros_like(rep.confusion)
            for (t, p), count in Counter(zip(m.labels, expected)).items():
                confusion[index[t], index[p]] = count
            assert np.array_equal(rep.confusion, confusion)


def test_evaluate_matches_per_vector_classify_knn(rng):
    vectors = rng.integers(-2, 3, (60, 8)).astype(np.float64)
    m = Model(vectors=vectors, labels=tuple("ABC"[i % 3] for i in range(60)), k=1)
    queries = np.vstack([rng.integers(-2, 3, (40, 8)), vectors[:10]]).astype(np.float64)
    truths = ["ABCD"[i % 4] for i in range(len(queries))]
    for cells in (1, 100, classifier._BLOCK_CELLS):
        with mock.patch.object(classifier, "_BLOCK_CELLS", cells):
            for k in (1, 3, 5):
                rep = evaluate(m, list(zip(queries, truths)), k=k)
                preds = [classify_knn(m, q, k)[0] for q in queries]
                index = {lab: i for i, lab in enumerate(rep.label_order)}
                confusion = np.zeros_like(rep.confusion)
                for (t, p), count in Counter(zip(truths, preds)).items():
                    confusion[index[t], index[p]] = count
                assert np.array_equal(rep.confusion, confusion)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), b=st.integers(1, 6))
def test_block_distances_have_row_sum_bits(seed, n, b):
    """Magnitudes 1e-6..1e6 in one row, duplicate samples, queries on samples."""
    rng = np.random.default_rng(seed)

    def mixed(rows):
        return 10.0 ** rng.uniform(-6, 6, (rows, 8)) * rng.choice([-1.0, 1.0], (rows, 8))

    vectors = mixed(n)
    vectors = np.vstack([vectors, vectors[rng.integers(0, n, n // 3 + 1)]])
    queries = np.vstack([mixed(b), vectors[rng.integers(0, len(vectors), b)]])
    m = Model(vectors=vectors, labels=("A",) * len(vectors), k=1)
    got = classifier._block_distances(m._by_feature, queries, np.empty((8, len(queries), len(m))))
    for q, row in zip(queries, got):
        assert row.tobytes() == row_sum_distances(vectors, q).tobytes()


def test_loo_memory_stays_in_blocks(rng):
    n = 4000
    m = Model(vectors=rng.random((n, 8)), labels=tuple("AB"[i % 2] for i in range(n)), k=1)
    tracemalloc.start()
    try:
        rep = leave_one_out(m, k=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total == n
    assert peak < 4 * 2**20  # a full n x n float64 distance matrix is 128 MB


# ---------------------------------------------------------------- model file
def test_model_round_trip_bytes_stable(tmp_path, rng):
    m = make_model(rng)
    p1 = str(tmp_path / "m1.txt")
    p2 = str(tmp_path / "m2.txt")
    save_model(p1, m)
    back = load_model(p1)
    save_model(p2, back)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    head = Path(p1).read_text().splitlines()[:3]
    assert head == ["version=1", f"k={m.k}", "features=" + ",".join(FEATURE_NAMES)]
    assert back.labels == m.labels
    assert back.k == m.k
    assert np.array_equal(back.vectors, m.vectors)


def test_models_compare_and_hash_by_identity():
    a = Model(vectors=np.eye(3, 8), labels=("A", "B", "C"), k=1)
    b = Model(vectors=np.eye(3, 8), labels=("A", "B", "C"), k=1)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_model_rejects_unknown_version(tmp_path, rng):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    text = p.read_text().replace("version=1", "version=9")
    p.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(str(p))


def test_model_rejects_feature_order_mismatch(tmp_path, rng):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    text = p.read_text().replace("features=" + ",".join(FEATURE_NAMES), "features=a,b,c")
    p.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(str(p))


def test_model_rejects_normalization_and_garbage(tmp_path, rng):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    p.write_text(p.read_text().replace("normalization=none", "normalization=zscore"))
    with pytest.raises(ModelFormatError):
        load_model(str(p))
    p.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(str(p))


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: [lines[1], lines[0]] + lines[2:],
        lambda lines: lines[:2] + [lines[1]] + lines[2:],
        lambda lines: lines[:3] + lines[4:],
        lambda lines: lines[:3] + ["normalization none"] + lines[4:],
    ],
    ids=["reordered", "repeated", "missing", "no-equals"],
)
def test_model_headers_come_in_save_order(tmp_path, rng, edit):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
    with pytest.raises(ModelFormatError, match="expected the headers version, k, features, normalization"):
        load_model(str(p))


def test_save_model_rejects_a_label_with_a_comma(tmp_path):
    m = Model(vectors=np.eye(3, 8), labels=("A", "B,C", "A"), k=1)
    p = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="label 'B,C' contains reserved characters"):
        save_model(str(p), m)
    assert not p.exists()


def test_model_rejects_short_sample_lines_and_no_samples(tmp_path, rng):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:4] + ["A,0.5,1.0,2.0"] + lines[4:]) + "\n")
    with pytest.raises(ModelFormatError, match="malformed sample line 'A,0.5,1.0,2.0'"):
        load_model(str(p))
    p.write_text("\n".join(lines[:4]) + "\n")
    with pytest.raises(ModelFormatError, match=f"^{re.escape(str(p))}: no samples$"):
        load_model(str(p))


def test_model_rejects_non_finite_vectors(tmp_path, rng):
    for bad in (np.nan, np.inf, -np.inf):
        v = np.zeros((3, 8))
        v[1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            Model(vectors=v, labels=("A", "B", "A"), k=1)
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    lines = p.read_text().splitlines()
    label, _, rest = lines[4].split(",", 2)
    lines[4] = ",".join([label, "inf", rest])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="finite"):
        load_model(str(p))


@pytest.mark.parametrize("k", ["1_1", "\u0663", " 3", "+3", "3 ", "3.0"],
                         ids=["separator", "arabic-indic", "space", "plus", "trailing", "float"])
def test_model_k_is_a_plain_ascii_decimal(tmp_path, rng, k):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    p.write_text(p.read_text(encoding="utf-8").replace("k=3", f"k={k}"), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="bad k"):
        load_model(str(p))


@pytest.mark.parametrize("value", ["0_5", "\u0660.5", " 0.5", "+0.5", "Infinity", "0x1p-1"],
                         ids=["separator", "arabic-indic", "space", "plus", "word", "hex"])
def test_model_features_are_plain_ascii_decimals(tmp_path, rng, value):
    p = tmp_path / "m.txt"
    save_model(str(p), make_model(rng))
    lines = p.read_text().splitlines()
    label, _, rest = lines[4].split(",", 2)
    lines[4] = ",".join([label, value, rest])
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match="non-numeric feature"):
        load_model(str(p))


def test_saved_models_use_only_the_plain_forms(tmp_path):
    vectors = np.array([[0.5, 1e-05, 2.5e16, -0.0, 0.0, 1.0, 3.0, 1 / 3]] * 3)
    p = tmp_path / "m.txt"
    save_model(str(p), Model(vectors=vectors, labels=("A", "B", "A"), k=1))
    back = load_model(str(p))
    assert back.vectors.tobytes() == vectors.tobytes() and back.k == 1


def test_model_keeps_a_private_read_only_copy(rng):
    vectors = rng.random((30, 8))
    m = Model(vectors=vectors, labels=tuple("AB"[i % 2] for i in range(30)), k=3)
    assert not m.vectors.flags.writeable
    with pytest.raises(ValueError):
        m.vectors[0, 0] = 1.0
    q = rng.random(8)
    before = classify_knn(m, q), classify_nn(m, q), leave_one_out(m).confusion
    vectors[:] = rng.random((30, 8))
    after = classify_knn(m, q), classify_nn(m, q), leave_one_out(m).confusion
    assert before[:2] == after[:2]
    assert np.array_equal(before[2], after[2])
    assert not np.array_equal(m.vectors, vectors)


def test_model_validation():
    with pytest.raises(ValueError):
        Model(vectors=np.zeros((2, 8)), labels=("A", "B"), k=5)  # k > n
    with pytest.raises(ValueError):
        Model(vectors=np.zeros((2, 7)), labels=("A", "B"), k=1)  # wrong width
    with pytest.raises(ValueError):
        Model(vectors=np.zeros((0, 8)), labels=(), k=1)  # empty
    with pytest.raises(ValueError):
        Model(vectors=np.zeros((2, 8)), labels=("A",), k=1)  # label count
    with pytest.raises(ValueError):
        Model(vectors=np.zeros((4, 8)), labels=("A",) * 4, k=2)  # even k
