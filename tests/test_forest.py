import dataclasses
import hashlib
import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolerank import forest
from rolerank.corpus import build_corpus
from rolerank.embedding import EmbeddingConfig, finalize, train_skipgram
from rolerank.evaluation import evaluate, split_train_test
from rolerank.forest import (
    ForestConfig,
    _sort_codes,
    _split_batch,
    classifier_from_json,
    load_classifier,
    predict_proba,
    save_classifier,
    train_forest,
)
from rolerank.pipeline import train_role_models
from synth import (
    best_split,
    bootstrap_reference,
    candidate_set_reference,
    classifier_to_json,
    gini_decrease,
    make_labeled_triples,
    predict_reference,
    preorder_json,
)


def xor_dataset(n_per_cluster=50, noise=0.1, seed=17):
    """Four gaussian clusters in 2-d with XOR labels."""
    rng = np.random.default_rng(seed)
    centers = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        X.append(rng.normal(loc=(cx, cy), scale=noise, size=(n_per_cluster, 2)))
        y.extend([label] * n_per_cluster)
    return np.vstack(X), np.array(y)


def flipped_dataset(flip, n=400, d=6, seed=31):
    """Continuous features on a 0.1 grid (so values repeat) whose labels
    follow x0 + x1 * x2 > 0, with a ``flip`` fraction of them inverted."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
    flipped = rng.random(n) < flip
    y[flipped] = 1 - y[flipped]
    return X, y


def raw_dataset(flip, n=400, d=6, seed=31):
    """``flipped_dataset``'s shape and labels with every number drawn from
    PCG64's raw stream, so that no ``Generator`` algorithm makes them:
    features on a 0.1 grid in [-2, 2], and a row's label inverted where
    its own uniform draw falls below ``flip``."""
    uniform = (np.random.PCG64(seed).random_raw((n, d + 1)) >> 11) * 2.0**-53
    X = np.round(uniform[:, :d] * 4 - 2, 1)
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(np.int64)
    flipped = uniform[:, d] < flip
    y[flipped] = 1 - y[flipped]
    return X, y


def best_split_oracle(X, y, candidate_features, min_samples_leaf=1):
    """The per-feature loop that ``best_split`` replaced, kept verbatim as
    its reference: one argsort, prefix sum and shortlist per feature."""
    n = len(y)
    total_pos = int(y.sum())
    parent_sq = total_pos**2 + (n - total_pos) ** 2
    best_numer = 0
    best_denom = 1
    best_feature = -1
    best_threshold = 0.0

    for f in sorted(int(c) for c in candidate_features):
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        pos_prefix = np.cumsum(y[order])
        cut = np.flatnonzero(xs[:-1] < xs[1:])  # left side = first cut+1 samples
        if cut.size == 0:
            continue
        nl = cut + 1
        nr = n - nl
        if min_samples_leaf > 1:
            ok = (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
            cut, nl, nr = cut[ok], nl[ok], nr[ok]
            if cut.size == 0:
                continue
        pl = pos_prefix[cut]
        pr = total_pos - pl
        a = pl**2 + (nl - pl) ** 2
        b = pr**2 + (nr - pr) ** 2
        t = a * nr + b * nl
        denom = nl * nr
        ratio = t / denom  # decrease is monotone in this; float only shortlists
        shortlist = np.flatnonzero(ratio >= ratio.max() * (1.0 - 1e-12))
        for c in shortlist:
            numer = n * int(t[c]) - parent_sq * int(denom[c])
            if numer <= 0:
                continue
            # exact fraction comparison; strict > keeps the first (lowest
            # feature, lowest threshold) among true ties
            if numer * best_denom > best_numer * int(denom[c]):
                best_numer = numer
                best_denom = int(denom[c])
                best_feature = f
                best_threshold = float((xs[cut[c]] + xs[cut[c] + 1]) / 2.0)

    if best_feature < 0:
        return None
    return best_feature, best_threshold, best_numer / (n * n * best_denom)


@st.composite
def split_cases(draw):
    """Tie-heavy split searches: values on a small integer grid, candidate
    lists that may repeat a feature, leaf floors up to 3."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    X = draw(arrays(np.int64, (n, d), elements=st.integers(0, draw(st.integers(0, 4)))))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    features = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=8))
    return X.astype(np.float64), y, features, draw(st.integers(1, 3))


@st.composite
def split_batches(draw):
    """1-5 nodes as (row, draw count) subsets of one tie-heavy integer-grid
    X, each with its own candidate features (the same number per node),
    one leaf floor of 1-3 and a chunk size. A node may hold a row twice;
    most rows are drawn 1-4 times, one in 16 hundreds of times."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    X = draw(arrays(np.int64, (n, d), elements=st.integers(0, draw(st.integers(0, 4)))))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    m = draw(st.integers(1, d))
    draws = st.integers(0, 15).flatmap(lambda k: st.integers(100, 999) if k == 15 else st.integers(1, 4))
    nodes = draw(st.lists(
        st.tuples(st.lists(st.tuples(st.integers(0, n - 1), draws), min_size=1, max_size=25),
                  st.lists(st.integers(0, d - 1), min_size=m, max_size=m)),
        min_size=1, max_size=5,
    ))
    block = draw(st.sampled_from([1, 20, 1 << 30]))
    return X.astype(np.float64), y, nodes, draw(st.integers(1, 3)), block


class TestBestSplit:
    def test_hand_computed_gini(self):
        X = np.array([[0.1], [0.9]])
        y = np.array([0, 1])
        feature, threshold, decrease = best_split(X, y, [0])
        assert feature == 0
        assert threshold == pytest.approx(0.5)
        assert decrease == pytest.approx(0.5)  # parent gini 0.5, children pure

    def test_pure_node_absent(self):
        X = np.array([[0.1], [0.9]])
        y = np.array([1, 1])
        assert best_split(X, y, [0]) is None

    def test_conflicting_duplicates_absent(self):
        X = np.array([[0.5], [0.5], [0.5]])
        y = np.array([0, 1, 0])
        assert best_split(X, y, [0]) is None

    def test_tie_prefers_lower_feature(self):
        # both features separate perfectly; feature order in the call is shuffled
        X = np.array([[0.0, 10.0], [1.0, 11.0]])
        y = np.array([0, 1])
        feature, _, _ = best_split(X, y, [1, 0])
        assert feature == 0

    def test_tie_prefers_lower_threshold(self):
        # two equally good cut points around the middle value
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        feature, threshold, _ = best_split(X, y, [0])
        assert threshold == pytest.approx(1.5)

        y_mixed = np.array([0, 1, 0, 1])
        result = best_split(X, y_mixed, [0])
        # 0|101 and 010|1 tie; the lower threshold wins
        assert result[1] == pytest.approx(0.5)

    def test_min_samples_leaf_filters(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 0, 0, 0])
        # the best raw cut isolates the first sample; a leaf floor of 2 forbids it
        unrestricted = best_split(X, y, [0])
        assert unrestricted[1] == pytest.approx(0.5)
        restricted = best_split(X, y, [0], min_samples_leaf=2)
        assert restricted is None or restricted[1] == pytest.approx(1.5)

    def test_weighted_child_impurity_never_exceeds_parent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            X = rng.normal(size=(n, 3))
            y = rng.integers(0, 2, size=n)
            result = best_split(X, y, [0, 1, 2])
            if result is not None:
                assert result[2] > 0.0

    @given(split_cases())
    @settings(max_examples=500, deadline=None)
    # None: pure labels, conflicting labels on one value, a leaf floor no cut meets
    @example(case=(np.array([[0.0], [1.0]]), np.array([1, 1]), [0], 1))
    @example(case=(np.array([[2.0, 2.0]] * 3), np.array([0, 1, 0]), [1, 0, 1], 1))
    @example(case=(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]), [0], 2))
    def test_equals_per_feature_oracle(self, case):
        X, y, features, min_samples_leaf = case
        expected = best_split_oracle(X, y, features, min_samples_leaf)
        assert best_split(X, y, features, min_samples_leaf) == expected

    @given(split_batches())
    @settings(max_examples=200, deadline=None)
    # 2 nodes x 2 candidates on 2^17 rows: a count of 700 or 900 takes the
    # sort keys past int32 (4 << (18 + 1 + 10) > 2^31 - 1), counts below 8
    # would not
    @example(case=(
        (np.arange(1 << 17)[:, None] * [1, 3] % 5).astype(np.float64), np.arange(1 << 17) % 2,
        [([(0, 1), (1, 700), (2, 3), (3, 2), ((1 << 17) - 1, 1)], [0, 1]),
         ([(4, 2), (5, 1), (6, 900), (7, 4), (8, 1)], [1, 0])],
        2, 1 << 30,
    ))
    def test_batch_equals_per_feature_oracle(self, case):
        """Each node's split is the oracle's on its rows repeated by their
        draw counts, and its range of (row, count) pairs now holds those
        with x <= threshold, then the others, in order."""
        X, y, nodes, min_samples_leaf, block = case
        samples, weights = np.concatenate([pairs for pairs, _ in nodes]).T.copy()
        stops = np.cumsum([len(pairs) for pairs, _ in nodes])
        starts = stops - [len(pairs) for pairs, _ in nodes]
        candidates = np.array([features for _, features in nodes])
        saved, forest.SPLIT_BLOCK = forest.SPLIT_BLOCK, block
        try:
            splits = _split_batch(X, *_sort_codes(X, y), samples, weights, starts, stops, candidates,
                                  min_samples_leaf)
        finally:
            forest.SPLIT_BLOCK = saved
        for (pairs, features), start, stop, *split in zip(nodes, starts, stops, *splits):
            rows, draws = np.array(pairs).T
            repeated = np.repeat(rows, draws)
            expected = best_split_oracle(X[repeated], y[repeated], features, min_samples_leaf)
            feature, threshold, n_left, pos_left, rows_left = split
            assert (None if feature < 0 else (feature, threshold, gini_decrease(
                draws.sum(), draws @ y[rows], n_left, pos_left))) == expected
            # no split sends every row left and keeps the order
            left = X[rows, feature] <= threshold if feature >= 0 else np.ones(len(rows), dtype=bool)
            assert (n_left, pos_left, rows_left) == (draws[left].sum(), draws[left] @ y[rows[left]],
                                                     left.sum())
            rows, draws = (np.concatenate([a[left], a[~left]]) for a in (rows, draws))
            assert samples[start:stop].tolist() == rows.tolist()
            assert weights[start:stop].tolist() == draws.tolist()


class TestForestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trees": 0},
            {"max_depth": 0},
            {"min_samples_leaf": 0},
            {"features_per_split": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ForestConfig(**kwargs)


class TestTrainForest:
    def test_same_seed_byte_identical(self):
        X, y = xor_dataset()
        config = ForestConfig(n_trees=12, seed=5, features_per_split=2)
        a = train_forest(X, y, config, role="r")
        b = train_forest(X, y, config, role="r")
        assert classifier_to_json(a) == classifier_to_json(b)

    def test_different_seed_differs(self):
        X, y = xor_dataset()
        a = train_forest(X, y, ForestConfig(n_trees=5, seed=1), role="r")
        b = train_forest(X, y, ForestConfig(n_trees=5, seed=2), role="r")
        assert classifier_to_json(a) != classifier_to_json(b)

    def test_xor_training_accuracy(self):
        X, y = xor_dataset()
        classifier = train_forest(X, y, ForestConfig(n_trees=50, seed=9, features_per_split=2))
        predictions = [predict_proba(classifier, x) >= 0.5 for x in X]
        accuracy = np.mean(np.array(predictions) == y)
        assert accuracy >= 0.95

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError, match="both classes"):
            train_forest(X, np.ones(10, dtype=int), ForestConfig(n_trees=2, seed=0))

    def test_one_label_per_row(self):
        X, y = xor_dataset(n_per_cluster=5)
        with pytest.raises(ValueError, match="one label per row"):
            train_forest(X, y[:-1], ForestConfig(n_trees=1, seed=0))

    def test_no_features_rejected(self):
        with pytest.raises(ValueError, match="X has 0 features; training needs at least one"):
            train_forest(np.zeros((4, 0)), np.array([0, 1, 0, 1]), ForestConfig(n_trees=2))

    def test_shapes_recorded(self):
        X, y = xor_dataset(n_per_cluster=10)
        classifier = train_forest(X, y, ForestConfig(n_trees=7, seed=3), role="issuer")
        assert len(classifier.left) - 2 * np.count_nonzero(classifier.left >= 0) == 7  # nobody's children
        assert classifier.n_features == 2
        assert classifier.training_size == (20, 20)
        assert classifier.role == "issuer"

    @pytest.mark.parametrize("bad, name", [(np.nan, "nan"), (-np.inf, "-inf")])
    def test_non_finite_features_rejected(self, bad, name):
        X, y = xor_dataset(n_per_cluster=5)
        X[7, 1] = bad
        X[9, 0] = bad  # a later row: the first bad cell is named
        with pytest.raises(ValueError, match=f"row 7, column 1 is {name}; features must be finite"):
            train_forest(X, y, ForestConfig(n_trees=2, seed=0))

    @pytest.mark.parametrize("bad", [2, 0.5])
    def test_non_binary_labels_rejected(self, bad):
        # a label of 2 used to train leaf fractions above 1, and 0.5 was
        # truncated to 0
        X, y = xor_dataset(n_per_cluster=5)
        y = y.tolist()
        y[7] = y[9] = bad  # a later row: the first bad label is named
        message = re.escape(f"label at row 7 is {bad}; labels must be 0 or 1")
        with pytest.raises(ValueError, match=message):
            train_forest(X, y, ForestConfig(n_trees=2, seed=0))

    def test_midpoint_rounding_onto_upper_value_makes_a_leaf(self):
        # the midpoint of these adjacent floats rounds to the upper one, so
        # the only cut sends every sample left; growing it would never end
        low, high = 1 + 2.0**-52, 1 + 2.0**-51
        assert (low + high) / 2 == high
        X = np.array([[low]] * 5 + [[high]] * 5)
        y = np.array([0] * 5 + [1] * 5)
        classifier = train_forest(X, y, ForestConfig(n_trees=3, seed=1))
        assert classifier.left.tolist() == [-1, -1, -1]

    def test_features_per_split_bounds(self):
        X, y = xor_dataset(n_per_cluster=5)
        with pytest.raises(ValueError, match="features_per_split"):
            train_forest(X, y, ForestConfig(n_trees=1, features_per_split=3, seed=0))

    def test_max_depth_respected(self):
        X, y = xor_dataset()
        classifier = train_forest(
            X, y, ForestConfig(n_trees=4, max_depth=2, seed=1, features_per_split=2)
        )
        left, depths = classifier.left.tolist(), []
        for root in range(4):
            stack = [(root, 0)]
            while stack:
                node, depth = stack.pop()
                if left[node] < 0:
                    depths.append(depth)
                else:
                    stack += [(left[node], depth + 1), (left[node] + 1, depth + 1)]
        assert len(depths) == left.count(-1)
        assert max(depths) == 2

    def test_bootstrap_fit_property(self):
        # unlimited depth + leaf size 1: every tree is pure on distinct inputs
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        if y.sum() in (0, 40):
            y[0] = 1 - y[0]
        classifier = train_forest(X, y, ForestConfig(n_trees=6, seed=2))
        leaves = classifier.value[classifier.left < 0]
        assert len(leaves) > 6
        assert all(v in (0.0, 1.0) for v in leaves)


# Recorded when trees first grew one depth at a time, drawing from PCG64's
# raw stream (bootstrap rows as raw draws mod n, candidate sets as the m
# smallest of d raw keys, one set per node in the order the fit makes them).
GOLDEN_PROBES = np.random.default_rng(2024).uniform(-0.5, 1.5, size=(20, 2))
GOLDEN = [
    pytest.param(
        {"noise": 0.1},
        ForestConfig(n_trees=20, seed=4, features_per_split=2),
        316,
        [1.0, 1.0, 0.95, 0.0, 0.0, 0.45, 0.45, 0.05, 0.0, 0.95,
         0.25, 1.0, 0.15, 0.95, 0.0, 0.0, 0.95, 1.0, 0.9, 0.95],
        id="xor",
    ),
    pytest.param(
        {"noise": 0.4},
        ForestConfig(n_trees=20, seed=4, features_per_split=1, min_samples_leaf=2),
        756,
        [0.9166666666666667, 1.0, 0.925, 0.14166666666666666, 0.29583333333333334,
         0.5833333333333334, 0.7083333333333333, 0.3333333333333333, 0.1875, 0.4333333333333333,
         0.7833333333333333, 0.9875, 0.25, 0.8083333333333333, 0.26666666666666666, 0.2375,
         0.6833333333333333, 0.8625, 0.5458333333333334, 0.9],
        id="xor-noisy-leaf2",
    ),
    # Deep, tie-rich forests on 6-d noisy data; pinned by the sha256 of the
    # model's preorder_json text.
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7),
        2696,
        "8cc974fc17bf29f4691b5d8dd2f90360e5c3117e2373c56e8965be342b6bd6fe",
        id="flipped",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, min_samples_leaf=2, max_depth=6),
        1328,
        "d9bf7bee98db8f75943bd500c579bc275960efeb0d4f0bb50fffee1446f50d8e",
        id="flipped-leaf2-depth6",
    ),
    # The shape of one role's forest in the train-noisy benchmark workload:
    # 100 deep trees on 560 x 30.
    pytest.param(
        {"flip": 0.2, "n": 560, "d": 30},
        ForestConfig(n_trees=100, seed=7),
        17728,
        "4f85dbc9e9d5eaaa28f18c3c3acbb9383f31f5b3869bb5e2ea24fce4ab3bcb31",
        id="train-noisy-shape",
    ),
    # Edge shapes of forest-wide growth: roots that are leaves (bootstraps
    # that miss the one positive), one tree, every feature a candidate, one
    # level, and keys wider than 10,000 features.
    pytest.param(
        {"flip": 0.0, "n": 6, "d": 3, "positives": 1},
        ForestConfig(n_trees=50, seed=7),
        158,
        "36b874580b634a63049660fed2c039f0c9de8c009cf3281bd0c8af566c8b1e39",
        id="leaf-roots",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=1, seed=7),
        131,
        "2cfd01ff0fda8783e728ccf63d8f95c035ea6394a7689aad96ddcbe339af7f69",
        id="one-tree",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, features_per_split=6),
        2394,
        "664cb6ba5f67e0ea5b0135afbc9dceae7fe8cdbc3f9cebc713bffab9db59da7a",
        id="m-equals-d",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, max_depth=1),
        60,
        "66aadc17e5a222f03e620d44d9879e702c5b306291ad2f8b50e387654020a686",
        id="depth-1",
    ),
    pytest.param(
        {"flip": 0.2, "n": 40, "d": 10001},
        ForestConfig(n_trees=4, seed=7, features_per_split=201),
        30,
        "68d9e53ff01e186a21aab8554e2b347d9fb429fdf663339d92de826441dd141c",
        id="d-10001",
    ),
    # Data and forest both from PCG64's raw stream: no Generator algorithm
    # touches this digest.
    pytest.param(
        {"flip": 0.2, "raw": True},
        ForestConfig(n_trees=20, seed=7),
        3052,
        "12c978638ad502468764e767b28615750bde9edeaaf40db8ceb4fdf1bbf28543",
        id="raw-data",
    ),
]


def golden_dataset(data):
    """A GOLDEN case's (X, y): ``flipped_dataset`` if it names a flip
    (``raw_dataset`` if it also says ``raw``), else ``xor_dataset``;
    ``positives`` relabels that many first rows 1, the rest 0."""
    data = dict(data)
    positives = data.pop("positives", None)
    if "flip" in data:
        X, y = (raw_dataset if data.pop("raw", False) else flipped_dataset)(**data)
    else:
        X, y = xor_dataset(n_per_cluster=25, **data)
    if positives is not None:
        y = (np.arange(len(y)) < positives).astype(np.int64)
    return X, y


@pytest.mark.parametrize("data, config, nodes, scores", GOLDEN)
def test_golden_forest(data, config, nodes, scores):
    classifier = train_forest(*golden_dataset(data), config)
    assert len(classifier.feature) == nodes
    if isinstance(scores, str):
        assert hashlib.sha256(preorder_json(classifier).encode()).hexdigest() == scores
    else:
        assert [predict_proba(classifier, x) for x in GOLDEN_PROBES] == scores


def fit_peak(X, y, config):
    """``train_forest``'s tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        train_forest(X, y, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_memory_peak():
    """``train_forest``'s tracemalloc peak on the train-noisy-shape golden
    forest stays within 15% of the 4,746,203 bytes that growing each tree
    as its own generator peaked at (one bootstrap count matrix per forest:
    4,076,384)."""
    data, config, _, _ = GOLDEN[4].values
    assert fit_peak(*golden_dataset(data), config) <= 1.15 * 4_746_203


def test_fit_memory_peak_at_2000_rows():
    """On 2000 rows x 30 features, 100 trees of depth 2, the bootstrap
    buffers hold only the drawn rows: the peak is ~4.92 MB, and buffers
    sized for every tree drawing every row peaked at ~6.12 MB."""
    X, y = flipped_dataset(0.2, n=2000, d=30)
    assert fit_peak(X, y, ForestConfig(n_trees=100, max_depth=2, seed=7)) <= 1.1 * 4_917_093


@pytest.mark.parametrize("block", [1, 1 << 30])
@pytest.mark.parametrize("data, config, nodes, digest", GOLDEN[2:])  # the sha256-pinned cases
def test_split_block_does_not_change_a_tree(monkeypatch, block, data, config, nodes, digest):
    """One node per chunk or a whole round in one chunk: the same forests."""
    monkeypatch.setattr(forest, "SPLIT_BLOCK", block)
    classifier = train_forest(*golden_dataset(data), config)
    assert hashlib.sha256(preorder_json(classifier).encode()).hexdigest() == digest


@st.composite
def small_fits(draw):
    """A small fit: up to 60 rows of up to 12 features on a coarse grid
    (so values tie), both classes, and any forest config that fits it."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 12))
    X = draw(arrays(np.float64, (n, d), elements=st.integers(-3, 3).map(float)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y[:2] = 0, 1
    config = ForestConfig(
        n_trees=draw(st.integers(1, 8)),
        max_depth=draw(st.none() | st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 3)),
        features_per_split=draw(st.integers(1, d)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, config


def tree_preorder(classifier, root):
    """Tree ``root``'s nodes depth first, left child first, each as its
    (feature, threshold, value); a leaf's feature is -1."""
    c, nodes, stack = classifier, [], [root]
    while stack:
        node = stack.pop()
        nodes.append((int(c.feature[node]), float(c.threshold[node]), float(c.value[node])))
        if c.left[node] >= 0:
            stack += [c.left[node] + 1, c.left[node]]
    return nodes


@settings(max_examples=100, deadline=None)
@given(small_fits(), st.integers(1, 4))
def test_a_tree_does_not_depend_on_its_siblings(fit, more):
    """Tree t of a forest with ``more`` trees beyond n is tree t of the
    n-tree forest of the same seed: a tree's draws and nodes are those of
    growing it alone."""
    X, y, config = fit
    small = train_forest(X, y, config)
    large = train_forest(X, y, dataclasses.replace(config, n_trees=config.n_trees + more))
    for t in range(config.n_trees):
        assert tree_preorder(large, t) == tree_preorder(small, t)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 300).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, min(d, 40)))),
    calls=st.lists(st.lists(st.integers(0, 3), max_size=60).map(sorted), min_size=1, max_size=4),
)
@example(seed=1, shape=(1, 1), calls=[[0]])  # d = 1
@example(seed=2, shape=(12, 12), calls=[[0] * 70 + [1] * 5 + [2]])  # m = d
@example(seed=3, shape=(2, 1), calls=[[0] * 20])  # d = 2
@example(seed=4, shape=(2, 2), calls=[[0] * 20 + [1] * 20])
@example(seed=5, shape=(10001, 201), calls=[[0, 0, 0, 1]])  # d = 10001
@example(seed=6, shape=(30, 6), calls=[[0, 1, 2], [0, 1, 2], [0, 1, 2]])  # one node per tree and call
@example(seed=7, shape=(30, 1), calls=[[0] * 70])  # m = 1
@example(seed=8, shape=(30, 6), calls=[[], [1, 1], [0, 3, 3, 3]])  # calls and trees without a node
def test_candidate_sets_equal_reference(seed, shape, calls):
    """Over several calls, each with its nodes' tree ids in order, node i
    gets the next ``candidate_set_reference`` set of stream ``tree[i]``;
    afterwards each stream stands where the reference leaves it."""
    d, m = shape
    streams = [np.random.PCG64([seed, t]) for t in range(4)]
    drawn = [[] for _ in streams]
    for call in calls:
        tree = np.array(call, dtype=np.int64)
        sets = forest._candidate_sets(streams, tree, d, m)
        assert sets.shape == (len(tree), m)
        for t, node_set in zip(call, sets.tolist()):
            drawn[t].append(sorted(node_set))
    for t, stream in enumerate(streams):
        plain = np.random.PCG64([seed, t])
        assert drawn[t] == [candidate_set_reference(plain, d, m) for _ in drawn[t]]
        assert stream.random_raw() == plain.random_raw()


def test_candidate_set_memory_is_bounded():
    """20 trees' 16 nodes each at d = 10000 need one tree's (16, 10000)
    keys at a time, 1.28 MB, partitioned in place: the sets plus 2 MiB
    bound it, as they bounded the membership table that checked Floyd's
    draws before the keys replaced them."""
    streams = [np.random.PCG64(t) for t in range(20)]
    tree = np.repeat(np.arange(20), 16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sets = forest._candidate_sets(streams, tree, 10000, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets.shape == (320, 100)
    assert peak <= 2_353_152


def test_trees_search_their_distinct_bootstrap_rows(monkeypatch):
    """A tree's first split search spans one entry per distinct row of its
    bootstrap draw, weighted by that row's draw count, not every draw."""
    X, y = flipped_dataset(0.2)
    config = ForestConfig(n_trees=8, seed=7)
    split_batch, roots = forest._split_batch, []

    def spy(X, codes, S, samples, weights, starts, stops, *rest):
        if not roots:
            roots.extend(sorted(zip(samples[a:b].tolist(), weights[a:b].tolist()))
                                for a, b in zip(starts, stops))
        return split_batch(X, codes, S, samples, weights, starts, stops, *rest)

    monkeypatch.setattr(forest, "_split_batch", spy)
    train_forest(X, y, config)
    assert len(roots) == config.n_trees
    for t, pairs in enumerate(roots):
        drawn = sorted(Counter(bootstrap_reference(config.seed, t, len(y))).items())
        assert len(drawn) < 0.7 * len(y)
        assert pairs == drawn


def test_forests_and_splits_make_no_generator(monkeypatch):
    """No stage makes a ``Generator``: SGNS, with subsampling on so that
    all four of its streams draw, fits, splits, role models and evaluation
    draw only from PCG64's raw stream, whose bits numpy keeps across
    versions."""
    X, y = flipped_dataset(0.2, n=100)
    labeled = make_labeled_triples(n_per_role=20)

    def refuse(*args, **kwargs):
        raise AssertionError("a Generator was made")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(AssertionError, match="Generator"):
        np.random.default_rng(1)
    config = EmbeddingConfig(dim=8, epochs=2, subsample=1e-2, seed=3)
    embedding = finalize(train_skipgram(build_corpus(labeled), config))
    train_forest(X, y, ForestConfig(n_trees=5, seed=3))
    train, test = split_train_test(labeled, 0.5, seed=3)
    evaluate(train_role_models(train, embedding, ForestConfig(n_trees=5, seed=3)), test)


def traverse_oracle(payload: dict, root: int, x: np.ndarray) -> float:
    """Independent traversal of one serialized tree."""
    node = root
    while payload["left"][node] >= 0:
        if x[payload["feature"][node]] <= payload["threshold"][node]:
            node = payload["left"][node]
        else:
            node = payload["left"][node] + 1
    return payload["value"][node]


def forest_payload(n_trees, feature, threshold, left, value, n_features=2):
    """A serialized forest of ``n_trees`` trees."""
    return {
        "role": "r",
        "config": {"n_trees": n_trees, "max_depth": None, "min_samples_leaf": 1,
                   "features_per_split": None, "seed": 0},
        "training_size": [1, 1],
        "n_features": n_features,
        "feature": feature, "threshold": threshold, "left": left, "value": value,
    }


def leaf_forest(values, n_features):
    """One one-leaf tree per value."""
    k = len(values)
    return classifier_from_json(json.dumps(forest_payload(
        k, [-1] * k, [0.0] * k, [-1] * k, values, n_features=n_features,
    )))


class TestPredictProba:
    def test_mean_of_two_trees(self):
        classifier = leaf_forest([0.2, 0.8], n_features=3)
        assert predict_proba(classifier, np.zeros(3)) == pytest.approx(0.5)

    def test_all_unit_leaves(self):
        classifier = leaf_forest([1.0, 1.0], n_features=2)
        assert predict_proba(classifier, np.zeros(2)) == 1.0

    def test_matches_serialized_traversal_oracle(self):
        X, y = xor_dataset(n_per_cluster=25)
        classifier = train_forest(X, y, ForestConfig(n_trees=20, seed=4, features_per_split=2))
        payload = json.loads(classifier_to_json(classifier))
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=2)
            expected = np.mean([traverse_oracle(payload, root, x) for root in range(20)])
            assert predict_proba(classifier, x) == pytest.approx(expected, abs=1e-12)

    def test_matrix_equals_row_by_row(self):
        X, y = xor_dataset(n_per_cluster=25, noise=0.4)
        classifier = train_forest(X, y, ForestConfig(n_trees=30, seed=8, features_per_split=1))
        probes = np.random.default_rng(3).normal(loc=0.5, size=(40, 2))
        batch = predict_proba(classifier, probes)
        assert batch.shape == (40,)
        assert batch.tolist() == [predict_proba(classifier, x) for x in probes]
        assert predict_proba(classifier, probes[:1]).tolist() == [predict_proba(classifier, probes[0])]
        assert predict_proba(classifier, probes[:0]).shape == (0,)

    def test_range(self):
        X, y = xor_dataset(n_per_cluster=10)
        classifier = train_forest(X, y, ForestConfig(n_trees=10, seed=8))
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = predict_proba(classifier, rng.normal(size=2, scale=3))
            assert 0.0 <= p <= 1.0

    def test_dimension_mismatch(self):
        X, y = xor_dataset(n_per_cluster=5)
        classifier = train_forest(X, y, ForestConfig(n_trees=2, seed=0))
        for shape in [(5,), (3, 5), (2, 2, 2)]:
            with pytest.raises(ValueError, match="dimension"):
                predict_proba(classifier, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused(self, bad):
        """A NaN compares false both ways, so no walk can route it; it is
        refused, named by its first (row, column), as in ``train_forest``."""
        classifier = leaf_forest([0.2, 0.8], n_features=3)
        X = np.zeros((4, 3))
        X[2, 1] = X[3, 0] = bad
        with pytest.raises(ValueError, match=rf"feature at row 2, column 1 is {bad}; features must be finite"):
            predict_proba(classifier, X)
        with pytest.raises(ValueError, match=rf"feature at row 0, column 1 is {bad}; features must be finite"):
            predict_proba(classifier, X[2])

    def test_predicting_leaves_the_model_unchanged(self):
        X, y = xor_dataset(n_per_cluster=25, noise=0.4)
        classifier = train_forest(X, y, ForestConfig(n_trees=12, seed=3))
        before = classifier_to_json(classifier)
        predict_proba(classifier, X)
        predict_proba(classifier, X[0])
        assert classifier_to_json(classifier) == before


def grid_probes(rng, classifier, rows):
    """``rows`` probes over a forest's features: each entry one of its split
    thresholds (so rows land exactly on them), 0, 1 or a grid value."""
    values = np.concatenate([classifier.threshold[classifier.left >= 0], [0.0, 1.0, -1.5, 0.25, 2.0]])
    return values[rng.integers(0, len(values), size=(rows, classifier.n_features))]


@settings(max_examples=80, deadline=None)
@given(
    fit=small_fits(),
    trees=st.integers(1, 30),
    max_depth=st.sampled_from([None, 1, 3, 5]),
    rows=st.sampled_from([0, 1, 2, 7, 64, 300]),
)
def test_predict_equals_reference_walk_on_trained_forests(fit, trees, max_depth, rows):
    """Bit for bit the reference walk over the model's own node arrays,
    on matrices of any row count and on the 1-d vector form."""
    X, y, config = fit
    classifier = train_forest(X, y, dataclasses.replace(config, n_trees=trees, max_depth=max_depth))
    forest._check_nodes(classifier)  # the fit's own numbering is a valid model file's
    probes = grid_probes(np.random.default_rng(config.seed), classifier, rows)
    assert np.array_equal(predict_proba(classifier, probes), predict_reference(classifier, probes))
    for x in probes[:3]:
        assert predict_proba(classifier, x) == predict_reference(classifier, x)


def chain_tree(depth, rng):
    """A tree of ``depth`` levels, each of whose internal nodes has one leaf
    child and one child that goes deeper, on a random side: a leaf is its
    value, an internal node (feature, threshold, left subtree, right subtree)."""
    if depth == 0:
        return float(rng.integers(0, 5)) / 4
    deeper, leaf = chain_tree(depth - 1, rng), chain_tree(0, rng)
    split = int(rng.integers(0, 2)), float(rng.integers(-2, 3)) / 2
    return (*split, deeper, leaf) if rng.random() < 0.5 else (*split, leaf, deeper)


def numbered(trees):
    """(feature, threshold, left, value) lists of nested trees, numbered as
    the fit numbers its nodes: the roots first, then each internal node's
    children as the next two nodes, breadth first."""
    nodes, rows = list(trees), []
    for node in nodes:  # nodes grows as the loop reads it
        if isinstance(node, float):
            rows.append((-1, 0.0, -1, node))
        else:
            rows.append((*node[:2], len(nodes), 0.0))
            nodes += node[2:]
    return [list(column) for column in zip(*rows)]


K = forest.WALK_LEVELS


@settings(max_examples=80, deadline=None)
@given(
    depths=st.lists(st.sampled_from([0, 1, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 3 * K]),
                    min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    rows=st.sampled_from([0, 1, 5, 64]),
)
@example(depths=[0, 0, 0], seed=1, rows=5)  # an all-leaf forest
def test_predict_equals_reference_walk_on_leaf_roots_and_deep_chains(depths, seed, rows):
    """Leaf roots mixed with trees whose depth is near a multiple of
    WALK_LEVELS, so pairs reach their leaves just before, at and just after
    a compaction."""
    rng = np.random.default_rng(seed)
    trees = [chain_tree(depth, rng) for depth in depths]
    classifier = classifier_from_json(json.dumps(forest_payload(len(trees), *numbered(trees))))
    probes = grid_probes(rng, classifier, rows)
    assert np.array_equal(predict_proba(classifier, probes), predict_reference(classifier, probes))
    for x in probes[:2]:
        assert predict_proba(classifier, x) == predict_reference(classifier, x)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        X, y = xor_dataset(n_per_cluster=15)
        classifier = train_forest(X, y, ForestConfig(n_trees=9, seed=12), role="trustee")
        path = tmp_path / "trustee.json"
        save_classifier(classifier, path)
        loaded = load_classifier(path)
        assert loaded.role == "trustee"
        assert loaded.training_size == classifier.training_size
        assert classifier_to_json(loaded) == classifier_to_json(classifier)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            assert predict_proba(loaded, x) == predict_proba(classifier, x)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ValueError, match="bad.json"):
            load_classifier(path)

    def test_validation_leaf_fraction(self):
        payload = forest_payload(1, [-1], [0.0], [-1], [1.5])
        with pytest.raises(ValueError, match="leaf fraction"):
            classifier_from_json(json.dumps(payload))

    def test_validation_tree_count(self):
        payload = forest_payload(2, [-1], [0.0], [-1], [0.5])
        with pytest.raises(ValueError, match="expected 2 trees, found 1 nodes"):
            classifier_from_json(json.dumps(payload))

    def test_validation_missing_child(self):
        # an internal node whose right child, left + 1, is absent
        payload = forest_payload(1, [0, -1], [0.5, 0.0], [1, -1], [0.0, 0.5])
        with pytest.raises(ValueError, match="child index must lie after its parent, inside the node arrays"):
            classifier_from_json(json.dumps(payload))

    @pytest.mark.parametrize("n_trees, left", [
        (2, [2, 2, -1, -1]),  # both roots' children are nodes 2 and 3
        (1, [1, -1, -1, -1]),  # node 3: no parent points to it
    ], ids=["shared-child", "orphan"])
    def test_validation_one_parent_per_node(self, tmp_path, n_trees, left):
        """Every node but a root is the child of exactly one node, else the
        load is refused, naming the file."""
        internal = [x >= 0 for x in left]
        payload = forest_payload(n_trees, [0 if i else -1 for i in internal],
                                 [0.5 if i else 0.0 for i in internal], left,
                                 [0.0 if i else 0.25 for i in internal])
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"shapes\.json: the left children must be .* "
                           "every node but a root must be the child of exactly one node"):
            load_classifier(path)

    def test_preorder_file_refused_naming_its_key(self, tmp_path):
        """A model file in the preorder layout, with ``roots`` and ``right``
        arrays, is refused by its first unknown key, not read as another
        forest."""
        X, y = xor_dataset(n_per_cluster=15)
        path = tmp_path / "old.json"
        path.write_text(preorder_json(train_forest(X, y, ForestConfig(n_trees=9, seed=12))))
        with pytest.raises(ValueError, match=r"old\.json: unknown classifier JSON key 'roots'"):
            load_classifier(path)

    def test_validation_feature_range(self):
        payload = forest_payload(1, [5, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="feature index"):
            classifier_from_json(json.dumps(payload))

    @pytest.mark.parametrize("n_features", [0, -2])
    def test_validation_feature_count(self, n_features):
        """An all-leaf forest over no features is refused on load, not by a
        division by zero in ``predict_proba``."""
        payload = forest_payload(1, [-1], [0.0], [-1], [0.5], n_features=n_features)
        with pytest.raises(ValueError, match=f"'n_features' must be >= 1, got {n_features}"):
            classifier_from_json(json.dumps(payload))
