import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolerank import forest
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
from rolerank.seeds import make_rng
from synth import best_split, classifier_to_json, gini_decrease, predict_reference


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
        assert len(classifier.roots) == 7
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
        assert classifier.roots.tolist() == [0, 1, 2]
        assert np.all(classifier.left == -1)

    def test_features_per_split_bounds(self):
        X, y = xor_dataset(n_per_cluster=5)
        with pytest.raises(ValueError, match="features_per_split"):
            train_forest(X, y, ForestConfig(n_trees=1, features_per_split=3, seed=0))

    def test_max_depth_respected(self):
        X, y = xor_dataset()
        classifier = train_forest(
            X, y, ForestConfig(n_trees=4, max_depth=2, seed=1, features_per_split=2)
        )
        payload = json.loads(classifier_to_json(classifier))
        depths = []
        for root in payload["roots"]:
            stack = [(root, 0)]
            while stack:
                node, depth = stack.pop()
                if payload["left"][node] < 0:
                    depths.append(depth)
                else:
                    stack += [(payload["left"][node], depth + 1), (payload["right"][node], depth + 1)]
        assert len(depths) == sum(1 for left in payload["left"] if left < 0)
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


# Pinned on the recursive node-graph grower this layout replaced: the
# iterative grower must reproduce its trees (and rng draws) exactly.
GOLDEN_PROBES = np.random.default_rng(2024).uniform(-0.5, 1.5, size=(20, 2))
GOLDEN = [
    (
        {"noise": 0.1},
        ForestConfig(n_trees=20, seed=4, features_per_split=2),
        336,
        [1.0, 0.95, 0.95, 0.0, 0.2, 0.4, 0.5, 0.0, 0.0, 1.0,
         0.15, 0.9, 0.0, 0.95, 0.0, 0.05, 0.95, 1.0, 0.9, 0.9],
    ),
    (
        {"noise": 0.4},
        ForestConfig(n_trees=20, seed=4, features_per_split=1, min_samples_leaf=2),
        794,
        [0.85, 0.8583333333333334, 0.8916666666666666, 0.12916666666666668,
         0.32083333333333336, 0.4666666666666667, 0.425, 0.175, 0.125, 0.5125,
         0.7125, 0.95, 0.2958333333333333, 0.875, 0.2833333333333333,
         0.2666666666666667, 0.625, 0.8, 0.4083333333333334, 0.6125],
    ),
    # Deep, tie-rich forests on 6-d noisy data, recorded on the per-feature
    # split search; pinned by the sha256 of the whole model JSON.
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7),
        2796,
        "a211f5ce767df0a521a9de66811e28cfe80740758c9f03b9c3b938818bf913b3",
        id="flipped",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, min_samples_leaf=2, max_depth=6),
        1298,
        "ee60fe45182d14a5443f182b0796bfe6921eb58f30152fc0f282bd0b9273a3a3",
        id="flipped-leaf2-depth6",
    ),
    # The shape of one role's forest in the train-noisy benchmark workload:
    # 100 deep trees on 560 x 30; recorded on the search over every draw.
    pytest.param(
        {"flip": 0.2, "n": 560, "d": 30},
        ForestConfig(n_trees=100, seed=7),
        17984,
        "b715e2e85251e599c5f2ec10690a8eeb4578e87949286b532ad24514c99d12f7",
        id="train-noisy-shape",
    ),
    # Edge shapes of forest-wide growth, recorded before it on the
    # per-tree generators: roots that are leaves (19 of 50 bootstraps miss
    # the one positive), one tree, every feature a candidate, one level,
    # and candidate sets on numpy's tail-shuffle path.
    pytest.param(
        {"flip": 0.0, "n": 6, "d": 3, "positives": 1},
        ForestConfig(n_trees=50, seed=7),
        152,
        "bad20316e8af30703ce73f5b29dd8efe4b34eb3c0b19ec331a11db8d2db74a20",
        id="leaf-roots",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=1, seed=7),
        147,
        "827178a2e7e026b862aebd01190db05e204fcd6184ab1476eba18e334bb6bb06",
        id="one-tree",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, features_per_split=6),
        2426,
        "ece7fd94d3bf6da9b6891df2cd162463dfa6422b74a20d49242b1f0f0c855e14",
        id="m-equals-d",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, max_depth=1),
        60,
        "9e7554650c93a90f0e87457d5399a02301f61686bf9aa23fc67dcf9d9a6724d1",
        id="depth-1",
    ),
    pytest.param(
        {"flip": 0.2, "n": 40, "d": 10001},
        ForestConfig(n_trees=4, seed=7, features_per_split=201),
        30,
        "dc18aa94d3d2284d46311073d8f0defbc727d5eed9f6d82cc01f2fff5ca21080",
        id="tail-shuffle",
    ),
]


def golden_dataset(data):
    """A GOLDEN case's (X, y): ``flipped_dataset`` if it names a flip, else
    ``xor_dataset``; ``positives`` relabels that many first rows 1, the rest 0."""
    data = dict(data)
    positives = data.pop("positives", None)
    X, y = flipped_dataset(**data) if "flip" in data else xor_dataset(n_per_cluster=25, **data)
    if positives is not None:
        y = (np.arange(len(y)) < positives).astype(np.int64)
    return X, y


@pytest.mark.parametrize("data, config, nodes, scores", GOLDEN)
def test_golden_forest(data, config, nodes, scores):
    classifier = train_forest(*golden_dataset(data), config)
    assert len(classifier.feature) == nodes
    if isinstance(scores, str):
        assert hashlib.sha256(classifier_to_json(classifier).encode()).hexdigest() == scores
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
    assert hashlib.sha256(classifier_to_json(classifier).encode()).hexdigest() == digest


@pytest.mark.parametrize("block", [1, 1 << 10], ids=["one-set-per-block", "one-block"])
@pytest.mark.parametrize("data, config, nodes, digest", GOLDEN[2:])  # the sha256-pinned cases
def test_candidate_blocks_do_not_change_a_tree(monkeypatch, block, data, config, nodes, digest):
    """Candidate sets drawn one per block or all in one block: the same forests."""
    monkeypatch.setattr(forest, "CANDIDATE_BLOCK", block)
    classifier = train_forest(*golden_dataset(data), config)
    assert hashlib.sha256(classifier_to_json(classifier).encode()).hexdigest() == digest


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


@settings(max_examples=100, deadline=None)
@given(small_fits())
def test_candidate_block_size_never_changes_a_tree(fit):
    """One candidate set per draw or CANDIDATE_BLOCK of them: the same model."""
    X, y, config = fit
    models, saved = [], forest.CANDIDATE_BLOCK
    try:
        for block in (1, 16):
            forest.CANDIDATE_BLOCK = block
            models.append(classifier_to_json(train_forest(X, y, config)))
    finally:
        forest.CANDIDATE_BLOCK = saved
    assert models[0] == models[1]


# NumPy promises no Generator stream across versions (NEP 19); this equality
# was recorded on numpy 2.4.6, the version CI pins.
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.integers(1, 300).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, min(d, 40)))),
    wanted=st.lists(st.integers(1, 150), min_size=1, max_size=4),
)
@example(seed=1, shape=(30, 1), wanted=[70])  # m = 1
@example(seed=2, shape=(12, 12), wanted=[70, 5, 1])  # m = d
@example(seed=3, shape=(2, 1), wanted=[20])  # d = 2
@example(seed=4, shape=(2, 2), wanted=[20, 20])
@example(seed=5, shape=(20000, 500), wanted=[3, 1])  # numpy's tail shuffle
@example(seed=6, shape=(20000, 20), wanted=[14, 1])  # Floyd's algorithm beyond d = 10000
@example(seed=7, shape=(300, 300), wanted=[14, 2])  # m = d, a long shuffle
@example(seed=9, shape=(1, 1), wanted=[1])  # d = 1
@example(seed=10, shape=(30, 6), wanted=[1, 1, 1])  # trees with one split search
def test_candidate_sets_equal_successive_choice_calls(seed, shape, wanted):
    """Blocks drawn for several trees at once hold each tree's sets of
    successive ``rng.choice`` calls, in any order, while trees drop out
    once they have ``wanted`` sets; after its last block a tree's RNG
    stands where the ``rng.choice`` calls leave it. A block holds
    CANDIDATE_BLOCK sets, or one on numpy's tail-shuffle path."""
    d, m = shape
    block = 1 if d > 10000 and m > d // 50 else forest.CANDIDATE_BLOCK
    rngs = [np.random.default_rng([seed, t]) for t in range(len(wanted))]
    drawn = [[] for _ in wanted]
    while live := [t for t, count in enumerate(wanted) if len(drawn[t]) < count]:
        sets = forest._candidate_sets([rngs[t] for t in live], d, m)
        assert sets.shape == (len(live), block, m)
        for t, tree_sets in zip(live, sets.tolist()):
            drawn[t] += map(sorted, tree_sets)
    for t, rng in enumerate(rngs):
        plain = np.random.default_rng([seed, t])
        assert drawn[t] == [sorted(plain.choice(d, size=m, replace=False).tolist()) for _ in drawn[t]]
        assert rng.random() == plain.random()


@pytest.mark.parametrize("shape", [(30, 6), (1000, 48), (300, 300)])
def test_floyd_table_chunks_do_not_change_sets(monkeypatch, shape):
    """A membership table of one, three or every set at once: the same sets."""
    d, m = shape
    blocks = []
    for rows in (1, 3, 1 << 20):
        monkeypatch.setattr(forest, "FLOYD_TABLE", rows * d)
        rngs = [np.random.default_rng([11, t]) for t in range(3)]
        blocks.append([forest._candidate_sets(rngs, d, m).tolist() for _ in range(3)])
    assert blocks[0] == blocks[1] == blocks[2]


def test_floyd_table_memory_is_bounded():
    """20 trees' 16-set block at d = 10000 would need a 3.2 MB (set, value)
    table at once; filled a chunk of sets at a time it takes FLOYD_TABLE."""
    rngs = [np.random.default_rng(t) for t in range(20)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sets = forest._candidate_sets(rngs, 10000, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets.shape == (20, 16, 100)
    assert peak <= sets.nbytes + 2 * forest.FLOYD_TABLE


def test_tail_shuffle_sets_build_no_block_bounds(monkeypatch):
    """Where numpy takes its tail-shuffle path every set is a plain
    ``rng.choice``, one set per block, so no bounds tile (16 * (2m - 1)
    values) is built."""
    def tile(*args):
        raise AssertionError("np.tile called")
    monkeypatch.setattr(forest.np, "tile", tile)
    rngs = [np.random.default_rng(8), np.random.default_rng(9)]
    plain = [np.random.default_rng(8), np.random.default_rng(9)]
    for _ in range(3):
        sets = forest._candidate_sets(rngs, 20000, 20000)
        assert sets.shape == (2, 1, 20000)
        for drawn, rng in zip(sets, plain):
            assert drawn[0].tolist() == rng.choice(20000, size=20000, replace=False).tolist()


def test_trees_search_their_distinct_bootstrap_rows(monkeypatch):
    """A tree's first split search spans one entry per distinct row of its
    bootstrap draw, weighted by that row's draw count, not every draw."""
    X, y = flipped_dataset(0.2)
    config = ForestConfig(n_trees=8, seed=7)
    split_batch, first_rounds = forest._split_batch, []

    def spy(X, codes, S, samples, weights, starts, stops, *rest):
        if not first_rounds:
            first_rounds.extend(sorted(zip(samples[a:b].tolist(), weights[a:b].tolist()))
                                for a, b in zip(starts, stops))
        return split_batch(X, codes, S, samples, weights, starts, stops, *rest)

    monkeypatch.setattr(forest, "_split_batch", spy)
    train_forest(X, y, config)
    assert len(first_rounds) == config.n_trees
    for t, pairs in enumerate(first_rounds):
        draw = make_rng(config.seed, f"tree{t}").integers(0, len(y), size=len(y))
        rows, counts = np.unique(draw, return_counts=True)
        assert len(rows) < 0.7 * len(y)
        assert pairs == list(zip(rows.tolist(), counts.tolist()))


def traverse_oracle(payload: dict, root: int, x: np.ndarray) -> float:
    """Independent traversal of one serialized tree."""
    node = root
    while payload["left"][node] >= 0:
        if x[payload["feature"][node]] <= payload["threshold"][node]:
            node = payload["left"][node]
        else:
            node = payload["right"][node]
    return payload["value"][node]


def forest_payload(roots, feature, threshold, left, right, value, n_trees=None, n_features=2):
    """A serialized forest; ``n_trees`` defaults to the number of roots."""
    return {
        "role": "r",
        "config": {"n_trees": len(roots) if n_trees is None else n_trees,
                   "max_depth": None, "min_samples_leaf": 1,
                   "features_per_split": None, "seed": 0},
        "training_size": [1, 1],
        "n_features": n_features,
        "roots": roots, "feature": feature, "threshold": threshold,
        "left": left, "right": right, "value": value,
    }


def leaf_forest(values, n_features):
    """One one-leaf tree per value."""
    k = len(values)
    return classifier_from_json(json.dumps(forest_payload(
        list(range(k)), [-1] * k, [0.0] * k, [-1] * k, [-1] * k, values, n_features=n_features,
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
            expected = np.mean([traverse_oracle(payload, root, x) for root in payload["roots"]])
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
    probes = grid_probes(np.random.default_rng(config.seed), classifier, rows)
    assert np.array_equal(predict_proba(classifier, probes), predict_reference(classifier, probes))
    for x in probes[:3]:
        assert predict_proba(classifier, x) == predict_reference(classifier, x)


def chain_tree(depth, rng, start):
    """Preorder (feature, threshold, left, right, value) rows of a tree of
    ``depth`` levels, numbered from ``start``, each of whose internal nodes
    has one leaf child and one child that goes deeper, on a random side."""
    rows = []

    def grow(level):
        at = start + len(rows)
        if level == depth:
            rows.append((-1, 0.0, -1, -1, float(rng.integers(0, 5)) / 4))
            return at
        rows.append(None)
        deeper_left = rng.random() < 0.5
        left = grow(level + 1 if deeper_left else depth)
        right = grow(depth if deeper_left else level + 1)
        rows[at - start] = (int(rng.integers(0, 2)), float(rng.integers(-2, 3)) / 2, left, right, 0.0)
        return at

    grow(0)
    return rows


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
    roots, nodes = [], []
    for depth in depths:
        roots.append(len(nodes))
        nodes += chain_tree(depth, rng, len(nodes))
    classifier = classifier_from_json(json.dumps(forest_payload(roots, *map(list, zip(*nodes)))))
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
        payload = forest_payload([0], [-1], [0.0], [-1], [-1], [1.5])
        with pytest.raises(ValueError, match="leaf fraction"):
            classifier_from_json(json.dumps(payload))

    def test_validation_tree_count(self):
        payload = forest_payload([0], [-1], [0.0], [-1], [-1], [0.5], n_trees=2)
        with pytest.raises(ValueError, match="trees"):
            classifier_from_json(json.dumps(payload))

    def test_validation_missing_child(self):
        # an internal node whose right child is absent
        payload = forest_payload([0], [0, -1], [0.5, 0.0], [1, -1], [-1, -1], [0.0, 0.5])
        with pytest.raises(ValueError, match="child"):
            classifier_from_json(json.dumps(payload))

    @pytest.mark.parametrize("left, right, feature, node, parents", [
        ([1, -1, -1], [1, -1, -1], [0, -1, -1], 1, 2),  # one node as both children; node 2 unreached
        ([1, -1, -1, -1], [2, -1, -1, -1], [0, -1, -1, -1], 3, 0),  # node 3: no parent points to it
    ], ids=["shared-child", "orphan"])
    def test_validation_one_parent_per_node(self, tmp_path, left, right, feature, node, parents):
        """Every node but a root is the child of exactly one node, else the
        load is refused, naming the file."""
        size = len(left)
        payload = forest_payload([0], feature, [0.5] + [0.0] * (size - 1), left, right,
                                 [0.0] + [0.25] * (size - 1))
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=rf"shapes\.json: node {node} is the child of {parents} nodes"):
            load_classifier(path)

    def test_validation_feature_range(self):
        payload = forest_payload(
            [0], [5, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 0.0, 1.0]
        )
        with pytest.raises(ValueError, match="feature index"):
            classifier_from_json(json.dumps(payload))

    @pytest.mark.parametrize("n_features", [0, -2])
    def test_validation_feature_count(self, n_features):
        """An all-leaf forest over no features is refused on load, not by a
        division by zero in ``predict_proba``."""
        payload = forest_payload([0], [-1], [0.0], [-1], [-1], [0.5], n_features=n_features)
        with pytest.raises(ValueError, match=f"'n_features' must be >= 1, got {n_features}"):
            classifier_from_json(json.dumps(payload))
