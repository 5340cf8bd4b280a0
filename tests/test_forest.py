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
from scipy import stats

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
from rolerank.seeds import mix
from synth import (
    best_split,
    bootstrap_reference,
    candidate_set_reference,
    child_key_reference,
    classifier_to_json,
    gini_decrease,
    make_labeled_triples,
    mix_reference,
    predict_reference,
    preorder_json,
    tree_key_reference,
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


# Recorded when forests first drew by the SplitMix64 hash: a bootstrap row
# is the hash of (tree key, draw index) mod n, and a candidate set the m
# columns of smallest hash of (node key, column), a node's key being the
# hash of its parent's key and its side.
GOLDEN_PROBES = np.random.default_rng(2024).uniform(-0.5, 1.5, size=(20, 2))
GOLDEN = [
    pytest.param(
        {"noise": 0.1},
        ForestConfig(n_trees=20, seed=4, features_per_split=2),
        336,
        [1.0, 1.0, 0.9, 0.05, 0.1, 0.4, 0.85, 0.1, 0.05, 1.0,
         0.1, 1.0, 0.0, 0.95, 0.1, 0.15, 0.9, 1.0, 0.95, 0.9],
        id="xor",
    ),
    pytest.param(
        {"noise": 0.4},
        ForestConfig(n_trees=20, seed=4, features_per_split=1, min_samples_leaf=2),
        752,
        [0.8666666666666666, 0.875, 0.8125, 0.3, 0.2,
         0.3666666666666667, 0.47333333333333333, 0.22999999999999998, 0.15, 0.6583333333333334,
         0.45, 0.9416666666666667, 0.14166666666666666, 0.8708333333333332, 0.4, 0.2875,
         0.6958333333333333, 0.875, 0.4625, 0.7625],
        id="xor-noisy-leaf2",
    ),
    # Deep, tie-rich forests on 6-d noisy data; pinned by the sha256 of the
    # model's preorder_json text.
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7),
        2758,
        "c20b23a71252361718b291e87c4d40ab80a91adae001cbda5a760a26f152ca22",
        id="flipped",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, min_samples_leaf=2, max_depth=6),
        1182,
        "c36a7f1a86df6777f7b2953d7939664918ff6d341c8334e812ad7ded5c77400e",
        id="flipped-leaf2-depth6",
    ),
    # The shape of one role's forest in the train-noisy benchmark workload:
    # 100 deep trees on 560 x 30.
    pytest.param(
        {"flip": 0.2, "n": 560, "d": 30},
        ForestConfig(n_trees=100, seed=7),
        17952,
        "3b6ab0fb0eed3641a7e14e69c2dfc26b87170d415cdb87ea0aa2fc1f5c06496f",
        id="train-noisy-shape",
    ),
    # Edge shapes of forest-wide growth: roots that are leaves (bootstraps
    # that miss the one positive), one tree, every feature a candidate, one
    # level, and keys wider than 10,000 features.
    pytest.param(
        {"flip": 0.0, "n": 6, "d": 3, "positives": 1},
        ForestConfig(n_trees=50, seed=7),
        174,
        "ec1d201629d38f56bf6815ab871303a6d771cb9030aca3a5bddcaea46771d523",
        id="leaf-roots",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=1, seed=7),
        119,
        "ff76e3da82ea8b4e52b57d3bf9a22ea086f5a727bd14be101d364b19ce5dfa13",
        id="one-tree",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, features_per_split=6),
        2434,
        "eab2b6c711755c299c8b992cad356732f5f61cd44e8e4c369eb0e619aecb0fe2",
        id="m-equals-d",
    ),
    pytest.param(
        {"flip": 0.2},
        ForestConfig(n_trees=20, seed=7, max_depth=1),
        60,
        "26c47fc564f186432225b65103f34279a9a941bed347ceb230272a4ee2d46e59",
        id="depth-1",
    ),
    pytest.param(
        {"flip": 0.2, "n": 40, "d": 10001},
        ForestConfig(n_trees=4, seed=7, features_per_split=201),
        30,
        "1ce08f90147727f25819d19bd65ba04cc16704dd5666dc8411e6eaacb18d5677",
        id="d-10001",
    ),
    # Data from PCG64's raw stream and forest from the integer hash: no
    # Generator algorithm touches this digest.
    pytest.param(
        {"flip": 0.2, "raw": True},
        ForestConfig(n_trees=20, seed=7),
        2864,
        "86d7813bc9c88f4af4985a161ae21f9b2520b2c02b1c3ebabeca9942c50cba60",
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


def test_mix_is_splitmix64():
    """The reference gives SplitMix64's published first outputs (seed 0;
    seed 1234567), and ``seeds.mix`` equals it on broadcast uint64 arrays of
    edge keys and counters, the column and child counters among them."""
    assert mix_reference(0, 1) == 0xE220A8397B1DCDAF
    assert [mix_reference(1234567, i) for i in (1, 2)] == [6457827717110365317, 3203168211198807973]
    keys = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    counters = [0, 1, 2, 559, 2**62, 2**62 + 29, 2**63, 2**63 + 1, 2**64 - 1]
    mixed = mix(np.array(keys, dtype=np.uint64)[:, None], np.array(counters, dtype=np.uint64))
    assert mixed.dtype == np.uint64
    assert mixed.tolist() == [[mix_reference(key, c) for c in counters] for key in keys]


@settings(max_examples=200, deadline=None)
@given(
    shape=st.integers(1, 300).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, min(d, 40)))),
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=60),
)
@example(shape=(1, 1), keys=[0])  # d = 1
@example(shape=(12, 12), keys=list(range(70)))  # m = d
@example(shape=(2, 1), keys=[2**64 - 1] * 20)  # d = 2, one key many times
@example(shape=(2, 2), keys=list(range(40)))
@example(shape=(10001, 201), keys=[7, 2**63, 2**64 - 1])  # d = 10001, one key a chunk
@example(shape=(300, 18), keys=list(range(60)))  # chunks of 54 keys
@example(shape=(30, 1), keys=list(range(70)))  # m = 1
@example(shape=(30, 6), keys=[])  # no node
def test_candidate_sets_equal_reference(shape, keys):
    """Node i's set is ``candidate_set_reference`` of key i: a pure
    function of (key, d, m), whatever the other keys of the call."""
    d, m = shape
    sets = forest._candidate_sets(np.array(keys, dtype=np.uint64), d, m)
    assert sets.shape == (len(keys), m)
    assert sets.dtype == np.int64
    assert [sorted(node_set) for node_set in sets.tolist()] == [candidate_set_reference(key, d, m) for key in keys]


def test_candidate_columns_are_uniform():
    """Over 200,000 consecutive node keys at d = 30, m = 6, each column and
    each pair of columns turns up as often as in uniform draws of m
    distinct columns. Under those, ``columns`` (Pearson's statistic scaled
    by (d - 1) / (d - m)) is chi-square on d - 1 = 29 degrees of freedom,
    and ``pairs`` (Pearson's statistic over the 435 pairs) has mean 420 and
    standard deviation 38.7: the pair covariance's eigenvalues weigh
    chi-squares on 29 and 405 degrees of freedom by 4.286 and 0.730. Each
    bound is a tail of about 1e-6 or less."""
    d, m, nodes = 30, 6, 200_000
    sets = forest._candidate_sets(np.arange(nodes, dtype=np.uint64), d, m)
    expected = nodes * m / d
    columns = ((np.bincount(sets.ravel(), minlength=d) - expected) ** 2).sum() / expected * (d - 1) / (d - m)
    assert stats.chi2.ppf(1e-6, d - 1) < columns < stats.chi2.isf(1e-6, d - 1)
    sets.sort(axis=1)
    i, j = np.triu_indices(m, 1)
    counts = np.bincount((sets[:, i] * d + sets[:, j]).ravel(), minlength=d * d)
    expected = nodes * m * (m - 1) / (d * (d - 1))
    pairs = ((counts.reshape(d, d)[np.triu_indices(d, 1)] - expected) ** 2 / expected).sum()
    assert abs(pairs - 420) < 6 * 38.7


def test_candidate_set_memory_is_bounded():
    """320 node keys at d = 10000 hash one key at a time, as SPLIT_BLOCK //
    d is 0: beside the sets, a draw holds five (d,) uint64 vectors, 400 kB
    (the columns, their counters, the key's hashes, the mixer's temporary
    and the last key's hashes until they are rebound), and 64 KiB bound
    the rest, however many keys there are."""
    keys = np.arange(320, dtype=np.uint64)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sets = forest._candidate_sets(keys, 10000, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sets.shape == (320, 100)
    assert peak <= sets.nbytes + 5 * 10000 * 8 + 65536


def test_nodes_draw_by_the_keys_of_their_paths(monkeypatch):
    """Root t is keyed by tree t's key and a child by its parent's key and
    side. Each node searched is one of the forest's nodes, searched once;
    every internal node is among them, and its split feature lies in the
    ``candidate_set_reference`` set of its key."""
    X, y = flipped_dataset(0.2)
    config = ForestConfig(n_trees=8, seed=7, features_per_split=2)
    candidate_sets, searched = forest._candidate_sets, []

    def spy(keys, d, m):
        searched.extend(keys.tolist())
        return candidate_sets(keys, d, m)

    monkeypatch.setattr(forest, "_candidate_sets", spy)
    c = train_forest(X, y, config)
    key = {t: tree_key_reference(config.seed, t) for t in range(config.n_trees)}
    left = c.left.tolist()
    internal = [node for node, child in enumerate(left) if child >= 0]
    for node in internal:  # in id order, and a child's id is above its parent's
        key[left[node]], key[left[node] + 1] = (child_key_reference(key[node], side) for side in (0, 1))
    assert len(key) == len(left)
    assert len(set(searched)) == len(searched)
    assert {key[node] for node in internal} <= set(searched) <= set(key.values())
    for node in internal:
        assert c.feature[node] in candidate_set_reference(key[node], X.shape[1], 2)


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


def test_no_stage_makes_a_generator_or_bit_generator(monkeypatch):
    """No stage makes a ``Generator`` or a ``PCG64``: SGNS, with
    subsampling on so that all four of its keys draw, fits, splits, role
    models and evaluation draw only from ``seeds.mix``, whose integers are
    the same on every numpy version. The refusals are installed once the
    test data is built."""
    X, y = flipped_dataset(0.2, n=100)
    labeled = make_labeled_triples(n_per_role=20)

    def refuse(*args, **kwargs):
        raise AssertionError("a Generator or bit generator was made")

    for name in ("Generator", "default_rng", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
        with pytest.raises(AssertionError, match="bit generator"):
            getattr(np.random, name)(1)
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
