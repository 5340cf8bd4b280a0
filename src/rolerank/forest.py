"""Binary random forest over context feature vectors, built from scratch.

Classic recipe: each tree is grown on a bootstrap resample with CART
greedy splits; at every node a random subset of features is considered
and the best Gini-decrease threshold (midpoints between consecutive
distinct values) is chosen. Leaves store the positive-class fraction of
the samples that reached them, and the forest's score is the mean leaf
fraction over trees, read as a probability in [0, 1].

Given a seed the whole construction is deterministic: per-tree RNGs are
derived from (seed, tree index), and split ties break toward the lower
feature index and lower threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .seeds import make_rng


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None  # None = ceil(sqrt(d)) at train time
    seed: int = 1

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1 or None")


@dataclass
class TreeNode:
    """Internal split (feature, threshold, children) or leaf (positive fraction)."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    leaf_value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_value is not None


@dataclass
class DecisionTree:
    root: TreeNode

    def predict(self, x: np.ndarray) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.leaf_value


@dataclass
class RoleClassifier:
    role: str
    trees: list[DecisionTree]
    config: ForestConfig
    training_size: tuple[int, int]  # (positives, negatives) actually trained on
    n_features: int


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features: Sequence[int],
    min_samples_leaf: int = 1,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, Gini decrease) over the candidate features.

    Thresholds are midpoints between consecutive distinct sorted values;
    samples with value <= threshold go left. Returns None when no split
    gives a positive impurity decrease (pure node, or conflicting labels
    on identical feature vectors). Ties prefer the lower feature index,
    then the lower threshold.

    Split quality is settled in exact integer arithmetic over the class
    counts (the decrease is a ratio of integers for fixed n), so
    mathematically tied candidates stay tied instead of drifting apart by
    float rounding: a float pass shortlists near-maximal cuts, exact
    cross-multiplication picks the winner.
    """
    n = len(y)
    if n == 0 or len(candidate_features) == 0:
        raise ValueError("best_split needs samples and candidate features")
    total_pos = int(y.sum())
    parent_sq = total_pos**2 + (n - total_pos) ** 2
    # overall best as the exact fraction N / (n^2 * D); decrease > 0 iff N > 0
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


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    config: ForestConfig,
    m: int,
) -> TreeNode:
    n = len(y)
    pos = int(y.sum())
    if (
        pos == 0
        or pos == n
        or (config.max_depth is not None and depth >= config.max_depth)
        or n < 2 * config.min_samples_leaf
    ):
        return TreeNode(leaf_value=pos / n)
    features = rng.choice(X.shape[1], size=m, replace=False)
    split = best_split(X, y, features, config.min_samples_leaf)
    if split is None:
        return TreeNode(leaf_value=pos / n)
    f, threshold, _ = split
    mask = X[:, f] <= threshold
    return TreeNode(
        feature=f,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, rng, config, m),
        right=_grow(X[~mask], y[~mask], depth + 1, rng, config, m),
    )


def train_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig, role: str = "") -> RoleClassifier:
    """Fit a bootstrap ensemble on (n, d) features and binary labels.

    Callers are expected to present samples in a canonical order (the
    pipeline sorts by triple id) so that training is invariant to input
    file order. Requires at least one sample of each class.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    n, d = X.shape
    pos = int(y.sum())
    if pos == 0 or pos == n:
        raise ValueError(
            "training requires samples of both classes; "
            "the pipeline skips single-class roles instead of training them"
        )
    if config.features_per_split is not None and config.features_per_split > d:
        raise ValueError(f"features_per_split exceeds feature count {d}")
    m = config.features_per_split or min(d, math.ceil(math.sqrt(d)))

    trees = []
    for t in range(config.n_trees):
        rng = make_rng(config.seed, f"tree{t}")
        bootstrap = rng.integers(0, n, size=n)
        trees.append(DecisionTree(root=_grow(X[bootstrap], y[bootstrap], 0, rng, config, m)))
    return RoleClassifier(
        role=role,
        trees=trees,
        config=config,
        training_size=(pos, n - pos),
        n_features=d,
    )


def predict_proba(classifier: RoleClassifier, x: np.ndarray) -> float:
    """Mean positive-class leaf fraction over all trees, in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (classifier.n_features,):
        raise ValueError(
            f"expected a vector of dimension {classifier.n_features}, got shape {x.shape}"
        )
    return sum(tree.predict(x) for tree in classifier.trees) / len(classifier.trees)


def _node_to_obj(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"p": node.leaf_value}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _node_to_obj(node.left),
        "r": _node_to_obj(node.right),
    }


def _node_from_obj(obj: dict, n_features: int, depth: int, max_depth: int | None) -> TreeNode:
    if not isinstance(obj, dict):
        raise ValueError("tree node must be an object")
    if "p" in obj:
        p = obj["p"]
        if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ValueError(f"leaf fraction {p!r} outside [0, 1]")
        return TreeNode(leaf_value=float(p))
    for key in ("f", "t", "l", "r"):
        if key not in obj:
            raise ValueError(f"internal node missing {key!r}")
    if max_depth is not None and depth >= max_depth:
        raise ValueError("tree deeper than config.max_depth")
    f = obj["f"]
    if not isinstance(f, int) or not 0 <= f < n_features:
        raise ValueError(f"feature index {f!r} out of range")
    return TreeNode(
        feature=f,
        threshold=float(obj["t"]),
        left=_node_from_obj(obj["l"], n_features, depth + 1, max_depth),
        right=_node_from_obj(obj["r"], n_features, depth + 1, max_depth),
    )


def classifier_to_json(classifier: RoleClassifier) -> str:
    cfg = classifier.config
    payload = {
        "role": classifier.role,
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "min_samples_leaf": cfg.min_samples_leaf,
            "features_per_split": cfg.features_per_split,
            "seed": cfg.seed,
        },
        "training_size": list(classifier.training_size),
        "n_features": classifier.n_features,
        "trees": [_node_to_obj(tree.root) for tree in classifier.trees],
    }
    return json.dumps(payload, separators=(",", ":"))


def classifier_from_json(text: str) -> RoleClassifier:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt classifier JSON: {exc.msg}") from None
    for key in ("role", "config", "training_size", "n_features", "trees"):
        if key not in payload:
            raise ValueError(f"classifier JSON missing {key!r}")
    config_obj = payload["config"]
    if not isinstance(config_obj, dict):
        raise ValueError("classifier JSON 'config' must be an object")
    expected = [field.name for field in fields(ForestConfig)]
    for key in config_obj:
        if key not in expected:
            raise ValueError(f"unknown config key {key!r}")
    for key in expected:
        if key not in config_obj:
            raise ValueError(f"config missing {key!r}")
    config = ForestConfig(**config_obj)
    n_features = payload["n_features"]
    trees_obj = payload["trees"]
    if len(trees_obj) != config.n_trees:
        raise ValueError(
            f"expected {config.n_trees} trees, found {len(trees_obj)}"
        )
    trees = [
        DecisionTree(root=_node_from_obj(obj, n_features, 0, config.max_depth))
        for obj in trees_obj
    ]
    pos, neg = payload["training_size"]
    return RoleClassifier(
        role=payload["role"],
        trees=trees,
        config=config,
        training_size=(int(pos), int(neg)),
        n_features=int(n_features),
    )


def save_classifier(classifier: RoleClassifier, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(classifier_to_json(classifier) + "\n")


def load_classifier(path) -> RoleClassifier:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return classifier_from_json(f.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
