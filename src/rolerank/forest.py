"""Binary random forest over context feature vectors, built from scratch.

Classic recipe: each tree is grown on a bootstrap resample with CART
greedy splits; at every node a random subset of features is considered
and the best Gini-decrease threshold (midpoints between consecutive
distinct values) is chosen. Leaves store the positive-class fraction of
the samples that reached them, and the forest's score is the mean leaf
fraction over trees, read as a probability in [0, 1]. A node's split
search is one batch of numpy calls over the sorted (samples, candidate
features) block: a float pass shortlists the cuts near the best ratio
over all candidates and exact integer arithmetic settles the winner.

A forest is the struct-of-arrays layout of scikit-learn's ``Tree``: the
nodes of all trees, in preorder, as arrays ``feature``, ``threshold``,
``left``, ``right`` and ``value``, plus each tree's first node in
``roots``. Model files store these arrays; a batch is predicted by
stepping every (tree, row) pair down one level at a time.

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


# node array -> dtype. A node with left == -1 is a leaf whose value is its
# positive fraction (feature, threshold, right written as -1, 0.0, -1); an
# internal node (value 0.0) sends x to left if x[feature] <= threshold,
# else to right.
NODE_ARRAYS = {
    "feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64,
    "value": np.float64,
}


@dataclass
class RoleClassifier:
    """One role's forest: tree ``t`` is nodes ``roots[t]`` up to the next root."""

    role: str
    config: ForestConfig
    training_size: tuple[int, int]  # (positives, negatives) actually trained on
    n_features: int
    roots: np.ndarray  # (n_trees,) int64
    feature: np.ndarray  # each NODE_ARRAYS entry is (nodes,) of its dtype
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


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

    The candidate columns, sorted by index, form one (n, m) block that is
    sorted column by column with one stable argsort; one cumulative sum
    gives the positives left of every cut. Split quality is settled in
    exact integer arithmetic over the class counts (the decrease is a
    ratio of integers for fixed n), so mathematically tied candidates stay
    tied instead of drifting apart by float rounding: a float ratio
    shortlists the cuts within rounding of the block's maximum, and exact
    cross-multiplication over the shortlist, walked feature by feature,
    picks the winner.
    """
    n = len(y)
    if n == 0 or len(candidate_features) == 0:
        raise ValueError("best_split needs samples and candidate features")
    features = np.sort(np.asarray(candidate_features, dtype=np.int64))
    block = X[:, features]  # column j is feature features[j]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    # row i cuts between sorted samples i and i + 1: nl = i + 1 go left
    pl = np.cumsum(y[order], axis=0)[:-1]
    nl = np.arange(1, n, dtype=np.int64)[:, None]
    nr = n - nl
    cut = (xs[:-1] < xs[1:]) & (nl >= min_samples_leaf) & (nr >= min_samples_leaf)
    if not cut.any():
        return None
    total_pos = int(y.sum())
    pr = total_pos - pl
    t = (pl**2 + (nl - pl) ** 2) * nr + (pr**2 + (nr - pr) ** 2) * nl
    # the decrease is monotone in t / (nl * nr) and every real cut's ratio
    # is > 0; the float ratio only shortlists, within rounding of the max
    ratio = np.where(cut, t / (nl * nr), 0.0)
    cols, rows = np.nonzero((ratio >= ratio.max() * (1.0 - 1e-12)).T)  # feature-major

    # overall best as the exact fraction N / (n^2 * D); decrease > 0 iff N > 0
    parent_sq = total_pos**2 + (n - total_pos) ** 2
    best_numer, best_denom, best = 0, 1, None
    for j, i in zip(cols.tolist(), rows.tolist()):
        denom = (i + 1) * (n - i - 1)
        numer = n * int(t[i, j]) - parent_sq * denom
        # exact fraction comparison; strict > keeps the first (lowest
        # feature, lowest threshold) among true ties
        if numer > 0 and numer * best_denom > best_numer * denom:
            best_numer, best_denom, best = numer, denom, (i, j)
    if best is None:
        return None
    i, j = best
    return int(features[j]), float((xs[i, j] + xs[i + 1, j]) / 2.0), best_numer / (n * n * best_denom)


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    config: ForestConfig,
    m: int,
    nodes: list[list],
) -> None:
    """Append one tree's [feature, threshold, left, right, value] rows.

    The stack holds (samples, labels, depth, parent) with the right child
    pushed before the left, so nodes (and their ``rng`` draws) come in
    preorder: a left child is its parent's next node, and a right child
    fills in its parent's ``right``.
    """
    stack = [(X, y, 0, -1)]
    while stack:
        X, y, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][3] = len(nodes)
        n = len(y)
        pos = int(y.sum())
        split = None
        if not (
            pos == 0
            or pos == n
            or (config.max_depth is not None and depth >= config.max_depth)
            or n < 2 * config.min_samples_leaf
        ):
            features = rng.choice(X.shape[1], size=m, replace=False)
            split = best_split(X, y, features, config.min_samples_leaf)
        if split is None:
            nodes.append([-1, 0.0, -1, -1, pos / n])
            continue
        f, t, _ = split
        mask = X[:, f] <= t
        stack.append((X[~mask], y[~mask], depth + 1, len(nodes)))
        stack.append((X[mask], y[mask], depth + 1, -1))
        nodes.append([f, t, len(nodes) + 1, -1, 0.0])


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

    nodes: list[list] = []
    roots = []
    for t in range(config.n_trees):
        rng = make_rng(config.seed, f"tree{t}")
        bootstrap = rng.integers(0, n, size=n)
        roots.append(len(nodes))
        _grow(X[bootstrap], y[bootstrap], rng, config, m, nodes)
    return RoleClassifier(
        role=role,
        config=config,
        training_size=(pos, n - pos),
        n_features=d,
        roots=np.array(roots, dtype=np.int64),
        **{
            name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(NODE_ARRAYS.items(), zip(*nodes))
        },
    )


def predict_proba(classifier: RoleClassifier, x: np.ndarray) -> float | np.ndarray:
    """Mean positive-class leaf fraction over all trees, in [0, 1].

    A (d,) vector gives a float; an (n, d) matrix gives an (n,) array.
    Every (tree, row) pair starts at its tree's root and all pairs still
    at an internal node step down one level together.
    """
    x = np.asarray(x, dtype=np.float64)
    c, d = classifier, classifier.n_features
    if x.shape != (d,) and (x.ndim != 2 or x.shape[1] != d):
        raise ValueError(f"expected vectors of dimension {d}, got shape {x.shape}")
    flat, n, trees = x.ravel(), x.size // d, len(c.roots)
    node = np.repeat(c.roots, n)  # pair t * n + i is (tree t, row i)
    offset = np.tile(np.arange(0, n * d, d), trees)  # row i's start in flat
    live = np.flatnonzero(c.left[node] >= 0)
    while live.size:
        at = node[live]
        at = np.where(flat[offset[live] + c.feature[at]] <= c.threshold[at], c.left[at], c.right[at])
        node[live] = at
        live = live[c.left[at] >= 0]
    # add.accumulate adds the trees strictly in order, so each score is
    # bit-identical to a running sum over the trees; np.sum may pair terms
    scores = np.add.accumulate(c.value[node].reshape(trees, n), axis=0)[-1] / trees
    return float(scores[0]) if x.ndim == 1 else scores


def classifier_to_json(classifier: RoleClassifier) -> str:
    cfg = classifier.config
    payload = {
        "role": classifier.role,
        "config": {field.name: getattr(cfg, field.name) for field in fields(ForestConfig)},
        "training_size": list(classifier.training_size),
        "n_features": classifier.n_features,
        "roots": classifier.roots.tolist(),
        **{name: getattr(classifier, name).tolist() for name in NODE_ARRAYS},
    }
    return json.dumps(payload, separators=(",", ":"))


def _int(value, name: str, optional: bool = False) -> int | None:
    """``value`` if it is an int (or None when ``optional``); bools are not."""
    if value is None and optional:
        return None
    if type(value) is not int:
        kind = "an integer or null" if optional else "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _number_array(obj, name: str, dtype) -> np.ndarray:
    """A JSON list of numbers as a 1-d array; ints only for an int dtype."""
    allowed = {int} if dtype is np.int64 else {int, float}
    if not isinstance(obj, list) or not set(map(type, obj)) <= allowed:
        kind = "integers" if dtype is np.int64 else "numbers"
        raise ValueError(f"{name!r} must be a list of {kind}")
    try:
        return np.array(obj, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name!r} holds a number out of range") from None


def _check_nodes(c: RoleClassifier) -> None:
    """Vectorised structural checks of a loaded forest's node arrays."""
    size = len(c.feature)
    if any(len(getattr(c, name)) != size for name in NODE_ARRAYS):
        raise ValueError("node arrays differ in length")
    roots = c.roots
    if len(roots) != c.config.n_trees:
        raise ValueError(f"expected {c.config.n_trees} trees, found {len(roots)}")
    if roots[0] != 0 or np.any(roots[1:] <= roots[:-1]) or roots[-1] >= size:
        raise ValueError("roots must start at 0 and increase strictly inside the node arrays")
    if not np.all(np.isfinite(c.threshold)):
        raise ValueError("non-finite split threshold")
    if not np.all((c.value >= 0.0) & (c.value <= 1.0)):
        raise ValueError("leaf fraction outside [0, 1]")
    internal = c.left >= 0
    parents = np.flatnonzero(internal)
    if np.any((c.feature[parents] < 0) | (c.feature[parents] >= c.n_features)):
        raise ValueError(f"feature index out of range [0, {c.n_features})")
    tree_end = np.append(roots[1:], size)[np.searchsorted(roots, parents, side="right") - 1]
    for children in (c.left[parents], c.right[parents]):
        if np.any((children <= parents) | (children >= tree_end)):
            raise ValueError("a child index must lie after its parent, inside its tree")
    # children lie after their parents, so this walk ends; np.unique keeps
    # each level within the node count even if nodes share a child
    depth, level = 0, roots[internal[roots]]
    while level.size:
        depth += 1
        if c.config.max_depth is not None and depth > c.config.max_depth:
            raise ValueError("tree deeper than config.max_depth")
        level = np.unique(np.concatenate([c.left[level], c.right[level]]))
        level = level[internal[level]]


def classifier_from_json(text: str) -> RoleClassifier:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt classifier JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ValueError("classifier JSON must be an object")
    for key in ("role", "config", "training_size", "n_features", "roots", *NODE_ARRAYS):
        if key not in payload:
            raise ValueError(f"classifier JSON missing {key!r}")
    config_obj = payload["config"]
    if not isinstance(config_obj, dict):
        raise ValueError("classifier JSON 'config' must be an object")
    expected = {field.name: field.default for field in fields(ForestConfig)}
    for key in config_obj:
        if key not in expected:
            raise ValueError(f"unknown config key {key!r}")
    for key, default in expected.items():
        if key not in config_obj:
            raise ValueError(f"config missing {key!r}")
        _int(config_obj[key], f"config {key!r}", optional=default is None)
    size = payload["training_size"]
    if not isinstance(size, list) or len(size) != 2:
        raise ValueError("'training_size' must be a [positives, negatives] list")
    classifier = RoleClassifier(
        role=payload["role"],
        config=ForestConfig(**config_obj),
        training_size=tuple(_int(v, "'training_size'") for v in size),
        n_features=_int(payload["n_features"], "'n_features'"),
        roots=_number_array(payload["roots"], "roots", np.int64),
        **{name: _number_array(payload[name], name, dtype) for name, dtype in NODE_ARRAYS.items()},
    )
    _check_nodes(classifier)
    return classifier


def save_classifier(classifier: RoleClassifier, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(classifier_to_json(classifier) + "\n")


def load_classifier(path) -> RoleClassifier:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return classifier_from_json(f.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
