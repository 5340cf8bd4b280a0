"""Binary random forest over context feature vectors, built from scratch.

Classic recipe: each tree is grown on a bootstrap resample with CART
greedy splits; at every node a random subset of features is considered
and the best Gini-decrease threshold (midpoints between consecutive
distinct values) is chosen. Leaves store the positive-class fraction of
the samples that reached them, and the forest's score is the mean leaf
fraction over trees, read as a probability in [0, 1].

A forest's trees grow in lockstep rounds. Each tree keeps its own RNG,
bootstrap draw and depth-first stack, so its draws and node order are
those of growing it alone (its candidate sets drawn in blocks equal to
per-node ``rng.choice``); in each round every unfinished tree writes
leaves until it reaches a node that needs a split search, and all of the
round's such nodes are searched together. A tree holds its draw's
distinct rows weighted by draw count (scikit-learn's bootstrap sample
weights). X is ranked once per column; each (node, candidate feature)
column becomes one group of a single sort over integer keys (group,
rank, label, draws), segmented cumulative sums give the draws and
positives left of every cut, a float pass shortlists each node's cuts
near its best ratio and exact integer arithmetic settles the winner.

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

import itertools
import json
import math
from array import array
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .corpus import open_atomic
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


# Most (sample, feature) entries one batched split search sorts at once;
# a round's nodes are searched in chunks of this size, and a node larger
# than it is searched alone.
SPLIT_BLOCK = 1 << 14
CANDIDATE_BLOCKS = (4, 8, 16, 32, 64)  # sets per block after a tree's first set; the last repeats


def _sort_codes(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's per-column rank with its label, and the sorted columns.

    Returns ``codes`` (n, d), ``rank << 1 | label``, and ``S``, X sorted
    column by column. Equal values share the rank of their first
    occurrence in S, so ``S[rank[i, f], f] == X[i, f]`` and two samples'
    values differ exactly when their ranks do. Labels must be 0 or 1.
    """
    if len(bad := np.flatnonzero((y != 0) & (y != 1))):
        raise ValueError(f"label at row {bad[0]} is {y[bad[0]]}; labels must be 0 or 1")
    n, d = X.shape
    order = np.argsort(X, axis=0, kind="stable")
    S = np.take_along_axis(X, order, axis=0)
    first = np.ones((n, d), dtype=bool)
    first[1:] = S[1:] != S[:-1]
    run_start = np.maximum.accumulate(np.where(first, np.arange(n)[:, None], 0), axis=0)
    codes = np.empty((n, d), dtype=np.int64)
    np.put_along_axis(codes, order, run_start << 1, axis=0)
    return codes | y.astype(np.int64)[:, None], S


def _split_chunk(X, codes, S, samples, weights, nodes, min_samples_leaf):
    """Split each (start, stop, candidates) node of one chunk; see _split_batch."""
    n_all, d = X.shape
    starts = np.array([start for start, _, _ in nodes])
    sizes = np.array([stop for _, stop, _ in nodes]) - starts
    candidates = np.sort(np.array([features for *_, features in nodes]), axis=1)
    m = candidates.shape[1]
    row_start = np.cumsum(sizes) - sizes
    row_node = np.repeat(np.arange(len(nodes)), sizes)
    at = np.arange(len(row_node)) + np.repeat(starts - row_start, sizes)
    rows, draws = samples[at], weights[at]
    # group node * m + j is the node's j-th lowest candidate feature, so the
    # groups of a node run feature by feature; one sort orders every group
    # by rank, with the label below the rank and the row's draws below it
    low = int(draws.max()).bit_length()
    shift = n_all.bit_length() + 1 + low
    keys = (row_node[:, None] * m + np.arange(m)) << shift
    keys |= codes.take(rows[:, None] * d + candidates[row_node]) << low | draws[:, None]
    if (len(nodes) * m) << shift <= np.iinfo(np.int32).max:
        keys = keys.astype(np.int32)  # sorts twice as fast
    keys = np.sort(keys, axis=None)

    # per entry, as exact float64 counts of draws: samples and positives on
    # either side of the cut after it (a group's last entry has nr == 0)
    group_size = np.repeat(sizes, m)
    group_end = np.cumsum(group_size)
    group_start = group_end - group_size
    drawn = keys & ((1 << low) - 1)
    cum_n, cum_p = (np.concatenate(([0.0], np.cumsum(x, dtype=np.float64)))
                    for x in (drawn, drawn * (keys >> low & 1)))
    nl = cum_n[1:] - np.repeat(cum_n[group_start], group_size)
    nr = np.repeat(cum_n[group_end], group_size) - cum_n[1:]
    pl = cum_p[1:] - np.repeat(cum_p[group_start], group_size)
    pr = np.repeat(cum_p[group_end], group_size) - cum_p[1:]
    # a cut needs distinct ranks on its two sides, never between a row's
    # draws; the next group's first key never counts, as nr == 0 there
    step = keys >> (low + 1)
    cut = np.append(step[:-1] != step[1:], False) & (nr >= min_samples_leaf)
    cut &= nl >= min_samples_leaf
    # 2 * (pl^2/nl + pr^2/nr) + n - 2 * pos is the decrease's monotone ratio
    # t / (nl * nr); the float only shortlists, within rounding of each
    # node's maximum
    q = np.where(cut, pl * pl / nl + pr * pr / np.maximum(nr, 1.0), 0.0)
    node_max = np.maximum.reduceat(q, row_start * m)
    shortlist = np.flatnonzero(cut & (q >= np.repeat(node_max * (1.0 - 1e-12), sizes * m)))

    # each node's best as the exact fraction N / (n^2 * D); decrease > 0 iff
    # N > 0. The shortlist runs node by node, then feature, then threshold,
    # and strict > keeps the first among true ties
    best: dict[int, tuple[int, int, int, int]] = {}
    node = np.searchsorted(row_start * m, shortlist, "right") - 1
    counts = (x[shortlist].astype(np.int64).tolist() for x in (nl, nr, pl, pr))
    for i, b, a, c, e, f in zip(shortlist.tolist(), node.tolist(), *counts):
        n, pos, denom = a + c, e + f, a * c
        t = (e**2 + (a - e) ** 2) * c + (f**2 + (c - f) ** 2) * a
        numer = n * t - (pos**2 + (n - pos) ** 2) * denom
        if numer > 0 and (b not in best or numer * best[b][1] > best[b][0] * denom):
            best[b] = numer, denom, n, i
    splits: list = [None] * len(nodes)
    if not best:
        return splits
    node = np.array(list(best))
    won = np.array([i for *_, i in best.values()])
    features = np.zeros(len(nodes), dtype=np.int64)
    thresholds = np.full(len(nodes), np.inf)  # a node without a split keeps its order
    f = features[node] = candidates[node, (won - row_start[node] * m) // sizes[node]]
    rank = (1 << n_all.bit_length()) - 1
    thresholds[node] = (S[step[won] & rank, f] + S[step[won + 1] & rank, f]) / 2.0
    # the children are those of ``x <= threshold``, as predict routes them
    goes_left = X.take(rows * d + features[row_node]) <= thresholds[row_node]
    n_left = np.add.reduceat(goes_left * draws, row_start)
    pos_left = np.add.reduceat(goes_left * draws * (codes[rows, 0] & 1), row_start)
    rows_left = np.add.reduceat(goes_left, row_start, dtype=np.int64)
    order = np.argsort(row_node * 2 + ~goes_left, kind="stable")
    samples[at], weights[at] = rows[order], draws[order]
    for b, (numer, denom, n, _) in best.items():
        splits[b] = (int(features[b]), float(thresholds[b]), numer / (n * n * denom),
                     int(n_left[b]), int(pos_left[b]), int(rows_left[b]))
    return splits


def _split_batch(X, codes, S, samples, weights, nodes, min_samples_leaf):
    """Split many nodes, one batched search per SPLIT_BLOCK entries.

    ``codes`` and ``S`` come from ``_sort_codes(X, y)``. Each node is
    (start, stop, candidate features): its samples are the rows
    ``samples[start:stop]`` of X, drawn ``weights[start:stop]`` times
    each, and every node has the same number of candidates. Counting draws,
    it returns per node None or (feature, threshold, Gini decrease, draws
    left, positives left, rows left), with ``best_split``'s rules on the
    repeated rows; a split node's (row, weight) pairs are reordered to hold
    its left child's, then its right child's, each in their former order.

    Each (node, feature) column is one group of a single sort over integer
    keys (group, rank, label, draws), which orders every group by value at
    once; segmented cumulative sums of the draws and the positive draws
    give the class counts left of each cut. Split quality is settled
    exactly: a float ratio shortlists each node's cuts within rounding of
    its maximum, and integer cross-multiplication picks the winner. The
    threshold is the midpoint of the two sorted values around the cut.
    """
    entries = [(stop - start) * len(features) for start, stop, features in nodes]
    splits, first = [], 0
    while first < len(nodes):
        end, total = first + 1, entries[first]
        while end < len(nodes) and total + entries[end] <= SPLIT_BLOCK:
            total += entries[end]
            end += 1
        splits += _split_chunk(X, codes, S, samples, weights, nodes[first:end], min_samples_leaf)
        first = end
    return splits


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
    then the lower threshold. This is the one-node call of the batched
    search that grows forests (``_split_batch``).
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    n, features = len(y), np.asarray(candidate_features, dtype=np.int64)
    if X.ndim != 2 or len(X) != n or n == 0 or len(features) == 0:
        raise ValueError("best_split needs (n, d) samples, one label per row and candidate features")
    if len(bad := features[(features < 0) | (features >= X.shape[1])]):
        raise ValueError(f"candidate feature {bad[0]} is outside [0, {X.shape[1]})")
    split = _split_batch(X, *_sort_codes(X, y), np.arange(n), np.ones(n, dtype=np.int64),
                         [(0, n, features)], min_samples_leaf)[0]
    return None if split is None else split[:3]


def _candidate_sets(d, m):
    """A function of a tree's RNG yielding successive ``rng.choice(d, m, replace=False)`` sets.

    numpy draws a set by Floyd's algorithm from [0, j], j = d-m ... d-1, then shuffles it
    from [0, i], i = m-1 ... 1; ``rng.integers`` over those bounds draws the same stream.
    """
    if d > 10000 and m > d // 50:  # numpy's tail shuffle is not Floyd's algorithm
        return lambda rng: (rng.choice(d, size=m, replace=False) for _ in itertools.repeat(None))
    tile = np.tile(np.r_[d - m + 1:d + 1, m:1:-1], max(CANDIDATE_BLOCKS))  # largest block's bounds
    def sets(rng):
        yield rng.choice(d, size=m, replace=False)  # a shallow tree pays no block set-up
        for block in itertools.chain(CANDIDATE_BLOCKS, itertools.repeat(CANDIDATE_BLOCKS[-1])):
            for draws in rng.integers(0, tile[:block * (2 * m - 1)]).reshape(block, -1).tolist():
                chosen = {}  # in draw order; a value drawn before is replaced by j
                for j, v in zip(range(d - m, d), draws):
                    chosen[j if v in chosen else v] = None
                chosen = list(chosen)
                for i, k in zip(range(m - 1, 0, -1), draws[m:]):
                    chosen[i], chosen[k] = chosen[k], chosen[i]
                yield chosen
    return sets


def _preorder(start, stop, n, pos, sets, config, nodes):
    """Grow one tree in preorder, as a generator of its split searches.

    A node is a range [start, stop) of the forest's row and weight buffers
    holding ``n`` draws, ``pos`` of them positive (leaf fractions and
    ``min_samples_leaf`` count draws). For each node that needs a split
    search the tree yields (start, stop, ``next(sets)``); it is sent back
    that node's ``_split_batch`` result. Once the tree is complete it
    yields None, so a driver takes ``next(tree)`` and then
    ``tree.send(split)`` until it sees None. Each node appends its
    [feature, threshold, left, right, value] row to ``nodes``, with child
    indices local to the tree. The stack holds (start, stop, draws,
    positives, depth, parent) with the right child pushed before the left,
    so nodes (and their candidate sets) come in preorder: a left child is
    its parent's next node, and a right child fills in its parent's ``right``.
    """
    stack = [(start, stop, n, pos, 0, -1)]
    while stack:
        start, stop, n, pos, depth, parent = stack.pop()
        node = len(nodes) // 5
        if parent >= 0:
            nodes[5 * parent + 3] = node
        split = None
        if not (
            pos == 0
            or pos == n
            or (config.max_depth is not None and depth >= config.max_depth)
            or n < 2 * config.min_samples_leaf
        ):
            split = yield start, stop, next(sets)
        # a midpoint that rounds onto the upper of two adjacent floats can
        # send every sample left; such a node stays a leaf
        if split is None or split[3] == n:
            nodes.extend((-1, 0.0, -1, -1, pos / n))
            continue
        f, t, _, n_left, pos_left, rows_left = split
        stack.append((start + rows_left, stop, n - n_left, pos - pos_left, depth + 1, node))
        stack.append((start, start + rows_left, n_left, pos_left, depth + 1, -1))
        nodes.extend((f, t, node + 1, -1, 0.0))
    yield None


def train_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig, role: str = "") -> RoleClassifier:
    """Fit a bootstrap ensemble on (n, d) features and binary labels.

    Callers are expected to present samples in a canonical order (the
    pipeline sorts by triple id) so that training is invariant to input
    file order. Requires labels 0 or 1, at least one sample of each class
    and finite features.

    The trees grow in lockstep rounds (``_preorder``, ``_split_batch``), as
    the module docstring describes; a node is a range of two buffers that
    hold every tree's distinct bootstrap rows and their draw counts (its
    ``np.bincount``; the zero counts are its out-of-bag rows). After the
    bootstrap a tree's RNG draws only candidate sets, in blocks that equal
    one ``rng.choice`` per searched node (``_candidate_sets``).
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    codes, S = _sort_codes(X, y)  # first, as it refuses a label other than 0 or 1
    n, d = X.shape
    if d == 0:
        raise ValueError(f"X has {d} features; training needs at least one")
    bad = np.argwhere(~np.isfinite(X))
    if len(bad):
        row, column = bad[0].tolist()
        raise ValueError(f"feature at row {row}, column {column} is {X[row, column]}; "
                         "features must be finite")
    pos = int(y.sum())
    if pos == 0 or pos == n:
        raise ValueError(
            "training requires samples of both classes; "
            "the pipeline skips single-class roles instead of training them"
        )
    if config.features_per_split is not None and config.features_per_split > d:
        raise ValueError(f"features_per_split exceeds feature count {d}")
    draw_sets = _candidate_sets(d, config.features_per_split or min(d, math.ceil(math.sqrt(d))))

    samples, weights = np.empty((2, config.n_trees * n), dtype=np.int64)
    trees, requests, stop = [], [], 0
    for t in range(config.n_trees):
        rng = make_rng(config.seed, f"tree{t}")
        # int64, the default: a draw of another dtype is another stream
        drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(drawn)
        start, stop = stop, stop + len(rows)
        samples[start:stop], weights[start:stop] = rows, drawn[rows]
        trees.append(array("d"))
        tree = _preorder(start, stop, n, int(drawn @ y), draw_sets(rng), config, trees[-1])
        if (request := next(tree)) is not None:
            requests.append((tree, request))
    while requests:
        nodes = [request for _, request in requests]
        splits = _split_batch(X, codes, S, samples, weights, nodes, config.min_samples_leaf)
        requests = [
            (tree, request)
            for (tree, _), split in zip(requests, splits)
            if (request := tree.send(split)) is not None
        ]

    sizes = [len(nodes) // 5 for nodes in trees]
    table = np.concatenate([np.frombuffer(nodes).reshape(-1, 5) for nodes in trees])
    del trees
    roots = np.cumsum([0] + sizes[:-1])
    offset = np.repeat(roots, sizes)  # tree-local child indices become forest-wide
    for k in (2, 3):
        table[:, k] = np.where(table[:, k] >= 0, table[:, k] + offset, -1)
    return RoleClassifier(
        role=role,
        config=config,
        training_size=(pos, n - pos),
        n_features=d,
        roots=roots,
        **{name: table[:, k].astype(dtype) for k, (name, dtype) in enumerate(NODE_ARRAYS.items())},
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


def _json_parts(classifier: RoleClassifier):
    """The model JSON in pieces: the header, then one array at a time, so
    that only one node array is a list of Python numbers at once."""
    cfg = classifier.config
    header = {
        "role": classifier.role,
        "config": {field.name: getattr(cfg, field.name) for field in fields(ForestConfig)},
        "training_size": list(classifier.training_size),
        "n_features": classifier.n_features,
    }
    yield json.dumps(header, separators=(",", ":"))[:-1]
    for name in ("roots", *NODE_ARRAYS):
        yield f',"{name}":' + json.dumps(getattr(classifier, name).tolist(), separators=(",", ":"))
    yield "}"


def classifier_to_json(classifier: RoleClassifier) -> str:
    return "".join(_json_parts(classifier))


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
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long int, deep nesting
        raise ValueError(f"corrupt classifier JSON: {getattr(exc, 'msg', exc)}") from None
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
    if not isinstance(payload["role"], str):
        raise ValueError(f"'role' must be a string, got {payload['role']!r}")
    size = payload["training_size"]
    if not isinstance(size, list) or len(size) != 2:
        raise ValueError("'training_size' must be a [positives, negatives] list")
    size = tuple(_int(v, "'training_size'") for v in size)
    if min(size) < 0:
        raise ValueError(f"'training_size' counts must be >= 0, got {list(size)}")
    classifier = RoleClassifier(
        role=payload["role"],
        config=ForestConfig(**config_obj),
        training_size=size,
        n_features=_int(payload["n_features"], "'n_features'"),
        roots=_number_array(payload["roots"], "roots", np.int64),
        **{name: _number_array(payload[name], name, dtype) for name, dtype in NODE_ARRAYS.items()},
    )
    _check_nodes(classifier)
    return classifier


def save_classifier(classifier: RoleClassifier, path) -> None:
    with open_atomic(path) as f:
        f.writelines(_json_parts(classifier))
        f.write("\n")


def load_classifier(path) -> RoleClassifier:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return classifier_from_json(f.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
