"""Binary random forest over context feature vectors, built from scratch.

Classic recipe: each tree is grown on a bootstrap resample with CART
greedy splits; at every node a random subset of features is considered
and the best Gini-decrease threshold (midpoints between consecutive
distinct values) is chosen. Leaves store the positive-class fraction of
the samples that reached them, and the forest's score is the mean leaf
fraction over trees, read as a probability in [0, 1].

A forest's trees grow together, one depth at a time, as XGBoost grows
its trees depth-wise (Chen & Guestrin 2016). Every random choice is a
hash of where it lands, the counter-based idea of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011): ``_mix(key,
counter)`` is the SplitMix64 finalizer of Steele, Lea & Flood (OOPSLA
2014) in uint64 arithmetic. Tree t's key is the mix of the forest's seed
and t, its root's key is that key, and a child's key is the mix of its
parent's key and its side. A bootstrap row is the mix of the tree key
and the draw index, modulo n; a node's candidate set is the m features
whose mix of node key and column is smallest. So a tree's draws depend
on that tree alone, in no order, and are the same integers on every
numpy version and CPU. Tree t's bootstrap is row t of one (trees, n)
matrix of draw counts. The nodes of one depth that need a split search
form the frontier, in id order; one batched search splits them all, and
their children that need a search are the next depth's frontier. A tree
holds the rows it drew weighted by draw count (scikit-learn's bootstrap
sample weights). X is ranked once per column; each (node,
candidate feature) column becomes one group of a single sort over
integer keys (group, rank, label, draws), segmented cumulative sums give
the draws and positives left of every cut, a float pass shortlists each
node's cuts near its best ratio and exact integer arithmetic settles the
winner. A search returns only what growth reads: each node's feature,
threshold and left child's counts, not the decrease.

A forest is the struct-of-arrays layout of scikit-learn's ``Tree``, its
nodes numbered as the fit makes them: node t < n_trees is tree t's root,
an internal node's children are ``left`` and ``left + 1``, and the nodes
of different trees interleave. Arrays ``feature``, ``threshold``,
``left`` and ``value`` hold them, and model files store these arrays.
Siblings sitting side by side is the predication layout of Asadi, Lin &
de Vries (TKDE 2014): the live (tree, row) pairs of a batch step
WALK_LEVELS levels by ``left + (x > threshold)`` over a copy, made on a
classifier's first prediction, in which a leaf loops to itself, and
pairs that reached a leaf are dropped between those runs.

Given a seed the whole construction is deterministic: every draw is a
hash of (seed, tree, node path, column or draw index), and split ties
break toward the lower feature index and lower threshold.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .corpus import open_atomic
from .seeds import derive_seed


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None  # None = ceil(sqrt(d)) at train time
    seed: int = 1

    def __post_init__(self):
        if not 1 <= self.n_trees < 2**63:
            raise ValueError("n_trees must lie in [1, 2**63)")
        if self.max_depth is not None and not 1 <= self.max_depth < 2**63:
            raise ValueError("max_depth must lie in [1, 2**63) or be None")
        if not 1 <= self.min_samples_leaf < 2**63:
            raise ValueError("min_samples_leaf must lie in [1, 2**63)")
        if self.features_per_split is not None and not 1 <= self.features_per_split < 2**63:
            raise ValueError("features_per_split must lie in [1, 2**63) or be None")


# node array -> dtype. A node with left == -1 is a leaf whose value is its
# positive fraction (feature and threshold written as -1 and 0.0); an
# internal node (value 0.0) sends x to left if x[feature] <= threshold,
# else to left + 1.
NODE_ARRAYS = {"feature": np.int64, "threshold": np.float64, "left": np.int64, "value": np.float64}


@dataclass
class RoleClassifier:
    """One role's forest: node ``t < config.n_trees`` is tree t's root, and
    an internal node's children are ``left`` and ``left + 1``."""

    role: str
    config: ForestConfig
    training_size: tuple[int, int]  # (positives, negatives) actually trained on
    n_features: int
    feature: np.ndarray  # each NODE_ARRAYS entry is (nodes,) of its dtype
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray

    @functools.cached_property
    def _walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """predict_proba's (feature, threshold, base) copy of the forest:
        an internal node's children are ``base`` and ``base + 1``, and a
        leaf is its own base, with feature 0 and a threshold no row
        exceeds. Built on first use, so the node arrays must not change
        after it; never saved or compared."""
        leaf = self.left < 0
        return (np.where(leaf, 0, self.feature), np.where(leaf, np.inf, self.threshold),
                np.where(leaf, np.arange(len(leaf)), self.left))


# Most (sample, feature) entries one batched split search sorts at once;
# a depth's nodes are searched in chunks of this size, and a node larger
# than it is searched alone. Candidate sets hash as many columns at once.
SPLIT_BLOCK = 1 << 14
WALK_LEVELS = 4  # levels predict_proba's live pairs step between compactions


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


def _split_chunk(X, codes, S, samples, weights, starts, stops, candidates, min_samples_leaf):
    """Split the nodes of one chunk; see _split_batch."""
    n_all, d = X.shape
    sizes = stops - starts
    candidates = np.sort(candidates, axis=1)
    k, m = candidates.shape
    row_start = np.cumsum(sizes) - sizes
    row_node = np.repeat(np.arange(k), sizes)
    at = np.arange(len(row_node)) + np.repeat(starts - row_start, sizes)
    rows, draws = samples[at], weights[at]
    # group node * m + j is the node's j-th lowest candidate feature, so the
    # groups of a node run feature by feature; one sort orders every group
    # by rank, with the label below the rank and the row's draws below it
    low = int(draws.max()).bit_length()
    shift = n_all.bit_length() + 1 + low
    keys = (row_node[:, None] * m + np.arange(m)) << shift
    keys |= codes.take(rows[:, None] * d + candidates[row_node]) << low | draws[:, None]
    if (k * m) << shift <= np.iinfo(np.int32).max:
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

    # a cut's Gini decrease is the exact fraction N / (n^2 * D), and n is
    # its node's, so a node's cuts compare as N / D; decrease > 0 iff N > 0.
    # The shortlist runs node by node, then feature, then threshold, and
    # strict > keeps the first among true ties
    best: dict[int, tuple[int, int, int]] = {}
    node = np.searchsorted(row_start * m, shortlist, "right") - 1
    counts = (x[shortlist].astype(np.int64).tolist() for x in (nl, nr, pl, pr))
    for i, b, a, c, e, f in zip(shortlist.tolist(), node.tolist(), *counts):
        n, pos, denom = a + c, e + f, a * c
        t = (e**2 + (a - e) ** 2) * c + (f**2 + (c - f) ** 2) * a
        numer = n * t - (pos**2 + (n - pos) ** 2) * denom
        if numer > 0 and (b not in best or numer * best[b][1] > best[b][0] * denom):
            best[b] = numer, denom, i
    feature = np.full(k, -1)
    threshold = np.full(k, np.inf)  # a node without a split sends every row left
    if best:
        node = np.array(list(best))
        won = np.array([i for *_, i in best.values()])
        f = feature[node] = candidates[node, (won - row_start[node] * m) // sizes[node]]
        rank = (1 << n_all.bit_length()) - 1
        threshold[node] = (S[step[won] & rank, f] + S[step[won + 1] & rank, f]) / 2.0
    # the children are those of ``x <= threshold``, as predict routes them
    goes_left = X.take(rows * d + feature.clip(0)[row_node]) <= threshold[row_node]
    n_left = np.add.reduceat(goes_left * draws, row_start)
    pos_left = np.add.reduceat(goes_left * draws * (codes[rows, 0] & 1), row_start)
    rows_left = np.add.reduceat(goes_left, row_start, dtype=np.int64)
    order = np.argsort(row_node * 2 + ~goes_left, kind="stable")
    samples[at], weights[at] = rows[order], draws[order]
    return feature, threshold, n_left, pos_left, rows_left


def _split_batch(X, codes, S, samples, weights, starts, stops, candidates, min_samples_leaf):
    """Split many nodes, one batched search per SPLIT_BLOCK entries.

    ``codes`` and ``S`` come from ``_sort_codes(X, y)``. Node i's samples
    are the rows ``samples[starts[i]:stops[i]]`` of X, drawn
    ``weights[starts[i]:stops[i]]`` times each, and ``candidates[i]`` are
    its m candidate features. Counting draws, it returns five per-node
    arrays: feature, threshold, draws left, positives left and rows left.
    A node's split is its cut of largest Gini decrease, ties going to the
    lower feature index, then the lower threshold; the threshold is the
    midpoint of the two distinct sorted values around the cut, and rows
    with x <= threshold go left. A node without a cut of positive decrease
    (pure, or conflicting labels on equal values) has feature -1 and sends
    all of its rows left. A node's (row, weight) pairs are reordered to
    hold its left child's, then its right child's, each in their former
    order.

    Each (node, feature) column is one group of a single sort over integer
    keys (group, rank, label, draws), which orders every group by value at
    once; segmented cumulative sums of the draws and the positive draws
    give the class counts left of each cut. Split quality is settled
    exactly: a float ratio shortlists each node's cuts within rounding of
    its maximum, and integer cross-multiplication picks the winner.
    """
    before = np.append(0, np.cumsum((stops - starts) * candidates.shape[1]))  # entries before a node
    parts, first = [], 0
    while first < len(starts):
        # the most nodes that fit in SPLIT_BLOCK entries, and at least one
        end = max(first + 1, int(np.searchsorted(before, before[first] + SPLIT_BLOCK, "right")) - 1)
        parts.append(_split_chunk(X, codes, S, samples, weights, starts[first:end], stops[first:end],
                                  candidates[first:end], min_samples_leaf))
        first = end
    return [np.concatenate(column) for column in zip(*parts)]


def _check_finite(X: np.ndarray) -> None:
    """Refuse (n, d) features with a non-finite entry, naming the first."""
    if not np.isfinite(X).all():
        row, column = np.argwhere(~np.isfinite(X))[0].tolist()
        raise ValueError(f"feature at row {row}, column {column} is {X[row, column]}; "
                         "features must be finite")


# _mix counters of a key: its bootstrap draws count from 0, its columns
# from COLUMN, and CHILD are its (left, right) children's, so no two of
# them share an input
COLUMN, CHILD = 1 << 62, (1 << 63) + np.arange(2, dtype=np.uint64)


def _mix(key, counter):
    """The SplitMix64 finalizer of ``key + counter * 0x9E3779B97F4A7C15``
    over uint64 arrays, which wrap mod 2**64 without a warning; for
    counter >= 1 it is output ``counter`` of SplitMix64 seeded ``key``.
    It works in place, so its peak is the result and one temporary."""
    z = counter * 0x9E3779B97F4A7C15 + key
    for shift, factor in (30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB):
        z ^= z >> shift
        z *= factor
    return np.bitwise_xor(z, z >> 31, out=z)


def _candidate_sets(keys, d, m):
    """One candidate set per uint64 node key, (len(keys), m): the m columns
    c of smallest ``_mix(key, COLUMN + c)``, whose low
    ``(d - 1).bit_length()`` bits are replaced by c, so a key's hashes are
    distinct and a set's columns are read back from them. Keys are hashed
    SPLIT_BLOCK // d at a time, one at least, so a draw holds one such
    block of hashes whatever the frontier. The split search sorts each
    set, so a set is in no particular order.
    """
    bits, columns = (d - 1).bit_length(), np.arange(d, dtype=np.uint64)
    sets, step = np.empty((len(keys), m), dtype=np.int64), max(1, SPLIT_BLOCK // d)
    for a in range(0, len(keys), step):
        hashes = _mix(keys[a:a + step, None], COLUMN + columns) >> bits << bits | columns
        hashes.partition(m - 1, axis=1)  # in place: argpartition's index array would add a block
        sets[a:a + step] = hashes[:, :m] & (1 << bits) - 1
    return sets


def _needs_search(nodes, config, depth):
    """Which (id, start, stop, draws, positives, key) node rows at
    ``depth`` need a split search: impure, above ``max_depth``, with draws
    for two leaves."""
    draws, pos = nodes[:, 3], nodes[:, 4]
    return (pos > 0) & (pos < draws) & (draws >= 2 * config.min_samples_leaf) & (depth != config.max_depth)


def train_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig, role: str = "") -> RoleClassifier:
    """Fit a bootstrap ensemble on (n, d) features and binary labels.

    Callers are expected to present samples in a canonical order (the
    pipeline sorts by triple id) so that training is invariant to input
    file order. Requires labels 0 or 1, at least one sample of each class
    and finite features.

    Tree t's bootstrap is row t of ``drawn``, the (trees, n) matrix of
    draw counts; its zeros are the tree's out-of-bag rows. A node is a row
    (id, start, stop, draws, positives, key) whose range of two buffers,
    ``samples`` and ``weights``, holds the nonzero entries of its tree's
    row: the rows drawn and their counts. The trees grow one depth at a
    time: the frontier holds the nodes of this depth that need a split
    search, in id order, and one batched search splits them all. Nodes
    get ids as they are made, roots first, and a split's children the next
    two; those ids are the classifier's node numbering.
    """
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    codes, S = _sort_codes(X, y)  # first, as it refuses a label other than 0 or 1
    n, d = X.shape
    if d == 0:
        raise ValueError(f"X has {d} features; training needs at least one")
    _check_finite(X)
    pos = int(y.sum())
    if pos == 0 or pos == n:
        raise ValueError(
            "training requires samples of both classes; "
            "the pipeline skips single-class roles instead of training them"
        )
    if config.features_per_split is not None and config.features_per_split > d:
        raise ValueError(f"features_per_split exceeds feature count {d}")
    m = config.features_per_split or math.ceil(math.sqrt(d))

    trees = config.n_trees
    # tree t's key is keys[t, 0], made first so that a huge n_trees fails at
    # once; its draw i is row _mix(key, i) mod n (modulo bias <= n / 2**64),
    # counted at t * n + row
    keys = _mix(derive_seed(config.seed, "forest"), np.arange(trees, dtype=np.uint64)[:, None])
    drawn = _mix(keys, np.arange(n, dtype=np.uint64)) % n + n * np.arange(trees, dtype=np.uint64)[:, None]
    drawn = np.bincount(drawn.view(np.int64).ravel(), minlength=trees * n).reshape(trees, n)
    flat = np.flatnonzero(drawn)  # t * n + i for each row i that tree t drew
    weights = drawn.ravel()[flat]
    bounds = np.searchsorted(flat, np.arange(trees + 1) * n)
    positives = drawn @ (codes[:, 0] & 1)
    samples = np.remainder(flat, n, out=flat)
    del drawn
    # node rows are (id, start, stop, draws, positives, key), the key's
    # uint64 bits held as int64; root t is node t, keyed by tree t's key
    nodes = np.stack([np.arange(trees), bounds[:-1], bounds[1:], np.full(trees, n), positives,
                      keys.view(np.int64)[:, 0]], axis=1)
    values, splits, made, depth = [positives / n], [], trees, 0
    while len(frontier := nodes[_needs_search(nodes, config, depth)]):
        feature, threshold, n_left, pos_left, rows_left = _split_batch(
            X, codes, S, samples, weights, frontier[:, 1], frontier[:, 2],
            _candidate_sets(frontier[:, 5].view(np.uint64), d, m), config.min_samples_leaf)
        # no split, or a midpoint that rounds onto the upper of two adjacent
        # floats, sends every draw left; such a node stays a leaf
        split = n_left < frontier[:, 3]
        parents, k = frontier[split], int(split.sum())
        kids = np.repeat(parents[:, None], 2, axis=1)  # (k, [left, right], node row)
        kids[:, :, 0] = made + np.arange(2 * k).reshape(k, 2)
        kids[:, 0, 2] = kids[:, 1, 1] = parents[:, 1] + rows_left[split]
        kids[:, 0, 3], kids[:, 0, 4] = n_left[split], pos_left[split]
        kids[:, 1, 3:5] -= kids[:, 0, 3:5]
        kids[:, :, 5] = _mix(parents[:, 5:].view(np.uint64), CHILD).view(np.int64)
        splits.append((parents[:, 0], kids[:, 0, 0], feature[split], threshold[split]))
        values.append((kids[:, :, 4] / kids[:, :, 3]).ravel())
        nodes, made, depth = kids.reshape(2 * k, 6), made + 2 * k, depth + 1
    del samples, weights  # 16% of the fit's peak on the train-noisy shape, 44% on 20,000 rows

    feature, left = np.full((2, made), -1)
    threshold, value = np.zeros(made), np.concatenate(values)
    for parent, child, f, t in splits:
        feature[parent], threshold[parent], left[parent], value[parent] = f, t, child, 0.0
    return RoleClassifier(
        role=role,
        config=config,
        training_size=(pos, n - pos),
        n_features=d,
        feature=feature,
        threshold=threshold,
        left=left,
        value=value,
    )


def predict_proba(classifier: RoleClassifier, x: np.ndarray) -> float | np.ndarray:
    """Mean positive-class leaf fraction over all trees, in [0, 1].

    A (d,) vector gives a float; an (n, d) matrix gives an (n,) array, and
    every feature must be finite. Every (tree, row) pair starts at its
    tree's root in ``classifier._walk``; the pairs still live step
    WALK_LEVELS levels together, a leaf keeping its pairs in place, and
    then the pairs at a leaf are dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    d = classifier.n_features
    if x.shape != (d,) and (x.ndim != 2 or x.shape[1] != d):
        raise ValueError(f"expected vectors of dimension {d}, got shape {x.shape}")
    _check_finite(x.reshape(-1, d))
    feature, threshold, base = classifier._walk
    flat, n, trees = x.ravel(), x.size // d, classifier.config.n_trees
    node = np.repeat(np.arange(trees), n)  # pair t * n + i is (tree t, row i)
    live = np.flatnonzero(base[node] != node)
    at, offset = node[live], live % n * d  # offset: row i's start in flat
    while live.size:
        for _ in range(WALK_LEVELS):
            at = base.take(at) + (flat.take(offset + feature.take(at)) > threshold.take(at))
        node[live] = at
        keep = np.flatnonzero(base.take(at) != at)
        live, at, offset = live.take(keep), at.take(keep), offset.take(keep)
    # add.accumulate adds the trees strictly in order, so each score is
    # bit-identical to a running sum over the trees; np.sum may pair terms
    scores = np.add.accumulate(classifier.value[node].reshape(trees, n), axis=0)[-1] / trees
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
    for name in NODE_ARRAYS:
        yield f',"{name}":' + json.dumps(getattr(classifier, name).tolist(), separators=(",", ":"))
    yield "}"


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
    size, trees = len(c.feature), c.config.n_trees
    if any(len(getattr(c, name)) != size for name in NODE_ARRAYS):
        raise ValueError("node arrays differ in length")
    if size < trees:
        raise ValueError(f"expected {trees} trees, found {size} nodes")
    if not np.all(np.isfinite(c.threshold)):
        raise ValueError("non-finite split threshold")
    if not np.all(~np.signbit(c.value) & (c.value <= 1.0)):  # -0.0 would score -0.0
        raise ValueError("leaf fraction outside [0, 1]")
    internal = c.left >= 0
    parents, leaves = np.flatnonzero(internal), ~internal
    if np.any((c.feature[parents] < 0) | (c.feature[parents] >= c.n_features)):
        raise ValueError(f"feature index out of range [0, {c.n_features})")
    # unused slots hold one value each, and a split threshold is not -0.0
    # (it routes rows as 0.0 does), so that one model has one file;
    # thresholds are compared bit for bit, as -0.0 == 0.0
    bits = c.threshold.view(np.int64)
    if np.any((c.left[leaves] != -1) | (c.feature[leaves] != -1) | (bits[leaves] != 0)):
        raise ValueError("a leaf must have left -1, feature -1 and threshold 0.0")
    if np.any(bits[parents] == np.float64(-0.0).view(np.int64)):
        raise ValueError("a split threshold must not be -0.0")
    if np.any(c.value[parents] != 0.0):
        raise ValueError("an internal node must have value 0.0")
    children = c.left[parents]
    if np.any((children <= parents) | (children >= size - 1)):
        raise ValueError("a child index must lie after its parent, inside the node arrays")
    if not np.array_equal(np.sort(children), np.arange(trees, size, 2)):
        raise ValueError(f"the left children must be {trees}, {trees + 2}, ... each once: "
                         "every node but a root must be the child of exactly one node")
    # children lie after their parents, so this walk ends
    depth, level = 0, np.flatnonzero(internal[:trees])
    while level.size:
        if depth == c.config.max_depth:
            raise ValueError("tree deeper than config.max_depth")
        depth += 1
        level = np.concatenate([c.left[level], c.left[level] + 1])
        level = level[internal[level]]


def classifier_from_json(text: str) -> RoleClassifier:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a too-long int, deep nesting
        raise ValueError(f"corrupt classifier JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(payload, dict):
        raise ValueError("classifier JSON must be an object")
    keys = ("role", "config", "training_size", "n_features", *NODE_ARRAYS)
    for key in payload:
        if key not in keys:
            raise ValueError(f"unknown classifier JSON key {key!r}")
    for key in keys:
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
    if (n_features := _int(payload["n_features"], "'n_features'")) < 1:
        raise ValueError(f"'n_features' must be >= 1, got {n_features}")
    classifier = RoleClassifier(
        role=payload["role"],
        config=ForestConfig(**config_obj),
        training_size=size,
        n_features=n_features,
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
