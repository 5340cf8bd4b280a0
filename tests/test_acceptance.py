"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget; the conftest
hook prints a PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from rolerank.cli import main
from rolerank.corpus import build_corpus
from rolerank.embedding import (
    EmbeddingConfig,
    UnigramSampler,
    build_vocabulary,
    finalize,
    nearest_neighbors,
    train_skipgram,
    _sgns_step,
)
from rolerank.evaluation import GainMap, evaluate, ndcg, split_train_test
from rolerank.features import featurize
from rolerank.forest import ForestConfig, predict_proba, train_forest
from rolerank.pipeline import train_role_models
from rolerank.seeds import derive_seed
from synth import (
    classifier_to_json, clique_corpus, make_labeled_triples, pair_loss_and_gradients, triples_to_jsonl,
    unigram_probabilities, unit_vector_model,
)


def elapsed_under(t0, limit):
    duration = time.perf_counter() - t0
    assert duration < limit, f"runtime {duration:.1f}s exceeded the {limit}s budget"


def test_c1_gradient_correctness():
    """Analytic gradients match central finite differences (rel err < 1e-4)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    eps = 1e-5
    checked = 0
    for d, k in itertools.product((2, 5, 30), (1, 5)):
        for _ in range(17):
            center = rng.normal(scale=1 / math.sqrt(d), size=d)
            context = rng.normal(scale=1 / math.sqrt(d), size=d)
            negatives = rng.normal(scale=1 / math.sqrt(d), size=(k, d))
            _, g_center, g_context, g_negs = pair_loss_and_gradients(
                center, context, negatives
            )

            def loss_at(c, ctx, negs):
                return pair_loss_and_gradients(c, ctx, negs)[0]

            analytic = np.concatenate([g_center, g_context, g_negs.ravel()])
            numeric = np.empty_like(analytic)
            pos = 0
            for vec_idx in range(2 + k):
                for comp in range(d):
                    bump = np.zeros(d)
                    bump[comp] = eps
                    if vec_idx == 0:
                        up = loss_at(center + bump, context, negatives)
                        down = loss_at(center - bump, context, negatives)
                    elif vec_idx == 1:
                        up = loss_at(center, context + bump, negatives)
                        down = loss_at(center, context - bump, negatives)
                    else:
                        negs_up = negatives.copy()
                        negs_up[vec_idx - 2] += bump
                        negs_down = negatives.copy()
                        negs_down[vec_idx - 2] -= bump
                        up = loss_at(center, context, negs_up)
                        down = loss_at(center, context, negs_down)
                    numeric[pos] = (up - down) / (2 * eps)
                    pos += 1
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            rel = np.abs(analytic - numeric) / scale
            assert rel.max() < 1e-4, f"d={d} k={k}: max rel err {rel.max():.2e}"
            checked += 1
    assert checked >= 100
    elapsed_under(t0, 5.0)


def test_shared_negative_gradients_match_finite_differences():
    """One center, four contexts sharing k=3 negatives, as one step of the
    trainer's kernel: the lr-weighted gradients it applies match central
    finite differences of sum_i lr_i * loss_i (rel err < 1e-4), for the
    center, each context and each negative. That objective is the kernel's
    loss with each entry's loss counted by its rate."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    eps = 1e-5
    p, k = 4, 3
    flat = np.arange(p + k)  # one input row against p context and k negative rows
    for d in (2, 5, 30):
        for _ in range(5):
            vectors = rng.normal(scale=1 / math.sqrt(d), size=(1 + p + k, d))
            lr = rng.uniform(0.5, 1.5, size=p)
            rate = np.concatenate((lr, np.full(k, lr.sum())))

            def loss_at(v):
                return _sgns_step(v, 1, p, flat, rate, rate)[0]

            analytic = _sgns_step(vectors, 1, p, flat, rate, np.ones(p + k))[1].ravel()
            numeric = np.empty_like(analytic)
            for pos, (row, comp) in enumerate(np.ndindex(vectors.shape)):
                bump = np.zeros_like(vectors)
                bump[row, comp] = eps
                numeric[pos] = (loss_at(vectors + bump) - loss_at(vectors - bump)) / (2 * eps)
            scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            rel = np.abs(analytic - numeric) / scale
            assert rel.max() < 1e-4, f"d={d}: max rel err {rel.max():.2e}"
    elapsed_under(t0, 5.0)


def test_c2_unit_hypersphere_after_finalize():
    """Every finalized word vector lies on the unit hypersphere (1e-6)."""
    corpus = clique_corpus(sentences_per_clique=150)
    model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=30, epochs=3, seed=21)))
    norms = np.linalg.norm(model.input_vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_c3_negative_sampling_distribution():
    """Empirical draws over a 20-word vocabulary fit counts^0.75 (chi-square)."""
    t0 = time.perf_counter()
    corpus = [[f"w{i:02d}"] * (i + 1) for i in range(20)]
    counts = np.bincount(build_vocabulary(corpus).encode(corpus)[0])
    sampler = UnigramSampler(counts, power=0.75)
    draws = sampler.sample_n(np.random.PCG64(303), 100_000)
    observed = np.bincount(draws, minlength=20)
    expected = unigram_probabilities(counts, 0.75) * len(draws)
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01, f"chi-square p={result.pvalue:.4f}"
    elapsed_under(t0, 2.0)


def test_c4_cfv_properties():
    """CFV invariances over 1000 randomized contexts."""
    t0 = time.perf_counter()
    words = [f"word{i}" for i in range(50)]
    model = unit_vector_model(words, dim=12, seed=404)
    rng = np.random.default_rng(405)
    for case in range(1000):
        size = int(rng.integers(1, 25))
        tokens = [f"word{i}" for i in rng.integers(0, 50, size=size)]
        if case % 4 == 0:  # sprinkle OOV tokens among known ones
            tokens += ["zzz-unknown"] * int(rng.integers(1, 4))
        sentence = " ".join(tokens)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        X, nonzero = featurize([[sentence], [" ".join(shuffled)], [sentence, sentence]], model)
        assert nonzero[0]
        assert abs(np.linalg.norm(X[0]) - 1.0) < 1e-6
        assert np.abs(X[0] - X[1]).max() < 1e-9  # permuted
        assert np.abs(X[0] - X[2]).max() < 1e-9  # doubled

    all_oov, nonzero = featurize([["totally unknown gibberish"]], model)
    assert not nonzero[0] and np.all(all_oov == 0.0)
    elapsed_under(t0, 5.0)


def test_c5_ndcg_oracle_equivalence():
    """ndcg matches a permutation-enumeration oracle on 200 small rankings."""
    from rolerank.corpus import ContextualTriple, RelevanceLabel

    t0 = time.perf_counter()
    labels = (
        RelevanceLabel.IRRELEVANT,
        RelevanceLabel.NEUTRAL,
        RelevanceLabel.RELEVANT,
        RelevanceLabel.HIGHLY_RELEVANT,
    )
    gains = GainMap()  # 3/2/1/0

    def make_ranking(label_seq):
        return [
            ContextualTriple(
                id=f"t{i}", head="H", role="r", tail="T", sentences=("s",), label=lab
            )
            for i, lab in enumerate(label_seq)
        ]

    def oracle(gain_seq):
        def dcg_of(seq):
            return sum((2.0 ** g - 1.0) / math.log2(i + 2) for i, g in enumerate(seq))

        ideal = max(dcg_of(p) for p in itertools.permutations(gain_seq))
        return 1.0 if ideal == 0.0 else dcg_of(gain_seq) / ideal

    rng = np.random.default_rng(505)
    for _ in range(200):
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 7))]
        ranking = make_ranking(seq)
        expected = oracle([gains.for_label(lab) for lab in seq])
        assert ndcg(ranking, gains) == pytest.approx(expected, abs=1e-12)

    perfect = make_ranking(
        [labels[3], labels[3], labels[2], labels[1], labels[0]]
    )
    assert ndcg(perfect, gains) == 1.0

    two = make_ranking([labels[0], labels[3]])
    assert ndcg(two, gains) == pytest.approx(0.6309, abs=1e-4)
    elapsed_under(t0, 2.0)


def test_c6_forest_oracle_and_determinism():
    """Forest probability equals the per-tree traversal mean; seeded runs
    serialize identically; XOR data is fit to >= 0.95 accuracy."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    centers = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
    X, y = [], []
    for cx, cy, label in centers:
        X.append(rng.normal(loc=(cx, cy), scale=0.1, size=(50, 2)))
        y.extend([label] * 50)
    X, y = np.vstack(X), np.array(y)

    config = ForestConfig(n_trees=100, seed=607, features_per_split=2)
    classifier = train_forest(X, y, config, role="xor")
    again = train_forest(X, y, config, role="xor")
    assert classifier_to_json(classifier) == classifier_to_json(again)

    predictions = predict_proba(classifier, X)
    accuracy = np.mean((predictions >= 0.5) == y)
    assert accuracy >= 0.95

    payload = json.loads(classifier_to_json(classifier))

    def traverse(node, x):
        # tree t's root is node t; a split's children are left and left + 1
        while payload["left"][node] >= 0:
            if x[payload["feature"][node]] <= payload["threshold"][node]:
                node = payload["left"][node]
            else:
                node = payload["left"][node] + 1
        return payload["value"][node]

    probes = np.random.default_rng(608).normal(size=(100, 2))
    batch = predict_proba(classifier, probes)
    for x, batch_score in zip(probes, batch):
        oracle = np.mean([traverse(root, x) for root in range(payload["config"]["n_trees"])])
        assert predict_proba(classifier, x) == pytest.approx(oracle, abs=1e-12)
        assert batch_score == pytest.approx(oracle, abs=1e-12)
    elapsed_under(t0, 30.0)


def test_c7_end_to_end_synthetic_f1_and_ndcg():
    """Three synthetic roles, fractions 0.1/0.5/0.9: per-cell F1 and
    per-role NDCG at or above 0.90."""
    t0 = time.perf_counter()
    labeled = make_labeled_triples(n_per_role=400, seed=700)
    corpus = build_corpus(labeled)
    embedding = finalize(
        train_skipgram(corpus, EmbeddingConfig(dim=30, epochs=6, seed=701))
    )
    norms = np.linalg.norm(embedding.input_vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6  # criterion 2 rides along

    forest_config = ForestConfig(n_trees=100, seed=702)
    for fraction in (0.1, 0.5, 0.9):
        train, test = split_train_test(labeled, fraction, derive_seed(703, f"{fraction:g}"))
        bundle = train_role_models(train, embedding, forest_config)
        run = evaluate(bundle, test)
        for role, report in run.per_role.items():
            assert report.f1 >= 0.90, f"{role}@{fraction}: F1 {report.f1:.3f}"
            assert report.ndcg >= 0.90, f"{role}@{fraction}: NDCG {report.ndcg:.3f}"
    elapsed_under(t0, 180.0)


def test_c8_semantic_clustering_cliques():
    """On the two-clique corpus every word's nearest neighbors stay in-clique."""
    t0 = time.perf_counter()
    cliques = (("a", "b", "c"), ("x", "y", "z"))
    corpus = clique_corpus(cliques=cliques, sentences_per_clique=500, seed=801)
    model = finalize(train_skipgram(corpus, EmbeddingConfig(dim=30, epochs=12, seed=802)))
    norms = np.linalg.norm(model.input_vectors, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6
    for clique in cliques:
        for word in clique:
            neighbors = nearest_neighbors(model, word, len(clique) - 1)
            neighbor_words = {w for w, _ in neighbors}
            assert neighbor_words <= set(clique), f"{word}: {neighbor_words}"
    elapsed_under(t0, 60.0)


def test_three_times_the_default_rate_stays_under_the_divergence_bound():
    """A step scores SENTENCES_PER_STEP sentences from one snapshot, so a
    larger step diverges at a lower rate. At three times the default
    lr_initial, the C7 corpus and the C8 clique corpus, trained as C7 and
    C8 train them, end under (1 + k) ln 2, the loss they start from. C8 is
    the hard case: its sentences come clique by clique, so every word of a
    step repeats in each of its sentences. With 8 sentences per step both
    diverge at this rate."""
    t0 = time.perf_counter()
    c7 = build_corpus(make_labeled_triples(n_per_role=400, seed=700))
    c8 = clique_corpus(cliques=(("a", "b", "c"), ("x", "y", "z")), sentences_per_clique=500,
                       seed=801)
    lr_initial = 3 * EmbeddingConfig().lr_initial
    for corpus, epochs, seed in ((c7, 6, 701), (c8, 12, 802)):
        config = EmbeddingConfig(dim=30, epochs=epochs, seed=seed, lr_initial=lr_initial)
        model = train_skipgram(corpus, config)
        assert model.epoch_losses[-1] <= (1 + config.negatives) * np.log(2)
    elapsed_under(t0, 30.0)


def test_c9_pipeline_reproducibility(tmp_path):
    """The pipeline subcommand run with one seed is byte-identical: twice
    in this process, and once in each of two child processes under
    PYTHONHASHSEED 1 and 2. The children's stdout, with the output
    directory replaced, must match too: the epoch losses and per-fraction
    lines are printed, not stored."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rolerank

    labeled = make_labeled_triples(n_per_role=60, seed=900)
    labeled_path = tmp_path / "labeled.jsonl"
    triples_to_jsonl(labeled, labeled_path)
    config_path = tmp_path / "cfg"
    config_path.write_text(
        "seed = 31\nembedding.dim = 12\nembedding.epochs = 3\nforest.n_trees = 20\n"
    )
    argv = ["pipeline", "--labeled", str(labeled_path), "--config", str(config_path),
            "--fractions", "0.1,0.5,0.9", "--out"]

    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        assert main(argv + [str(out)]) == 0
        outputs.append(out)
    src = str(Path(rolerank.__file__).resolve().parent.parent)
    stdouts = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-m", "rolerank.cli", *argv, str(out)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        stdouts.append(done.stdout.replace(str(out), "<out>"))
        outputs.append(out)
    assert stdouts[0] == stdouts[1]

    def artifacts(out):
        return sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())

    first = outputs[0]
    names = artifacts(first)
    assert {"embeddings.txt", "scores.jsonl", "report.json", "report.csv",
            "models/manifest.json"} < set(names)
    for other in outputs[1:]:
        assert artifacts(other) == names, other.name
        for name in names:
            assert (first / name).read_bytes() == (other / name).read_bytes(), (other.name, name)
