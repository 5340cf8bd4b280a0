"""Compare the CPU time of two checkouts' rolerank, alternating in one process.

Imports ``src/rolerank`` of each checkout under its own module name
(``rolerank_a``, ``rolerank_b``), then times ``--reps`` pairs of runs with
``time.process_time``, A first in even pairs and B first in odd ones,
after one untimed warm-up run of each. A run is ``train_skipgram`` on the
chosen corpus; with ``--pipeline`` an in-process ``rolerank pipeline``
on the benchmark's C7 set (6 SGNS epochs, 100 trees) in a fresh temporary
directory; with ``--score`` one pass of the benchmark's score-stream
workload: ``score_triples`` + ``rank`` over ``stream(2101, 12800)`` in
64-triple batches. Its models have train-noisy's shape (``noisy(2101,
700, 0.2)``, 100 trees, embeddings of 2 SGNS epochs on 600 of its
triples); each side trains its own and saves and loads it, untimed,
through its ``pipeline.save_bundle`` and ``pipeline.load_bundle``, so
the two sides may store models in different file formats, but
``--score`` needs both checkouts to have that pair.
Corpora:

  c7       the benchmark generator's C7 set (``labeled(2101, 400)``),
           pooled as ``build_corpus`` pools it, 6 epochs;
  zipf10k  80,000 sentences of 0 to 7 words drawn from 10,000 words by
           the Zipf law of ``zipf_corpus()`` in tests/test_embedding.py
           (about 8,500 of them occur), 1 epoch.

It prints each side's median CPU seconds, their ratio, the pairs B won
and whether every run's digest (the vectors, output vectors and losses,
every file the pipeline wrote and its stdout, or every scored triple's id,
score and fallback flag in rank order) equals A's first, and exits 1 if
one does not. With ``--score`` it also prints each side's median CPU
seconds a pass spends inside ``featurize`` and ``predict_proba``, timed
by wrapping the names ``pipeline`` calls them by on both sides. Run from
anywhere, with one BLAS thread unless ``OPENBLAS_NUM_THREADS`` says
otherwise:

    python tools/ab_cpu.py PARENT_CHECKOUT CHANGE_CHECKOUT --corpus zipf10k --reps 10
    python tools/ab_cpu.py PARENT_CHECKOUT CHANGE_CHECKOUT --score --reps 10
"""

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

SEED = 2101  # of the C7 set, SGNS, the pipeline run and the score stream
C7_EPOCHS = 6
BATCH = 64  # triples a score_triples call takes, as in the benchmark
SPANS = ("featurize", "predict_proba")  # what --score times inside score_triples


def load(checkout: str, name: str):
    """``checkout``'s rolerank package, imported as ``name``."""
    init = Path(checkout, "src", "rolerank", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def zipf10k() -> list[list[str]]:
    rng = np.random.default_rng(11)
    p = 1 / np.arange(1, 10_001) ** 1.2
    lengths = rng.integers(0, 8, size=80_000)
    words = np.array([f"w{i}" for i in range(10_000)])[rng.choice(10_000, size=lengths.sum(), p=p / p.sum())]
    return [sentence.tolist() for sentence in np.split(words, np.cumsum(lengths)[:-1])]


def skipgram_run(package, corpus, epochs: int):
    """One ``train_skipgram`` run: its CPU seconds and result digest."""
    config = package.EmbeddingConfig(epochs=epochs, seed=SEED)
    start = time.process_time()
    model = package.train_skipgram(corpus, config)
    seconds = time.process_time() - start
    digest = hashlib.sha256(model.input_vectors.tobytes() + model.output_vectors.tobytes())
    digest.update(np.array(model.epoch_losses).tobytes())
    return seconds, digest.hexdigest()


def pipeline_run(package):
    """One in-process ``rolerank pipeline`` run: its CPU seconds and the
    digest of its stdout and of every file it wrote, by relative path."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            gen.write_jsonl(gen.labeled(SEED, 400), "labeled.jsonl")
            Path("run.conf").write_text(f"embedding.epochs = {C7_EPOCHS}\nforest.n_trees = 100\n")
            argv = ["pipeline", "--labeled", "labeled.jsonl", "--config", "run.conf",
                    "--seed", str(SEED), "--out", "out"]
            stdout = io.StringIO()
            start = time.process_time()
            with contextlib.redirect_stdout(stdout):
                code = importlib.import_module(f"{package.__name__}.cli").main(argv)
            seconds = time.process_time() - start
            if code != 0:
                sys.exit(f"pipeline exited {code}")
            digest = hashlib.sha256(stdout.getvalue().encode())
            for path in sorted(Path("out").rglob("*")):
                if path.is_file():
                    digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
        finally:
            os.chdir(cwd)
    return seconds, digest.hexdigest()


def score_bundle(package):
    """Train-noisy-shaped models and embeddings, trained and saved by
    ``package`` into a temporary directory and loaded back, with the
    checks of ``rolerank score``: its ModelBundle."""
    labeled = package.parse_triples(gen.to_jsonl(gen.noisy(SEED, 700, 0.2)).splitlines())
    corpus = package.build_corpus(labeled[:: len(labeled) // 600])
    embedding = package.finalize(package.train_skipgram(corpus, package.EmbeddingConfig(epochs=2, seed=SEED)))
    trained = package.train_role_models(labeled, embedding, package.ForestConfig(n_trees=100, seed=SEED))
    with tempfile.TemporaryDirectory() as tmp:
        package.save_embedding(embedding, Path(tmp, "embeddings.txt"))
        package.pipeline.save_bundle(trained, Path(tmp, "models"), Path(tmp, "embeddings.txt"))
        return package.pipeline.load_bundle(Path(tmp, "models"), Path(tmp, "embeddings.txt"))


def time_inside(module, names, spent: dict) -> None:
    """Wrap each of ``module``'s ``names`` so that every call adds its CPU
    seconds to ``spent[name]``."""
    for name in names:
        def timed(*args, inner=getattr(module, name), name=name, **kwargs):
            start = time.process_time()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[name] += time.process_time() - start
        setattr(module, name, timed)


def score_run(package, bundle, batches, spent: dict):
    """One pass of ``score_triples`` + ``rank`` over the batches: its CPU
    seconds, the digest of every ranked (id, score, fallback) and the CPU
    seconds spent inside each of SPANS."""
    spent.update(dict.fromkeys(SPANS, 0.0))
    start = time.process_time()
    ranked = [package.rank(package.score_triples(batch, bundle)) for batch in batches]
    seconds = time.process_time() - start
    digest = hashlib.sha256()
    for s in (s for batch in ranked for s in batch):
        digest.update(f"{s.triple.id}\t{s.score!r}\t{s.oov_fallback}\n".encode())
    return seconds, digest.hexdigest(), dict(spent)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--corpus", choices=("c7", "zipf10k"), default="c7")
    parser.add_argument("--pipeline", action="store_true", help="time rolerank pipeline (c7 only)")
    parser.add_argument("--score", action="store_true", help="time a score-stream pass")
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.pipeline and args.corpus != "c7":
        parser.error("--pipeline runs on the c7 set only")
    if args.score and (args.pipeline or args.corpus != "c7"):
        parser.error("--score takes neither --pipeline nor --corpus")
    sides = [load(args.checkout_a, "rolerank_a"), load(args.checkout_b, "rolerank_b")]
    if args.score:
        lines = gen.to_jsonl(gen.stream(SEED, 200 * BATCH)[0]).splitlines()
        runs = []
        for package in sides:
            bundle = score_bundle(package)
            triples = package.parse_triples(lines)
            batches = [triples[i:i + BATCH] for i in range(0, len(triples), BATCH)]
            spent = {}
            time_inside(package.pipeline, SPANS, spent)
            runs.append(lambda package=package, bundle=bundle, batches=batches, spent=spent:
                        score_run(package, bundle, batches, spent))
    elif args.pipeline:
        runs = [lambda package=package: pipeline_run(package) for package in sides]
    else:
        if args.corpus == "c7":
            triples = sides[0].parse_triples(gen.to_jsonl(gen.labeled(SEED, 400)).splitlines())
            corpus, epochs = sides[0].build_corpus(triples), C7_EPOCHS
        else:
            corpus, epochs = zipf10k(), 1
        runs = [lambda package=package: skipgram_run(package, corpus, epochs) for package in sides]

    times, inside, digests = ([], []), ([], []), set()
    for rep in range(-1, args.reps):  # rep -1 is the warm-up
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for side in order:
            seconds, digest, *spans = runs[side]()
            digests.add(digest)
            if rep >= 0:
                times[side].append(seconds)
                inside[side].extend(spans)
    median_a, median_b = map(statistics.median, times)
    won = sum(b < a for a, b in zip(*times))
    for label, checkout, median, spans in zip("AB", (args.checkout_a, args.checkout_b),
                                              (median_a, median_b), inside):
        split = "".join(f", {name} {statistics.median(s[name] for s in spans):.4f}"
                        for name in SPANS if spans)
        print(f"{label} {checkout}: median {median:.4f} s CPU{split}")
    print(f"B/A {median_b / median_a:.3f}; B faster in {won} of {args.reps} pairs")
    print(f"digests equal: {len(digests) == 1}")
    if len(digests) != 1:
        sys.exit(1)


if __name__ == "__main__":
    main()
