"""Run acceptance C7's flow over many seed sets and print how its quality spreads.

C7 (tests/test_acceptance.py) checks per-cell F1 and NDCG >= 0.90 at one
pinned set of seeds. This sweep runs the same flow, in one process, on
seed sets s = S, S + 1, ...:

  labeled triples   ``make_labeled_triples(n_per_role=400, seed=4s)``
  embeddings        ``train_skipgram`` (dim 30, 6 epochs, seed 4s + 1 + K)
  forests           ``ForestConfig(n_trees=100, seed=4s + 2 + K)``
  splits            fractions 0.1, 0.5, 0.9, each seeded
                    ``derive_seed(4s + 3, f"{fraction:g}")``

``--reseed K`` adds K to every set's embedding and forest seeds and
keeps its labeled triples and splits: the spread between a run and its
reseeded twin is the noise those seeds alone move the numbers by, the
reference to judge an artifact change against.

A cell is one (set, role, fraction). It prints each set's worst F1 and
NDCG over its nine cells, the means of those over the sets, the worst
cell of each measure with where it lies, and how many cells fall below
0.90. It imports ``src/rolerank`` of CHECKOUT (default: this one) under
the name ``rolerank``, by ``tools/ab_cpu.py``'s loader, and then this
checkout's tests/synth.py, whose generator therefore builds the triples
with the package under test: their labels must be that package's
``RelevanceLabel`` members, which ``binarize_label`` compares by
identity. Run from anywhere, with one BLAS thread unless
``OPENBLAS_NUM_THREADS`` says otherwise:

    python tools/quality_sweep.py PARENT_CHECKOUT --sets 40 --first 201
"""

import argparse
import statistics
import sys
from pathlib import Path

from ab_cpu import load  # sets one BLAS thread before numpy loads

ROOT = Path(__file__).resolve().parent.parent
FRACTIONS = (0.1, 0.5, 0.9)
FLOOR = 0.90  # C7's threshold on every cell's F1 and NDCG


def sweep_set(package, make_labeled_triples, s: int, reseed: int) -> list[tuple[str, float, float, float]]:
    """The (role, fraction, F1, NDCG) cells of seed set ``s``, its
    embedding and forest seeds shifted by ``reseed``."""
    labeled = make_labeled_triples(n_per_role=400, seed=4 * s)
    config = package.EmbeddingConfig(dim=30, epochs=6, seed=4 * s + 1 + reseed)
    embedding = package.finalize(package.train_skipgram(package.build_corpus(labeled), config))
    forest_config = package.ForestConfig(n_trees=100, seed=4 * s + 2 + reseed)
    cells = []
    for fraction in FRACTIONS:
        split_seed = package.seeds.derive_seed(4 * s + 3, f"{fraction:g}")
        train, test = package.split_train_test(labeled, fraction, split_seed)
        run = package.evaluate(package.train_role_models(train, embedding, forest_config), test)
        cells += [(role, fraction, report.f1, report.ndcg) for role, report in run.per_role.items()]
    return cells


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=str(ROOT))
    parser.add_argument("--sets", type=int, default=40)
    parser.add_argument("--first", type=int, default=201)
    parser.add_argument("--reseed", type=int, default=0, metavar="K",
                        help="add K to every set's embedding and forest seeds")
    args = parser.parse_args()
    if args.sets < 1:
        parser.error("--sets must be >= 1")
    if args.first < 0:  # a set's seeds are 4s + i, and default_rng refuses a negative seed
        parser.error("--first must be >= 0")
    package = load(args.checkout, "rolerank")
    sys.path.insert(0, str(ROOT / "tests"))
    from synth import make_labeled_triples  # only once rolerank is the package under test

    cells, worst = [], []  # cells: (set, role, fraction, F1, NDCG)
    print("set   worst F1  worst NDCG")
    for s in range(args.first, args.first + args.sets):
        found = sweep_set(package, make_labeled_triples, s, args.reseed)
        cells += [(s, *cell) for cell in found]
        worst.append((min(f1 for *_, f1, _ in found), min(ndcg for *_, ndcg in found)))
        print(f"{s:<5} {worst[-1][0]:8.4f}  {worst[-1][1]:10.4f}")
    for i, name in enumerate(("F1", "NDCG")):
        s, role, fraction, *scores = min(cells, key=lambda cell: cell[3 + i])
        below = sum(cell[3 + i] < FLOOR for cell in cells)
        print(f"{name}: mean per-set worst {statistics.mean(w[i] for w in worst):.4f}; "
              f"worst cell {scores[i]:.4f} (set {s}, {role}, fraction {fraction:g}); "
              f"{below} of {len(cells)} cells below {FLOOR:.2f}")


if __name__ == "__main__":
    main()
