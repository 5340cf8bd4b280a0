"""Print the sha256 of every artifact of seeded CLI runs, to compare builds.

For seeds 2101 and 777 it writes the benchmark generator's C7 set
(``labeled(seed, 400)``), its label-flipped copy (``noisy(seed, 700,
0.2)``) and a mixed score stream (``stream(seed, 640)``, with unknown
roles and all-OOV contexts). It runs ``rolerank pipeline`` on the C7 set
(6 SGNS epochs, fractions 0.1,0.5,0.9), then ``rolerank train`` on the
flipped set against that run's embeddings, then ``rolerank score
--per-role`` on the stream against those models and embeddings: the
path that scores triples without precomputed features. It prints
``sha256  <seed>/<path>`` for every file, inputs and each run's stdout
included, in a temporary directory that it removes. The runs take paths
relative to that directory, so no output names it. Run from anywhere:

    python tools/artifact_digests.py > digests.txt

and compare two checkouts' outputs with ``diff``. It exits 1 if a run
fails. Digests compare only on one machine and numpy build: SGNS vectors
depend on the CPU's floating-point kernels, and every artifact after them
on the vectors.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

SEEDS = (2101, 777)


def run(argv: list[str], cwd: str, stdout_path: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "rolerank.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    stdout_path.write_text(done.stdout, encoding="utf-8")
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            seed_dir = Path(tmp, str(seed))
            seed_dir.mkdir()
            gen.write_jsonl(gen.labeled(seed, 400), seed_dir / "labeled.jsonl")
            gen.write_jsonl(gen.noisy(seed, 700, 0.2), seed_dir / "noisy.jsonl")
            gen.write_jsonl(gen.stream(seed, 640)[0], seed_dir / "stream.jsonl")
            (seed_dir / "run.conf").write_text("embedding.epochs = 6\n", encoding="utf-8")
            common = ["--config", f"{seed}/run.conf", "--seed", str(seed)]
            run(["pipeline", "--labeled", f"{seed}/labeled.jsonl", "--fractions", "0.1,0.5,0.9",
                 "--out", f"{seed}/pipeline", *common], tmp, seed_dir / "pipeline.stdout")
            run(["train", "--labeled", f"{seed}/noisy.jsonl",
                 "--embeddings", f"{seed}/pipeline/embeddings.txt",
                 "--out", f"{seed}/train", *common], tmp, seed_dir / "train.stdout")
            run(["score", "--per-role", "--triples", f"{seed}/stream.jsonl",
                 "--models", f"{seed}/train/models", "--embeddings", f"{seed}/pipeline/embeddings.txt",
                 "--out", f"{seed}/score", *common], tmp, seed_dir / "score.stdout")
            for path in sorted(p for p in seed_dir.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(tmp).as_posix()}")


if __name__ == "__main__":
    main()
