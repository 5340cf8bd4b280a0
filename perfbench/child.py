"""The measured process: one CLI run, a score stream, or a set-up probe.

``run.py`` starts this with ``PYTHONPATH`` naming the checkout's ``src/``:

    child.py cli --clock FILE [--spans FILE] -- <rolerank arguments>
    child.py stream --embeddings E --models DIR --triples S --kinds K \\
        --batch N --seconds T --out FILE [--spans FILE]
    child.py setup --clock FILE --triples S [--embeddings E --models DIR]

A CLI run and a set-up probe are sampled by the reference clock
(``refclock.py``), whose kernel timings go to the ``--clock`` file; a
traced CLI run also writes its spans to the ``--spans`` file.

The stream loads the artifacts through the public loaders, then calls
``score_triples`` + ``rank`` on fixed-size batches in a closed loop,
whole passes over the stream, until ``--seconds`` would be exceeded (at
least one pass). The reference-clock kernel runs between batches, and
every batch is checked, outside its timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import refclock
from gen import ALL_OOV, KNOWN, UNKNOWN_ROLE


def import_rolerank() -> float:
    start = time.perf_counter()
    import rolerank.cli  # noqa: F401  (pulls in every layer)

    return time.perf_counter() - start


def start_tracer(spans_path):
    if spans_path is None:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def load_bundle(embeddings, models_dir):
    import rolerank

    models_dir = Path(models_dir)
    embedding = rolerank.load_embedding(embeddings)
    with open(models_dir / "manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    classifiers = {}
    for role, name in sorted(manifest["roles"].items()):
        classifier = rolerank.load_classifier(models_dir / name)
        if classifier.role != role:
            raise ValueError(f"{name}: manifest says role {role!r}, file says {classifier.role!r}")
        classifiers[role] = classifier
    skipped = [tuple(entry) for entry in manifest.get("skipped", [])]
    return rolerank.ModelBundle(embedding=embedding, classifiers=classifiers, skipped_roles=skipped)


def check_batch(batch, ranked, classifiers, kinds) -> str | None:
    """The first broken output rule of one scored batch, or None."""
    if sorted(s.triple.id for s in ranked) != sorted(t.id for t in batch):
        return "ranked ids are not a permutation of the batch ids"
    for s in ranked:
        kind = kinds[s.triple.id]
        if not 0.0 <= s.score <= 1.0:
            return f"{s.triple.id}: score {s.score!r} outside [0, 1]"
        if kind == UNKNOWN_ROLE and (s.triple.role in classifiers or s.score != 0.0):
            return f"{s.triple.id}: unknown role scored {s.score!r}, not exactly 0.0"
        if kind == ALL_OOV and s.triple.role in classifiers and (
            s.score != 0.5 or not s.oov_fallback
        ):
            return f"{s.triple.id}: all-OOV context scored {s.score!r} without the 0.5 fallback"
        if kind == KNOWN and s.oov_fallback:
            return f"{s.triple.id}: in-vocabulary context flagged oov_fallback"
    for a, b in zip(ranked, ranked[1:]):
        if (-a.score, a.triple.id) > (-b.score, b.triple.id):
            return f"rank order broken at {a.triple.id} -> {b.triple.id}"
    return None


def cmd_stream(args) -> int:
    import_s = import_rolerank()
    tracer = start_tracer(args.spans)
    import rolerank

    bundle = load_bundle(args.embeddings, args.models)
    triples = rolerank.load_triples(args.triples)
    with open(args.kinds, encoding="utf-8") as f:
        kinds = json.load(f)
    batches = [triples[i : i + args.batch] for i in range(0, len(triples), args.batch)]

    pass_s, raw_pass_s, batch_ms, digests, errors = [], [], [], [], []
    scores = {}
    failed = 0
    start = time.perf_counter()
    while True:
        digest = hashlib.sha256()
        elapsed, kernels = [], [refclock.kernel()]
        for batch in batches:
            t0 = time.perf_counter()
            ranked = rolerank.rank(rolerank.score_triples(batch, bundle))
            elapsed.append(time.perf_counter() - t0)
            kernels.append(refclock.kernel())
            error = check_batch(batch, ranked, bundle.classifiers, kinds)
            if error is not None:
                failed += 1
                errors.append(error)
            for s in ranked:
                digest.update(f"{s.triple.id}\t{s.score!r}\t{s.oov_fallback}\n".encode())
                if not pass_s:
                    scores[s.triple.id] = [s.score, s.oov_fallback]
        ref = refclock.reference_series(elapsed, kernels)
        batch_ms += [r * 1000.0 for r in ref]
        pass_s.append(sum(ref))
        raw_pass_s.append(sum(elapsed))
        digests.append(digest.hexdigest())
        if time.perf_counter() - start + statistics.median(raw_pass_s) > args.seconds:
            break
    if len(set(digests)) != 1:
        failed += 1
        errors.append("score digest differs between passes over the same stream")

    result = {
        "import_s": import_s,
        "pass_s": pass_s,
        "raw_pass_s": raw_pass_s,
        "batch_ms": batch_ms,
        "attempted": len(batch_ms),
        "failed": failed,
        "errors": errors[:5],
        "digest": digests[0],
        "scores": scores,
        "roles": sorted(bundle.classifiers),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    if tracer is not None:
        tracer.dump(args.spans, import_s=import_s)
    return 0


def sampled(run, clock_path) -> int:
    """Run ``run()`` under the reference-clock sampler; write its samples."""
    sampler = refclock.Sampler()
    sampler.start()
    try:
        return run()
    finally:
        with open(clock_path, "w", encoding="utf-8") as f:
            json.dump({"samples": sampler.stop()}, f)


def cmd_cli(args) -> int:
    def cli() -> int:
        import_s = import_rolerank()
        tracer = start_tracer(args.spans)
        import rolerank.cli

        try:
            return rolerank.cli.main(args.argv)
        finally:
            if tracer is not None:
                tracer.dump(args.spans, import_s=import_s)

    return sampled(cli, args.clock)


def cmd_setup(args) -> int:
    def setup() -> int:
        import_rolerank()
        import rolerank

        rolerank.load_triples(args.triples)
        if args.models is not None:
            load_bundle(args.embeddings, args.models)
        return 0

    return sampled(setup, args.clock)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("cli")
    p.add_argument("--clock", required=True)
    p.add_argument("--spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)

    p = sub.add_parser("stream")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--kinds", required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("setup")
    p.add_argument("--clock", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--models")
    p.set_defaults(func=cmd_setup)

    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
