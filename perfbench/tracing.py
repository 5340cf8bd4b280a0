"""In-memory span tracer around the public functions of ``rolerank``.

``install`` replaces each traced function at every call site, that is at
every module-level binding of it inside the ``rolerank`` package (for
example ``rolerank.pipeline.context_vector`` and
``rolerank.evaluation.score_triples``), with a wrapper that records a
span: name, start, end, parent span and a few counts read from the
arguments and result. Nothing inside ``src/`` changes. A traced name the
package no longer defines is reported as absent, not as an error.

``layer_metrics`` turns the spans into the per-layer metrics; a layer's
self time is its spans' duration minus the time their direct children
cover. Sizes of artifacts (nodes, bytes) are the larger of what was
written and what was read, since a run may write a model and read it back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

MODULES = ("corpus", "embedding", "features", "forest", "pipeline", "evaluation", "cli")

# span name -> function counts read from (args, kwargs, result); kept cheap,
# because the work runs inside the caller's span
TRACED = {
    "corpus.load_triples": lambda a, k, r: {"triples": len(r)},
    "corpus.build_corpus": lambda a, k, r: {"tokens": sum(map(len, r))},
    "embedding.train_skipgram": lambda a, k, r: {
        "token_epochs": sum(map(len, a[0])) * a[1].epochs,
        "final_loss": r.epoch_losses[-1] if r.epoch_losses else 0.0,
        "vocab": len(r.vocab),
    },
    "embedding.finalize": None,
    "embedding.save_embedding": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "embedding.load_embedding": lambda a, k, r: {
        "bytes": os.path.getsize(a[0]), "vocab": len(r.vocab),
    },
    "features.context_vector": lambda a, k, r: {"oov": r.oov},
    "forest.train_forest": lambda a, k, r: {
        "rows": len(a[0]), "trees": a[2].n_trees, "classifier": r,
    },
    "forest.save_classifier": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "forest.load_classifier": lambda a, k, r: {"bytes": os.path.getsize(a[0]), "classifier": r},
    "forest.predict_proba": None,
    "pipeline.train_role_models": lambda a, k, r: {"ids": {t.id for t in a[0]}},
    "pipeline.score_triples": lambda a, k, r: {
        "ids": {t.id for t in a[0]},
        "unknown_role": sum(1 for s in r if s.triple.role not in a[1].classifiers),
    },
    "pipeline.rank": None,
    "evaluation.split_train_test": None,
    "evaluation.evaluate": None,
}


UNITS = {
    "corpus.load_s": "s",
    "corpus.build_s": "s",
    "corpus.triples": "count",
    "corpus.tokens": "count",
    "embedding.train_s": "s",
    "embedding.tokens_per_s": "1/s",
    "embedding.final_loss": "nats",
    "embedding.vocab": "count",
    "embedding.finalize_s": "s",
    "embedding.save_s": "s",
    "embedding.load_s": "s",
    "embedding.bytes": "bytes",
    "features.cfv_s": "s",
    "features.cfvs_per_s": "1/s",
    "features.oov_fallbacks": "count",
    "features.cfv_calls_per_triple": "ratio",
    "forest.fit_s": "s",
    "forest.trees_fit": "count",
    "forest.fit_rows": "count",
    "forest.nodes": "count",
    "forest.save_s": "s",
    "forest.load_s": "s",
    "forest.model_bytes": "bytes",
    "forest.predict_s": "s",
    "forest.predicts_per_s": "1/s",
    "pipeline.train_role_models_self_s": "s",
    "pipeline.score_triples_self_s": "s",
    "pipeline.rank_s": "s",
    "pipeline.unknown_role": "count",
    "evaluation.split_s": "s",
    "evaluation.evaluate_self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans as [name, start, end, parent, counts] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    span[4] = observe(args, kwargs, result)
                except Exception:  # a changed signature costs the counts, not the run
                    span[4] = None
            return result

        return traced

    def install(self) -> None:
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"rolerank.{name}")
            except ModuleNotFoundError:
                pass
        bindings = [sys.modules["rolerank"], *modules.values()]
        for name, observe in TRACED.items():
            module_name, attr = name.split(".")
            original = getattr(modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, observe)
            for module in bindings:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def dump(self, path, **extra) -> None:
        """Write the spans (and ``extra``) as JSON, reducing held objects to
        counts; the triple ids that were trained on or scored become one
        count of distinct ids."""
        ids = set()
        for span in self.spans:
            info = span[4] or {}
            ids |= info.pop("ids", set())
            if "classifier" in info:
                info["nodes"] = count_nodes(info.pop("classifier"))
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"spans": self.spans, "absent": self.absent, "distinct_triples": len(ids), **extra}, f
            )


def count_nodes(classifier) -> int:
    """Nodes of a forest in today's node-graph layout; 0 for any other layout."""
    trees = getattr(classifier, "trees", None)
    if not trees or not hasattr(trees[0], "root"):
        return 0
    total = 0
    for tree in trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.is_leaf:
                stack += [node.left, node.right]
    return total


def layer_metrics(spans: list[list], distinct_triples: int) -> dict[str, float]:
    """Per-layer metrics (seconds, counts, rates) derived from one run's spans;
    ``distinct_triples`` counts the triple ids trained on or scored."""
    total: dict[str, float] = {}
    child: dict[int, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for name, start, end, parent, info in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
        for key, value in (info or {}).items():
            if key in ("final_loss", "vocab") or name.startswith("embedding."):
                counts[f"{name}.{key}"] = value  # one model: the last value, not a sum
            else:
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    self_time: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(index, 0.0)

    def t(name):
        return total.get(name, 0.0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    cfv_calls = calls.get("features.context_vector", 0)
    return {
        "corpus.load_s": t("corpus.load_triples"),
        "corpus.build_s": t("corpus.build_corpus"),
        "corpus.triples": counts.get("corpus.load_triples.triples", 0),
        "corpus.tokens": counts.get("corpus.build_corpus.tokens", 0),
        "embedding.train_s": t("embedding.train_skipgram"),
        "embedding.tokens_per_s": rate(
            counts.get("embedding.train_skipgram.token_epochs", 0), t("embedding.train_skipgram")
        ),
        "embedding.final_loss": counts.get("embedding.train_skipgram.final_loss", 0.0),
        "embedding.vocab": counts.get(
            "embedding.train_skipgram.vocab", counts.get("embedding.load_embedding.vocab", 0)
        ),
        "embedding.finalize_s": t("embedding.finalize"),
        "embedding.save_s": t("embedding.save_embedding"),
        "embedding.load_s": t("embedding.load_embedding"),
        "embedding.bytes": max(
            counts.get("embedding.save_embedding.bytes", 0),
            counts.get("embedding.load_embedding.bytes", 0),
        ),
        "features.cfv_s": t("features.context_vector"),
        "features.cfvs_per_s": rate(cfv_calls, t("features.context_vector")),
        "features.oov_fallbacks": counts.get("features.context_vector.oov", 0),
        "features.cfv_calls_per_triple": rate(cfv_calls, distinct_triples),
        "forest.fit_s": t("forest.train_forest"),
        "forest.trees_fit": counts.get("forest.train_forest.trees", 0),
        "forest.fit_rows": counts.get("forest.train_forest.rows", 0),
        "forest.nodes": max(
            counts.get("forest.train_forest.nodes", 0), counts.get("forest.load_classifier.nodes", 0)
        ),
        "forest.save_s": t("forest.save_classifier"),
        "forest.load_s": t("forest.load_classifier"),
        "forest.model_bytes": max(
            counts.get("forest.save_classifier.bytes", 0),
            counts.get("forest.load_classifier.bytes", 0),
        ),
        "forest.predict_s": t("forest.predict_proba"),
        "forest.predicts_per_s": rate(calls.get("forest.predict_proba", 0), t("forest.predict_proba")),
        "pipeline.train_role_models_self_s": self_time.get("pipeline.train_role_models", 0.0),
        "pipeline.score_triples_self_s": self_time.get("pipeline.score_triples", 0.0),
        "pipeline.rank_s": t("pipeline.rank"),
        "pipeline.unknown_role": counts.get("pipeline.score_triples.unknown_role", 0),
        "evaluation.split_s": t("evaluation.split_train_test"),
        "evaluation.evaluate_self_s": self_time.get("evaluation.evaluate", 0.0),
    }
