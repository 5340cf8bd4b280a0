"""Role relevance scoring for contextual entity triples.

Pipeline: pooled context sentences train low-dimensional skip-gram word
vectors; a triple's context becomes a normalized bag-of-words feature
vector; a per-role random forest maps it to a relevance probability; and
ranked outputs are evaluated with precision/recall/F1 and NDCG.
"""

from .corpus import (
    ContextualTriple,
    RelevanceLabel,
    TripleParseError,
    build_corpus,
    canonicalize_role,
    load_triples,
    parse_triples,
    tokenize,
)
from .embedding import (
    EmbeddingConfig,
    EmbeddingModel,
    UnigramSampler,
    Vocabulary,
    build_vocabulary,
    finalize,
    load_embedding,
    nearest_neighbors,
    save_embedding,
    train_skipgram,
)
from .evaluation import (
    EvalReport,
    EvalRun,
    GainMap,
    evaluate,
    ndcg,
    precision_recall_f1,
    split_train_test,
)
from .features import featurize
from .forest import (
    ForestConfig,
    RoleClassifier,
    load_classifier,
    predict_proba,
    save_classifier,
    train_forest,
)
from .pipeline import (
    ModelBundle,
    ScoredTriple,
    binarize_label,
    rank,
    score_triples,
    train_role_models,
)

__version__ = "0.1.0"

__all__ = [
    "ContextualTriple",
    "EmbeddingConfig",
    "EmbeddingModel",
    "EvalReport",
    "EvalRun",
    "ForestConfig",
    "GainMap",
    "ModelBundle",
    "RelevanceLabel",
    "RoleClassifier",
    "ScoredTriple",
    "TripleParseError",
    "UnigramSampler",
    "Vocabulary",
    "binarize_label",
    "build_corpus",
    "build_vocabulary",
    "canonicalize_role",
    "evaluate",
    "featurize",
    "finalize",
    "load_classifier",
    "load_embedding",
    "load_triples",
    "ndcg",
    "nearest_neighbors",
    "parse_triples",
    "precision_recall_f1",
    "predict_proba",
    "rank",
    "save_classifier",
    "save_embedding",
    "score_triples",
    "split_train_test",
    "tokenize",
    "train_forest",
    "train_role_models",
    "train_skipgram",
]
