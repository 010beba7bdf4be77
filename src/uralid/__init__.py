"""Character n-gram language identification for small Uralic languages.

Train per-language models from sentence corpora, identify the language of
new sentences with a word-by-word backoff scorer, score predictions with
the three shared-task metrics, and clean web crawls into labeled sentence
collections.
"""

from .corpus import Corpus, load_corpus
from .errors import DataError
from .evaluation import (
    ConfusionMatrix,
    TrackScores,
    compute_track_scores,
    confusion,
    prf,
    track1,
    track2,
    track3,
)
from .features import extract_ngrams, pad_word, tokenize
from .identifier import (
    Prediction,
    apply_cjk_sanity,
    cjk_ratio,
    identify,
    identify_batch,
)
from .models import HeliParams, LanguageModel, ModelSet, load_models, save_models, train_models
from .pipeline import (
    LabeledLine,
    LabeledSentence,
    Page,
    PipelineReport,
    run_pipeline,
)
from .registry import LanguageEntry, LanguageRegistry, default_registry, load_registry, save_registry

__version__ = "1.0.0"

__all__ = [
    "Corpus",
    "ConfusionMatrix",
    "DataError",
    "HeliParams",
    "LabeledLine",
    "LabeledSentence",
    "LanguageEntry",
    "LanguageModel",
    "LanguageRegistry",
    "ModelSet",
    "Page",
    "PipelineReport",
    "Prediction",
    "TrackScores",
    "apply_cjk_sanity",
    "cjk_ratio",
    "compute_track_scores",
    "confusion",
    "default_registry",
    "extract_ngrams",
    "identify",
    "identify_batch",
    "load_corpus",
    "load_models",
    "load_registry",
    "pad_word",
    "prf",
    "run_pipeline",
    "save_models",
    "save_registry",
    "tokenize",
    "track1",
    "track2",
    "track3",
    "train_models",
]
