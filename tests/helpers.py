"""Builders shared across test modules."""

from __future__ import annotations

import random
import string

import numpy as np

from uralid.corpus import Corpus
from uralid.models import HeliParams, LanguageModel, ModelSet, train_models
from uralid.registry import LanguageEntry, LanguageRegistry

# Five synthetic languages over pairwise disjoint alphabets. Any word built
# from one alphabet can only ever be won by that language (or tie at the
# penalty, which disjointness prevents once unigrams are trained).
ALPHABETS = {
    "fkv": "abcde",
    "izh": "fghij",
    "vep": "pqrst",
    "swe": "klmno",
    "fin": "uvwxy",
}
RELEVANT = {"fkv", "izh", "vep"}


def make_registry(codes=None, cjk=(), blocks=None) -> LanguageRegistry:
    codes = list(codes) if codes is not None else list(ALPHABETS)
    entries = tuple(
        LanguageEntry(code, code.upper(), code in RELEVANT, code in cjk)
        for code in codes
    )
    if blocks is None:
        return LanguageRegistry(entries=entries)
    return LanguageRegistry(entries=entries, cjk_blocks=tuple(blocks))


def disjoint_sentences(code: str, count: int, seed: int = 0, words: int = 4) -> list[str]:
    rng = random.Random(f"{code}:{seed}")
    alphabet = ALPHABETS[code]
    sentences = set()
    while len(sentences) < count:
        sentence = " ".join(
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 7)))
            for _ in range(words)
        )
        sentences.add(sentence)
    return sorted(sentences)


def disjoint_model_set(
    codes=("fkv", "izh", "swe"), sentences: int = 20, params: HeliParams | None = None
) -> ModelSet:
    registry = make_registry()
    corpora = [
        Corpus(language=code, sentences=tuple(disjoint_sentences(code, sentences)))
        for code in codes
    ]
    return train_models(corpora, params or HeliParams(n_max=3), registry)


def hand_model_set(tables: dict[str, dict[str, dict[str, float]]], n_max=2, use_words=True):
    """Build a ModelSet straight from feature->score tables, no training."""
    registry = make_registry()
    params = HeliParams(n_max=n_max, use_words=use_words)
    models = {}
    for code, domains in tables.items():
        full = {d: dict(domains.get(d, {})) for d in params.domains()}
        totals = {d: len(full[d]) for d in params.domains()}
        models[code] = LanguageModel(code, full, totals)
    return ModelSet(params=params, models=models, registry=registry)


def random_word(rng: random.Random, max_len: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase[:10]) for _ in range(rng.randint(1, max_len)))


def random_sentence(rng: random.Random, max_words: int = 6, max_len: int = 8) -> str:
    return " ".join(random_word(rng, max_len) for _ in range(rng.randint(1, max_words)))


def random_model_set(rng: random.Random, max_langs: int = 5, registry=None) -> ModelSet:
    """A small trained ModelSet over shared letters, for oracle comparisons."""
    registry = registry or make_registry()
    codes = rng.sample(registry.codes(), rng.randint(1, min(max_langs, len(registry))))
    cutoff = rng.choice([5e-7, 1e-3, 0.05])
    # keep the penalty above -log10(cutoff) so the dominance warning stays quiet
    penalty = 7.0 if cutoff == 5e-7 else rng.choice([7.0, 5.0])
    params = HeliParams(
        n_max=rng.randint(1, 4),
        cutoff_c=cutoff,
        penalty_p=penalty,
        use_words=rng.random() < 0.8,
    )
    corpora = [
        Corpus(
            language=code,
            sentences=tuple(random_sentence(rng) for _ in range(rng.randint(1, 12))),
        )
        for code in codes
    ]
    return train_models(corpora, params, registry)


def to_oracle_models(model_set: ModelSet) -> dict[str, dict[str, dict[str, float]]]:
    return {code: dict(model.domains) for code, model in model_set.models.items()}


def dense_matrix(ms: ModelSet, vocab: dict[str, int], domain: str) -> np.ndarray:
    """The (registry, vocabulary) matrix of one domain, absent features at -1."""
    matrix = np.full((len(ms.registry), len(vocab)), -1.0, dtype=np.float64)
    for code, model in ms.models.items():
        for feature, score in model.domains[domain].items():
            matrix[ms.registry.index(code), vocab[feature]] = score
    return matrix
