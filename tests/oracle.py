"""Brute-force reference scorer and label reader used to cross-check the package.

Everything here is written the slow, obvious way on plain dicts: explicit
substring slicing, explicit backoff loop, one label line at a time, no arrays
beyond the confusion matrix it fills cell by cell. The label reader shares
only the record split, the UTF-8 read and the error type with the package.
Numbers that tests pin come from running this code.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from uralid.errors import DataError, read_utf8, split_records


def oracle_tokenize(text: str) -> list[str]:
    words: list[str] = []
    current: list[str] = []
    for ch in text.lower():
        if ch.isalpha():
            current.append(ch)
        else:
            if current:
                words.append("".join(current))
            current = []
    if current:
        words.append("".join(current))
    return words


def oracle_ngrams(word: str, n: int) -> list[str]:
    padded = " " + word + " "
    if n > len(padded):
        return []
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def oracle_train(
    sentences_by_language: dict[str, list[str]],
    n_max: int,
    cutoff_c: float,
    use_words: bool = True,
) -> dict[str, dict[str, dict[str, float]]]:
    """models[lang][domain][feature] = -log10 relative frequency, 10 digits."""
    models: dict[str, dict[str, dict[str, float]]] = {}
    for lang, sentences in sentences_by_language.items():
        counts: dict[str, dict[str, int]] = {}
        domains = (["word"] if use_words else []) + [str(n) for n in range(1, n_max + 1)]
        for domain in domains:
            counts[domain] = {}
        for sentence in sentences:
            for word in oracle_tokenize(sentence):
                if use_words:
                    padded = " " + word + " "
                    counts["word"][padded] = counts["word"].get(padded, 0) + 1
                for n in range(1, n_max + 1):
                    for gram in oracle_ngrams(word, n):
                        counts[str(n)][gram] = counts[str(n)].get(gram, 0) + 1
        model: dict[str, dict[str, float]] = {}
        for domain in domains:
            total = sum(counts[domain].values())
            scores: dict[str, float] = {}
            for feature, count in counts[domain].items():
                if total and count / total >= cutoff_c:
                    if count == total:
                        scores[feature] = 0.0
                    else:
                        scores[feature] = float(f"{-math.log10(count / total):.10g}")
            model[domain] = scores
        models[lang] = model
    return models


def oracle_score_word(
    word: str,
    models: dict[str, dict[str, dict[str, float]]],
    candidates: list[str],
    n_max: int,
    penalty: float,
    use_words: bool = True,
) -> dict[str, float]:
    """Backoff by hand: whole word first, then n-grams from longest down.

    A domain is usable when at least one candidate knows at least one of
    the word's features in it; within the chosen domain each candidate's
    score is the mean over feature occurrences, the penalty standing in
    for features that candidate lacks.
    """
    domains: list[tuple[str, list[str]]] = []
    if use_words:
        domains.append(("word", [" " + word + " "]))
    for n in range(n_max, 0, -1):
        domains.append((str(n), oracle_ngrams(word, n)))

    for domain, features in domains:
        if not features:
            continue
        usable = False
        for candidate in candidates:
            table = models.get(candidate, {}).get(domain, {})
            for feature in features:
                if feature in table:
                    usable = True
        if not usable:
            continue
        result = {}
        for candidate in candidates:
            table = models.get(candidate, {}).get(domain, {})
            total = 0.0
            for feature in features:
                total += table.get(feature, penalty)
            result[candidate] = total / len(features)
        return result
    return {candidate: penalty for candidate in candidates}


def oracle_score_sentence(
    sentence: str,
    models: dict[str, dict[str, dict[str, float]]],
    candidates: list[str],
    n_max: int,
    penalty: float,
    use_words: bool = True,
) -> dict[str, float]:
    words = oracle_tokenize(sentence)
    if not words:
        return {candidate: penalty for candidate in candidates}
    sums = {candidate: 0.0 for candidate in candidates}
    for word in words:
        scores = oracle_score_word(word, models, candidates, n_max, penalty, use_words)
        for candidate in candidates:
            sums[candidate] += scores[candidate]
    return {candidate: sums[candidate] / len(words) for candidate in candidates}


def oracle_winner(scores: dict[str, float], order: list[str]) -> str:
    """Lowest score wins; earlier position in ``order`` breaks ties."""
    best = None
    for candidate in order:
        if candidate in scores and (best is None or scores[candidate] < scores[best]):
            best = candidate
    return best


def oracle_cjk_ratio(text: str, blocks: list[tuple[int, int]]) -> float:
    cjk = 0
    visible = 0
    for ch in text:
        if ch.isspace():
            continue
        visible += 1
        for lo, hi in blocks:
            if lo <= ord(ch) <= hi:
                cjk += 1
                break
    return cjk / visible if visible else 0.0


def oracle_load_labels(path, registry) -> list[str]:
    """Read a label file: either ``sentence<TAB>code`` rows or bare codes."""
    path = Path(path)
    labels: list[str] = []
    for lineno, line in enumerate(split_records(read_utf8(path)), start=1):
        if not line.strip():
            continue
        code = line.rsplit("\t", 1)[-1].strip()
        if code not in registry:
            raise DataError(f"{path}:{lineno}: unregistered language code {code!r}")
        labels.append(code)
    return labels


def oracle_confusion(golds, preds, registry) -> np.ndarray:
    """Gold x predicted counts, one cell incremented per pair."""
    golds, preds = list(golds), list(preds)
    if len(golds) != len(preds):
        raise DataError(
            f"gold/pred length mismatch: {len(golds)} vs {len(preds)}"
        )
    n = len(registry)
    counts = np.zeros((n, n), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        counts[registry.index(gold), registry.index(pred)] += 1
    return counts
