"""Sentence identification with word-level backoff scoring.

Every word of the input weighs equally. A word is scored in the most
specific feature domain any candidate knows it from: the whole-word map
first (when enabled), then character n-grams from n_max down to 1. Within
the chosen domain a candidate's score is the mean over the word's feature
occurrences of the stored negative-log10 relative frequency, with the
penalty substituted for features missing from that candidate's model.
Lowest sentence score (mean over words) wins; ties go to the language
registered first.

Texts dominated by CJK characters get a sanity adjustment: when more than
half of the non-whitespace characters fall in CJK blocks, every non-CJK
candidate is pushed out of contention by a large constant.

Words are scored in batches: ``Scorer.score_words`` takes the words a
caller is about to need, skips those already in the word cache and walks
the backoff order over the rest, one kernel call per feature domain for
every word still unresolved there (see ``backend`` for the kernel
contract). A word's scores do not depend on the batch it was scored in.
``identify_batch`` and ``identify_set`` score the unique words of each
chunk of sentences or lines this way before predicting each one, and
``Scorer.word_winners`` scores a sentence's words as one batch.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .backend import kernel
from .features import WORD_DOMAIN, extract_ngrams, pad_word, tokenize
from .models import ModelSet
from .registry import DEFAULT_CJK_BLOCKS, LanguageRegistry

# Added to every non-CJK candidate when a text trips the CJK check. Any
# value above the penalty ceiling guarantees a CJK candidate wins.
CJK_HIGH_PENALTY = 1000.0

# Word-score cache entries kept per scorer before a full reset.
_CACHE_LIMIT = 1 << 20

# Sentences (or lines) whose new words are scored together: bounds the
# memory one batch takes and is the unit of work handed to each thread.
_CHUNK_SIZE = 256


@dataclass(frozen=True)
class Prediction:
    """Result of identifying one sentence."""

    winner: str
    scores: dict[str, float]
    domain_trace: tuple[tuple[str, str | None], ...]


@dataclass(frozen=True)
class SetIdentification:
    """Language shares of a multi-line text, weighted by character count."""

    shares: dict[str, float]
    dominant: str | None


def cjk_ratio(text: str, blocks=DEFAULT_CJK_BLOCKS) -> float:
    """Fraction of non-whitespace characters inside CJK blocks."""
    # no character can be in a block when even the largest one is below them all
    if not text or ord(max(text)) < min(blocks, default=(0x110000,))[0]:
        return 0.0
    visible = "".join(text.split())  # str.split drops exactly the str.isspace characters
    if not visible:
        return 0.0
    cp = np.frombuffer(visible.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    in_cjk = np.zeros(cp.shape[0], dtype=bool)
    for lo, hi in blocks:
        in_cjk |= (cp >= lo) & (cp <= hi)
    return int(in_cjk.sum()) / len(visible)


def apply_cjk_sanity(
    scores: dict[str, float],
    sentence: str,
    registry: LanguageRegistry,
    high_penalty: float = CJK_HIGH_PENALTY,
) -> dict[str, float]:
    """Push non-CJK candidates out when the text is majority-CJK.

    Strictly more than half of the non-whitespace characters must be CJK;
    a ratio of exactly 0.5 leaves the scores untouched.
    """
    if cjk_ratio(sentence, registry.cjk_blocks) <= 0.5:
        return dict(scores)
    return {
        code: score if registry.is_cjk(code) else score + high_penalty
        for code, score in scores.items()
    }


class Scorer:
    """Array form of a ModelSet plus the kernel that scores words with it.

    Rows are registry positions; per domain, a feature vocabulary maps
    feature strings to matrix columns and absent features carry a negative
    sentinel. The scorer is read-only after construction and safe to share
    across threads. Word scores are memoized per candidate set.
    """

    def __init__(self, model_set: ModelSet):
        self.model_set = model_set
        self.params = model_set.params
        self.registry = model_set.registry
        self.penalty = float(self.params.penalty_p)
        self._vocabs: dict[str, dict[str, int]] = {}
        self._matrices: dict[str, np.ndarray] = {}
        self._cache: dict[tuple[str, bytes], tuple[np.ndarray, str | None]] = {}

        n_rows = len(self.registry)
        for domain in self.params.domains():
            vocab: dict[str, int] = {}
            for model in model_set.models.values():
                for feature in model.domains[domain]:
                    if feature not in vocab:
                        vocab[feature] = len(vocab)
            matrix = np.full((n_rows, max(len(vocab), 1)), -1.0, dtype=np.float64)
            for code, model in model_set.models.items():
                row = self.registry.index(code)
                for feature, score in model.domains[domain].items():
                    matrix[row, vocab[feature]] = score
            self._vocabs[domain] = vocab
            self._matrices[domain] = matrix

        self._backoff = ([WORD_DOMAIN] if self.params.use_words else []) + [
            str(n) for n in range(self.params.n_max, 0, -1)
        ]

    def candidate_rows(self, candidates=None) -> tuple[np.ndarray, list[str]]:
        """Validate candidates and map them to registry-ordered matrix rows.

        ``None`` selects every language that has a model.
        """
        if candidates is None:
            codes = [c for c in self.registry.codes() if c in self.model_set.models]
        else:
            codes = self.registry.sort_by_order(candidates)
        if not codes:
            raise ValueError("no candidate languages")
        rows = np.array([self.registry.index(c) for c in codes], dtype=np.int64)
        return rows, codes

    def _score_new(
        self, words: list[str], rows: np.ndarray
    ) -> list[tuple[np.ndarray, str | None]]:
        """Scores and domain of distinct uncached words, by backoff over the batch."""
        results: list[tuple[np.ndarray, str | None] | None] = [None] * len(words)
        unresolved = list(range(len(words)))
        for domain in self._backoff:
            n = None if domain == WORD_DOMAIN else int(domain)
            get = self._vocabs[domain].get
            batch, ids, counts = [], [], []
            for i in unresolved:
                features = [pad_word(words[i])] if n is None else extract_ngrams(words[i], n)
                word_ids = list(map(get, features, repeat(-1)))
                if word_ids and max(word_ids) >= 0:  # else no model has any of its features
                    batch.append(i)
                    counts.append(len(word_ids))
                    ids += word_ids
            if not batch:
                continue
            count_array = np.array(counts, dtype=np.int64)
            scores, usable = kernel(
                np.array(ids, dtype=np.int64),
                count_array.cumsum() - count_array,
                count_array,
                self._matrices[domain],
                rows,
                self.penalty,
            )
            scores.setflags(write=False)
            for j, (i, found) in enumerate(zip(batch, usable.tolist())):
                if found:
                    results[i] = (scores[j], domain)
            unresolved = [i for i in unresolved if results[i] is None]
            if not unresolved:
                break
        if unresolved:
            nothing = np.full(rows.shape[0], self.penalty)
            nothing.setflags(write=False)
            for i in unresolved:
                results[i] = (nothing, None)
        return results

    def score_words(
        self, words: list[str], rows: np.ndarray
    ) -> list[tuple[np.ndarray, str | None]]:
        """Memoized (scores, domain) of each word for the given candidate rows.

        The words missing from the cache are scored together, one kernel
        call per feature domain they reach. Score arrays are read-only.
        """
        key = rows.tobytes()
        cache = self._cache
        found = {word: cache.get((word, key)) for word in words}
        new = [word for word, hit in found.items() if hit is None]
        if new:
            scored = self._score_new(new, rows)
            found.update(zip(new, scored))
            if len(cache) + len(new) > _CACHE_LIMIT:
                cache = self._cache = {}
            cache.update(((word, key), entry) for word, entry in zip(new, scored))
        return [found[word] for word in words]

    def score_word(self, word: str, rows: np.ndarray) -> tuple[np.ndarray, str | None]:
        """Memoized per-word scores for the given candidate rows (read-only)."""
        return self.score_words([word], rows)[0]

    def score_sentence(
        self, sentence: str, rows: np.ndarray, words: list[str] | None = None
    ) -> tuple[np.ndarray, tuple[tuple[str, str | None], ...]]:
        """Mean per-word score vector and the per-word domain trace.

        ``words`` are the sentence's tokens, for a caller that has them already.
        """
        if words is None:
            words = tokenize(sentence)
        if not words:
            return np.full(rows.shape[0], self.penalty), ()
        acc = np.zeros(rows.shape[0], dtype=np.float64)
        trace = []
        for word, (scores, domain) in zip(words, self.score_words(words, rows)):
            acc += scores
            trace.append((word, domain))
        acc /= len(words)
        return acc, tuple(trace)

    def predict_chunk(
        self, sentences: list[str], rows: np.ndarray, codes: list[str]
    ) -> list[Prediction]:
        """``predict`` for each sentence, after scoring their new words as one batch."""
        tokens = [tokenize(sentence) for sentence in sentences]
        self.score_words(list(chain.from_iterable(tokens)), rows)
        return [
            self.predict(sentence, rows, codes, words)
            for sentence, words in zip(sentences, tokens)
        ]

    def word_winners(self, sentence: str, rows: np.ndarray, codes: list[str]) -> list[str]:
        """Winning language per word (registry-order tie-break)."""
        return [
            codes[int(np.argmin(scores))]
            for scores, _ in self.score_words(tokenize(sentence), rows)
        ]

    def predict(
        self, sentence: str, rows: np.ndarray, codes: list[str], words: list[str] | None = None
    ) -> Prediction:
        """Winner, per-candidate scores and domain trace of one sentence.

        ``words`` are the sentence's tokens, for a caller that has them already.
        """
        raw, trace = self.score_sentence(sentence, rows, words)
        scores = dict(zip(codes, raw.tolist()))
        scores = apply_cjk_sanity(scores, sentence, self.registry)
        winner, best = None, float("inf")
        for code, score in scores.items():
            if score < best:
                winner, best = code, score
        return Prediction(winner=winner, scores=scores, domain_trace=trace)


def score_word(
    word: str, model_set: ModelSet, candidates=None
) -> tuple[dict[str, float], str | None]:
    """Score one word for each candidate; returns the chosen domain too."""
    if not word:
        raise ValueError("word must be non-empty")
    scorer = model_set.scorer()
    rows, codes = scorer.candidate_rows(candidates)
    raw, domain = scorer.score_word(word, rows)
    return {code: float(raw[i]) for i, code in enumerate(codes)}, domain


def identify(sentence: str, model_set: ModelSet, candidates=None) -> Prediction:
    """Identify the language of one sentence among the candidates."""
    scorer = model_set.scorer()
    rows, codes = scorer.candidate_rows(candidates)
    return scorer.predict(sentence, rows, codes)


def identify_restricted(
    sentence: str, model_set: ModelSet, allowed_relevant
) -> Prediction:
    """Identify among the given relevant languages plus all non-relevant ones."""
    registry = model_set.registry
    allowed = set(allowed_relevant)
    for code in allowed:
        if not registry.is_relevant(code):
            raise ValueError(f"{code!r} is not a relevant language")
    candidates = list(allowed) + registry.non_relevant_codes()
    if not candidates:
        raise ValueError("empty candidate union")
    return identify(sentence, model_set, candidates)


def identify_batch(
    sentences,
    model_set: ModelSet,
    candidates=None,
    threads: int = 1,
    chunk_size: int = _CHUNK_SIZE,
) -> list[Prediction]:
    """Identify many sentences, chunk by chunk, fanning out to a thread pool.

    The new words of each chunk of ``chunk_size`` sentences are scored as
    one batch before its sentences are predicted. Results are returned in
    input order and are identical for any thread count and chunk size: a
    word's scores do not depend on the batch it was scored in.
    """
    sentences = list(sentences)
    scorer = model_set.scorer()
    rows, codes = scorer.candidate_rows(candidates)
    chunks = [sentences[i : i + chunk_size] for i in range(0, len(sentences), chunk_size)]

    def run_chunk(chunk: list[str]) -> list[Prediction]:
        return scorer.predict_chunk(chunk, rows, codes)

    if threads <= 1 or len(chunks) <= 1:
        return list(chain.from_iterable(map(run_chunk, chunks)))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(chain.from_iterable(pool.map(run_chunk, chunks)))


def identify_set(
    text: str,
    model_set: ModelSet,
    min_share: float = 0.02,
    candidates=None,
) -> SetIdentification:
    """Estimate language shares of a multi-line text.

    Each non-blank line is identified on its own (the new words of each
    chunk of lines are scored as one batch); a language's share is the
    fraction of characters in the lines it won. The dominant language is
    the relevant one with the greatest share, provided that share reaches
    ``min_share``; ties go to registry order. Only nonzero shares are
    reported.
    """
    if not 0.0 < min_share <= 1.0:
        raise ValueError(f"min_share must be in (0, 1], got {min_share}")
    scorer = model_set.scorer()
    registry = model_set.registry
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return SetIdentification(shares={}, dominant=None)
    rows, codes = scorer.candidate_rows(candidates)
    chars_won: dict[str, int] = {}
    total = 0
    predictions = chain.from_iterable(
        scorer.predict_chunk(lines[i : i + _CHUNK_SIZE], rows, codes)
        for i in range(0, len(lines), _CHUNK_SIZE)
    )
    for line, prediction in zip(lines, predictions):
        chars_won[prediction.winner] = chars_won.get(prediction.winner, 0) + len(line)
        total += len(line)
    shares = {
        code: chars_won[code] / total for code in registry.sort_by_order(chars_won)
    }
    dominant = None
    best = 0.0
    for code, share in shares.items():
        if registry.is_relevant(code) and share > best:
            dominant, best = code, share
    if best < min_share:
        dominant = None
    return SetIdentification(shares=shares, dominant=dominant)


def format_prediction(index: int, prediction: Prediction, with_scores: bool) -> str:
    """One output row: index, winner, winner score, optionally all scores."""
    fields = [str(index), prediction.winner, f"{prediction.scores[prediction.winner]:.6f}"]
    if with_scores:
        for code, score in prediction.scores.items():
            fields.append(code)
            fields.append(f"{score:.6f}")
    return "\t".join(fields)


def main_throughput_note(count: int, seconds: float, stream=None) -> None:
    """Emit the sentences/second measurement (scale awareness, not a gate)."""
    stream = stream if stream is not None else sys.stderr
    rate = count / seconds if seconds > 0 else float("inf")
    print(
        f"identified {count} sentences in {seconds:.3f}s ({rate:.0f} sentences/s)",
        file=stream,
    )
