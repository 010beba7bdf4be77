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
candidate is pushed out of contention by a large constant. The characters
of a whole chunk are counted at once, from its joined text's code points.

Words are scored in batches: ``Scorer.score_words`` looks each distinct
word up in the candidate set's score table once and scores the rest into
its spare rows, one backoff step per feature domain. It returns the rows
in use (read-only), each word's row index and the rows' domains. A word's
scores do not depend on the batch. Both means add their terms in
order through one rule, ``running_sums``: a word's feature scores in a
domain step and a sentence's word rows in ``Scorer.score_sentences``, so
every score equals the plain left-to-right loop bit for bit.
``Scorer.predict`` turns a chunk of sentences into predictions from one
such batch, applying the CJK rule and picking winners over the chunk's
score rows at once. A ``Prediction`` holds its winner, the chunk's candidate
codes and a read-only view of its score row; the ``scores`` dict and the
``domain_trace`` are built only when read. ``Scorer.predictions`` streams
them, one ``predict`` call per chunk of ``_CHUNK_SIZE``, and
``Scorer.word_winners`` streams per-word winners over the same chunks, so a
caller holds one chunk's results at a time. Every entry point takes its
candidates through ``Scorer.candidate_rows``, which accepts only codes that
have a model.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, repeat

import numpy as np

from .features import WORD_DOMAIN, extract_ngrams, pad_word, tokenize
from .models import ModelSet
from .registry import DEFAULT_CJK_BLOCKS, LanguageRegistry

# Added to every non-CJK candidate when a text trips the CJK check. Any
# value above the penalty ceiling guarantees a CJK candidate wins.
CJK_HIGH_PENALTY = 1000.0

# Cached word rows, summed over a scorer's candidate-set tables, past which all are dropped.
_CACHE_LIMIT = 1 << 20

# Sentences (or lines) whose new words are scored together: bounds the
# memory one batch takes. Read at call time, so tests can change it.
_CHUNK_SIZE = 256


class Prediction:
    """Result of identifying one sentence.

    ``winner`` is the chosen code, ``codes`` the candidates in registry order
    (one list shared by a chunk's predictions) and ``row`` a read-only view of
    the sentence's score per code, after the CJK rule. ``scores`` (code to
    score, in ``codes`` order) and ``domain_trace`` (each token with the
    feature domain that decided it, ``None`` for none) are built on access.
    Two predictions are equal when their winners, codes, scores and traces are.
    """

    __slots__ = ("winner", "codes", "row", "_best", "_words", "_domains", "_start")

    def __init__(self, codes, row, best, words, domains, start):
        self.winner = codes[best]
        self.codes = codes
        self.row = row
        self._best = best
        # the sentence's tokens, and their domains from domains[start:] (the chunk's list)
        self._words = words
        self._domains = domains
        self._start = start

    @property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.codes, self.row.tolist()))

    @property
    def domain_trace(self) -> tuple[tuple[str, str | None], ...]:
        return tuple(zip(self._words, self._domains[self._start : self._start + len(self._words)]))

    def __eq__(self, other):
        if not isinstance(other, Prediction):
            return NotImplemented
        return (
            self.winner == other.winner
            and self.codes == other.codes
            and np.array_equal(self.row, other.row)
            and self.domain_trace == other.domain_trace
        )

    def __repr__(self) -> str:
        return f"Prediction(winner={self.winner!r}, scores={self.scores!r})"


def _chunks(items: list) -> Iterator[list]:
    """Consecutive slices of ``_CHUNK_SIZE`` items, the size read at call time."""
    size = _CHUNK_SIZE
    return (items[start : start + size] for start in range(0, len(items), size))


def running_sums(rows, index, starts, counts):
    """Per segment ``i``, the sum of ``rows[index[j]]`` over
    ``starts[i] <= j < starts[i] + counts[i]``, added in that order from 0.0 as
    ``acc += row`` adds them; a segment without terms sums to zeros.

    Segments are visited longest first, so those that still have terms are a
    prefix and each step adds one gathered row per live segment into a view;
    the temporaries stay the size of the result.
    """
    order = np.argsort(-counts, kind="stable")
    starts, counts = starts[order], counts[order]
    sums = np.zeros((counts.shape[0], rows.shape[1]), dtype=np.float64)
    live = np.count_nonzero(counts)
    k = 0
    while live:
        sums[:live] += rows[index[starts[:live] + k]]
        k += 1
        live = np.count_nonzero(counts[:live] > k)
    result = np.empty_like(sums)
    result[order] = sums
    return result


# Whether each code point up to U+3001 is whitespace (str.isspace). None lies above U+3000,
# so the CJK rule reads every higher code point as U+3001, whose entry is False.
_IS_SPACE = np.array([chr(cp).isspace() for cp in range(0x3002)])


def _cjk_counts(texts: list[str], blocks) -> tuple[np.ndarray, np.ndarray]:
    """Per text, its non-whitespace code points inside a block and all its non-whitespace ones,
    read once from the joined texts (a lone surrogate is one code point)."""
    cp = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    visible = ~_IS_SPACE[np.minimum(cp, 0x3001)]
    cjk = np.zeros(cp.shape[0], dtype=bool)
    for lo, hi in blocks:
        cjk |= (cp >= lo) & (cp <= hi)
    bounds = np.fromiter(accumulate(map(len, texts), initial=0), dtype=np.int64, count=len(texts) + 1)
    # the running count of marked code points at each bound; a text's count is a difference
    return tuple(np.diff(np.searchsorted(np.flatnonzero(m), bounds)) for m in (cjk & visible, visible))


def cjk_ratio(text: str, blocks=DEFAULT_CJK_BLOCKS) -> float:
    """Fraction of non-whitespace characters inside CJK blocks (0.0 without any), as a chunk counts."""
    (cjk,), (visible,) = _cjk_counts([text], blocks)
    return int(cjk) / int(visible) if visible else 0.0


def apply_cjk_sanity(
    scores: np.ndarray, sentences: list[str], codes: list[str], registry: LanguageRegistry
) -> np.ndarray:
    """Push non-CJK candidates out of the rows whose text is majority-CJK.

    ``scores`` holds one row per sentence and one column per code. Strictly
    more than half of a sentence's non-whitespace characters must be CJK
    (``2 * cjk > visible``, counted for the whole chunk at once); a ratio of
    exactly 0.5 leaves its row untouched. Returns a new array.
    """
    cjk, visible = _cjk_counts(sentences, registry.cjk_blocks)
    non_cjk = np.array([not registry.is_cjk(code) for code in codes], dtype=bool)
    return np.where((2 * cjk > visible)[:, None] & non_cjk, scores + CJK_HIGH_PENALTY, scores)


class Scorer:
    """Array form of a ModelSet, and the word and sentence scoring over it.

    Per domain, a vocabulary maps feature strings to columns, and the
    stored scores are kept in compressed sparse column form: column ``j``
    owns the entries of ``_rows[domain]`` (registry rows, ascending) and
    ``_scores[domain]`` from ``_indptr[domain][j]`` up to ``[j + 1]``, so
    memory grows with the stored features, not languages times vocabulary.
    Each domain step tables only the columns its batch uses, over the
    candidates alone. Word scores are memoized in one table per candidate set.
    The scorer keeps the modeled codes, not the ModelSet that caches it, so
    the two form no reference cycle.
    """

    def __init__(self, model_set: ModelSet):
        self._modeled = frozenset(model_set.models)
        self.params = model_set.params
        self.registry = model_set.registry
        self.penalty = float(self.params.penalty_p)
        self._vocabs: dict[str, dict[str, int]] = {}
        self._indptr: dict[str, np.ndarray] = {}
        self._rows: dict[str, np.ndarray] = {}
        self._scores: dict[str, np.ndarray] = {}
        self._cache: dict[bytes, tuple[dict[str, int], np.ndarray, list[str | None]]] = {}

        for domain in self.params.domains():
            vocab: dict[str, int] = {}
            cols, rows, values = [], [], []
            for code, model in model_set.models.items():
                table = model.domains[domain]
                cols += [vocab.setdefault(feature, len(vocab)) for feature in table]
                rows += [self.registry.index(code)] * len(table)
                values += table.values()
            cols = np.array(cols, dtype=np.int64)
            rows = np.array(rows, dtype=np.int32)
            order = np.lexsort((rows, cols))
            self._vocabs[domain] = vocab
            self._indptr[domain] = np.concatenate(
                ([0], np.bincount(cols, minlength=len(vocab)).cumsum())
            )
            self._rows[domain] = rows[order]
            self._scores[domain] = np.array(values, dtype=np.float64)[order]

        self._backoff = self.params.domains()[::-1]

    def candidate_rows(self, candidates=None) -> tuple[np.ndarray, list[str]]:
        """Validate candidates and map them to registry-ordered matrix rows.

        This is the one candidate rule. ``None`` selects every language that
        has a model; any other iterable is read once, and every code in it
        must have a model, or ``ValueError`` names those without one in the
        order given.
        """
        if candidates is None:
            codes = [c for c in self.registry.codes() if c in self._modeled]
        else:
            candidates = list(candidates)
            unscorable = [code for code in candidates if code not in self._modeled]
            if unscorable:
                raise ValueError(f"no model for {', '.join(map(repr, unscorable))}")
            codes = self.registry.sort_by_order(candidates)
        if not codes:
            raise ValueError("no candidate languages")
        rows = np.array([self.registry.index(c) for c in codes], dtype=np.int64)
        return rows, codes

    def _score_new(self, words: list[str], rows: np.ndarray, out: np.ndarray) -> list[str | None]:
        """Score distinct uncached words into ``out``, a row each, by backoff over the batch,
        and return their domains; a word no domain resolves gets the penalty row and ``None``."""
        out.fill(self.penalty)
        domains: list[str | None] = [None] * len(words)
        unresolved = list(range(len(words)))
        # registry row -> candidate position, -1 outside the candidate set
        position = np.full(len(self.registry), -1, dtype=np.int64)
        position[rows] = np.arange(rows.shape[0])
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
            offsets = count_array.cumsum() - count_array
            ids = np.array(ids, dtype=np.int64)
            known = ids >= 0
            used, ids[known] = np.unique(ids[known], return_inverse=True)
            # the used columns' stored entries, in order: the k-th of column j is at starts[j] + k
            indptr = self._indptr[domain]
            starts = indptr[used]
            lengths = indptr[used + 1] - starts
            columns = np.repeat(np.arange(used.shape[0]), lengths)
            entries = np.arange(columns.shape[0]) + (starts - (lengths.cumsum() - lengths))[columns]
            candidate = position[self._rows[domain][entries]]
            kept = candidate >= 0
            columns = columns[kept]
            # one row per used column, then feature id -1's row; the penalty where no
            # candidate stores a score, and a flag on the rows some candidate stores
            table = np.full((used.shape[0] + 1, rows.shape[0]), self.penalty)
            table[columns, candidate[kept]] = self._scores[domain][entries[kept]]
            stored = np.zeros(used.shape[0] + 1, dtype=bool)
            stored[columns] = True
            usable = np.logical_or.reduceat(stored[ids], offsets)
            sums = running_sums(table, ids, offsets, count_array)
            resolved = np.array(batch)[usable]
            out[resolved] = sums[usable] / count_array[usable, None]
            for i in resolved.tolist():
                domains[i] = domain
            unresolved = [i for i in unresolved if domains[i] is None]
            if not unresolved:
                break
        return domains

    def score_words(
        self, words: list[str], rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
        """Memoized ``(table, index, domains)`` of the words for the given candidate rows.

        Word ``k`` has row ``table[index[k]]`` (a read-only view no call writes
        again) and domain ``domains[index[k]]``. Words missing from the candidate
        set's table are scored together into its next rows, one step per domain.
        """
        key = rows.tobytes()
        where, table, domains = self._cache.get(key) or ({}, np.empty((0, rows.shape[0])), [])
        new = list(dict.fromkeys(word for word in words if word not in where))
        if new:
            used = len(domains)
            if used + len(new) > table.shape[0]:  # np.empty leaves the spare rows' pages unwritten
                grown = np.empty((2 * (used + len(new)), rows.shape[0]))
                grown[:used] = table[:used]
                table = grown
            domains += self._score_new(new, rows, table[used : used + len(new)])
            where.update(zip(new, range(used, len(domains))))
            self._cache[key] = where, table, domains
        index = np.fromiter(map(where.__getitem__, words), dtype=np.int64, count=len(words))
        table = table[: len(domains)]
        table.setflags(write=False)
        if new and sum(len(cached[2]) for cached in self._cache.values()) > _CACHE_LIMIT:
            self._cache = {}
        return table, index, domains

    def score_word(self, word: str, rows: np.ndarray) -> tuple[np.ndarray, str | None]:
        """Memoized score row (read-only) and domain of one word for the given candidate rows."""
        table, index, domains = self.score_words([word], rows)
        return table[index[0]], domains[index[0]]

    def score_sentences(
        self, tokens: list[list[str]], rows: np.ndarray
    ) -> tuple[np.ndarray, list[str | None]]:
        """Mean word-score row of each token list, and every token's domain.

        A sentence's word rows are added by ``running_sums``, in word order
        as ``acc += row`` adds them, then divided by its token count; an
        empty list gets the penalty row. The domains run over all the
        tokens in order, read through ``score_words``' index.
        """
        table, index, domains = self.score_words(list(chain.from_iterable(tokens)), rows)
        counts = np.array([len(words) for words in tokens], dtype=np.int64)
        sums = running_sums(table, index, counts.cumsum() - counts, counts)
        means = sums / np.maximum(counts, 1)[:, None]
        return np.where(counts[:, None] > 0, means, self.penalty), [domains[i] for i in index.tolist()]

    def word_winners(
        self, texts: list[str], rows: np.ndarray, codes: list[str]
    ) -> Iterator[list[str]]:
        """Each text's per-word winners (first minimum in ``codes`` order), a chunk at a time."""
        for chunk in _chunks(texts):
            tokens = [tokenize(text) for text in chunk]
            table, index, _ = self.score_words(list(chain.from_iterable(tokens)), rows)
            best = iter(table[index].argmin(axis=1).tolist())
            for words in tokens:
                yield [codes[next(best)] for _ in words]

    def predict(self, sentences: list[str], rows: np.ndarray, codes: list[str]) -> list[Prediction]:
        """Prediction of each sentence, over one read-only block of score rows.

        The CJK rule applies first; the winner is the first minimum in ``codes`` order.
        """
        tokens = [tokenize(s) for s in sentences]
        means, domains = self.score_sentences(tokens, rows)
        means = apply_cjk_sanity(means, sentences, codes, self.registry)
        means.setflags(write=False)
        starts = accumulate(map(len, tokens), initial=0)
        return [
            Prediction(codes, row, best, words, domains, start)
            for row, best, words, start in zip(means, means.argmin(axis=1).tolist(), tokens, starts)
        ]

    def predictions(
        self, sentences: list[str], rows: np.ndarray, codes: list[str]
    ) -> Iterator[Prediction]:
        """Each sentence's prediction, from one ``predict`` call per chunk."""
        for chunk in _chunks(sentences):
            yield from self.predict(chunk, rows, codes)


def identify(sentence: str, model_set: ModelSet, candidates=None) -> Prediction:
    """Identify the language of one sentence among the candidates."""
    return identify_batch([sentence], model_set, candidates)[0]


def identify_batch(
    sentences, model_set: ModelSet, candidates=None, threads: int = 1
) -> list[Prediction]:
    """Identify many sentences in input order; ``threads`` is accepted and ignored."""
    scorer = model_set.scorer()
    rows, codes = scorer.candidate_rows(candidates)
    return list(scorer.predictions(list(sentences), rows, codes))


def format_prediction(index: int, prediction: Prediction, with_scores: bool) -> str:
    """One output row: index, winner, winner score, optionally all scores."""
    row = prediction.row
    fields = [str(index), prediction.winner, f"{row.item(prediction._best):.6f}"]
    if with_scores:
        for code, score in zip(prediction.codes, row.tolist()):
            fields.append(code)
            fields.append(f"{score:.6f}")
    return "\t".join(fields)

