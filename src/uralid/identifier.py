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

A chunk of sentences is tokenized at once (``features.tokenize_chunk``)
into one flat word list and each sentence's word count, and is scored from
them. Words are scored in batches: ``Scorer.score_words`` looks each distinct
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
codes, a read-only view of its score row, and its words' place in the
chunk's flat word and domain lists; the ``scores`` dict and the
``domain_trace`` are built only when read. ``Scorer.predictions`` streams
them, one ``predict`` call per chunk of ``_CHUNK_SIZE``, and
``Scorer.word_winners`` streams per-word winners over the same chunks, so a
caller holds one chunk's results at a time. Every entry point takes its
candidates through ``Scorer.candidate_rows``, which accepts only codes that
have a model.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain

import numpy as np

# extract_ngrams and tokenize stay importable from here: the traced benchmark wraps them in
# this module.
from .features import (
    WORD_DOMAIN, code_points, extract_ngrams, ngram_windows, pad_word, padded_code_points, tokenize,
    tokenize_chunk,
)
from .models import ModelSet, run_starts, table_arrays
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
    feature domain that decided it, ``None`` for none) are built on access,
    from the sentence's ``count`` entries from ``start`` on in the chunk's
    flat word and domain lists, which its predictions share.
    Two predictions are equal when their winners, codes, scores and traces are.
    """

    __slots__ = ("winner", "codes", "row", "_best", "_words", "_domains", "_start", "_count")

    def __init__(self, codes, row, best, words, domains, start, count):
        self.winner = codes[best]
        self.codes = codes
        self.row = row
        self._best = best
        self._words = words
        self._domains = domains
        self._start = start
        self._count = count

    @property
    def scores(self) -> dict[str, float]:
        return dict(zip(self.codes, self.row.tolist()))

    @property
    def domain_trace(self) -> tuple[tuple[str, str | None], ...]:
        end = self._start + self._count
        return tuple(zip(self._words[self._start : end], self._domains[self._start : end]))

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
    cp = code_points("".join(texts))
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


def window_columns(keys, cp, starts, lengths, n) -> tuple[np.ndarray, np.ndarray]:
    """The column in ``keys`` (sorted, non-empty) of each n-gram of each padded word at
    ``starts`` in ``cp``, -1 for one ``keys`` lacks, in word and then position order;
    and each word's n-gram count, as ``ngram_windows`` gives them."""
    windows, counts = ngram_windows(cp, starts, lengths, n)
    at = np.minimum(np.searchsorted(keys, windows), keys.shape[0] - 1)
    return np.where(keys[at] == windows, at, -1), counts


class Scorer:
    """Array form of a ModelSet, and the word and sentence scoring over it.

    Per n-gram domain, the vocabulary is one sorted array of ``<U{n}`` keys,
    ``_keys[domain]``, and a feature's column is its position there; the word
    domain's vocabulary is a dict from padded word to column, ``_vocabs``. The
    stored scores are kept in compressed sparse column form: column ``j``
    owns the entries of ``_rows[domain]`` (registry rows, ascending) and
    ``_scores[domain]`` from ``_indptr[domain][j]`` up to ``[j + 1]``, so
    memory grows with the stored features, not languages times vocabulary.
    Each domain step finds its batch's n-gram columns with one gather of
    windows over the words' code points and one ``np.searchsorted``, and
    tables only the columns it uses, over the candidates alone. Word scores
    are memoized in one table per candidate set. The scorer keeps the
    modeled codes, not the ModelSet that caches it, so the two form no
    reference cycle.
    """

    def __init__(self, model_set: ModelSet):
        self._modeled = frozenset(model_set.models)
        self.params = model_set.params
        self.registry = model_set.registry
        self.penalty = float(self.params.penalty_p)
        self._vocabs: dict[str, dict[str, int]] = {}
        self._keys: dict[str, np.ndarray] = {}
        self._indptr: dict[str, np.ndarray] = {}
        self._rows: dict[str, np.ndarray] = {}
        self._scores: dict[str, np.ndarray] = {}
        self._cache: dict[bytes, tuple[dict[str, int], np.ndarray, list[str | None]]] = {}

        # models in registry order, so that a stable sort keeps each column's rows ascending
        models = sorted((self.registry.index(code), model) for code, model in model_set.models.items())
        for domain in self.params.domains():
            tables = [model.domains[domain] for _, model in models]
            if domain == WORD_DOMAIN:
                vocab = self._vocabs[domain] = {}
                cols = np.array([vocab.setdefault(f, len(vocab)) for t in tables for f in t], dtype=np.int64)
                values = np.fromiter(chain.from_iterable(t.values() for t in tables), np.float64)
                order = np.argsort(cols, kind="stable")
                self._indptr[domain] = np.concatenate(([0], np.bincount(cols, minlength=len(vocab)).cumsum()))
            else:
                n = int(domain)
                arrays = [table_arrays(t, n) for t in tables]
                # the leading empty arrays give a model set without models its typed empty domain
                keys = np.concatenate([np.empty(0, f"<U{n}")] + [k for k, _ in arrays])
                values = np.concatenate([np.empty(0)] + [v for _, v in arrays])
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                first = run_starts(keys)
                self._keys[domain] = keys[first]
                self._indptr[domain] = np.append(first, keys.shape[0])
            rows = np.repeat(np.array([i for i, _ in models], dtype=np.int32), [len(t) for t in tables])
            self._rows[domain] = rows[order]
            self._scores[domain] = values[order]

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
        domains = np.full(len(words), None, dtype=object)
        # registry row -> candidate position, -1 outside the candidate set
        position = np.full(len(self.registry), -1, dtype=np.int64)
        position[rows] = np.arange(rows.shape[0])
        cp, starts, lengths = padded_code_points(words)
        pending = np.ones(len(words), dtype=bool)
        unresolved = np.arange(len(words))
        for domain in self._backoff:
            if domain == WORD_DOMAIN:
                get = self._vocabs[domain].get
                ids = np.array([get(pad_word(words[i]), -1) for i in unresolved.tolist()], dtype=np.int64)
                counts = np.ones(unresolved.shape[0], dtype=np.int64)
            elif self._keys[domain].shape[0]:
                ids, counts = window_columns(
                    self._keys[domain], cp, starts[unresolved], lengths[unresolved], int(domain)
                )
            else:
                continue
            # the words with a feature some model stores, and their features' ids
            owner = np.repeat(np.arange(unresolved.shape[0]), counts)
            in_batch = np.bincount(owner[ids >= 0], minlength=unresolved.shape[0]) > 0
            if not in_batch.any():
                continue
            batch, ids, counts = unresolved[in_batch], ids[in_batch[owner]], counts[in_batch]
            offsets = counts.cumsum() - counts
            known = ids >= 0
            used, ids[known] = np.unique(ids[known], return_inverse=True)
            # the used columns' stored entries, in order: the k-th of column j is at first[j] + k
            indptr = self._indptr[domain]
            first = indptr[used]
            sizes = indptr[used + 1] - first
            columns = np.repeat(np.arange(used.shape[0]), sizes)
            entries = np.arange(columns.shape[0]) + (first - (sizes.cumsum() - sizes))[columns]
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
            sums = running_sums(table, ids, offsets, counts)
            resolved = batch[usable]
            out[resolved] = sums[usable] / counts[usable, None]
            domains[resolved] = domain
            pending[resolved] = False
            unresolved = unresolved[pending[unresolved]]
            if not unresolved.shape[0]:
                break
        return domains.tolist()

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
        self, words: list[str], counts: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, list[str | None]]:
        """Mean word-score row of each sentence, and every word's domain.

        ``words`` are the sentences' words laid end to end and ``counts`` each
        sentence's word count, as ``tokenize_chunk`` gives them. A sentence's
        word rows are added by ``running_sums``, in word order as ``acc += row``
        adds them, then divided by its word count; a sentence without words
        gets the penalty row. The domains run over all the words in order,
        read through ``score_words``' index.
        """
        table, index, domains = self.score_words(words, rows)
        sums = running_sums(table, index, counts.cumsum() - counts, counts)
        means = sums / np.maximum(counts, 1)[:, None]
        return np.where(counts[:, None] > 0, means, self.penalty), [domains[i] for i in index.tolist()]

    def word_winners(
        self, texts: list[str], rows: np.ndarray, codes: list[str]
    ) -> Iterator[list[str]]:
        """Each text's per-word winners (first minimum in ``codes`` order), a chunk at a time."""
        for chunk in _chunks(texts):
            words, counts = tokenize_chunk(chunk)
            table, index, _ = self.score_words(words, rows)
            winners = [codes[best] for best in table[index].argmin(axis=1).tolist()]
            ends = counts.cumsum().tolist()
            for start, end in zip([0, *ends], ends):
                yield winners[start:end]

    def predict(self, sentences: list[str], rows: np.ndarray, codes: list[str]) -> list[Prediction]:
        """Prediction of each sentence, over one read-only block of score rows.

        The CJK rule applies first; the winner is the first minimum in ``codes`` order.
        """
        words, counts = tokenize_chunk(sentences)
        means, domains = self.score_sentences(words, counts, rows)
        means = apply_cjk_sanity(means, sentences, codes, self.registry)
        means.setflags(write=False)
        starts = (counts.cumsum() - counts).tolist()
        return [
            Prediction(codes, row, best, words, domains, start, count)
            for row, best, start, count in zip(means, means.argmin(axis=1).tolist(), starts, counts.tolist())
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


def output_template(codes: list[str], with_scores: bool) -> str:
    """The ``%`` template of an output row over ``codes`` (registry codes, which hold no
    ``%``): index, winner and winner score, then, with scores, each code and its score."""
    scores = "".join(f"\t{code}\t%.6f" for code in codes) if with_scores else ""
    return "%d\t%s\t%.6f" + scores


def format_prediction(index: int, prediction: Prediction, with_scores: bool, template=None) -> str:
    """One output row: index, winner, winner score, optionally all scores.

    ``template`` is ``output_template(prediction.codes, with_scores)``, built here when not given.
    """
    if template is None:
        template = output_template(prediction.codes, with_scores)
    row = prediction.row
    head = (index, prediction.winner, row.item(prediction._best))
    return template % ((*head, *row.tolist()) if with_scores else head)

