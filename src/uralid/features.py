"""Tokenization and character n-gram extraction.

Only lowercased alphabetic characters reach the models: the input is
Unicode-lowercased and every maximal run of letters (``str.isalpha``)
becomes one word; everything else separates words and is discarded.
``tokenize_chunk`` does this for a list of texts in one array pass. Each
text is lowercased on its own (``İ`` lowers to two code points, so a text's
bounds are those of its lowered form), and the lowered texts are joined with
one space and read once as code points. A code point of the Basic
Multilingual Plane (below U+10000) is a letter by one lookup in a
``str.isalpha`` table built at import; the rarer astral ones are classified
where they occur, each distinct one once per pass, and nothing is kept
between passes. Every non-letter becomes a space, and the result is decoded
and split once; each text's word count is the number of word starts within
its bounds. ``tokenize`` is the same rule for one text.

``chunks`` is the one rule for how many texts a pass takes: identify, the
pipeline and training all read their texts ``_CHUNK_SIZE`` at a time, which
bounds the memory a pass takes and changes no result.

Words are padded with exactly one space on each side before n-grams are
taken, so boundary n-grams are distinguishable from word-internal ones.
The word-level feature of ``kala`` is the padded string ``" kala "``.
An n-gram is therefore exactly n code points, never U+0000 (not a letter).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

import numpy as np

WORD_DOMAIN = "word"

# Texts tokenized in one pass, and sentences (or lines) whose new words are scored together:
# bounds the memory one pass takes. Read at call time, so tests can change it.
_CHUNK_SIZE = 256

# Whether each code point of the Basic Multilingual Plane is a letter.
_BMP = 0x10000
_IS_LETTER = np.fromiter(map(str.isalpha, map(chr, range(_BMP))), bool, _BMP)


def chunks(items: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of ``_CHUNK_SIZE`` items, the size read at call time."""
    size = _CHUNK_SIZE
    return (items[start : start + size] for start in range(0, len(items), size))


def tokenize_chunk(texts: list[str]) -> tuple[list[str], np.ndarray]:
    """The words of all the texts in order, each lowercased and split into maximal
    alphabetic runs, and each text's word count."""
    lowered = [text.lower() for text in texts]
    cp = code_points(" ".join(lowered))
    letter = _IS_LETTER[np.minimum(cp, _BMP - 1)]
    high = cp >= _BMP
    if high.any():
        distinct, at = np.unique(cp[high], return_inverse=True)
        letter[high] = np.array([chr(c).isalpha() for c in distinct.tolist()], dtype=bool)[at]
    starts = np.flatnonzero(letter & ~np.concatenate(([False], letter[:-1])))
    # each text's first code point, then one past the last text's separator
    bounds = np.fromiter(
        accumulate((len(text) + 1 for text in lowered), initial=0), np.int64, len(lowered) + 1
    )
    words = np.where(letter, cp, 0x20).astype("<u4", copy=False).tobytes().decode("utf-32-le").split()
    return words, np.diff(np.searchsorted(starts, bounds))


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphabetic runs: ``tokenize_chunk`` of one text."""
    return tokenize_chunk([text])[0]


def pad_word(word: str) -> str:
    return f" {word} "


def extract_ngrams(word: str, n: int) -> list[str]:
    """All length-``n`` substrings of the space-padded word, in order.

    A word of length L yields max(0, L + 3 - n) n-grams.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    padded = f" {word} "
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as little-endian uint32 (a lone surrogate is one code point)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def ngram_keys(cp: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """The n code points of ``cp`` from each of ``starts``, as ``<U{n}`` keys."""
    return cp[starts[:, None] + np.arange(n)].view(f"<U{n}")[:, 0]


def padded_code_points(words: list[str]) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The space-padded words, their code points laid end to end, and each padded
    word's start and length there."""
    padded = list(map(pad_word, words))
    lengths = np.fromiter(map(len, padded), dtype=np.int64, count=len(padded))
    return padded, code_points("".join(padded)), lengths.cumsum() - lengths, lengths


def ngram_windows(cp, starts, lengths, n) -> tuple[np.ndarray, np.ndarray]:
    """Each n-gram of each padded word at ``starts`` in ``cp`` as a ``<U{n}`` key, in
    word and then position order, and each word's n-gram count,
    ``max(0, length - n + 1)``: the n-grams ``extract_ngrams`` gives, read at once."""
    counts = np.maximum(lengths - n + 1, 0)
    # window k of a word starts k code points after the word
    first = np.repeat(starts - (counts.cumsum() - counts), counts) + np.arange(counts.sum())
    return ngram_keys(cp, first, n), counts


def all_domains(n_max: int, use_words: bool) -> list[str]:
    """Domain keys for n-gram lengths 1..n_max ("1", "2", ...), then the word domain if used."""
    return [str(n) for n in range(1, n_max + 1)] + ([WORD_DOMAIN] if use_words else [])
