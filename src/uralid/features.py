"""Tokenization and character n-gram extraction.

Only lowercased alphabetic characters reach the models: the input is
Unicode-lowercased and every maximal run of letters (``str.isalpha``)
becomes one word; everything else separates words and is discarded.
``tokenize`` does this with one ``str.translate`` over a table that maps a
letter to itself and any other code point to a space, then splits on the
spaces. The table fills in as code points are met and stops growing at
``_TABLE_LIMIT`` entries, so input of many distinct code points cannot make
it large; code points past the limit are classified each time they occur.

Words are padded with exactly one space on each side before n-grams are
taken, so boundary n-grams are distinguishable from word-internal ones.
The word-level feature of ``kala`` is the padded string ``" kala "``.
An n-gram is therefore exactly n code points, never U+0000 (not a letter).
"""

from __future__ import annotations

import numpy as np

WORD_DOMAIN = "word"

# Code points the tokenizer's translation table remembers. The table only
# memoizes a function of the code point, so sharing it changes no result.
_TABLE_LIMIT = 1 << 16


class _Separators(dict):
    """``str.translate`` table: a letter to itself, any other code point to a space."""

    def __missing__(self, cp: int) -> int | str:
        value = cp if chr(cp).isalpha() else " "
        if len(self) < _TABLE_LIMIT:
            self[cp] = value
        return value


_SEPARATORS = _Separators()


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphabetic runs."""
    return text.lower().translate(_SEPARATORS).split()


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


def padded_code_points(words: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code points of the space-padded words laid end to end, and each padded
    word's start and length there."""
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) + 2
    return code_points("".join(map(pad_word, words))), lengths.cumsum() - lengths, lengths


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
