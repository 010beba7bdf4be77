"""Tokenization and character n-gram extraction.

Only lowercased alphabetic characters reach the models: the input is
Unicode-lowercased and every maximal run of letters (Unicode category L*)
becomes one word; everything else separates words and is discarded.

Words are padded with exactly one space on each side before n-grams are
taken, so boundary n-grams are distinguishable from word-internal ones.
The word-level feature of ``kala`` is the padded string ``" kala "``.
"""

from __future__ import annotations

from itertools import groupby

WORD_DOMAIN = "word"


def tokenize(text: str) -> list[str]:
    """Lowercase and split into maximal alphabetic runs."""
    return ["".join(run) for is_alpha, run in groupby(text.lower(), key=str.isalpha) if is_alpha]


def pad_word(word: str) -> str:
    return f" {word} "


def extract_ngrams(word: str, n: int) -> list[str]:
    """All length-``n`` substrings of the space-padded word, in order.

    A word of length L yields max(0, L + 3 - n) n-grams.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    padded = f" {word} "
    if n > len(padded):
        return []
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def all_domains(n_max: int, use_words: bool) -> list[str]:
    """Domain keys for n-gram lengths 1..n_max ("1", "2", ...), then the word domain if used."""
    return [str(n) for n in range(1, n_max + 1)] + ([WORD_DOMAIN] if use_words else [])
