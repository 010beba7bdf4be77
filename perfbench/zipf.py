"""Seeded Zipfian text for every language of a registry.

Each language owns a fixed vocabulary, built from its code alone, so the
same language looks the same under every seed. Words are drawn from it with
weight 1/rank, which gives the repeated-word structure of real text: a few
words make up much of every sentence, and a long tail shows up rarely.

Latin-script languages build their words from syllables over their own
subset of a shared letter pool, so languages share letters and n-grams the
way related languages do, without the n-gram sprawl of random strings.
CJK-flagged languages take their characters from the registry's CJK blocks
(Hangul for ``kor``, kana plus ideographs for ``jpn``, ideographs
otherwise), and all but ``kor`` write without spaces, so their sentences
trip the identifier's CJK rule.

The seed picks which words, sentences and pages are drawn: the same seed
gives the same text, byte for byte.
"""

from __future__ import annotations

import base64
import itertools
import random
from dataclasses import dataclass

CONSONANT_POOL = "bcdfghjklmnprstvzšžčñ"
VOWEL_POOL = "aeiouyäöüõáéíóú"
VOCABULARY_SIZE = 3000
BOILERPLATE_LINES = 40
CJK_CHARACTERS_PER_LANGUAGE = 400

HANGUL = (0xAC00, 0xD7A3)
KANA = ((0x3041, 0x3096), (0x30A1, 0x30FA))
IDEOGRAPHS = (0x4E00, 0x9FFF)


def _codepoints(ranges) -> list[str]:
    return [chr(cp) for lo, hi in ranges for cp in range(lo, hi + 1)]


@dataclass(frozen=True)
class Language:
    """A synthetic language: a vocabulary ranked by frequency."""

    code: str
    spaced: bool
    vocabulary: tuple[str, ...]
    cum_weights: tuple[float, ...]

    def words(self, rng: random.Random, count: int) -> list[str]:
        return rng.choices(self.vocabulary, cum_weights=self.cum_weights, k=count)

    def sentence(self, rng: random.Random, min_words: int = 4, max_words: int = 14) -> str:
        words = self.words(rng, rng.randint(min_words, max_words))
        if not self.spaced:
            # clauses of unspaced words, split by an ideographic comma
            clauses = []
            while words:
                size = rng.randint(2, 4)
                clauses.append("".join(words[:size]))
                words = words[size:]
            return "，".join(clauses) + "。"
        if len(words) > 6 and rng.random() < 0.3:
            words[len(words) // 2] += ","
        text = " ".join(words)
        return text[0].upper() + text[1:] + "."


def _word(rng: random.Random, units: list[str], lengths: tuple[int, ...]) -> str:
    return "".join(rng.choices(units, k=rng.choice(lengths)))


def _syllables(rng: random.Random) -> list[str]:
    consonants = rng.sample(CONSONANT_POOL, 9)
    vowels = rng.sample(VOWEL_POOL, 5)
    open_syllables = [c + v for c in consonants for v in vowels]
    closed = [s + rng.choice(consonants) for s in rng.sample(open_syllables, 12)]
    return open_syllables + closed + vowels


def make_language(code: str, cjk: bool) -> Language:
    """The fixed vocabulary of ``code``; it does not depend on any seed."""
    rng = random.Random(f"zipf-vocabulary:{code}")
    if not cjk:
        alphabet = _syllables(rng)
        lengths = (1, 2, 2, 2, 3, 3, 3, 4, 4, 5)
        spaced = True
    elif code == "kor":
        alphabet = rng.sample(_codepoints([HANGUL]), CJK_CHARACTERS_PER_LANGUAGE)
        lengths = (1, 2, 2, 3, 3, 4)
        spaced = True
    else:
        ranges = (*KANA, IDEOGRAPHS) if code == "jpn" else (IDEOGRAPHS,)
        alphabet = rng.sample(_codepoints(ranges), CJK_CHARACTERS_PER_LANGUAGE)
        lengths = (1, 2, 2, 2, 3)
        spaced = False
    vocabulary: dict[str, None] = {}
    while len(vocabulary) < VOCABULARY_SIZE:
        vocabulary[_word(rng, alphabet, lengths)] = None
    cum_weights = tuple(itertools.accumulate(1.0 / rank for rank in range(1, VOCABULARY_SIZE + 1)))
    return Language(code, spaced, tuple(vocabulary), cum_weights)


class ZipfText:
    """Seeded corpora, mixed-language streams and web crawls over a registry."""

    def __init__(self, registry, seed: int):
        self.registry = registry
        self.seed = seed
        self.languages = {entry.code: make_language(entry.code, entry.cjk) for entry in registry.entries}

    def _rng(self, purpose: str) -> random.Random:
        return random.Random(f"zipf:{purpose}:{self.seed}")

    def corpora(self, sentences_per_language: int) -> dict[str, list[str]]:
        """Training sentences for every registered language."""
        corpora = {}
        for code, language in self.languages.items():
            rng = self._rng(f"corpus:{code}")
            corpora[code] = [language.sentence(rng) for _ in range(sentences_per_language)]
        return corpora

    def stream(self, count: int) -> list[tuple[str, str]]:
        """(language, sentence) pairs, languages drawn uniformly from the registry."""
        rng = self._rng("stream")
        codes = list(self.languages)
        pairs = []
        for _ in range(count):
            code = rng.choice(codes)
            pairs.append((code, self.languages[code].sentence(rng)))
        return pairs

    def crawl(self, pages: int) -> list[tuple[str, str]]:
        """(url, text) pages: relevant, non-relevant and mixed-language pages.

        Every page carries a few lines from a shared boilerplate pool, and
        content lines hold one to three sentences each.
        """
        rng = self._rng("crawl")
        relevant = self.registry.relevant_codes()
        other = self.registry.non_relevant_codes()
        shared = [
            self.languages[rng.choice(other)].sentence(rng, 2, 5) for _ in range(BOILERPLATE_LINES)
        ]
        result = []
        for number in range(pages):
            roll = rng.random()
            if roll < 0.5:
                mix = [rng.choice(relevant)]
            elif roll < 0.75:
                mix = [rng.choice(other)]
            else:
                mix = [rng.choice(relevant), rng.choice(other)]
            lines = rng.sample(shared, 3)
            for _ in range(rng.randint(8, 20)):
                language = self.languages[rng.choice(mix)]
                lines.append(" ".join(language.sentence(rng) for _ in range(rng.randint(1, 3))))
            lines += rng.sample(shared, 2)
            result.append((f"https://site{number % 37}.example/{self.seed}/{number}", "\n".join(lines)))
        return result


def write_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_corpora(directory, corpora: dict[str, list[str]]) -> None:
    """One file per language; every second language in ``index<TAB>sentence`` form."""
    directory.mkdir(parents=True, exist_ok=True)
    for position, (code, sentences) in enumerate(corpora.items()):
        if position % 2:
            write_lines(directory / f"{code}.tsv", (f"{i}\t{s}" for i, s in enumerate(sentences, 1)))
        else:
            write_lines(directory / f"{code}.txt", sentences)


def write_crawl(path, pages) -> None:
    """Pages as ``url<TAB>base64(text)`` rows."""
    write_lines(
        path, (f"{url}\t{base64.b64encode(text.encode('utf-8')).decode('ascii')}" for url, text in pages)
    )
