"""Web-crawl cleaning funnel: pages -> lines -> sentences -> labeled sentences.

The five stages:

1. keep pages with at least ``min_share`` of their text in some relevant
   language; the most prominent one becomes the page language. The
   winners of all pages' non-blank lines stream from one
   ``Scorer.predictions`` pass, which holds one chunk's predictions at a
   time, and the characters each language wins are counted page by page
2. split pages into lines and deduplicate; a line seen on pages with
   different languages keeps the union as its known languages
3. re-identify each line restricted to its known languages plus the
   non-relevant ones that have a model; keep lines where a relevant
   language still wins, labeled with that language
4. split lines into sentences after each run of ``.!?…`` that whitespace
   follows, then deduplicate sentences the same way
5. label each sentence with the language that wins an absolute majority
   of its words under the same restriction; drop the rest, wordless ones too

Stages 3 and 5 score items that share known languages in one pass per set
and keep one code per item. Stages 1, 3 and 5 are independent per item; 2
and 4 merge in first-occurrence order, so the whole funnel is deterministic.
"""

from __future__ import annotations

import base64
import re
from collections import Counter
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

from .errors import DataError, read_utf8, split_records
from .models import ModelSet

# A sentence ends after any of .!?… that whitespace follows (``\s``, so
# U+3000 and U+0085 count too); a run of them stays with its sentence.
SENTENCE_BREAK = re.compile(r"(?<=[.!?…])(?=\s)")

# Least share of a page's characters its dominant language must win.
DEFAULT_MIN_SHARE = 0.02


@dataclass(frozen=True)
class Page:
    url: str
    text: str
    page_language: str | None = None


@dataclass(frozen=True)
class LabeledLine:
    """A unique line (or sentence) and the relevant languages it may be in."""

    text: str
    known_languages: frozenset[str]

    def __post_init__(self):
        if not self.known_languages:
            raise ValueError("known_languages must be non-empty")


@dataclass(frozen=True)
class LabeledSentence:
    text: str
    language: str


@dataclass(frozen=True)
class PipelineReport:
    pages_in: int
    pages_retained: int
    lines_total: int
    lines_unique: int
    lines_retained: int
    sentences_extracted: int
    sentences_unique: int
    sentences_labeled: int

    def __post_init__(self):
        checks = (
            ("pages_retained", "pages_in"),
            ("lines_unique", "lines_total"),
            ("lines_retained", "lines_unique"),
            ("sentences_unique", "sentences_extracted"),
            ("sentences_labeled", "sentences_unique"),
        )
        for smaller, larger in checks:
            if getattr(self, smaller) > getattr(self, larger):
                raise ValueError(f"funnel not monotone: {smaller} > {larger}")


def check_min_share(min_share: float) -> None:
    """Reject a ``min_share`` outside (0, 1]; stage 1 and the CLI call it before any work."""
    if not 0.0 < min_share <= 1.0:
        raise ValueError(f"min_share must be in (0, 1], got {min_share}")


def page_lines(page: Page) -> list[str]:
    """The page's non-blank lines, in order."""
    return [line for line in page.text.splitlines() if line.strip()]


def stage1_filter_pages(
    pages, model_set: ModelSet, min_share: float = DEFAULT_MIN_SHARE
) -> list[Page]:
    """Keep pages dominated by a relevant language and record which one.

    A language's share of a page is the fraction of characters in the
    page's non-blank lines that it wins. The page language is the relevant
    one with the greatest share, ties going to registry order, provided
    that share reaches ``min_share``.
    """
    check_min_share(min_share)  # before any work
    registry = model_set.registry
    pages = list(pages)
    lines = [page_lines(page) for page in pages]
    scorer = model_set.scorer()
    predictions = scorer.predictions(list(chain.from_iterable(lines)), *scorer.candidate_rows())
    kept = []
    for page, texts in zip(pages, lines):
        chars_won: Counter[str] = Counter()
        for text in texts:
            chars_won[next(predictions).winner] += len(text)
        total = sum(chars_won.values())
        shares = {
            code: chars_won[code] / total
            for code in registry.sort_by_order(chars_won)
            if registry.is_relevant(code)
        }
        if shares:
            dominant = max(shares, key=shares.__getitem__)
            if shares[dominant] >= min_share:
                kept.append(replace(page, page_language=dominant))
    return kept


def _union_dedup(items) -> list[LabeledLine]:
    merged: dict[str, set[str]] = {}
    for item in items:
        merged.setdefault(item.text, set()).update(item.known_languages)
    return [
        LabeledLine(text=text, known_languages=frozenset(langs))
        for text, langs in merged.items()
    ]


def stage2_dedup_lines(pages) -> list[LabeledLine]:
    """Unique lines across pages, labels merged, first occurrence wins order."""
    def lines():
        for page in pages:
            if page.page_language is None:
                raise ValueError(f"page {page.url!r} has no language; run stage 1 first")
            for text in page_lines(page):
                yield LabeledLine(text=text, known_languages=frozenset({page.page_language}))

    return _union_dedup(lines())


def restricted_candidates(model_set: ModelSet, allowed_relevant) -> list[str]:
    """The allowed relevant languages plus every modeled non-relevant one, in registry order."""
    registry = model_set.registry
    non_relevant = [code for code in registry.non_relevant_codes() if code in model_set.models]
    return registry.sort_by_order(set(allowed_relevant) | set(non_relevant))


def _score_by_known_languages(items, model_set: ModelSet, score) -> list[tuple]:
    """``(item, result)`` pairs in item order, from one ``score(scorer, texts, rows,
    codes)`` call per known-language set, in first-occurrence order, over its
    restricted candidates."""
    items, scorer = list(items), model_set.scorer()
    groups: dict[frozenset[str], list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault(item.known_languages, []).append(i)
    results: list = [None] * len(items)
    for langs, indices in groups.items():
        rows, codes = scorer.candidate_rows(restricted_candidates(model_set, langs))
        texts = [items[i].text for i in indices]
        for i, result in zip(indices, score(scorer, texts, rows, codes)):
            results[i] = result
    return list(zip(items, results))


def stage3_filter_lines(lines, model_set: ModelSet) -> list[LabeledLine]:
    """Re-identify lines under restriction; keep those a relevant language wins.

    Each line is a single non-blank line, as stage 2 gives them, so the
    winner becomes its one known language. Lines with the same known
    languages are identified as one batch; kept lines stay in input order.
    """
    def winners(scorer, texts, rows, codes):
        return (prediction.winner for prediction in scorer.predictions(texts, rows, codes))

    return [
        LabeledLine(text=line.text, known_languages=frozenset({winner}))
        for line, winner in _score_by_known_languages(lines, model_set, winners)
        if model_set.registry.is_relevant(winner)
    ]


def split_sentences(text: str) -> list[str]:
    """Split where ``SENTENCE_BREAK`` does; keep only lettered parts, stripped.

    Whitespace must follow the break, so "3.14" never splits.
    """
    return [part.strip() for part in SENTENCE_BREAK.split(text) if any(ch.isalpha() for ch in part)]


def stage4_extract_sentences(line: LabeledLine) -> list[LabeledLine]:
    """Sentence-sized pieces of the line, each inheriting its labels."""
    return [
        LabeledLine(text=sentence, known_languages=line.known_languages)
        for sentence in split_sentences(line.text)
    ]


def stage5_label_sentences(sentences, model_set: ModelSet) -> list[LabeledSentence]:
    """Label sentences whose words give an absolute majority to one relevant language."""
    def majorities(scorer, texts, rows, codes):
        """Each text's code that wins more than half its words, else None (so for no words)."""
        for winners in scorer.word_winners(texts, rows, codes):
            top = Counter(winners).most_common(1)
            yield top[0][0] if top and 2 * top[0][1] > len(winners) else None

    return [
        LabeledSentence(text=sentence.text, language=majority)
        for sentence, majority in _score_by_known_languages(sentences, model_set, majorities)
        if majority is not None and model_set.registry.is_relevant(majority)
    ]


def run_pipeline(
    pages, model_set: ModelSet, min_share: float = DEFAULT_MIN_SHARE
) -> tuple[list[LabeledSentence], PipelineReport]:
    """Run all five stages and count the funnel at each step."""
    pages = list(pages)
    seen_urls = set()
    for page in pages:
        if page.url in seen_urls:
            raise DataError(f"duplicate page url {page.url!r}")
        seen_urls.add(page.url)

    retained = stage1_filter_pages(pages, model_set, min_share)
    lines_total = sum(len(page_lines(page)) for page in retained)
    unique_lines = stage2_dedup_lines(retained)
    kept_lines = stage3_filter_lines(unique_lines, model_set)

    extracted: list[LabeledLine] = []
    for line in kept_lines:
        extracted.extend(stage4_extract_sentences(line))
    unique_sentences = _union_dedup(extracted)

    labeled = stage5_label_sentences(unique_sentences, model_set)

    report = PipelineReport(
        pages_in=len(pages),
        pages_retained=len(retained),
        lines_total=lines_total,
        lines_unique=len(unique_lines),
        lines_retained=len(kept_lines),
        sentences_extracted=len(extracted),
        sentences_unique=len(unique_sentences),
        sentences_labeled=len(labeled),
    )
    return labeled, report


def load_pages(path) -> list[Page]:
    """Read pages from a TSV of ``url<TAB>base64(text)`` or a directory of .txt files."""
    path = Path(path)
    pages: list[Page] = []
    if path.is_dir():
        for file in sorted(path.glob("*.txt")):
            pages.append(Page(url=file.stem, text=read_utf8(file)))
        return pages
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(split_records(read_utf8(path)), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected url<TAB>base64 text")
        url, payload = fields
        first = first_lines.setdefault(url, lineno)
        if first != lineno:
            raise DataError(f"{path}:{lineno}: duplicate page url {url!r}, first on line {first}")
        try:
            text = base64.b64decode(payload, validate=True).decode("utf-8")
        except (ValueError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}:{lineno}: bad page payload: {exc}") from exc
        pages.append(Page(url=url, text=text))
    return pages


def write_sentences(sentences, path) -> None:
    lines = [f"{s.text}\t{s.language}" for s in sentences]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_report(report: PipelineReport, path) -> None:
    Path(path).write_text(format_report(report), encoding="utf-8")


def format_report(report: PipelineReport) -> str:
    return "".join(f"{f.name}\t{getattr(report, f.name)}\n" for f in fields(report))
