"""Web-crawl cleaning funnel: pages -> lines -> sentences -> labeled sentences.

The five stages:

1. keep pages with at least ``min_share`` of their text in some relevant
   language; the most prominent one becomes the page language
2. split pages into lines and deduplicate; a line seen on pages with
   different languages keeps the union as its known languages
3. re-identify each line restricted to its known languages plus all
   non-relevant ones; keep lines where a relevant language still wins,
   labeled with that language
4. split lines into sentences, then deduplicate sentences the same way
5. label each sentence with the language that wins an absolute majority
   of its words under the same restriction; drop the rest

Stages 1, 3 and 5 are independent per item; 2 and 4 merge in
first-occurrence order, so the whole funnel is deterministic.
"""

from __future__ import annotations

import base64
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .errors import DataError, read_utf8
from .identifier import identify_set
from .models import ModelSet

DEFAULT_MIN_SHARE = 0.02
SENTENCE_TERMINATORS = ".!?…"


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


@dataclass(frozen=True)
class PipelineConfig:
    min_share: float = DEFAULT_MIN_SHARE
    sentence_terminators: str = SENTENCE_TERMINATORS


def page_lines(page: Page) -> list[str]:
    """The page's non-blank lines, in order."""
    return [line for line in page.text.splitlines() if line.strip()]


def stage1_filter_pages(
    pages, model_set: ModelSet, min_share: float = DEFAULT_MIN_SHARE
) -> list[Page]:
    """Keep pages dominated by a relevant language and record which one."""
    kept = []
    for page in pages:
        result = identify_set(page.text, model_set, min_share=min_share)
        if result.dominant is not None:
            kept.append(replace(page, page_language=result.dominant))
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


def stage3_filter_lines(lines, model_set: ModelSet) -> list[LabeledLine]:
    """Re-identify lines under restriction; keep those a relevant language wins.

    Each line is a single non-blank line, as stage 2 gives them, so the
    winner becomes its one known language.
    """
    registry = model_set.registry
    scorer = model_set.scorer()
    non_relevant = registry.non_relevant_codes()
    kept = []
    for line in lines:
        candidates = registry.sort_by_order(set(line.known_languages) | set(non_relevant))
        rows, codes = scorer.candidate_rows(candidates)
        winner = scorer.predict(line.text, rows, codes).winner
        if registry.is_relevant(winner):
            kept.append(LabeledLine(text=line.text, known_languages=frozenset({winner})))
    return kept


@lru_cache(maxsize=8)
def _terminator_pattern(terminators: str) -> re.Pattern:
    return re.compile(f"[{re.escape(terminators)}]+(?=\\s|$)")


def split_sentences(text: str, terminators: str = SENTENCE_TERMINATORS) -> list[str]:
    """Split after runs of sentence-final punctuation; keep only lettered parts.

    The terminator run stays with the preceding sentence and must be followed
    by whitespace or end of text, so "3.14" never splits.
    """
    pattern = _terminator_pattern(terminators)
    parts = []
    start = 0
    for match in pattern.finditer(text):
        parts.append(text[start : match.end()])
        start = match.end()
    if start < len(text):
        parts.append(text[start:])
    sentences = []
    for part in parts:
        part = part.strip()
        if part and any(ch.isalpha() for ch in part):
            sentences.append(part)
    return sentences


def stage4_extract_sentences(
    line: LabeledLine, terminators: str = SENTENCE_TERMINATORS
) -> list[LabeledLine]:
    """Sentence-sized pieces of the line, each inheriting its labels."""
    return [
        LabeledLine(text=sentence, known_languages=line.known_languages)
        for sentence in split_sentences(line.text, terminators)
    ]


def stage5_label_sentences(sentences, model_set: ModelSet) -> list[LabeledSentence]:
    """Label sentences whose words give an absolute majority to one relevant language."""
    registry = model_set.registry
    scorer = model_set.scorer()
    non_relevant = registry.non_relevant_codes()
    labeled = []
    for sentence in sentences:
        candidates = registry.sort_by_order(
            set(sentence.known_languages) | set(non_relevant)
        )
        rows, codes = scorer.candidate_rows(candidates)
        winners = scorer.word_winners(sentence.text, rows, codes)
        majority = None
        for code, count in Counter(winners).items():
            if 2 * count > len(winners):
                majority = code
                break
        if majority is not None and registry.is_relevant(majority):
            labeled.append(LabeledSentence(text=sentence.text, language=majority))
    return labeled


def run_pipeline(
    pages, model_set: ModelSet, config: PipelineConfig | None = None
) -> tuple[list[LabeledSentence], PipelineReport]:
    """Run all five stages and count the funnel at each step."""
    config = config or PipelineConfig()
    pages = list(pages)
    seen_urls = set()
    for page in pages:
        if page.url in seen_urls:
            raise DataError(f"duplicate page url {page.url!r}")
        seen_urls.add(page.url)

    retained = stage1_filter_pages(pages, model_set, min_share=config.min_share)
    lines_total = sum(len(page_lines(page)) for page in retained)
    unique_lines = stage2_dedup_lines(retained)
    kept_lines = stage3_filter_lines(unique_lines, model_set)

    extracted: list[LabeledLine] = []
    for line in kept_lines:
        extracted.extend(stage4_extract_sentences(line, config.sentence_terminators))
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
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise DataError(f"{path}:{lineno}: expected url<TAB>base64 text")
        url, payload = fields
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
    fields = (
        "pages_in",
        "pages_retained",
        "lines_total",
        "lines_unique",
        "lines_retained",
        "sentences_extracted",
        "sentences_unique",
        "sentences_labeled",
    )
    return "".join(f"{name}\t{getattr(report, name)}\n" for name in fields)
