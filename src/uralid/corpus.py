"""Sentence corpora: loading line-oriented files.

Two file formats are supported:

* ``plain``   -- one sentence per line;
* ``indexed`` -- Leipzig-collection style ``number<TAB>sentence`` lines,
  the leading number is stripped.

Blank lines are dropped in both formats (an empty sentence carries no
features). Files must be UTF-8; records end at LF, CRLF or CR
(``errors.split_records``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, read_utf8, split_records

FORMATS = ("plain", "indexed")


@dataclass(frozen=True)
class Corpus:
    """Ordered sentences of a single language. Immutable once loaded."""

    language: str
    sentences: tuple[str, ...]
    source_path: str = "<memory>"

    def __post_init__(self):
        for s in self.sentences:
            if "\n" in s or "\r" in s:
                raise DataError(
                    f"{self.source_path}: sentence contains a line break: {s!r}"
                )


def load_corpus(path, language: str, format: str = "plain") -> Corpus:
    """Read a sentence-per-line corpus file.

    ``indexed`` lines must contain a tab; the part before the first tab is
    discarded. Order is preserved; blank lines are skipped.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    path = Path(path)
    sentences: list[str] = []
    for lineno, line in enumerate(split_records(read_utf8(path)), start=1):
        if not line.strip():
            continue
        if format == "indexed":
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: indexed line without a tab")
            line = line.split("\t", 1)[1]
            if not line.strip():
                continue
        sentences.append(line)
    return Corpus(language=language, sentences=tuple(sentences), source_path=str(path))


def sniff_format(path) -> str:
    """Guess a corpus file's format from its first non-blank line.

    A leading integer field followed by a tab means ``indexed``; anything
    else, including an empty file, is ``plain``.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for raw in handle:
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            head = line.split("\t", 1)[0]
            return "indexed" if "\t" in line and head.strip().isdigit() else "plain"
    return "plain"
