"""Sentence corpora: loading line-oriented files.

A corpus file holds one of two formats, told apart by its first non-blank
line:

* ``indexed`` -- Leipzig-collection style ``number<TAB>sentence`` lines,
  the leading number is stripped. A first line whose first field is an
  integer, followed by a tab, makes the file indexed;
* ``plain``   -- one sentence per line; every other file, an empty one
  included.

Blank lines are dropped in both formats (an empty sentence carries no
features). Files must be UTF-8 and are read once; records end at LF, CRLF
or CR (``errors.split_records``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, read_utf8, split_records


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


def load_corpus(path, language: str) -> Corpus:
    """Read a corpus file in whichever format its first non-blank line shows.

    Every line of an indexed file must contain a tab; the part before the
    first tab is discarded. Order is preserved; blank lines are skipped.
    """
    path = Path(path)
    sentences: list[str] = []
    indexed = None  # decided by the first non-blank line
    for lineno, line in enumerate(split_records(read_utf8(path)), start=1):
        if not line.strip():
            continue
        if indexed is None:
            head, tab, _ = line.partition("\t")
            indexed = bool(tab) and head.strip().isdigit()
        if indexed:
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: indexed line without a tab")
            line = line.split("\t", 1)[1]
            if not line.strip():
                continue
        sentences.append(line)
    return Corpus(language=language, sentences=tuple(sentences), source_path=str(path))
