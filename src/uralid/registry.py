"""Language registry: the closed set of language codes and their flags.

The registry is data, not code. It is a UTF-8 TSV file with one language per
line::

    code<TAB>display name<TAB>relevant(0|1)[<TAB>cjk(0|1)]

Lines starting with ``#`` are comments. Directive lines starting with
``#!cjk-block`` extend the comment syntax and carry the inventory of Unicode
blocks counted as CJK::

    #!cjk-block<TAB>4E00<TAB>9FFF

A registry without directives falls back to DEFAULT_CJK_BLOCKS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import DataError, read_utf8, split_records

_CODE_RE = re.compile(r"[a-z]{3}")

# Unified Ideographs, Extension A, Hiragana, Katakana, Hangul syllables and
# Jamo. CJK punctuation (U+3000..U+303F) is deliberately not counted.
DEFAULT_CJK_BLOCKS: tuple[tuple[int, int], ...] = (
    (0x1100, 0x11FF),  # Hangul Jamo
    (0x3040, 0x309F),  # Hiragana
    (0x30A0, 0x30FF),  # Katakana
    (0x3400, 0x4DBF),  # CJK Unified Ideographs Extension A
    (0x4E00, 0x9FFF),  # CJK Unified Ideographs
    (0xAC00, 0xD7AF),  # Hangul Syllables
)


@dataclass(frozen=True)
class LanguageEntry:
    code: str
    name: str
    relevant: bool
    cjk: bool = False


@dataclass(frozen=True)
class LanguageRegistry:
    """Ordered, immutable set of languages. Order defines tie-breaking."""

    entries: tuple[LanguageEntry, ...]
    cjk_blocks: tuple[tuple[int, int], ...] = DEFAULT_CJK_BLOCKS
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cjk_blocks:
            raise DataError("a registry needs at least one CJK block")
        for lo, hi in self.cjk_blocks:
            if lo > hi:
                raise DataError(f"CJK block bounds out of order: {lo:04X} > {hi:04X}")
        index: dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            if not _CODE_RE.fullmatch(entry.code):
                raise DataError(f"invalid language code {entry.code!r}")
            if any(c in entry.name for c in "\t\r\n"):
                raise DataError(f"language name {entry.name!r} holds a tab or line break")
            try:
                entry.name.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"language name {entry.name!r} is not encodable as UTF-8") from None
            if entry.code in index:
                raise DataError(f"duplicate language code {entry.code!r}")
            index[entry.code] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, code: str) -> bool:
        return code in self._index

    def codes(self) -> list[str]:
        return [e.code for e in self.entries]

    def index(self, code: str) -> int:
        """Registry position of a code. Raises for unregistered codes."""
        try:
            return self._index[code]
        except KeyError:
            raise DataError(f"unregistered language code {code!r}") from None

    def entry(self, code: str) -> LanguageEntry:
        return self.entries[self.index(code)]

    def is_relevant(self, code: str) -> bool:
        return self.entry(code).relevant

    def is_cjk(self, code: str) -> bool:
        return self.entry(code).cjk

    def relevant_codes(self) -> list[str]:
        return [e.code for e in self.entries if e.relevant]

    def non_relevant_codes(self) -> list[str]:
        return [e.code for e in self.entries if not e.relevant]

    def sort_by_order(self, codes) -> list[str]:
        """Return the given codes sorted into registry order."""
        return sorted(set(codes), key=self.index)


def _parse_flag(value: str, what: str, lineno: int, path) -> bool:
    if value == "1":
        return True
    if value == "0":
        return False
    raise DataError(f"{path}:{lineno}: {what} flag must be 0 or 1, got {value!r}")


def _parse_cjk_block(fields: list[str], lineno: int, path) -> tuple[int, int]:
    if len(fields) != 3:
        raise DataError(f"{path}:{lineno}: #!cjk-block takes two hex bounds")
    try:
        lo, hi = int(fields[1], 16), int(fields[2], 16)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad hex codepoint in #!cjk-block") from None
    if lo > hi:
        raise DataError(f"{path}:{lineno}: #!cjk-block bounds out of order")
    return lo, hi


def parse_registry(text: str, source="<string>") -> LanguageRegistry:
    entries: list[LanguageEntry] = []
    seen: set[str] = set()
    blocks: list[tuple[int, int]] = []
    for lineno, line in enumerate(split_records(text), start=1):
        if line.startswith("#!cjk-block"):
            blocks.append(_parse_cjk_block(line.split("\t"), lineno, source))
            continue
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise DataError(
                f"{source}:{lineno}: expected 3 or 4 tab-separated columns, "
                f"got {len(fields)}"
            )
        code = fields[0]
        if not _CODE_RE.fullmatch(code):
            raise DataError(f"{source}:{lineno}: bad language code {code!r}")
        if code in seen:
            raise DataError(f"{source}:{lineno}: duplicate language code {code!r}")
        seen.add(code)
        relevant = _parse_flag(fields[2], "relevant", lineno, source)
        cjk = _parse_flag(fields[3], "cjk", lineno, source) if len(fields) == 4 else False
        entries.append(LanguageEntry(code, fields[1], relevant, cjk))
    return LanguageRegistry(
        entries=tuple(entries),
        cjk_blocks=tuple(blocks) if blocks else DEFAULT_CJK_BLOCKS,
    )


def load_registry(path) -> LanguageRegistry:
    """Load a registry TSV file. Fails loudly on malformed lines."""
    return parse_registry(read_utf8(path), source=path)


def save_registry(registry: LanguageRegistry, path) -> None:
    path = Path(path)
    lines = []
    if registry.cjk_blocks != DEFAULT_CJK_BLOCKS:
        for lo, hi in registry.cjk_blocks:
            lines.append(f"#!cjk-block\t{lo:04X}\t{hi:04X}")
    for e in registry.entries:
        lines.append(f"{e.code}\t{e.name}\t{int(e.relevant)}\t{int(e.cjk)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def default_registry() -> LanguageRegistry:
    """The registry shipped with the package (29 relevant Uralic codes)."""
    resource = resources.files("uralid") / "data" / "default_registry.tsv"
    return parse_registry(
        resource.read_text(encoding="utf-8"), source="uralid/data/default_registry.tsv"
    )
