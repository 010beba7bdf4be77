"""Exception types shared across the package, strict UTF-8 reading that
reports bad input bytes as one of them, and the one rule that splits a
line-oriented input into records.

A record ends at ``\\r\\n``, ``\\r`` or ``\\n`` (Python's universal newlines)
and nowhere else: form feed, U+0085, U+2028 and the other characters that
``str.splitlines`` also breaks at stay inside the record. Line numbers in
error messages count records by the same rule.
"""

from __future__ import annotations

from pathlib import Path


class DataError(Exception):
    """Raised for malformed or inconsistent input data (files, registries, models).

    The CLI maps this to exit code 2.
    """


def decode_utf8(data: bytes, source) -> str:
    """``data`` as UTF-8 text; invalid bytes raise a DataError naming line and byte offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
        line = ends - data.count(b"\r\n", 0, exc.start) + 1
        raise DataError(f"{source}:{line}: invalid UTF-8 at byte offset {exc.start}") from None


def read_utf8(path) -> str:
    """A file's text, decoded by ``decode_utf8``."""
    return decode_utf8(Path(path).read_bytes(), path)


def unify_line_ends(text: str) -> str:
    """``text`` with each record end (``\\r\\n``, ``\\r`` or ``\\n``) written as ``\\n``."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def split_records(text: str) -> list[str]:
    """The records of a line-oriented text; a final line end starts no empty record."""
    records = unify_line_ends(text).split("\n")
    if records[-1] == "":
        records.pop()
    return records
