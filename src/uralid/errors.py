"""Exception types shared across the package, and the strict UTF-8 reading
that reports bad input bytes as one of them."""

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
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{source}:{line}: invalid UTF-8 at byte offset {exc.start}") from None


def read_utf8(path) -> str:
    """A file's text, decoded by ``decode_utf8``."""
    return decode_utf8(Path(path).read_bytes(), path)
