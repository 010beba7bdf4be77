import pytest
from hypothesis import given
from hypothesis import strategies as st

from uralid.corpus import Corpus, load_corpus, sniff_format
from uralid.errors import DataError


def write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return path


def test_plain_format_keeps_order_and_drops_blanks(tmp_path):
    path = write(tmp_path, "c.txt", "one\n\n  \ntwo\nthree\n")
    corpus = load_corpus(path, "vep")
    assert corpus.sentences == ("one", "two", "three")
    assert corpus.language == "vep"


def test_crlf_accepted(tmp_path):
    path = write(tmp_path, "c.txt", b"one\r\ntwo\r\n")
    assert load_corpus(path, "vep").sentences == ("one", "two")


def test_cr_only_line_ends_accepted(tmp_path):
    path = write(tmp_path, "c.txt", b"one\rtwo\r")
    assert load_corpus(path, "vep").sentences == ("one", "two")


def test_indexed_format_strips_leading_index(tmp_path):
    path = write(tmp_path, "c.tsv", "1\tminä olen\n2\tsinä olet\n")
    assert load_corpus(path, "fin", format="indexed").sentences == ("minä olen", "sinä olet")


def test_indexed_line_without_tab_names_the_line(tmp_path):
    path = write(tmp_path, "c.tsv", "1\tok\nbroken\n")
    with pytest.raises(DataError, match=":2:"):
        load_corpus(path, "fin", format="indexed")


def test_invalid_utf8_reports_byte_offset(tmp_path):
    path = write(tmp_path, "c.txt", b"ok\n\xff\xfe\n")
    with pytest.raises(DataError, match="byte offset 3"):
        load_corpus(path, "vep")


def test_invalid_utf8_line_number_counts_cr_line_ends(tmp_path):
    path = write(tmp_path, "c.txt", b"ok\rok\r\n\xff\n")
    with pytest.raises(DataError, match=r"c\.txt:3: invalid UTF-8 at byte offset 7$"):
        load_corpus(path, "vep")


def test_unknown_format_rejected(tmp_path):
    path = write(tmp_path, "c.txt", "x\n")
    with pytest.raises(ValueError):
        load_corpus(path, "vep", format="xml")


def test_corpus_rejects_embedded_line_breaks():
    with pytest.raises(DataError):
        Corpus(language="vep", sentences=("one\ntwo",))


def test_sniff_format(tmp_path):
    assert sniff_format(write(tmp_path, "a.tsv", "12\tsentence here\n")) == "indexed"
    assert sniff_format(write(tmp_path, "b.txt", "just words\n")) == "plain"
    assert sniff_format(write(tmp_path, "c.txt", "word\tword\n")) == "plain"
    assert sniff_format(write(tmp_path, "d.txt", "")) == "plain"

