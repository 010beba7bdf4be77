import pytest
from hypothesis import given
from hypothesis import strategies as st

from uralid.corpus import Corpus, load_corpus
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
    assert load_corpus(path, "fin").sentences == ("minä olen", "sinä olet")


def test_indexed_line_without_tab_names_the_line(tmp_path):
    path = write(tmp_path, "c.tsv", "1\tok\nbroken\n")
    with pytest.raises(DataError, match=":2:"):
        load_corpus(path, "fin")


def test_invalid_utf8_reports_byte_offset(tmp_path):
    path = write(tmp_path, "c.txt", b"ok\n\xff\xfe\n")
    with pytest.raises(DataError, match="byte offset 3"):
        load_corpus(path, "vep")


def test_invalid_utf8_line_number_counts_cr_line_ends(tmp_path):
    path = write(tmp_path, "c.txt", b"ok\rok\r\n\xff\n")
    with pytest.raises(DataError, match=r"c\.txt:3: invalid UTF-8 at byte offset 7$"):
        load_corpus(path, "vep")


def test_corpus_rejects_embedded_line_breaks():
    with pytest.raises(DataError):
        Corpus(language="vep", sentences=("one\ntwo",))


def test_first_line_with_an_integer_then_a_tab_makes_the_file_indexed(tmp_path):
    path = write(tmp_path, "a.tsv", "12\tsentence here\n3\tanother one\n")
    assert load_corpus(path, "fin").sentences == ("sentence here", "another one")


def test_tab_without_a_leading_integer_is_plain(tmp_path):
    path = write(tmp_path, "c.txt", "word\tword\n12\tnot an index here\n")
    assert load_corpus(path, "fin").sentences == ("word\tword", "12\tnot an index here")


def test_plain_file_keeps_whole_lines(tmp_path):
    path = write(tmp_path, "b.txt", "just words\n")
    assert load_corpus(path, "fin").sentences == ("just words",)


def test_empty_file_is_an_empty_corpus(tmp_path):
    assert load_corpus(write(tmp_path, "d.txt", ""), "fin").sentences == ()


def test_format_is_read_from_the_first_non_blank_line(tmp_path):
    path = write(tmp_path, "e.tsv", " \t \n7\tminä olen\n")
    assert load_corpus(path, "fin").sentences == ("minä olen",)
