import pytest
from hypothesis import given
from hypothesis import strategies as st

from uralid.corpus import Corpus, load_corpus, save_corpus, sniff_format, split_train_dev
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


def test_save_load_round_trip(tmp_path):
    corpus = Corpus(language="vep", sentences=("üks", "kaks", "kolm"))
    path = tmp_path / "c.txt"
    save_corpus(corpus, path)
    assert load_corpus(path, "vep").sentences == corpus.sentences


def test_sniff_format(tmp_path):
    assert sniff_format(write(tmp_path, "a.tsv", "12\tsentence here\n")) == "indexed"
    assert sniff_format(write(tmp_path, "b.txt", "just words\n")) == "plain"
    assert sniff_format(write(tmp_path, "c.txt", "word\tword\n")) == "plain"
    assert sniff_format(write(tmp_path, "d.txt", "")) == "plain"


def test_split_sizes_round_half_up():
    corpus = Corpus(language="vep", sentences=tuple(f"s{i}" for i in range(5)))
    train, dev = split_train_dev(corpus, 0.5, seed=1)
    assert len(dev) == 3  # 2.5 rounds up
    assert len(train) == 2


def test_split_is_deterministic_and_partitions():
    corpus = Corpus(language="vep", sentences=tuple(f"s{i}" for i in range(40)))
    train1, dev1 = split_train_dev(corpus, 0.25, seed=7)
    train2, dev2 = split_train_dev(corpus, 0.25, seed=7)
    assert train1.sentences == train2.sentences and dev1.sentences == dev2.sentences
    assert sorted(train1.sentences + dev1.sentences) == sorted(corpus.sentences)


def test_split_seed_changes_selection():
    corpus = Corpus(language="vep", sentences=tuple(f"s{i}" for i in range(40)))
    _, dev_a = split_train_dev(corpus, 0.25, seed=1)
    _, dev_b = split_train_dev(corpus, 0.25, seed=2)
    assert dev_a.sentences != dev_b.sentences


@given(
    n=st.integers(min_value=0, max_value=60),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_split_size_formula(n, fraction, seed):
    corpus = Corpus(language="vep", sentences=tuple(f"s{i}" for i in range(n)))
    train, dev = split_train_dev(corpus, fraction, seed)
    assert len(dev) == int(n * fraction + 0.5)
    assert len(train) + len(dev) == n
