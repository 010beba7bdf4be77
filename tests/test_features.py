import sys
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import oracle_ngrams, oracle_tokenize
from uralid import features
from uralid.features import WORD_DOMAIN, all_domains, extract_ngrams, pad_word, tokenize

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo")),
    min_size=1,
    max_size=12,
)


def test_bigrams_of_two_letter_word():
    assert extract_ngrams("ja", 2) == [" j", "ja", "a "]


def test_unigrams_include_both_pad_spaces():
    assert extract_ngrams("a", 1) == [" ", "a", " "]


def test_ngram_longer_than_padded_word_gives_nothing():
    assert extract_ngrams("a", 4) == []


def test_ngram_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        extract_ngrams("abc", 0)


def test_pad_word_adds_exactly_one_space_each_side():
    assert pad_word("abc") == " abc "


def test_tokenize_splits_on_punctuation_and_digits():
    assert tokenize("Unggal lempir, 20:35.") == ["unggal", "lempir"]


def test_tokenize_lowercases():
    assert tokenize("Tere MAAILM") == ["tere", "maailm"]


def test_tokenize_handles_cyrillic():
    assert tokenize("Коми кыв 123") == ["коми", "кыв"]


def test_tokenize_empty_and_symbol_only():
    assert tokenize("") == []
    assert tokenize("12 :: 34 !!") == []


def test_domain_names():
    assert all_domains(3, True) == ["1", "2", "3", WORD_DOMAIN]
    assert all_domains(2, False) == ["1", "2"]


@given(word=words, n=st.integers(min_value=1, max_value=8))
def test_ngram_count_law(word, n):
    assert len(extract_ngrams(word, n)) == max(0, len(word) + 3 - n)


@given(word=words, n=st.integers(min_value=1, max_value=8))
def test_ngrams_are_padded_substrings_of_length_n(word, n):
    padded = pad_word(word)
    for i, gram in enumerate(extract_ngrams(word, n)):
        assert len(gram) == n
        assert padded[i : i + n] == gram


@given(word=words, n=st.integers(min_value=1, max_value=8))
def test_ngrams_match_bruteforce_slicing(word, n):
    assert extract_ngrams(word, n) == oracle_ngrams(word, n)


@given(text=st.text(max_size=60))
def test_tokenize_matches_bruteforce_scan(text):
    assert tokenize(text) == oracle_tokenize(text)


def reference_tokenize(text: str) -> list[str]:
    """Maximal ``str.isalpha`` runs of the lowercased text, found with ``groupby``."""
    return ["".join(run) for is_alpha, run in groupby(text.lower(), key=str.isalpha) if is_alpha]


def test_tokenize_equals_the_groupby_rule_on_every_code_point(monkeypatch):
    # a fresh table, so that filling it to the limit leaves the module's own as it was
    table = features._Separators()
    monkeypatch.setattr(features, "_SEPARATORS", table)
    text = "".join("a" + chr(cp) + "b " for cp in range(sys.maxunicode + 1))  # surrogates too
    assert tokenize(text) == reference_tokenize(text)
    assert len(table) == features._TABLE_LIMIT


@given(text=st.text(max_size=60))
def test_tokens_are_lowercase_letter_runs(text):
    for token in tokenize(text):
        assert token
        assert all(ch.isalpha() for ch in token)
        assert token == token.lower()
