import sys
from itertools import groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracle import oracle_ngrams, oracle_tokenize
from uralid.features import WORD_DOMAIN, all_domains, extract_ngrams, pad_word, tokenize, tokenize_chunk

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


def test_tokenize_equals_the_groupby_rule_on_every_code_point():
    text = "".join("a" + chr(cp) + "b " for cp in range(sys.maxunicode + 1))  # surrogates too
    assert tokenize(text) == reference_tokenize(text)


# pieces that break a chunked tokenizer: final sigma, İ (which lowers to two code points),
# lone surrogates, CJK, the table's top letter (U+FFDC) and astral letters from U+10000 on,
# digits and spaces
PIECES = [
    "ΟΔΟΣ", "ς", "Σ", "İ", "İİ", "\ud800", "\udfff", "日本", "\uffdc", "\U00010000", "\U0001d51e", "\U00010428",
    "a", "Ab", "1", " ", "-",
]
chunk_texts = st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=4)), max_size=6).map("".join)


@given(texts=st.lists(chunk_texts, max_size=8))
@example(texts=["İİİ", "a"])  # bounds from the unlowered lengths put "a" in the first text
@example(texts=["ab", "cd"])  # without a separator between texts the two words merge
@example(texts=["ab", "cd", "", "12", "ef"])  # a word start read one code point early
@example(texts=["\U0001d51e\U00010428", "日本 ok"])  # astral letters, above the table
@example(texts=["\uffdc\U00010000", "x\U00010000"])  # the table's top letter, the first astral one
def test_tokenize_chunk_equals_tokenizing_each_text(texts):
    words, counts = tokenize_chunk(texts)
    expected = [oracle_tokenize(text) for text in texts]
    assert words == [word for text_words in expected for word in text_words]
    assert counts.tolist() == list(map(len, expected))
    assert counts.dtype.kind == "i"


@given(text=st.text(max_size=60))
def test_tokens_are_lowercase_letter_runs(text):
    for token in tokenize(text):
        assert token
        assert all(ch.isalpha() for ch in token)
        assert token == token.lower()
