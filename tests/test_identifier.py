import copy
import gc
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ALPHABETS,
    disjoint_model_set,
    disjoint_sentences,
    hand_model_set,
    make_registry,
    random_model_set,
    random_sentence,
    random_word,
    to_oracle_models,
)
from oracle import oracle_cjk_ratio, oracle_score_sentence, oracle_score_word, oracle_winner
from uralid import identifier
from uralid.corpus import Corpus
from uralid.errors import DataError
from uralid.features import extract_ngrams, tokenize, tokenize_chunk
from uralid.identifier import (
    CJK_HIGH_PENALTY,
    Scorer,
    apply_cjk_sanity,
    cjk_ratio,
    format_prediction,
    identify,
    identify_batch,
)
from uralid.models import HeliParams, LanguageModel, ModelSet, load_models, save_models, train_models
from uralid.pipeline import restricted_candidates


def word_scores(word, ms):
    """One word's score per modeled code, and the domain that decided it."""
    scorer = ms.scorer()
    rows, codes = scorer.candidate_rows()
    scores, domain = scorer.score_word(word, rows)
    return dict(zip(codes, scores.tolist())), domain


def test_word_domain_uses_stored_score_and_penalty():
    ms = hand_model_set({"fkv": {"word": {" talo ": 0.3}}, "izh": {}})
    scores, domain = word_scores("talo", ms)
    assert domain == "word"
    assert scores == {"fkv": 0.3, "izh": 7.0}


def test_empty_models_floor_at_penalty():
    ms = hand_model_set({"fkv": {}, "izh": {}})
    scores, domain = word_scores("talo", ms)
    assert domain is None
    assert scores == {"fkv": 7.0, "izh": 7.0}


def test_bigram_backoff_means_over_occurrences():
    # no word entry, no 3-grams anywhere, one known bigram: the chosen
    # domain is 2 and the mean runs over " j", "ja", "a ".
    ms = hand_model_set({"fkv": {"2": {"ja": 0.5}}, "izh": {}}, n_max=3)
    scores, domain = word_scores("ja", ms)
    assert domain == "2"
    assert scores["fkv"] == pytest.approx((7.0 + 0.5 + 7.0) / 3, abs=1e-12)
    assert scores["izh"] == 7.0


def test_repeated_ngram_occurrences_count_twice():
    # " aa " bigrams: " a", "aa", "a " -- "a " != " a", but unigrams of
    # "a": " ", "a", " " repeat the space.
    ms = hand_model_set({"fkv": {"1": {" ": 0.2, "a": 0.8}}}, n_max=1, use_words=False)
    scores, domain = word_scores("a", ms)
    assert domain == "1"
    assert scores["fkv"] == pytest.approx((0.2 + 0.8 + 0.2) / 3, abs=1e-12)


def test_perfect_match_scores_zero():
    ms = hand_model_set({"fkv": {"word": {" aa ": 0.0}}, "izh": {}})
    prediction = identify("aa aa", ms)
    assert prediction.winner == "fkv"
    assert prediction.scores["fkv"] == 0.0


def test_empty_sentence_ties_to_first_registered():
    ms = hand_model_set({"izh": {"word": {" a ": 1.0}}, "fkv": {}})
    prediction = identify("", ms)
    assert prediction.scores == {"fkv": 7.0, "izh": 7.0}
    assert prediction.winner == "fkv"  # fkv registered before izh


def test_sentence_score_is_mean_of_word_scores():
    ms = hand_model_set(
        {
            "fkv": {"word": {" u ": 1.0, " v ": 5.0}},
            "izh": {"word": {" u ": 3.0, " v ": 1.0}},
        }
    )
    prediction = identify("u v", ms)
    assert prediction.scores["fkv"] == pytest.approx(3.0, abs=1e-12)
    assert prediction.scores["izh"] == pytest.approx(2.0, abs=1e-12)
    assert prediction.winner == "izh"


def test_prediction_covers_every_candidate_and_traces_domains():
    ms = disjoint_model_set()
    prediction = identify("abba cabe", ms, candidates=["fkv", "izh"])
    assert set(prediction.scores) == {"fkv", "izh"}
    assert [word for word, _ in prediction.domain_trace] == ["abba", "cabe"]


def test_no_candidates_raises():
    ms = hand_model_set({})
    with pytest.raises(ValueError, match="no candidate"):
        identify("talo", ms)


def test_unregistered_candidate_raises():
    ms = disjoint_model_set()
    with pytest.raises(Exception):
        identify("talo", ms, candidates=["zzz"])


# --- CJK -------------------------------------------------------------------

BLOCKS = make_registry().cjk_blocks


def test_cjk_ratio_examples():
    assert cjk_ratio("abc") == 0.0
    assert cjk_ratio("日本語") == 1.0
    assert cjk_ratio("ab日本") == 0.5
    assert cjk_ratio("") == 0.0
    assert cjk_ratio("   \t") == 0.0


def test_cjk_ratio_ignores_whitespace_everywhere():
    assert cjk_ratio("日 本　語") == 1.0


def test_cjk_punctuation_not_counted():
    assert cjk_ratio("日、") == 0.5


def test_cjk_ratio_matches_bruteforce():
    rng = random.Random(11)
    pool = "abc 日本語カナ한글ㄱ。、 xyz"
    for _ in range(200):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 30)))
        assert cjk_ratio(text, BLOCKS) == pytest.approx(
            oracle_cjk_ratio(text, list(BLOCKS)), abs=1e-12
        )


WHITESPACE = [chr(cp) for cp in range(0x3001) if chr(cp).isspace()]


def cjk_blocks(min_size=0):
    """The default block list, or up to four custom blocks: random ones, and
    small ones around a whitespace code point, which the rule must not count."""
    random_block = st.tuples(st.integers(0, 0x10FFFF), st.integers(0, 0x10FFFF))
    around_space = st.tuples(st.sampled_from(WHITESPACE), st.integers(0, 3), st.integers(0, 3)).map(
        lambda b: (ord(b[0]) - b[1], ord(b[0]) + b[2])
    )
    custom = st.lists(st.one_of(random_block, around_space), min_size=min_size, max_size=4)
    return st.one_of(st.just(BLOCKS), custom.map(lambda blocks: tuple(tuple(sorted(b)) for b in blocks)))


def cjk_text(blocks):
    """Text of any code point (lone surrogates included), whitespace and the blocks' edges."""
    edges = [
        chr(cp)
        for lo, hi in blocks
        for cp in (lo - 1, lo, hi, hi + 1)
        if 0 <= cp <= 0x10FFFF
    ]
    pieces = [st.characters(exclude_categories=()), st.sampled_from(WHITESPACE)]
    if edges:
        pieces.append(st.sampled_from(edges))
    return st.text(alphabet=st.one_of(*pieces), max_size=40)


@st.composite
def cjk_cases(draw):
    """Random text and a block list: the default one or a custom one, empty included."""
    blocks = draw(cjk_blocks())
    return draw(cjk_text(blocks)), blocks


@st.composite
def cjk_chunks(draw):
    """Up to eight texts, empty ones included, sharing one non-empty block list."""
    blocks = draw(cjk_blocks(min_size=1))
    return draw(st.lists(cjk_text(blocks), max_size=8)), blocks


@settings(max_examples=500, deadline=None)
@given(case=cjk_cases())
def test_cjk_ratio_equals_oracle_exactly(case):
    text, blocks = case
    assert cjk_ratio(text, blocks) == oracle_cjk_ratio(text, list(blocks))


def test_cjk_ratio_counts_every_whitespace_code_point_as_whitespace():
    text = "日" + "".join(WHITESPACE) + "a"
    assert cjk_ratio(text) == oracle_cjk_ratio(text, list(BLOCKS)) == 0.5


def test_whitespace_code_points_all_lie_below_the_first_cjk_punctuation():
    # the rule's table, and WHITESPACE above, stop at U+3000
    everywhere = [cp for cp in range(0x110000) if chr(cp).isspace()]
    assert np.flatnonzero(identifier._IS_SPACE).tolist() == everywhere == [ord(ch) for ch in WHITESPACE]


def test_whitespace_inside_a_custom_block_is_not_cjk():
    assert cjk_ratio("0\t", ((0, 9),)) == oracle_cjk_ratio("0\t", [(0, 9)]) == 0.0
    registry = make_registry(codes=["cmn", "fin"], cjk={"cmn"}, blocks=[(0, 9)])
    assert sanity({"cmn": 2.0, "fin": 1.0}, "0\t", registry) == {"cmn": 2.0, "fin": 1.0}


@settings(max_examples=300, deadline=None)
@given(chunk=cjk_chunks())
@example(chunk=(["0\t"], ((0, 9),)))
def test_chunk_rule_trips_the_rows_whose_oracle_ratio_is_above_half(chunk):
    texts, blocks = chunk
    registry = make_registry(codes=["cmn", "fin"], cjk={"cmn"}, blocks=blocks)
    after = apply_cjk_sanity(np.zeros((len(texts), 2)), texts, ["cmn", "fin"], registry)
    tripped = [oracle_cjk_ratio(text, list(blocks)) > 0.5 for text in texts]
    assert after.tolist() == [[0.0, CJK_HIGH_PENALTY if trip else 0.0] for trip in tripped]


def sanity(scores: dict[str, float], sentence: str, registry) -> dict[str, float]:
    """The chunk rule applied to one sentence, as a one-row array."""
    codes = list(scores)
    row = np.array([list(scores.values())])
    return dict(zip(codes, apply_cjk_sanity(row, [sentence], codes, registry)[0].tolist()))


def test_sanity_penalizes_non_cjk_only():
    registry = make_registry(codes=["cmn", "fin"], cjk={"cmn"})
    scores = sanity({"cmn": 2.0, "fin": 1.0}, "日本語аб", registry)
    assert scores == {"cmn": 2.0, "fin": 1.0 + CJK_HIGH_PENALTY}


def test_sanity_boundary_is_strict():
    registry = make_registry(codes=["cmn", "fin"], cjk={"cmn"})
    scores = sanity({"cmn": 2.0, "fin": 1.0}, "ab日本", registry)
    assert scores == {"cmn": 2.0, "fin": 1.0}


def test_sanity_without_cjk_candidates_shifts_uniformly():
    registry = make_registry(codes=["fkv", "fin"])
    before = {"fkv": 2.0, "fin": 1.0}
    after = sanity(before, "日本語", registry)
    assert after == {"fkv": 1002.0, "fin": 1001.0}
    assert min(after, key=after.get) == min(before, key=before.get)


def test_sanity_returns_copy_when_untouched():
    registry = make_registry(codes=["cmn"], cjk={"cmn"})
    before = np.array([[1.0]])
    after = apply_cjk_sanity(before, ["abc"], ["cmn"], registry)
    assert after.tolist() == [[1.0]] and after is not before


def test_registry_blocks_drive_the_ratio():
    # registry that only counts Katakana: Hiragana input stays below 0.5
    registry = make_registry(codes=["cmn", "fin"], cjk={"cmn"}, blocks=[(0x30A0, 0x30FF)])
    scores = sanity({"cmn": 2.0, "fin": 1.0}, "ひらがな", registry)
    assert scores == {"cmn": 2.0, "fin": 1.0}
    scores = sanity({"cmn": 2.0, "fin": 1.0}, "カタカナ", registry)
    assert scores == {"cmn": 2.0, "fin": 1001.0}


def test_sanity_shifts_only_the_tripped_rows_of_a_chunk():
    registry = make_registry(codes=["fkv", "cmn", "fin"], cjk={"cmn"})
    codes = ["fkv", "cmn", "fin"]
    # ratios 1.0, 0.0, exactly 0.5, 0.75 and 0.0 (empty)
    sentences = ["日本語", "abc", "ab日本", "a日本語", ""]
    before = np.arange(15, dtype=np.float64).reshape(5, 3) / 4
    after = apply_cjk_sanity(before, sentences, codes, registry)
    shift = np.array([CJK_HIGH_PENALTY, 0.0, CJK_HIGH_PENALTY])
    assert after.tolist() == [
        (before[0] + shift).tolist(),
        before[1].tolist(),
        before[2].tolist(),
        (before[3] + shift).tolist(),
        before[4].tolist(),
    ]
    assert before.tolist() == (np.arange(15, dtype=np.float64).reshape(5, 3) / 4).tolist()


# --- candidates ---------------------------------------------------------------


@pytest.mark.parametrize(
    "candidates, named",
    [(["fkv", "izh"], "'fkv'"), (["fin", "izh", "fkv"], "'fin', 'fkv'")],
    ids=["one", "in-given-order"],
)
@pytest.mark.parametrize("entry", ["identify", "identify_batch"])
def test_candidate_without_a_model_is_rejected(entry, candidates, named):
    # fkv and fin are registered but have no model here
    ms = disjoint_model_set(codes=("izh", "swe"))
    with pytest.raises(ValueError, match=f"^no model for {named}$"):
        if entry == "identify":
            identify("123", ms, candidates=candidates)
        else:
            identify_batch(["123", "fghij"], ms, candidates=candidates)


def test_candidate_generator_equals_list():
    ms = disjoint_model_set(codes=("fkv", "izh", "vep", "swe", "fin"))
    sentences = ["abba", "fifi klon", "pqrs tuvw", "123"]
    as_list = identify_batch(sentences, ms, candidates=["vep", "fkv", "swe"])
    assert identify_batch(sentences, ms, candidates=(c for c in ["vep", "fkv", "swe"])) == as_list
    assert identify("fifi klon", ms, iter(["vep", "fkv", "swe"])) == as_list[1]


def test_restricted_candidates_are_allowed_plus_non_relevant():
    ms = disjoint_model_set(codes=("fkv", "izh", "vep", "swe", "fin"))
    candidates = restricted_candidates(ms, {"fkv"})
    assert candidates == ["fkv", "swe", "fin"]
    prediction = identify("abba", ms, candidates)
    assert set(prediction.scores) == {"fkv", "swe", "fin"}
    assert prediction.winner == "fkv"


def test_restricted_with_empty_allowed_uses_non_relevant_only():
    ms = disjoint_model_set(codes=("fkv", "swe", "fin"))
    candidates = restricted_candidates(ms, set())
    assert candidates == ["swe", "fin"]
    assert set(identify("klon", ms, candidates).scores) == {"swe", "fin"}


def test_restricted_candidates_add_only_modeled_non_relevant():
    # fin is registered non-relevant but has no model
    assert restricted_candidates(disjoint_model_set(), {"fkv"}) == ["fkv", "swe"]


def test_restriction_monotone_when_domains_agree():
    rng = random.Random(33)
    checked = 0
    for _ in range(60):
        ms = random_model_set(rng)
        modeled = sorted(ms.models)
        if len(modeled) < 2:
            continue
        sentence = random_sentence(rng)
        subset = rng.sample(modeled, rng.randint(1, len(modeled) - 1))
        full = identify(sentence, ms)
        small = identify(sentence, ms, candidates=subset)
        if [d for _, d in full.domain_trace] != [d for _, d in small.domain_trace]:
            continue
        checked += 1
        assert small.scores[small.winner] >= full.scores[full.winner] - 1e-12
    assert checked >= 20


def test_restriction_can_reselect_domains_and_lower_scores():
    """Dropping a candidate can unlock a more specific run of the backoff.

    Here the whole-word domain is only usable thanks to fkv; without fkv
    the word falls through to bigrams where izh is strong, so the
    restricted winner scores *better* than the unrestricted one.
    """
    registry = make_registry()
    params = HeliParams(n_max=2)
    fkv = {"word": {" ab ": 2.0}, "1": {}, "2": {}}
    izh = {"word": {}, "1": {}, "2": {" a": 0.5, "ab": 0.4, "b ": 0.6}}
    models = {
        "fkv": LanguageModel("fkv", fkv, {d: len(t) for d, t in fkv.items()}),
        "izh": LanguageModel("izh", izh, {d: len(t) for d, t in izh.items()}),
    }
    ms = ModelSet(params=params, models=models, registry=registry)
    full = identify("ab", ms)
    small = identify("ab", ms, candidates=["izh"])
    assert full.winner == "fkv" and full.scores["fkv"] == 2.0
    assert small.scores["izh"] == pytest.approx(0.5, abs=1e-12)
    assert small.scores["izh"] < full.scores[full.winner]


# --- oracle equivalence and batch behavior -----------------------------------


def test_scores_match_bruteforce_oracle():
    rng = random.Random(77)
    for _ in range(40):
        ms = random_model_set(rng)
        candidates = [c for c in ms.registry.codes() if c in ms.models]
        sentence = random_sentence(rng)
        prediction = identify(sentence, ms)
        expected = oracle_score_sentence(
            sentence,
            to_oracle_models(ms),
            candidates,
            ms.params.n_max,
            ms.params.penalty_p,
            ms.params.use_words,
        )
        for code in candidates:
            assert prediction.scores[code] == pytest.approx(expected[code], abs=1e-9)
        assert prediction.winner == oracle_winner(expected, candidates)


def test_scores_equal_the_oracle_bit_for_bit():
    # restricted candidate sets, and CJK words that trip the CJK rule on some sentences
    rng = random.Random(16)
    registry = make_registry(codes=[*ALPHABETS, "cmn"], cjk={"cmn"})
    blocks = list(registry.cjk_blocks)
    compared = 0
    for _ in range(200):
        ms = random_model_set(rng, registry=registry)
        modeled = sorted(ms.models)
        candidates = registry.sort_by_order(rng.sample(modeled, rng.randint(1, len(modeled))))
        pool = [random_word(rng) for _ in range(8)] + ["日本語", "中文", "ab日本"]
        sentences = [
            " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12))) for _ in range(8)
        ]
        predictions = identify_batch(sentences, ms, candidates)
        for sentence, prediction in zip(sentences, predictions):
            expected = oracle_score_sentence(
                sentence,
                to_oracle_models(ms),
                candidates,
                ms.params.n_max,
                ms.params.penalty_p,
                ms.params.use_words,
            )
            if oracle_cjk_ratio(sentence, blocks) > 0.5:
                for code in candidates:
                    if not registry.is_cjk(code):
                        expected[code] += CJK_HIGH_PENALTY
            assert prediction.scores == expected
            assert prediction.winner == oracle_winner(expected, candidates)
            compared += len(candidates)
    assert compared > 3000


def test_scores_stay_in_penalty_range():
    rng = random.Random(99)
    for _ in range(20):
        ms = random_model_set(rng)
        prediction = identify(random_sentence(rng), ms)
        for score in prediction.scores.values():
            assert 0.0 <= score <= ms.params.penalty_p + 1e-12


def test_self_identification_on_disjoint_corpora():
    ms = disjoint_model_set(codes=("fkv", "izh", "swe"), sentences=30)
    for code in ("fkv", "izh", "swe"):
        for sentence in disjoint_sentences(code, 30):
            assert identify(sentence, ms).winner == code


def test_batch_matches_across_chunk_sizes(monkeypatch):
    rng = random.Random(3)
    sentences = [
        " ".join(rng.choice("abcde fghij klmno".split()) for _ in range(3))
        for _ in range(600)
    ]
    whole = identify_batch(sentences, disjoint_model_set())
    monkeypatch.setattr(identifier, "_CHUNK_SIZE", 64)
    assert identify_batch(sentences, disjoint_model_set()) == whole


@pytest.fixture(scope="module")
def cjk_models():
    registry = make_registry(codes=[*ALPHABETS, "cmn"], cjk={"cmn"})
    corpora = [
        Corpus(language=code, sentences=tuple(disjoint_sentences(code, 10)))
        for code in ("fkv", "izh", "swe")
    ]
    corpora.append(Corpus(language="cmn", sentences=("日本語 中文", "漢字 日本", "中文 漢字")))
    return train_models(corpora, HeliParams(n_max=3), registry)


BATCH_WORDS = ["abba", "dede", "figi", "gihi", "klon", "日本語", "中文", "ab日本", "xyz", "ä"]


@settings(max_examples=60, deadline=None)
@given(
    sentences=st.lists(
        st.lists(st.sampled_from(BATCH_WORDS), max_size=5).map(" ".join), min_size=1, max_size=40
    ),
    data=st.data(),
)
def test_batch_ignores_chunking_order_and_cache_state(cjk_models, sentences, data):
    # repeats come from the small word pool and empty lists give empty lines
    reference = identify_batch(sentences, cjk_models)
    order = data.draw(st.permutations(range(len(sentences))))
    shuffled = [sentences[i] for i in order]
    size = data.draw(st.integers(1, len(sentences) + 1))
    with mock.patch.object(identifier, "_CHUNK_SIZE", size):
        fresh = ModelSet(cjk_models.params, cjk_models.models, cjk_models.registry)
        cold = identify_batch(shuffled, fresh)
        warm = identify_batch(shuffled, cjk_models)
    assert cold == warm == [reference[i] for i in order]
    # the keyword stays while callers still pass it, and changes nothing
    assert identify_batch(shuffled, cjk_models, threads=2) == warm


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_chunk_sums_are_bit_exact_running_sums(seed, data):
    rng = random.Random(seed)
    registry = make_registry(codes=[*ALPHABETS, "cmn"], cjk={"cmn"})
    model_set = random_model_set(rng, registry=registry)
    modeled = sorted(model_set.models)
    size = data.draw(st.integers(1, len(modeled)))  # single-candidate sets included
    candidates = data.draw(st.permutations(modeled))[:size]
    pool = [random_word(rng) for _ in range(12)] + ["日本語", "中文", "ab日本"]
    sentence = st.lists(st.sampled_from(pool), max_size=40).map(" ".join)
    sentences = data.draw(st.lists(sentence, min_size=1, max_size=20))
    chunk = data.draw(st.integers(1, len(sentences) + 1))
    with mock.patch.object(identifier, "_CHUNK_SIZE", chunk):
        predictions = identify_batch(sentences, model_set, candidates)

    scorer = model_set.scorer()
    rows, codes = scorer.candidate_rows(candidates)
    for sentence, prediction in zip(sentences, predictions):
        words = tokenize(sentence)
        acc = np.zeros(rows.shape[0])
        table, index, _ = scorer.score_words(words, rows)
        for scores in table[index]:
            acc += scores
        raw = acc / len(words) if words else np.full(rows.shape[0], scorer.penalty)
        expected = dict(zip(codes, raw.tolist()))
        if cjk_ratio(sentence, registry.cjk_blocks) > 0.5:
            expected = {
                code: score if registry.is_cjk(code) else score + CJK_HIGH_PENALTY
                for code, score in expected.items()
            }
        assert list(prediction.scores.items()) == list(expected.items())
        assert prediction.winner == min(expected, key=expected.__getitem__)


def dict_format_prediction(index, prediction, with_scores):
    """The output row, formatted from the ``scores`` dict."""
    fields = [str(index), prediction.winner, f"{prediction.scores[prediction.winner]:.6f}"]
    if with_scores:
        for code, score in prediction.scores.items():
            fields.append(code)
            fields.append(f"{score:.6f}")
    return "\t".join(fields)


def test_predictions_build_scores_and_traces_equal_to_eager_ones():
    # restricted candidate sets, and CJK words that trip the CJK rule on some sentences
    rng = random.Random(19)
    registry = make_registry(codes=[*ALPHABETS, "cmn"], cjk={"cmn"})
    compared = 0
    for _ in range(40):
        ms = random_model_set(rng, registry=registry)
        modeled = sorted(ms.models)
        candidates = rng.sample(modeled, rng.randint(1, len(modeled)))
        pool = [random_word(rng) for _ in range(8)] + ["日本語", "中文", "ab日本"]
        sentences = [
            " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12))) for _ in range(8)
        ]
        predictions = identify_batch(sentences, ms, candidates)

        scorer = ms.scorer()
        rows, codes = scorer.candidate_rows(candidates)
        tokens = [tokenize(sentence) for sentence in sentences]
        means, domains = scorer.score_sentences(*tokenize_chunk(sentences), rows)
        means = apply_cjk_sanity(means, sentences, codes, registry)
        domains = iter(domains)
        for i, prediction in enumerate(predictions):
            scores = dict(zip(codes, means[i].tolist()))
            trace = tuple((word, next(domains)) for word in tokens[i])
            assert list(prediction.scores.items()) == list(scores.items())
            assert prediction.domain_trace == trace
            assert prediction.winner == min(scores, key=scores.__getitem__)
            assert prediction.codes == codes
            assert not prediction.row.flags.writeable
            with pytest.raises(ValueError):
                prediction.row[0] = 0.0
            for with_scores in (True, False):
                assert format_prediction(i, prediction, with_scores) == dict_format_prediction(
                    i, prediction, with_scores
                )

            same = copy.copy(prediction)
            assert same == prediction
            column = rng.randrange(len(codes))
            bumped = prediction.row.copy()
            bumped[column] = np.nextafter(bumped[column], np.inf)
            same.row = bumped
            assert same != prediction
            assert (prediction == prediction.scores) is False
            assert (prediction == prediction.winner) is False
            compared += 1
        # equal scores, different traces
        once, twice = identify_batch([pool[0], f"{pool[0]} {pool[0]}"], ms, candidates)
        assert list(once.scores.items()) == list(twice.scores.items())
        assert once != twice
    assert compared == 320


def test_dropped_model_set_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        ms = disjoint_model_set()
        identify("abba dede", ms)  # builds and caches the scorer
        alive = weakref.ref(ms)
        del ms
        assert alive() is None
    finally:
        gc.enable()


def test_word_score_cache_returns_consistent_results():
    ms = disjoint_model_set()
    scorer = ms.scorer()
    rows, codes = scorer.candidate_rows()
    first, domain_first = scorer.score_word("abba", rows)
    second, domain_second = scorer.score_word("abba", rows)
    assert domain_first == domain_second
    assert np.array_equal(first, second)
    assert not second.flags.writeable


def test_word_cache_resets_keep_scores_and_bound_the_cache(monkeypatch):
    # batches of up to 8 distinct words against a limit of 5 rows drop the tables often
    monkeypatch.setattr(identifier, "_CACHE_LIMIT", 5)
    rng = random.Random(23)
    ms = random_model_set(rng)
    scorer = Scorer(ms)
    rows, _ = scorer.candidate_rows()
    pool = [random_word(rng) for _ in range(20)]

    def cached_rows():
        return sum(len(domains) for _, _, domains in scorer._cache.values())

    resets = 0
    served = []
    for _ in range(30):
        words = rng.sample(pool, rng.randint(1, 8))
        before = cached_rows()
        new = len(set(words) - {word for where, _, _ in scorer._cache.values() for word in where})
        table, index, domains = scorer.score_words(words, rows)
        fresh_table, fresh_index, fresh_domains = Scorer(ms).score_words(words, rows)
        returned = table[index].tobytes(), [domains[i] for i in index]
        fresh = fresh_table[fresh_index].tobytes(), [fresh_domains[i] for i in fresh_index]
        assert returned == fresh
        served.append((table, index, domains, returned))
        if new:  # a call past the limit drops every table, within the old max(limit, new) bound
            assert cached_rows() <= max(identifier._CACHE_LIMIT, new)
        else:
            assert cached_rows() == before
        resets += cached_rows() < before + new
    assert resets > 0
    # no later call, growth or reset writes into rows an earlier call handed out
    for table, index, domains, returned in served:
        assert (table[index].tobytes(), [domains[i] for i in index]) == returned


def test_candidate_set_tables_equal_fresh_ones_in_any_order():
    # five languages over shared letters, so a word's row and domain depend on the set
    rng = random.Random(29)
    registry = make_registry()
    corpora = [
        Corpus(language=code, sentences=tuple(random_sentence(rng) for _ in range(8)))
        for code in registry.codes()
    ]
    ms = train_models(corpora, HeliParams(n_max=3), registry)
    seen = [word for corpus in corpora for word in tokenize(corpus.sentences[0])]
    words = seen + [random_word(rng) for _ in range(20)] + ["zz", "ä"]
    words += rng.sample(words, 10)  # repeats, scored again once cached
    sets = [None, restricted_candidates(ms, {"fkv", "izh"}), ["swe"]]
    expected = []
    for candidates in sets:
        fresh = Scorer(ms)
        table, index, domains = fresh.score_words(words, fresh.candidate_rows(candidates)[0])
        expected.append({w: (table[i].tobytes(), domains[i]) for w, i in zip(words, index)})

    batches = []
    start = 0
    while start < len(words):
        size = rng.randint(1, 3)
        batches.append(words[start : start + size])
        start += size
    orders = [
        [(0, words), (1, words), (2, words)],  # full set first
        [(1, words), (2, words), (0, words)],  # restricted first
        [(s, batch) for batch in batches for s in range(len(sets))],  # interleaved
    ]
    for calls in orders:
        scorer = Scorer(ms)
        bases = [{} for _ in sets]  # each table a call read from, kept so no id is reused
        for s, batch in calls:
            table, index, domains = scorer.score_words(batch, scorer.candidate_rows(sets[s])[0])
            want = [expected[s][word] for word in batch]
            assert table[index].tobytes() == b"".join(row for row, _ in want)
            assert [domains[i] for i in index] == [domain for _, domain in want]
            bases[s][id(table.base)] = table.base
        if len(calls) > len(sets):
            assert all(len(grown) >= 3 for grown in bases)  # every table grew several times


# --- sparse layout -----------------------------------------------------------


def vocabulary(scorer, domain):
    """A domain's features in column order: the word dict's keys, an n-gram domain's key array."""
    return list(scorer._vocabs[domain]) if domain == "word" else scorer._keys[domain].tolist()


def test_sparse_layout_densifies_to_the_dense_matrix():
    # random model sets leave registered languages without a model, switch
    # the word domain off, and at cutoff 0.05 leave some domains near-empty
    rng = random.Random(21)
    for _ in range(60):
        ms = random_model_set(rng)
        scorer = Scorer(ms)
        for domain in ms.params.domains():
            vocab = vocabulary(scorer, domain)
            assert set(vocab) == {f for m in ms.models.values() for f in m.domains[domain]}
    # test_backends.py checks the stored scores against dense_matrix, through the word scores
    # a domain no model has features in stores nothing and is backed off from
    ms = hand_model_set({"fkv": {"2": {"ja": 0.5}}, "izh": {}}, n_max=3)
    scorer = Scorer(ms)
    assert scorer._indptr["3"].tolist() == [0] and scorer._rows["3"].size == 0
    assert word_scores("ja", ms)[1] == "2"


# "Ā" (U+0100) ends in zero bytes as UTF-32, "𝔞" is astral, "\ud800" a lone surrogate
_GRAM_LETTERS = "ab Ā𝔞\ud800"


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(st.text(_GRAM_LETTERS, max_size=7), max_size=8),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_window_columns_equal_the_dict_lookups_of_extract_ngrams(words, n, data):
    grams = sorted({g for w in words for g in extract_ngrams(w, n)})
    extra = data.draw(st.lists(st.text(_GRAM_LETTERS, min_size=n, max_size=n), max_size=6))
    kept = data.draw(st.lists(st.sampled_from(grams), max_size=len(grams)) if grams else st.just([]))
    keys = sorted(set(kept + extra)) or ["a" * n]
    vocab = {key: column for column, key in enumerate(keys)}
    cp, starts, lengths = identifier.padded_code_points(words)
    ids, counts = identifier.window_columns(np.array(keys, dtype=f"<U{n}"), cp, starts, lengths, n)
    want = [[vocab.get(g, -1) for g in extract_ngrams(w, n)] for w in words]
    assert counts.tolist() == [len(w) for w in want]
    assert ids.tolist() == [i for w in want for i in w]


def test_lone_surrogates_and_wide_code_points_score_as_the_oracle():
    # features with U+0100, astral letters and a surrogate, in the word and n-gram domains
    registry = make_registry()
    params = HeliParams(n_max=3)
    tables = {
        "fkv": {"word": {" a\ud800 ": 0.5}, "3": {"a\ud800 ": 1.0, " 𝔞Ā": 2.0}, "2": {"\ud800 ": 0.25},
                "1": {"Ā": 1.5}},
        "izh": {"3": {" a\ud800": 3.0}, "2": {" 𝔞": 0.75, "Ā ": 1.25}, "1": {"a": 0.5}},
    }
    models = {
        code: LanguageModel(code, {d: tables[code].get(d, {}) for d in params.domains()},
                            {d: 1 for d in params.domains()})
        for code in tables
    }
    ms = ModelSet(params, models, registry)
    scorer = Scorer(ms)
    rows, codes = scorer.candidate_rows()
    words = ["a\ud800", "\ud800", "𝔞Ā", "Ā\ud800", "b\ud800a", "𝔞"]
    table, index, domains = scorer.score_words(words, rows)
    decided = set()
    for word, row, domain in zip(words, table[index], [domains[i] for i in index]):
        want = oracle_score_word(word, tables, codes, params.n_max, params.penalty_p, params.use_words)
        assert row.tolist() == [want[c] for c in codes], word
        decided.add(domain)
    assert decided == {"word", "3", "2", "1"}


def test_a_loaded_copy_builds_the_same_scorer_arrays(tmp_path):
    # corpora out of registry order, letters past U+00FF and astral ones
    rng = random.Random(31)
    registry = make_registry()
    letters = "abcdeĀā𝔞𝔟"
    corpora = [
        Corpus(language=code, sentences=tuple(
            " ".join("".join(rng.choice(letters) for _ in range(rng.randint(1, 6))) for _ in range(5))
            for _ in range(6)
        ))
        for code in reversed(registry.codes())
    ]
    trained = train_models(corpora, HeliParams(n_max=4), registry)
    save_models(trained, tmp_path / "m")
    built, loaded = Scorer(trained), Scorer(load_models(tmp_path / "m"))
    assert list(built._keys) == list(loaded._keys) == ["1", "2", "3", "4"]
    for name in ("_keys", "_indptr", "_rows", "_scores"):
        for domain in built._keys:
            array, other = getattr(built, name)[domain], getattr(loaded, name)[domain]
            assert (array.dtype, array.shape) == (other.dtype, other.shape), (name, domain)
            assert array.tobytes() == other.tobytes(), (name, domain)

    # the word dict numbers its columns in table order, which training and loading do not share
    def word_columns(scorer):
        indptr, rows, scores = (getattr(scorer, name)["word"] for name in ("_indptr", "_rows", "_scores"))
        return {
            word: (rows[indptr[j] : indptr[j + 1]].tobytes(), scores[indptr[j] : indptr[j + 1]].tobytes())
            for word, j in scorer._vocabs["word"].items()
        }

    assert word_columns(built) == word_columns(loaded)


def test_a_hand_built_ngram_that_breaks_the_width_rule_is_refused():
    for feature in ("abc", "a", "a\0"):
        ms = hand_model_set({"fkv": {"2": {"ab": 0.5, feature: 0.5}}})
        with pytest.raises(DataError) as info:
            Scorer(ms)
        assert str(info.value) == (
            f"feature {feature!r} is not a 2-gram: an n-gram is n code points, none of them U+0000"
        )


def test_scorer_memory_grows_with_stored_features_not_languages_times_vocabulary():
    ms = disjoint_model_set(codes=("fkv", "izh", "swe"), sentences=30)
    scorer = ms.scorer()
    identify_batch(["abba dede figi", "klon molon"], ms)
    held = 0
    for name, value in vars(scorer).items():
        assert not isinstance(value, np.ndarray), name
        for domain, array in value.items() if isinstance(value, dict) else ():
            if isinstance(array, np.ndarray):
                stored = sum(len(m.domains[domain]) for m in ms.models.values())
                assert array.size <= stored + len(vocabulary(scorer, domain)) + 1, (name, domain)
                held += 1
    assert held >= len(ms.params.domains())


def test_tie_breaks_by_registry_order():
    # identical models: every candidate scores the same, first registered wins
    table = {"word": {" aa ": 1.0}}
    ms = hand_model_set({"izh": table, "fkv": table})
    assert identify("aa", ms).winner == "fkv"
