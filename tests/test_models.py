import math
import random
import warnings

import pytest

from helpers import make_registry, random_model_set, random_sentence, to_oracle_models
from oracle import oracle_train
from uralid.corpus import Corpus
from uralid.errors import DataError
from uralid.models import (
    HeliParams,
    LanguageModel,
    ModelSet,
    load_models,
    quantize_score,
    save_models,
    train_models,
)


def corpus(code, *sentences):
    return Corpus(language=code, sentences=tuple(sentences))


def test_default_params_match_published_baseline():
    params = HeliParams()
    assert params.n_max == 6
    assert params.cutoff_c == 5e-7
    assert params.penalty_p == 7.0
    assert params.use_words is True


@pytest.mark.parametrize(
    "kwargs",
    [{"n_max": 0}, {"cutoff_c": 0.0}, {"cutoff_c": 1.0}, {"penalty_p": -1.0}],
)
def test_param_validation(kwargs):
    with pytest.raises(ValueError):
        HeliParams(**kwargs)


def test_warns_when_penalty_cannot_dominate():
    with pytest.warns(UserWarning, match="penalty_p"):
        HeliParams(cutoff_c=0.01, penalty_p=1.5)  # -log10(0.01) = 2 > 1.5


def test_defaults_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        HeliParams()


def test_word_scored_as_negative_log10_relative_frequency():
    reg = make_registry()
    ms = train_models([corpus("fkv", "aa ab")], HeliParams(n_max=1), reg)
    word_map = ms.models["fkv"].domains["word"]
    assert word_map[" aa "] == quantize_score(-math.log10(0.5))
    assert word_map[" ab "] == quantize_score(-math.log10(0.5))


def test_sole_feature_scores_zero():
    reg = make_registry()
    ms = train_models([corpus("fkv", "aa aa")], HeliParams(n_max=1), reg)
    assert ms.models["fkv"].domains["word"][" aa "] == 0.0


def test_cutoff_drops_rare_features_without_renormalizing():
    reg = make_registry()
    # "ab" once among 10 words: rel 0.1 < 0.25 cutoff, dropped; the
    # survivors keep their pre-cutoff relative frequencies.
    ms = train_models(
        [corpus("fkv", "aa " * 9 + "ab")], HeliParams(n_max=1, cutoff_c=0.25), reg
    )
    word_map = ms.models["fkv"].domains["word"]
    assert " ab " not in word_map
    assert word_map[" aa "] == quantize_score(-math.log10(0.9))


def test_ngram_counts_use_padded_substrings():
    reg = make_registry()
    ms = train_models([corpus("fkv", "ab")], HeliParams(n_max=2), reg)
    bigrams = ms.models["fkv"].domains["2"]
    assert set(bigrams) == {" a", "ab", "b "}
    assert ms.models["fkv"].totals["2"] == 3


def test_duplicate_corpus_rejected():
    reg = make_registry()
    with pytest.raises(DataError, match="duplicate"):
        train_models([corpus("fkv", "a"), corpus("fkv", "b")], HeliParams(), reg)


def test_unregistered_language_rejected():
    reg = make_registry()
    with pytest.raises(DataError):
        train_models([corpus("xxz", "a")], HeliParams(), reg)


def test_empty_corpus_trains_empty_model():
    reg = make_registry()
    ms = train_models([corpus("fkv")], HeliParams(n_max=2), reg)
    model = ms.models["fkv"]
    assert all(not table for table in model.domains.values())
    assert all(total == 0 for total in model.totals.values())


def test_training_matches_bruteforce_counting():
    rng = random.Random(20)
    reg = make_registry()
    for _ in range(25):
        codes = rng.sample(reg.codes(), rng.randint(1, 3))
        params = HeliParams(
            n_max=rng.randint(1, 4),
            cutoff_c=rng.choice([5e-7, 0.02, 0.1]),
            use_words=rng.random() < 0.5,
        )
        text = {
            code: [random_sentence(rng) for _ in range(rng.randint(1, 8))]
            for code in codes
        }
        ms = train_models(
            [Corpus(language=c, sentences=tuple(s)) for c, s in text.items()],
            params,
            reg,
        )
        expected = oracle_train(text, params.n_max, params.cutoff_c, params.use_words)
        assert to_oracle_models(ms) == expected


def test_replication_invariance_quick():
    reg = make_registry()
    sentences = ("minä olen", "sinä olet", "hän on")
    once = train_models([corpus("fkv", *sentences)], HeliParams(n_max=3), reg)
    twice = train_models([corpus("fkv", *(sentences * 2))], HeliParams(n_max=3), reg)
    assert once.models["fkv"].domains == twice.models["fkv"].domains


def test_quantization_is_idempotent():
    for value in (0.3010299957, 6.301029996, 1 / 3, math.pi, 5e-7):
        assert quantize_score(quantize_score(value)) == quantize_score(value)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(4)
    ms = random_model_set(rng)
    save_models(ms, tmp_path / "m")
    loaded = load_models(tmp_path / "m")
    assert loaded.params == ms.params
    assert loaded.registry == ms.registry
    assert set(loaded.models) == set(ms.models)
    for code in ms.models:
        assert loaded.models[code].domains == ms.models[code].domains
        assert loaded.models[code].totals == ms.models[code].totals


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_copy_with_other_line_ends_loads_equal(tmp_path, newline):
    ms = random_model_set(random.Random(4))
    save_models(ms, tmp_path / "m")
    for path in (tmp_path / "m").rglob("*.tsv"):
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
    assert load_models(tmp_path / "m") == ms


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_models(tmp_path)


def test_missing_model_file_raises(tmp_path):
    rng = random.Random(5)
    ms = random_model_set(rng)
    save_models(ms, tmp_path / "m")
    victim = next((tmp_path / "m" / "models").iterdir())
    victim.unlink()
    with pytest.raises(DataError):
        load_models(tmp_path / "m")


def test_unsorted_model_file_raises(tmp_path):
    reg = make_registry()
    ms = train_models([corpus("fkv", "ba ab")], HeliParams(n_max=1), reg)
    save_models(ms, tmp_path / "m")
    target = tmp_path / "m" / "models" / "fkv.word.tsv"
    lines = target.read_text(encoding="utf-8").splitlines()
    target.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="out of order"):
        load_models(tmp_path / "m")


def test_out_of_range_score_raises(tmp_path):
    reg = make_registry()
    ms = train_models([corpus("fkv", "ab ab")], HeliParams(n_max=1), reg)
    save_models(ms, tmp_path / "m")
    target = tmp_path / "m" / "models" / "fkv.word.tsv"
    target.write_text(" ab \t9.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="outside"):
        load_models(tmp_path / "m")


def test_scores_never_exceed_cutoff_ceiling():
    rng = random.Random(6)
    for _ in range(10):
        ms = random_model_set(rng)
        ceiling = ms.params.max_score() + 1e-9
        for model in ms.models.values():
            for table in model.domains.values():
                for score in table.values():
                    assert 0.0 <= score <= ceiling


def test_model_set_rejects_unregistered_models():
    reg = make_registry()
    model = LanguageModel("xxz", {"word": {}, "1": {}}, {"word": 0, "1": 0})
    with pytest.raises(DataError):
        ModelSet(params=HeliParams(n_max=1), models={"xxz": model}, registry=reg)
