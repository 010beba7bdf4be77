import math
import random
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_registry, random_model_set, random_word, to_oracle_models
from oracle import oracle_train
from uralid import models
from uralid.cli import main
from uralid.corpus import Corpus
from uralid.errors import DataError
from uralid.features import WORD_DOMAIN, extract_ngrams, pad_word, tokenize
from uralid.models import (
    HeliParams,
    LanguageModel,
    ModelSet,
    load_models,
    quantize_score,
    save_models,
    train_models,
)
from uralid.registry import DEFAULT_CJK_BLOCKS, LanguageEntry, LanguageRegistry


def corpus(code, *sentences):
    return Corpus(language=code, sentences=tuple(sentences))


def count_model_file_reads(monkeypatch):
    """The path of each model file ``load_models`` reads from now on."""
    reads, read = [], models._load_model_file

    def counted(path, *rest):
        reads.append(path)
        return read(path, *rest)

    monkeypatch.setattr(models, "_load_model_file", counted)
    return reads


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


def reference_train(corpora, params, registry):
    """Training as a per-token loop: every n-gram of every token counted one at a
    time, every feature scored on its own, each domain in first-occurrence order.
    ``train_models`` must give back the same scores and totals, with the word
    domain in that order and each n-gram domain sorted by key."""
    models = {}
    for corpus in corpora:
        counters = {domain: Counter() for domain in params.domains()}
        for sentence in corpus.sentences:
            for word in tokenize(sentence):
                if params.use_words:
                    counters[WORD_DOMAIN][pad_word(word)] += 1
                for n in range(1, params.n_max + 1):
                    counters[str(n)].update(extract_ngrams(word, n))
        scored, totals = {}, {}
        for domain, counts in counters.items():
            total = totals[domain] = sum(counts.values())
            scored[domain] = {
                feature: 0.0 if count == total else quantize_score(-math.log10(count / total))
                for feature, count in counts.items()
                if count / total >= params.cutoff_c
            }
        models[corpus.language] = LanguageModel(corpus.language, scored, totals)
    return ModelSet(params, models, registry)


def assert_trained_as_reference(ms, reference):
    """The same models, totals and scores, with the word domain in first-occurrence
    order and each n-gram domain an ``NgramTable`` sorted by key, its file's order."""
    assert list(ms.models) == list(reference.models)
    for code, model in ms.models.items():
        want = reference.models[code]
        assert list(model.totals.items()) == list(want.totals.items())
        assert all(type(total) is int for total in model.totals.values())
        assert list(model.domains) == list(want.domains)
        for domain, table in model.domains.items():
            if domain == WORD_DOMAIN:
                assert list(table.items()) == list(want.domains[domain].items())
            else:
                assert isinstance(table, models.NgramTable) and table.features.dtype == f"<U{domain}"
                assert list(table.items()) == sorted(want.domains[domain].items())


NO_POOL_SENTENCES = ["", "  ", "123 456", "... !", "日本語 東京", "中文漢字 日本語 東京"]


def pooled_sentence(rng: random.Random, pool: list[str]) -> str:
    """Words drawn from a small pool, so types repeat; some capitalized or glued by
    punctuation; now and then an empty, letter-free or CJK line instead."""
    if rng.random() < 0.2:
        return rng.choice(NO_POOL_SENTENCES)
    words = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
    words = [w.capitalize() if rng.random() < 0.2 else w for w in words]
    return "".join(w + rng.choice([" ", ", ", "-", "1"]) for w in words)


def test_training_matches_bruteforce_counting():
    rng = random.Random(20)
    reg = make_registry()
    repeated_types = 0
    for _ in range(40):
        codes = rng.sample(reg.codes(), rng.randint(1, 3))
        params = HeliParams(
            n_max=rng.randint(1, 4),
            cutoff_c=rng.choice([5e-7, 0.02, 0.1, 0.25]),
            use_words=rng.random() < 0.5,
        )
        text = {}
        for code in codes:
            pool = [random_word(rng, 6) for _ in range(rng.randint(1, 6))] + ["日本"]
            text[code] = [pooled_sentence(rng, pool) for _ in range(rng.randint(0, 12))]
        corpora = [Corpus(language=c, sentences=tuple(s)) for c, s in text.items()]
        ms = train_models(corpora, params, reg)
        assert to_oracle_models(ms) == oracle_train(text, params.n_max, params.cutoff_c, params.use_words)
        assert_trained_as_reference(ms, reference_train(corpora, params, reg))
        for code in ms.models:
            types = Counter(w for s in text[code] for w in tokenize(s))
            repeated_types += sum(count > 1 for count in types.values())
    assert repeated_types > 100


@pytest.mark.parametrize("n_max", [1, 3, 6])
def test_training_matches_the_reference_on_unusual_corpora(n_max):
    corpora = [
        # astral letters: U+10400 lowercases to U+10428
        corpus("fkv", "\U00010400\U00010428 a\U00010428b \U00010428", "x " + "\U00010428" * 7),
        # İ lowercases to i and a combining dot (not a letter); ς ends a lowercased word
        corpus("izh", "İstanbul İİ iİ", "ΟΔΟΣ ΣΟΦΟΣ σας"),
        # words of one or two letters, with no windows once n exceeds their padded length
        corpus("vep", "a b c ab a", "ba"),
        corpus("swe"),
        corpus("fin", "123 ... !?", "  ", ""),
        # one type 10^5 times: its counts and totals must be exact integers
        corpus("liv", "kala " * 100_000 + "kalat"),
    ]
    registry = make_registry(["fkv", "izh", "vep", "swe", "fin", "liv"])
    for params in (HeliParams(n_max=n_max), HeliParams(n_max=n_max, cutoff_c=0.001, use_words=False)):
        ms = train_models(corpora, params, registry)
        assert_trained_as_reference(ms, reference_train(corpora, params, registry))
        liv = ms.models["liv"]
        assert liv.totals[str(n_max)] == 100_000 * (7 - n_max) + 8 - n_max
        assert liv.domains["1"][" "] == quantize_score(-math.log10(200_002 / 600_007))
    assert ms.models["izh"].domains["1"]["ς"] > 0 and "ς" not in ms.models["vep"].domains["1"]
    assert all(not table for table in ms.models["fin"].domains.values())
    assert ms.models["fin"].totals == ms.models["swe"].totals == {str(n): 0 for n in range(1, n_max + 1)}


def test_training_does_not_depend_on_the_tokenizing_slice(tmp_path, monkeypatch):
    # the same corpora tokenized a sentence at a time, three at a time and in one slice
    rng = random.Random(28)
    reg = make_registry()
    pool = [random_word(rng, 6) for _ in range(5)] + ["日本", "İİ", "ΟΔΟΣ", "\U00010400\U00010428"]
    corpora = [
        Corpus(language=code, sentences=tuple(pooled_sentence(rng, pool) for _ in range(size)))
        for code, size in zip(reg.codes(), (0, 1, 7, 40))
    ]
    params = HeliParams(n_max=4)
    trained, saved = [], []
    for size in (1, 3, models._TOKENIZE_SLICE):
        monkeypatch.setattr(models, "_TOKENIZE_SLICE", size)
        ms = train_models(corpora, params, reg)
        save_models(ms, tmp_path / str(size))
        trained.append(ms)
        saved.append(directory_bytes(tmp_path / str(size)))
    assert trained[0] == trained[1] == trained[2]
    for ms in trained[1:]:
        for code, model in ms.models.items():
            assert list(model.domains[WORD_DOMAIN]) == list(trained[0].models[code].domains[WORD_DOMAIN])
    assert saved[0] == saved[1] == saved[2]


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


@st.composite
def model_sets(draw):
    """A trained model set over random params and a random registry."""
    codes = draw(st.lists(st.text("abcdefghij", min_size=3, max_size=3), min_size=1, max_size=4,
                          unique=True))
    names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"),
                    max_size=6)
    codepoints = st.integers(0, 0x10FFFF)
    blocks = draw(st.lists(st.tuples(codepoints, codepoints).map(sorted).map(tuple),
                           min_size=1, max_size=3))
    entries = tuple(LanguageEntry(code, draw(names), draw(st.booleans()), draw(st.booleans()))
                    for code in codes)
    registry = LanguageRegistry(entries=entries, cjk_blocks=tuple(blocks))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a penalty below -log10(cutoff) is still a valid set
        params = HeliParams(
            n_max=draw(st.integers(1, 3)),
            cutoff_c=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
            # an int penalty is written as the float it equals, so it loads back equal
            penalty_p=draw(st.integers(0, 20) | st.floats(min_value=0, allow_nan=False)),
            use_words=draw(st.booleans()),
        )
    trained = draw(st.lists(st.sampled_from(codes), min_size=1, max_size=len(codes), unique=True))
    sentences = st.lists(st.text("abcé ж", max_size=12), max_size=3)
    corpora = [Corpus(language=code, sentences=tuple(draw(sentences))) for code in trained]
    return train_models(corpora, params, registry)


def directory_bytes(directory: Path) -> dict[str, bytes]:
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*.tsv")}


@settings(max_examples=60, deadline=None)
@given(model_sets())
def test_load_models_inverts_save_models(ms):
    with tempfile.TemporaryDirectory() as scratch, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first, second = Path(scratch, "first"), Path(scratch, "second")
        save_models(ms, first)
        loaded = load_models(first)
        assert loaded == ms
        save_models(loaded, second)
        assert directory_bytes(second) == directory_bytes(first)
        # n-gram tables are written from their arrays, dict tables row by row: the same bytes
        dicts = {code: LanguageModel(code, {d: dict(t) for d, t in m.domains.items()}, m.totals)
                 for code, m in ms.models.items()}
        save_models(ModelSet(ms.params, dicts, ms.registry), Path(scratch, "dicts"))
        assert directory_bytes(Path(scratch, "dicts")) == directory_bytes(first)


def test_save_models_refuses_a_set_without_models(tmp_path):
    empty = ModelSet(params=HeliParams(), models={}, registry=make_registry())
    with pytest.raises(DataError, match="^a model set without models cannot be saved$"):
        save_models(empty, tmp_path / "m")
    assert not (tmp_path / "m").exists()


def _insert_at_line_2(row):
    return lambda rows: (rows[:1] + [row] + rows[1:], 2)


def _first_total(total):
    def edit(rows):
        at = next(i for i, row in enumerate(rows) if row.startswith("model\t"))
        rows[at] = rows[at].rsplit("\t", 1)[0] + "\t" + total
        return rows, at + 1
    return edit


def _izh_rows_first(rows):
    at = next(i for i, row in enumerate(rows) if row.startswith("model\t"))
    model_rows = rows[at:]
    izh_rows = [row for row in model_rows if row.startswith("model\tizh\t")]
    return rows[:at] + izh_rows + [row for row in model_rows if row not in izh_rows], at + 1


def _second_feature(feature):
    """Line 2 of fkv.1.tsv, 'a\t0.6020599913', with its feature written as ``feature``."""
    return lambda rows: (rows[:1] + [rows[1].replace("a\t", f"{feature}\t", 1)] + rows[2:], 2)


def _first_score_text(text):
    """Line 1 of fkv.1.tsv, ' \t0.3010299957', with its score written as ``text``."""
    return lambda rows: ([rows[0].replace("\t0.3010299957", f"\t{text}")] + rows[1:], 1)


@pytest.mark.parametrize(
    "file, edit, message",
    [
        ("manifest.tsv", _insert_at_line_2("param\tpenalty_p\t9.0"), "expected 'param\\tcutoff_c\\t5e-07'"),
        ("manifest.tsv", _insert_at_line_2("param\tn_maxx\t9"), "expected 'param\\tcutoff_c\\t5e-07'"),
        ("manifest.tsv", _insert_at_line_2("# note"), "expected 'param\\tcutoff_c\\t5e-07'"),
        ("manifest.tsv", _insert_at_line_2(""), "expected 'param\\tcutoff_c\\t5e-07'"),
        ("manifest.tsv", _first_total("-5"), "bad total count '-5'"),
        ("manifest.tsv", _first_total("+5"), "bad total count '+5'"),
        ("manifest.tsv", lambda rows: ([r for r in rows if not r.startswith("cjkblock")], 5),
         "expected 'cjkblock\\t1100\\t11FF'"),
        ("models/fkv.1.tsv", lambda rows: (rows + [""], len(rows) + 1), "expected feature<TAB>score"),
        ("manifest.tsv", _izh_rows_first, "expected the model row for fkv 1"),
        ("manifest.tsv", lambda rows: (rows[:-1], len(rows)), "expected the model row for izh word"),
        ("models/fkv.1.tsv", _first_score_text("0.30102999570"), "bad score '0.30102999570'"),
        ("models/fkv.1.tsv", _first_score_text(" 0.3010299957"), "bad score ' 0.3010299957'"),
        ("models/fkv.1.tsv", _first_score_text("+0.3010299957"), "bad score '+0.3010299957'"),
        ("models/fkv.1.tsv", _first_score_text("0.3010299957e0"), "bad score '0.3010299957e0'"),
        ("models/fkv.1.tsv", lambda rows: (rows[:2] + rows[1:], 3), "features out of order at 'a'"),
        ("models/fkv.1.tsv", _second_feature("aa"),
         "feature 'aa' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
        ("models/fkv.1.tsv", _second_feature("\0"),
         "feature '\\x00' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
    ],
    ids=["second-param", "unknown-param", "comment", "blank", "negative-total", "signed-total",
         "no-cjkblocks", "blank-model-line", "izh-rows-first", "no-last-model-row", "score-trailing-zero",
         "score-leading-space", "score-plus-sign", "score-exponent", "repeated-feature", "wide-ngram",
         "nul-ngram"],
)
def test_rows_save_models_never_writes_name_their_line(
    tmp_path, capsys, monkeypatch, file, edit, message
):
    corpora = [corpus("fkv", "ab ab"), corpus("izh", "fg")]
    save_models(train_models(corpora, HeliParams(n_max=1), make_registry()), tmp_path / "m")
    path = tmp_path / "m" / file
    rows, line = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    reads = count_model_file_reads(monkeypatch)
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{path}:{line}: {message}"
    (tmp_path / "in.txt").write_text("ab\n", encoding="utf-8")
    assert main(["identify", "--models", str(tmp_path / "m"), "--input", str(tmp_path / "in.txt")]) == 2
    assert capsys.readouterr().err == f"uralid: {path}:{line}: {message}\n"
    if file == "manifest.tsv":
        assert reads == []


@pytest.mark.parametrize(
    "name, blocks, message",
    [
        ("Kven\tx", DEFAULT_CJK_BLOCKS, "language name 'Kven\\tx' holds a tab or line break"),
        ("Kven\rx", DEFAULT_CJK_BLOCKS, "language name 'Kven\\rx' holds a tab or line break"),
        ("Kven\nx", DEFAULT_CJK_BLOCKS, "language name 'Kven\\nx' holds a tab or line break"),
        ("Kven", (), "a registry needs at least one CJK block"),
        ("Kven", ((0x4E00, 0x3000),), "CJK block bounds out of order: 4E00 > 3000"),
    ],
    ids=["tab", "cr", "lf", "no-blocks", "reversed-block"],
)
def test_registry_refuses_what_no_manifest_can_hold(name, blocks, message):
    with pytest.raises(DataError) as info:
        LanguageRegistry(entries=(LanguageEntry("fkv", name, True),), cjk_blocks=blocks)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda m: {"totals": {**m.totals, "1": -3}},
         "model fkv 1: total -3 is not a non-negative int"),
        (lambda m: {"totals": {**m.totals, "1": 3.0}},
         "model fkv 1: total 3.0 is not a non-negative int"),
        (lambda m: {"totals": {**m.totals, "1": True}},
         "model fkv 1: total True is not a non-negative int"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 9.5}}},
         "model fkv 1: score 9.5 of 'a' outside [0, 6.301030]"),
        (lambda m: {"domains": {**m.domains, "1": {"a": -0.5}}},
         "model fkv 1: score -0.5 of 'a' outside [0, 6.301030]"),
        (lambda m: {"domains": {**m.domains, "1": {"a": math.nan}}},
         "model fkv 1: score nan of 'a' outside [0, 6.301030]"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 1 / 3}}},
         "model fkv 1: score 0.3333333333333333 of 'a' would load back as 0.3333333333"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 0.5, "b": 0.30102999566398120}}},
         "model fkv 1: score 0.3010299956639812 of 'b' would load back as 0.3010299957"),
        (lambda m: {"domains": {**m.domains, "1": {"a\tb": 1.0}}},
         "model fkv 1: feature 'a\\tb' holds a tab or line break"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 1.0, "b\ud800": 1.0}}},
         "model fkv 1: feature 'b\\ud800' cannot be written as UTF-8"),
        (lambda m: {"domains": {"1": m.domains["1"]}},
         "model fkv: domains ['1'], the params give ['1', 'word']"),
        (lambda m: {"domains": {**m.domains, "2": {}}},
         "model fkv: domains ['1', '2', 'word'], the params give ['1', 'word']"),
        (lambda m: {"language": "izh"}, "model fkv: language is 'izh'"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 1.0, "ab": 1.0}}},
         "model fkv 1: feature 'ab' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 1.0, "\0": 1.0}}},
         "model fkv 1: feature '\\x00' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
        (lambda m: {"domains": {**m.domains, "1": {"a": 1.0, "": 1.0}}},
         "model fkv 1: feature '' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
    ],
    ids=["negative-total", "float-total", "bool-total", "high-score", "negative-score", "nan-score",
         "rounded-score", "unquantized-log", "tab-feature", "lone-surrogate", "missing-domain",
         "extra-domain", "other-language", "wide-ngram", "nul-ngram", "empty-ngram"],
)
def test_save_models_refuses_what_would_not_load_back_equal(tmp_path, change, message):
    ms = train_models([corpus("fkv", "ab ab")], HeliParams(n_max=1), make_registry())
    model = ms.models["fkv"]
    edited = LanguageModel(**{**vars(model), **change(model)})
    with pytest.raises(DataError) as info:
        save_models(ModelSet(ms.params, {"fkv": edited}, ms.registry), tmp_path / "m")
    assert str(info.value) == message
    assert not (tmp_path / "m").exists()


def _ngram_table(*features, scores=None, n=1):
    scores = [1.0] * len(features) if scores is None else scores
    return models.NgramTable(np.array(features, dtype=f"<U{n}"), np.array(scores, dtype=np.float64))


@pytest.mark.parametrize(
    "domain, table, message",
    [
        ("1", _ngram_table("\t", "a"), "feature '\\t' holds a tab or line break"),
        ("2", _ngram_table("a\r", "ab", n=2), "feature 'a\\r' holds a tab or line break"),
        ("1", _ngram_table("a", "\n"), "feature '\\n' holds a tab or line break"),
        ("1", _ngram_table("a", "\ud800"), "feature '\\ud800' cannot be written as UTF-8"),
        ("2", _ngram_table("\0a", "ab", n=2),
         "feature '\\x00a' is not a 2-gram: an n-gram is n code points, none of them U+0000"),
        ("2", _ngram_table("a", "ab", n=2),
         "feature 'a' is not a 2-gram: an n-gram is n code points, none of them U+0000"),
        ("1", _ngram_table("", "a"),
         "feature '' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
        ("2", _ngram_table("ab", n=3), "features are <U3 keys, not <U2"),
        ("1", _ngram_table("a", "b", "b"), "features out of order at 'b'"),
        ("2", _ngram_table("ab", "ba", "aa", n=2), "features out of order at 'aa'"),
        ("1", _ngram_table("a", "b", scores=[1.0, 9.5]), "score 9.5 of 'b' outside [0, 6.301030]"),
        ("1", _ngram_table("a", scores=[math.nan]), "score nan of 'a' outside [0, 6.301030]"),
        ("1", _ngram_table("a", "b", scores=[0.5, 0.30102999566398120]),
         "score 0.3010299956639812 of 'b' would load back as 0.3010299957"),
        # a line break is reported before the width rule, that before the order
        ("2", _ngram_table("b", "a\n", n=2), "feature 'a\\n' holds a tab or line break"),
        ("2", _ngram_table("bb", "a", n=2),
         "feature 'a' is not a 2-gram: an n-gram is n code points, none of them U+0000"),
    ],
    ids=["tab", "cr", "lf", "lone-surrogate", "nul-ngram", "short-ngram", "empty-ngram", "wide-keys",
         "repeated-key", "descending-keys", "high-score", "nan-score", "unquantized-log",
         "line-break-before-width", "width-before-order"],
)
def test_save_models_refuses_ngram_tables_that_would_not_load_back_equal(tmp_path, domain, table, message):
    ms = train_models([corpus("fkv", "ab ab")], HeliParams(n_max=2), make_registry())
    model = ms.models["fkv"]
    edited = LanguageModel("fkv", {**model.domains, domain: table}, model.totals)
    with pytest.raises(DataError) as info:
        save_models(ModelSet(ms.params, {"fkv": edited}, ms.registry), tmp_path / "m")
    assert str(info.value) == f"model fkv {domain}: {message}"
    assert not (tmp_path / "m").exists()


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


@pytest.mark.parametrize("value", ["true", "2", ""])
def test_manifest_use_words_must_be_0_or_1(tmp_path, value):
    ms = train_models([corpus("fkv", "ab ab")], HeliParams(n_max=1), make_registry())
    save_models(ms, tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.tsv"
    text = manifest.read_text(encoding="utf-8")
    assert "param\tuse_words\t1\n" in text
    manifest.write_text(text.replace("use_words\t1", f"use_words\t{value}"), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{manifest}: bad params: use_words must be 0 or 1, got {value!r}"


def saved_manifest(tmp_path):
    """The manifest lines of a saved two-language model set, and its path."""
    corpora = [corpus("fkv", "ab ab"), corpus("izh", "fg")]
    save_models(train_models(corpora, HeliParams(n_max=1), make_registry()), tmp_path / "m")
    manifest = tmp_path / "m" / "manifest.tsv"
    return manifest.read_text(encoding="utf-8").splitlines(), manifest


@pytest.mark.parametrize(
    "prefix, edit, offset, message",
    [
        ("language\tizh\t", lambda row: [row.replace("\t1\t0", "\tx\t0")], 0,
         "relevant flag must be 0 or 1, got 'x'"),
        ("model\tizh\t1\t", lambda row: [row.replace("izh", "xyz", 1)], 0,
         "unregistered language code 'xyz'"),
        ("model\tizh\t1\t", lambda row: [row.replace("izh\t1", "izh\t7")], 0,
         "unknown domain '7' for izh"),
        ("model\tizh\t1\t", lambda row: [row.replace("models/izh.1.tsv", "../izh.1.tsv")], 0,
         "model path must be models/izh.1.tsv, got '../izh.1.tsv'"),
        ("model\tfkv\t1\t", lambda row: [row, row.replace("models/fkv", "models/izh")], 1,
         "model path must be models/fkv.1.tsv, got 'models/izh.1.tsv'"),
        ("model\tfkv\t1\t", lambda row: [row, row], 1, "second model row for fkv 1"),
    ],
    ids=["registry-row", "unregistered", "domain", "path", "other-language-path", "second-row"],
)
def test_manifest_faults_name_the_manifest_line(
    tmp_path, monkeypatch, prefix, edit, offset, message
):
    lines, manifest = saved_manifest(tmp_path)
    at = next(i for i, row in enumerate(lines) if row.startswith(prefix))
    lines[at : at + 1] = edit(lines[at])
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reads = count_model_file_reads(monkeypatch)
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{manifest}:{at + 1 + offset}: {message}"
    assert reads == []


def test_order_fault_is_reported_before_a_missing_model_file(tmp_path, monkeypatch):
    lines, manifest = saved_manifest(tmp_path)
    rows, line = _izh_rows_first(lines)
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "m" / "models" / "izh.1.tsv").unlink()  # the first model row's file
    reads = count_model_file_reads(monkeypatch)
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{manifest}:{line}: expected the model row for fkv 1"
    assert reads == []


def test_missing_model_file_names_the_manifest_line(tmp_path):
    lines, manifest = saved_manifest(tmp_path)
    (tmp_path / "m" / "models" / "izh.1.tsv").unlink()
    line = lines.index(next(row for row in lines if row.startswith("model\tizh\t1\t"))) + 1
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{manifest}:{line}: missing model file models/izh.1.tsv"


def test_manifest_without_model_rows_is_data_error(tmp_path):
    lines, manifest = saved_manifest(tmp_path)
    kept = [row for row in lines if not row.startswith("model\t")]
    manifest.write_text("\n".join(kept) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{manifest}: manifest lists no model rows"


def test_corpus_faults_name_the_corpus_files():
    registry = make_registry()
    notes = Corpus(language="notes", sentences=(), source_path="c/notes.txt")
    with pytest.raises(DataError, match=r"^c/notes\.txt: unregistered language code 'notes'$"):
        train_models([notes], HeliParams(), registry)
    first = Corpus(language="fkv", sentences=("a",), source_path="c/fkv.txt")
    second = Corpus(language="fkv", sentences=("b",), source_path="c/fkv_2.txt")
    with pytest.raises(DataError) as info:
        train_models([first, second], HeliParams(), registry)
    assert str(info.value) == "c/fkv_2.txt: duplicate corpus for language 'fkv', also in c/fkv.txt"


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


def test_loaded_ngram_tables_equal_the_trained_dicts_both_ways(tmp_path):
    # letters past U+00FF, one whose UTF-32 ends in a zero byte (U+0100), and astral ones
    corpora = [
        corpus("fkv", "ab ba ĀĀb 𝔞b", "aĀ 𝔞𝔞𝔞 b"),
        corpus("izh", "fg Āf 𝔣𝔤 gf"),
        corpus("vep", ""),
    ]
    trained = train_models(corpora, HeliParams(n_max=4), make_registry())
    save_models(trained, tmp_path / "m")
    loaded = load_models(tmp_path / "m")
    assert loaded == trained and trained == loaded
    tables = 0
    for code, model in trained.models.items():
        for domain, trained_table in model.domains.items():
            table, want = loaded.models[code].domains[domain], dict(trained_table)
            assert table == want and want == table
            if domain == WORD_DOMAIN:
                assert type(table) is dict
                continue
            tables += 1
            assert isinstance(table, models.NgramTable) and table.features.dtype == f"<U{domain}"
            # training gives the loader's layout
            assert np.array_equal(table.features, trained_table.features)
            assert np.array_equal(table.scores, trained_table.scores)
            # the file's order: sorted by feature
            assert list(dict(table)) == list(table) == sorted(want)
            assert list(table.items()) == sorted(want.items())
            assert list(table.values()) == [want[f] for f in sorted(want)]
            assert len(table) == len(want) and all(f in table for f in want)
            for missing in ["zz"[: int(domain)], "a" * (int(domain) + 1), "", 7, ("a",)]:
                assert missing not in table and table.get(missing) is None
            with pytest.raises(KeyError):
                table["q" * int(domain)]
            with pytest.raises(ValueError):
                table.scores[:1] = 0.0  # read-only
    assert tables == 3 * 4


@pytest.mark.parametrize(
    "rows, line, message",
    [
        # a score out of range on line 1 and a bad score on line 3: the lower line wins
        ([" \t9.5", "a\t0.6020599913", "b\tx"], 1, "score 9.5 outside [0, 6.301030]"),
        # out of order and a bad score on the same line: the earlier rule wins
        ([" \t0.3010299957", " \tx", "b\t0.6020599913"], 2, "features out of order at ' '"),
        # too wide and out of order on line 2, a row without a tab on line 3
        (["b\t0.3010299957", "aa\t0.3010299957", "c"], 2,
         "feature 'aa' is not a 1-gram: an n-gram is n code points, none of them U+0000"),
        # two tabs on line 2, a bad score on line 1
        ([" \t+1", "a\t0.6\t1"], 1, "bad score '+1'"),
        ([" \t0.3010299957", "a\t0.6\t1"], 2, "expected feature<TAB>score"),
    ],
    ids=["range-before-score", "order-before-score", "width-before-order", "score-before-shape", "shape"],
)
def test_a_file_with_several_faults_names_its_lowest_faulty_line(tmp_path, rows, line, message):
    save_models(train_models([corpus("fkv", "ab ab")], HeliParams(n_max=1), make_registry()), tmp_path / "m")
    path = tmp_path / "m" / "models" / "fkv.1.tsv"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_models(tmp_path / "m")
    assert str(info.value) == f"{path}:{line}: {message}"
