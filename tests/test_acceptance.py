"""Acceptance gate: ten end-to-end checks with pinned tolerances and ceilings.

Each check records exactly one ``criterion N: PASS/FAIL`` line; a conftest
hook prints them as a summary section at the end of the run, where pytest's
output capture cannot swallow them. Runtime limits are part of the contract
and are asserted, not just measured.
"""

from __future__ import annotations

import random
import string
import time
from contextlib import contextmanager

import pytest

import acceptance_report

from helpers import (
    ALPHABETS,
    disjoint_model_set,
    disjoint_sentences,
    make_registry,
    random_model_set,
    random_sentence,
    to_oracle_models,
)
from oracle import oracle_cjk_ratio, oracle_score_sentence, oracle_winner
from uralid import features, identifier
from uralid.cli import main
from uralid.corpus import Corpus
from uralid.evaluation import confusion, prf, track2
from uralid.features import extract_ngrams, tokenize_chunk
from uralid.identifier import format_prediction, identify, identify_batch
from uralid.models import HeliParams, load_models, save_models, train_models
from uralid.pipeline import (
    Page,
    PipelineReport,
    run_pipeline,
    stage1_filter_pages,
    stage2_dedup_lines,
    stage3_filter_lines,
)
from uralid.registry import LanguageEntry, LanguageRegistry, default_registry


@contextmanager
def criterion(number: int, label: str, limit: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= limit:
            raise AssertionError(f"took {elapsed:.2f}s, limit {limit:.0f}s")
    except BaseException:
        acceptance_report.record(f"criterion {number:2d}: FAIL  {label}")
        raise
    acceptance_report.record(
        f"criterion {number:2d}: PASS  {label} ({elapsed:.2f}s, limit {limit:.0f}s)"
    )


@pytest.fixture(scope="module")
def crawl_models():
    return disjoint_model_set(codes=("fkv", "izh", "vep", "swe", "fin"), sentences=20)


# Criterion 1. The full-scale track scores are out of reach on a desk, but the
# error pattern behind them is not: two low-resource languages had no test
# sentences yet attracted stray predictions, which must yield F1 = 0 under the
# zero-gold convention. The counts below reproduce that confusion pattern.
WORST_LANGUAGE_CELLS = {
    "fin": {"fin": 9931, "fit": 53, "fkv": 7, "krl": 3, "lud": 1, "swe": 1},
    "fit": {"fin": 5, "fit": 91, "fkv": 2, "hat": 1, "swe": 1},
    "fkv": {"fit": 3, "fkv": 19},
    "hat": {"hat": 9924},
    "kpv": {"fit": 1, "kpv": 246},
    "krl": {"fin": 1, "izh": 1, "krl": 80},
    "lud": {"fin": 2, "izh": 3, "lud": 144, "vot": 2},
    "sot": {"sot": 9962, "vot": 1},
    "sun": {"hat": 1, "izh": 1, "sot": 1, "sun": 5451},
    "swe": {"fin": 1, "swe": 9981},
}


def test_criterion_01_zero_gold_languages_score_zero_f1(tmp_path, capsys):
    with criterion(1, "stray predictions into gold-empty languages give F1 0", 1.0):
        golds, preds = [], []
        for gold, row in WORST_LANGUAGE_CELLS.items():
            for pred, count in row.items():
                golds.extend([gold] * count)
                preds.extend([pred] * count)
        gold_path = tmp_path / "gold.tsv"
        pred_path = tmp_path / "pred.tsv"
        gold_path.write_text("".join(g + "\n" for g in golds), encoding="utf-8")
        pred_path.write_text("".join(p + "\n" for p in preds), encoding="utf-8")

        out = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--gold", str(gold_path),
                "--pred", str(pred_path),
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0

        per_language = {}
        rows = (out / "per_language.tsv").read_text(encoding="utf-8").splitlines()
        for row in rows[1:]:
            lang, precision, recall, f1 = row.split("\t")
            per_language[lang] = (precision, recall, f1)
        # izh and vot have no gold sentences but were predicted 5 and 3 times
        assert per_language["izh"] == ("0.000000", "1.000000", "0.000000")
        assert per_language["vot"] == ("0.000000", "1.000000", "0.000000")

        # and the same holds in exact arithmetic, not just after formatting
        cm = confusion(golds, preds, default_registry())
        assert prf(cm, "izh") == (0.0, 1.0, 0.0)
        assert prf(cm, "vot") == (0.0, 1.0, 0.0)


def test_criterion_02_metric_conventions_exact(tiny_registry):
    with criterion(2, "zero-gold conventions and hand micro example exact", 1.0):
        # no gold, no predictions: vacuously perfect
        cm = confusion(["fkv"], ["fkv"], tiny_registry)
        assert prf(cm, "vep") == (1.0, 1.0, 1.0)
        # no gold, one stray prediction: precision and F1 collapse to zero
        cm = confusion(["fkv"], ["vep"], tiny_registry)
        assert prf(cm, "vep") == (0.0, 1.0, 0.0)
        # micro over relevant: TP=4, FP=1, FN=1 so P = R = 4/5 and F1 = 4/5
        golds = ["fkv"] * 5 + ["swe"]
        preds = ["fkv"] * 4 + ["swe", "fkv"]
        assert track2(confusion(golds, preds, tiny_registry)) == 0.8


def test_criterion_03_scores_match_bruteforce_scorer():
    with criterion(3, "200 random instances match the brute-force scorer", 10.0):
        rng = random.Random(20260815)
        for _ in range(200):
            model_set = random_model_set(rng)
            registry = model_set.registry
            candidates = registry.sort_by_order(model_set.models)
            oracle_models = to_oracle_models(model_set)
            sentence = random_sentence(rng)

            prediction = identify(sentence, model_set)
            expected = oracle_score_sentence(
                sentence,
                oracle_models,
                candidates,
                model_set.params.n_max,
                model_set.params.penalty_p,
                model_set.params.use_words,
            )
            assert set(prediction.scores) == set(expected)
            for code in candidates:
                assert prediction.scores[code] == pytest.approx(expected[code], abs=1e-9)
            assert prediction.winner == oracle_winner(expected, candidates)


def test_criterion_04_ngram_count_law():
    with criterion(4, "n-gram count law on 1000 random words", 1.0):
        rng = random.Random(4)
        n_max = 6
        for _ in range(1000):
            word = "".join(
                rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 12))
            )
            for n in range(1, n_max + 1):
                assert len(extract_ngrams(word, n)) == max(0, len(word) + 3 - n)


def test_criterion_05_replication_invariance(tmp_path, tiny_registry):
    with criterion(5, "doubling every corpus leaves the models bit-identical", 5.0):
        rng = random.Random(55)
        params = HeliParams(n_max=3)
        for i in range(50):
            codes = rng.sample(tiny_registry.codes(), rng.randint(1, 3))
            singles, doubles = [], []
            for code in codes:
                sentences = tuple(
                    random_sentence(rng) for _ in range(rng.randint(1, 10))
                )
                singles.append(Corpus(language=code, sentences=sentences))
                doubles.append(Corpus(language=code, sentences=sentences * 2))
            once = train_models(singles, params, tiny_registry)
            twice = train_models(doubles, params, tiny_registry)
            # raw occurrence totals double with the corpus by construction;
            # the model proper is the relative-frequency score tables
            for code in codes:
                assert once.models[code].domains == twice.models[code].domains

            dir_once, dir_twice = tmp_path / f"a{i}", tmp_path / f"b{i}"
            save_models(once, dir_once)
            save_models(twice, dir_twice)
            for file in sorted((dir_once / "models").iterdir()):
                assert (dir_twice / "models" / file.name).read_bytes() == file.read_bytes()

            probe = random_sentence(rng)
            assert identify(probe, once) == identify(probe, twice)


def test_criterion_06_self_identification_at_desk_scale():
    with criterion(6, "10 synthetic languages: held-in 100%, held-out >= 95%", 30.0):
        codes = [f"l{ch}{ch}" for ch in "abcdefghij"]
        letters = {
            code: string.ascii_lowercase[2 * i : 2 * i + 2]
            for i, code in enumerate(codes)
        }
        registry = LanguageRegistry(
            entries=tuple(LanguageEntry(c, c.upper(), True, False) for c in codes)
        )

        train, held_out = {}, {}
        for code in codes:
            rng = random.Random(f"{code}:generator")
            sentences = set()
            while len(sentences) < 300:
                sentences.add(
                    " ".join(
                        "".join(rng.choice(letters[code]) for _ in range(rng.randint(2, 7)))
                        for _ in range(rng.randint(3, 6))
                    )
                )
            ordered = sorted(sentences)
            train[code], held_out[code] = ordered[:200], ordered[200:]

        corpora = [Corpus(language=c, sentences=tuple(train[c])) for c in codes]
        model_set = train_models(corpora, HeliParams(n_max=4), registry)

        held_in_hits = sum(
            identify(s, model_set).winner == code
            for code in codes
            for s in train[code]
        )
        assert held_in_hits == 10 * 200

        held_out_hits = sum(
            identify(s, model_set).winner == code
            for code in codes
            for s in held_out[code]
        )
        assert held_out_hits / (10 * 100) >= 0.95


def test_criterion_07_cjk_majority_rule():
    with criterion(7, "majority-CJK inputs never get a non-CJK label", 5.0):
        registry = make_registry(codes=["fkv", "jpn"], cjk=("jpn",))
        rng = random.Random(77)
        katakana = [chr(cp) for cp in range(0x30A2, 0x30F0)]
        jpn_sentences = tuple(
            " ".join(
                "".join(rng.choice(katakana) for _ in range(rng.randint(2, 5)))
                for _ in range(rng.randint(2, 4))
            )
            for _ in range(30)
        )
        corpora = [
            Corpus(language="fkv", sentences=tuple(disjoint_sentences("fkv", 30))),
            Corpus(language="jpn", sentences=jpn_sentences),
        ]
        model_set = train_models(corpora, HeliParams(n_max=3), registry)
        blocks = list(registry.cjk_blocks)
        pool = list(ALPHABETS["fkv"]) + katakana + [" "]

        checked_majority = 0
        for _ in range(500):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 40)))
            if oracle_cjk_ratio(text, blocks) > 0.5:
                assert registry.is_cjk(identify(text, model_set).winner)
                checked_majority += 1
        assert checked_majority > 100

        # exactly half CJK: the sanity rule must not move a single score
        scorer = model_set.scorer()
        rows, codes = scorer.candidate_rows(None)
        for _ in range(100):
            k = rng.randint(1, 10)
            chars = [rng.choice(ALPHABETS["fkv"]) for _ in range(k)]
            chars += [rng.choice(katakana) for _ in range(k)]
            rng.shuffle(chars)
            text = "".join(chars)
            assert oracle_cjk_ratio(text, blocks) == 0.5
            raw = scorer.score_sentences(*tokenize_chunk([text]), rows)[0][0]
            prediction = scorer.predict([text], rows, codes)[0]
            assert prediction.scores == {
                code: float(raw[i]) for i, code in enumerate(codes)
            }


def test_criterion_08_crawl_funnel_fixture(crawl_models):
    with criterion(8, "hand-traced 6-page crawl plus 100 random crawls", 10.0):
        fkv = disjoint_sentences("fkv", 20)
        izh = disjoint_sentences("izh", 20)
        vep = disjoint_sentences("vep", 20)
        swe = disjoint_sentences("swe", 20)
        fin = disjoint_sentences("fin", 20)
        fw = fkv[5].split()
        sw = swe[5].split()

        # p3 is dropped outright; the fkv line on p1/p2 and the izh line on
        # p2/p6 are cross-page duplicates; p4 keeps only one of its lines;
        # p5 plants one word-tie sentence and one majority-non-relevant
        # sentence next to clean material; "<fkv[0]>." is extracted twice.
        pages = [
            Page(url="p1", text=f"{fkv[0]}. {fkv[1]}!\n{fkv[2]}"),
            Page(url="p2", text=f"{izh[0]}. {izh[1]}!\n{fkv[2]}"),
            Page(url="p3", text=f"{swe[0]}. {swe[1]}.\n{swe[2]}"),
            Page(url="p4", text=f"{fin[0]}\n{fkv[3]} {fkv[4]}"),
            Page(
                url="p5",
                text=(
                    f"{fkv[4]}. {fw[0]} {sw[0]}.\n"
                    f"{fkv[3]}. {sw[1]} {sw[2]} {sw[3]} {fw[1]}.\n"
                    f"{fkv[0]}. {fkv[2]}."
                ),
            ),
            Page(url="p6", text=f"{vep[0]}. {vep[1]}! {vep[2]}.\n{izh[0]}. {izh[1]}!"),
        ]

        retained = stage1_filter_pages(pages, crawl_models)
        assert [p.url for p in retained] == ["p1", "p2", "p4", "p5", "p6"]
        assert [p.page_language for p in retained] == ["fkv", "izh", "fkv", "fkv", "vep"]

        unique = stage2_dedup_lines(retained)
        assert len(unique) == 9
        by_text = {line.text: line.known_languages for line in unique}
        assert by_text[fkv[2]] == frozenset({"fkv", "izh"})
        assert by_text[f"{izh[0]}. {izh[1]}!"] == frozenset({"izh", "vep"})

        kept = stage3_filter_lines(unique, crawl_models)
        assert len(kept) == 8
        assert fin[0] not in {line.text for line in kept}
        narrowed = {line.text: line.known_languages for line in kept}
        assert narrowed[fkv[2]] == frozenset({"fkv"})
        assert narrowed[f"{izh[0]}. {izh[1]}!"] == frozenset({"izh"})

        labeled, report = run_pipeline(pages, crawl_models)
        assert report == PipelineReport(
            pages_in=6,
            pages_retained=5,
            lines_total=11,
            lines_unique=9,
            lines_retained=8,
            sentences_extracted=15,
            sentences_unique=14,
            sentences_labeled=12,
        )
        assert [(s.text, s.language) for s in labeled] == [
            (f"{fkv[0]}.", "fkv"),
            (f"{fkv[1]}!", "fkv"),
            (fkv[2], "fkv"),
            (f"{izh[0]}.", "izh"),
            (f"{izh[1]}!", "izh"),
            (f"{fkv[3]} {fkv[4]}", "fkv"),
            (f"{fkv[4]}.", "fkv"),
            (f"{fkv[3]}.", "fkv"),
            (f"{fkv[2]}.", "fkv"),
            (f"{vep[0]}.", "vep"),
            (f"{vep[1]}!", "vep"),
            (f"{vep[2]}.", "vep"),
        ]

        # fuzz: whatever the crawl looks like, the funnel may only shrink
        rng = random.Random(99)
        pool = {code: disjoint_sentences(code, 30) for code in ALPHABETS}
        codes = list(ALPHABETS)
        for _ in range(100):
            crawl = []
            for p in range(rng.randint(1, 5)):
                lines = []
                for _ in range(rng.randint(1, 4)):
                    line = rng.choice(pool[rng.choice(codes)])
                    line += rng.choice([".", "!", "", "?"])
                    if rng.random() < 0.3:
                        line += " " + rng.choice(pool[rng.choice(codes)]) + "."
                    lines.append(line)
                if crawl and rng.random() < 0.3:
                    lines.append(crawl[-1].text.splitlines()[0])
                crawl.append(Page(url=f"u{p}", text="\n".join(lines)))
            # PipelineReport rejects any non-monotone funnel on construction
            sentences, rand_report = run_pipeline(crawl, crawl_models)
            assert rand_report.sentences_labeled == len(sentences)
            for sentence in sentences:
                assert crawl_models.registry.is_relevant(sentence.language)


def test_criterion_09_model_roundtrip_bit_exact(tmp_path):
    with criterion(9, "20 random model sets save/load bit-exactly", 5.0):
        rng = random.Random(909)
        for i in range(20):
            model_set = random_model_set(rng)
            first = tmp_path / f"m{i}"
            save_models(model_set, first)
            loaded = load_models(first)

            assert loaded.params == model_set.params
            assert loaded.registry.entries == model_set.registry.entries
            assert loaded.models == model_set.models
            for code, model in model_set.models.items():
                for domain, table in model.domains.items():
                    assert loaded.models[code].domains[domain] == table

            second = tmp_path / f"m{i}_again"
            save_models(loaded, second)
            first_files = sorted(p for p in first.rglob("*") if p.is_file())
            for file in first_files:
                twin = second / file.relative_to(first)
                assert twin.read_bytes() == file.read_bytes()


def test_criterion_10_chunking_never_changes_output(
    crawl_models, tmp_path, capsys, monkeypatch
):
    with criterion(10, "10,000 sentences, CLI rows = library rows, chunk 64 = 256", 30.0):
        model_dir = tmp_path / "models"
        save_models(crawl_models, model_dir)

        rng = random.Random(10_000)
        vocab = [
            word
            for code in ALPHABETS
            for sentence in disjoint_sentences(code, 20)
            for word in sentence.split()
        ]
        src = tmp_path / "sentences.txt"
        src.write_text(
            "".join(
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8))) + "\n"
                for _ in range(10_000)
            ),
            encoding="utf-8",
        )

        out = tmp_path / "out.tsv"
        code = main(
            [
                "identify",
                "--models", str(model_dir),
                "--input", str(src),
                "--out", str(out),
                "--scores",
            ]
        )
        capsys.readouterr()
        assert code == 0
        sentences = src.read_text(encoding="utf-8").splitlines()
        direct = identify_batch(sentences, crawl_models)
        assert out.read_bytes() == "".join(
            format_prediction(i, prediction, True) + "\n" for i, prediction in enumerate(direct)
        ).encode("utf-8")
        assert len(direct) == 10_000

        # smaller chunks, on a fresh model set so that every word is scored anew
        monkeypatch.setattr(features, "_CHUNK_SIZE", 64)
        assert identify_batch(sentences[:2_000], load_models(model_dir)) == direct[:2_000]
