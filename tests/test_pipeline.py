import base64
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ALPHABETS, disjoint_model_set, disjoint_sentences, make_registry
from uralid import features, identifier
from uralid.corpus import Corpus
from uralid.errors import DataError
from uralid.features import tokenize
from uralid.identifier import identify
from uralid.models import HeliParams, ModelSet, train_models
from uralid.pipeline import (
    LabeledLine,
    LabeledSentence,
    Page,
    PipelineReport,
    format_report,
    load_pages,
    page_lines,
    restricted_candidates,
    run_pipeline,
    split_sentences,
    stage1_filter_pages,
    stage2_dedup_lines,
    stage3_filter_lines,
    stage4_extract_sentences,
    stage5_label_sentences,
    write_report,
    write_sentences,
)


@pytest.fixture(scope="module")
def models():
    return disjoint_model_set(codes=("fkv", "izh", "vep", "swe", "fin"))


def sentences_of(code, count=20):
    return disjoint_sentences(code, count)


# --- domain types -------------------------------------------------------------


def test_labeled_line_requires_languages():
    with pytest.raises(ValueError):
        LabeledLine(text="x", known_languages=frozenset())


def test_report_rejects_non_monotone_funnel():
    with pytest.raises(ValueError, match="monotone"):
        PipelineReport(1, 2, 0, 0, 0, 0, 0, 0)


# --- stage 1 ------------------------------------------------------------------


def test_stage1_keeps_relevant_pages_and_sets_language(models):
    fkv = sentences_of("fkv")
    pages = [Page(url="a", text="\n".join(fkv[:3]))]
    kept = stage1_filter_pages(pages, models)
    assert len(kept) == 1
    assert kept[0].page_language == "fkv"
    assert kept[0].url == "a"


def test_stage1_drops_pure_non_relevant_pages(models):
    swe = sentences_of("swe")
    pages = [Page(url="a", text="\n".join(swe[:3]))]
    assert stage1_filter_pages(pages, models) == []


def test_stage1_drops_below_min_share(models):
    # 2 chars of vep against 198 of swe: share 0.01 < 0.02
    text = "pq\n" + "klmno " * 33
    assert stage1_filter_pages([Page(url="a", text=text)], models) == []
    kept = stage1_filter_pages([Page(url="a", text=text)], models, min_share=0.01)
    assert kept and kept[0].page_language == "vep"


def test_stage1_most_prominent_relevant_wins(models):
    # fkv 30 chars, vep 20, swe 50: fkv is the most prominent relevant
    text = "a" * 30 + "\n" + "p" * 20 + "\n" + "k" * 50
    kept = stage1_filter_pages([Page(url="a", text=text)], models)
    assert kept[0].page_language == "fkv"


def test_stage1_boundary_share_is_inclusive(models):
    # 98 chars won by fin (non-relevant), 2 by vep: share 0.02 reaches the
    # threshold ("at least"), so vep is the page language
    fin_line = "uvwxy " * 16 + "uv"
    assert len(fin_line) == 98
    kept = stage1_filter_pages([Page(url="a", text=fin_line + "\npq")], models)
    assert [page.page_language for page in kept] == ["vep"]


def test_stage1_share_tie_goes_to_registry_order(models):
    # fkv and vep win 10 chars each, swe 20
    text = "abcd eabcd\npqrs tpqrs\nklmn oklmnoklmn klmn"
    kept = stage1_filter_pages([Page(url="a", text=text)], models)
    assert [page.page_language for page in kept] == ["fkv"]


def test_stage1_drops_empty_and_whitespace_pages(models):
    pages = [Page(url="a", text=""), Page(url="b", text="  \n\t\n\n")]
    assert stage1_filter_pages(pages, models) == []


@pytest.mark.parametrize("pages", [[], [Page(url="a", text="abba")]], ids=["empty", "one-page"])
@pytest.mark.parametrize("min_share", [0.0, 1.5])
def test_stage1_checks_min_share_with_or_without_pages(models, pages, min_share):
    with pytest.raises(ValueError, match=r"min_share must be in \(0, 1\]"):
        stage1_filter_pages(pages, models, min_share=min_share)


def shuffled_crawl():
    """Pages of mixed, CJK-heavy, empty and duplicate text, and models that know cmn."""
    registry = make_registry(codes=[*ALPHABETS, "cmn"], cjk={"cmn"})
    corpora = [
        Corpus(language=code, sentences=tuple(disjoint_sentences(code, 10)))
        for code in ALPHABETS
    ]
    corpora.append(Corpus(language="cmn", sentences=("日本語 中文", "漢字 日本", "中文 漢字")))
    cjk_models = train_models(corpora, HeliParams(n_max=3), registry)
    rng = random.Random(11)
    pool = [s for code in ALPHABETS for s in disjoint_sentences(code, 4, seed=1)]
    pool += ["日本語 中文 漢字", "ab 日本語中文", "", "   ", "\t"]
    texts = ["", "  \n \t\n", "日本語\n中文 漢字\nab"]
    texts += ["\n".join(rng.choice(pool) for _ in range(rng.randint(1, 6))) for _ in range(30)]
    texts += texts[3:8]  # duplicate texts under other urls
    pages = [Page(url=f"p{i}", text=text) for i, text in enumerate(texts)]
    rng.shuffle(pages)
    return pages, cjk_models


def test_stage1_over_a_crawl_equals_stage1_page_by_page():
    # chunks over every page's lines must split back at the right page offsets
    pages, cjk_models = shuffled_crawl()
    expected = [kept for page in pages for kept in stage1_filter_pages([page], cjk_models)]
    assert 0 < len(expected) < len(pages)
    assert len({page.page_language for page in expected}) == 3
    assert stage1_filter_pages(pages, cjk_models) == expected


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_stage1_keeps_the_same_pages_for_any_chunk_size(monkeypatch, chunk):
    pages, cjk_models = shuffled_crawl()
    expected = stage1_filter_pages(pages, cjk_models)
    sizes = []
    predict = identifier.Scorer.predict

    def counting_predict(self, sentences, rows, codes):
        sizes.append(len(sentences))
        return predict(self, sentences, rows, codes)

    monkeypatch.setattr(features, "_CHUNK_SIZE", chunk)
    monkeypatch.setattr(identifier.Scorer, "predict", counting_predict)
    assert stage1_filter_pages(pages, cjk_models) == expected
    assert sum(sizes) == sum(len(page_lines(page)) for page in pages) > 7
    assert max(sizes) <= chunk


# --- stage 2 ------------------------------------------------------------------


def test_stage2_unions_labels_of_duplicate_lines():
    pages = [
        Page(url="a", text="shared line\nonly here", page_language="fkv"),
        Page(url="b", text="shared line", page_language="izh"),
    ]
    lines = stage2_dedup_lines(pages)
    assert lines == [
        LabeledLine("shared line", frozenset({"fkv", "izh"})),
        LabeledLine("only here", frozenset({"fkv"})),
    ]


def test_stage2_same_page_repeat_collapses():
    pages = [Page(url="a", text="dup\ndup\n\n  \n", page_language="vep")]
    assert stage2_dedup_lines(pages) == [LabeledLine("dup", frozenset({"vep"}))]


def test_stage2_requires_page_language():
    with pytest.raises(ValueError, match="stage 1"):
        stage2_dedup_lines([Page(url="a", text="x")])


def test_stage2_is_idempotent():
    pages = [
        Page(url="a", text="one\ntwo\none", page_language="fkv"),
        Page(url="b", text="two", page_language="vep"),
    ]
    once = stage2_dedup_lines(pages)
    again = stage2_dedup_lines(
        [Page(url=str(i), text=line.text, page_language=sorted(line.known_languages)[0])
         for i, line in enumerate(once)]
    )
    assert [line.text for line in again] == [line.text for line in once]


# --- stage 3 ------------------------------------------------------------------


def test_stage3_keeps_lines_where_a_relevant_language_wins(models):
    fkv = sentences_of("fkv")
    lines = [LabeledLine(fkv[0], frozenset({"fkv"}))]
    kept = stage3_filter_lines(lines, models)
    assert kept == [LabeledLine(fkv[0], frozenset({"fkv"}))]


def test_stage3_drops_lines_won_by_non_relevant(models):
    swe = sentences_of("swe")
    lines = [LabeledLine(swe[0], frozenset({"fkv"}))]
    assert stage3_filter_lines(lines, models) == []


def test_stage3_narrows_to_observed_winners(models):
    fkv = sentences_of("fkv")
    lines = [LabeledLine(fkv[0], frozenset({"fkv", "vep"}))]
    kept = stage3_filter_lines(lines, models)
    assert kept[0].known_languages == frozenset({"fkv"})


def test_stage3_restriction_excludes_other_relevant(models):
    # an izh line whose known set lacks izh cannot be claimed by izh
    izh = sentences_of("izh")
    lines = [LabeledLine(izh[0], frozenset({"fkv"}))]
    kept = stage3_filter_lines(lines, models)
    for line in kept:
        assert "izh" not in line.known_languages


def test_stage3_equals_per_line_restricted_identification(models):
    # every language's lines, plus mixed ones, under repeated known-language sets, shuffled
    known_sets = [
        frozenset(s) for s in ({"fkv"}, {"izh"}, {"vep"}, {"fkv", "vep"}, {"fkv", "izh", "vep"})
    ]
    texts = [s for code in ALPHABETS for s in disjoint_sentences(code, 6, seed=1)]
    texts += [
        f"{a} {b}"
        for a, b in zip(disjoint_sentences("fkv", 6, seed=2), disjoint_sentences("vep", 6, seed=2))
    ]
    lines = [LabeledLine(text, known_sets[i % len(known_sets)]) for i, text in enumerate(texts)]
    random.Random(3).shuffle(lines)
    expected = []
    for line in lines:
        candidates = restricted_candidates(models, line.known_languages)
        winner = identify(line.text, models, candidates).winner
        if models.registry.is_relevant(winner):
            expected.append(LabeledLine(line.text, frozenset({winner})))
    assert {lang for line in expected for lang in line.known_languages} == {"fkv", "izh", "vep"}
    assert stage3_filter_lines(lines, models) == expected


# --- stage 4 ------------------------------------------------------------------


def test_split_keeps_terminators_with_sentence():
    assert split_sentences("Tere. Tsau!") == ["Tere.", "Tsau!"]


def test_split_drops_letterless_fragments():
    assert split_sentences("20:35 .") == []


def test_split_without_terminator_is_whole_line():
    assert split_sentences("Abc") == ["Abc"]


def test_split_maximal_terminator_runs():
    assert split_sentences("Mitä?! Ei... Jaa") == ["Mitä?!", "Ei...", "Jaa"]


def test_split_requires_whitespace_or_end_after_run():
    assert split_sentences("luku 3.14 on tuttu.") == ["luku 3.14 on tuttu."]


def test_split_handles_ellipsis_char():
    assert split_sentences("No… Joo.") == ["No…", "Joo."]


def test_split_after_unicode_whitespace():
    assert split_sentences("Tere.\u3000Tsau!\u2028Jah") == ["Tere.", "Tsau!", "Jah"]


def reference_split_sentences(text):
    """Reference splitter, a loop over matches: cut after each maximal terminator
    run that whitespace or the end follows, keep the stripped lettered parts."""
    parts = []
    start = 0
    for match in re.finditer(r"[.!?…]+(?=\s|$)", text):
        parts.append(text[start : match.end()])
        start = match.end()
    if start < len(text):
        parts.append(text[start:])
    sentences = []
    for part in parts:
        part = part.strip()
        if part and any(ch.isalpha() for ch in part):
            sentences.append(part)
    return sentences


@settings(max_examples=500, deadline=None)
@given(st.text(".!?…abä12 \t\u0085\u00a0\u2028\u3000", max_size=30))
def test_split_equals_the_reference_loop(text):
    assert split_sentences(text) == reference_split_sentences(text)


def test_stage4_inherits_labels():
    line = LabeledLine("Tere. Tsau!", frozenset({"fkv", "vep"}))
    pieces = stage4_extract_sentences(line)
    assert [p.text for p in pieces] == ["Tere.", "Tsau!"]
    assert all(p.known_languages == line.known_languages for p in pieces)


# --- stage 5 ------------------------------------------------------------------


def test_stage5_labels_majority_language(models):
    fkv = sentences_of("fkv")
    kept = stage5_label_sentences([LabeledLine(fkv[0], frozenset({"fkv"}))], models)
    assert kept == [LabeledSentence(fkv[0], "fkv")]


def test_stage5_even_split_is_dropped(models):
    fkv_words = sentences_of("fkv")[0].split()[:2]
    swe_words = sentences_of("swe")[0].split()[:2]
    text = " ".join(fkv_words + swe_words)
    kept = stage5_label_sentences([LabeledLine(text, frozenset({"fkv"}))], models)
    assert kept == []


def test_stage5_non_relevant_majority_is_dropped(models):
    fkv_words = sentences_of("fkv")[0].split()[:1]
    swe_words = sentences_of("swe")[0].split()[:2]
    text = " ".join(fkv_words + swe_words)
    kept = stage5_label_sentences([LabeledLine(text, frozenset({"fkv"}))], models)
    assert kept == []


def test_stage5_drops_a_sentence_without_letters(models):
    fkv = sentences_of("fkv")[0]
    sentences = [LabeledLine("12 34", frozenset({"fkv"})), LabeledLine(fkv, frozenset({"fkv"}))]
    assert stage5_label_sentences(sentences, models) == [LabeledSentence(fkv, "fkv")]


def test_stage5_single_word_sentence(models):
    word = sentences_of("vep")[0].split()[0]
    kept = stage5_label_sentences([LabeledLine(word, frozenset({"vep"}))], models)
    assert kept == [LabeledSentence(word, "vep")]


def test_stage5_equals_per_sentence_word_majority(models):
    # sentences of every language, plus mixed ones, under repeated known-language sets, shuffled
    known_sets = [
        frozenset(s) for s in ({"fkv"}, {"izh"}, {"vep"}, {"fkv", "vep"}, {"fkv", "izh", "vep"})
    ]
    texts = [s for code in ALPHABETS for s in disjoint_sentences(code, 6, seed=1)]
    texts += [
        f"{a} {b} {c}"
        for a, b, c in zip(
            disjoint_sentences("fkv", 6, seed=2, words=1),
            disjoint_sentences("vep", 6, seed=2, words=1),
            disjoint_sentences("vep", 6, seed=3, words=1),
        )
    ]
    sentences = [
        LabeledLine(text, known_sets[i % len(known_sets)]) for i, text in enumerate(texts)
    ]
    random.Random(5).shuffle(sentences)
    expected = []
    for sentence in sentences:
        # a one-word sentence's winner is the word's winner
        candidates = restricted_candidates(models, sentence.known_languages)
        winners = [identify(word, models, candidates).winner for word in tokenize(sentence.text)]
        top, count = Counter(winners).most_common(1)[0]
        if 2 * count > len(winners) and models.registry.is_relevant(top):
            expected.append(LabeledSentence(sentence.text, top))
    assert {s.language for s in expected} == {"fkv", "izh", "vep"}
    assert len(expected) < len(sentences)
    assert stage5_label_sentences(sentences, models) == expected


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_stages_3_and_5_give_the_same_output_for_any_chunk_size(models, monkeypatch, chunk):
    # two known-language sets, so each group spans several chunks of 7
    known_sets = [frozenset({"fkv", "vep"}), frozenset({"fkv", "izh", "vep"})]
    texts = [s for code in ALPHABETS for s in disjoint_sentences(code, 6, seed=4)]
    texts += [f"{a} {b}" for a, b in zip(disjoint_sentences("fkv", 6, seed=5),
                                          disjoint_sentences("vep", 6, seed=5))]
    lines = [LabeledLine(text, known_sets[i % 2]) for i, text in enumerate(texts)]
    random.Random(6).shuffle(lines)
    expected = stage3_filter_lines(lines, models), stage5_label_sentences(lines, models)
    assert expected[0] and expected[1] and len(lines) > 2 * 7

    monkeypatch.setattr(features, "_CHUNK_SIZE", chunk)
    fresh = ModelSet(models.params, models.models, models.registry)  # an empty word cache
    assert (stage3_filter_lines(lines, fresh), stage5_label_sentences(lines, fresh)) == expected


# --- run_pipeline -------------------------------------------------------------


def test_empty_crawl_gives_zero_report(models):
    sentences, report = run_pipeline([], models)
    assert sentences == []
    assert report == PipelineReport(0, 0, 0, 0, 0, 0, 0, 0)


def test_duplicate_urls_rejected(models):
    pages = [Page(url="a", text="x"), Page(url="a", text="y")]
    with pytest.raises(DataError, match="duplicate"):
        run_pipeline(pages, models)


def test_three_page_crawl_hand_trace(models):
    fkv = sentences_of("fkv")
    swe = sentences_of("swe")
    s0, s1, s2 = fkv[0], fkv[1], fkv[2]
    w0, w1 = swe[0], swe[1]

    pages = [
        Page(url="u1", text=f"{s0}. {s1}!\n{w0}"),
        Page(url="u2", text=f"{s0}. {s1}!\n{s2}"),
        Page(url="u3", text=w1),
    ]
    sentences, report = run_pipeline(pages, models)

    # u3 is pure swe and falls at stage 1; the duplicate first line of
    # u1/u2 collapses; w0 falls at stage 3; the survivor splits into
    # three sentences, all fkv.
    assert report == PipelineReport(
        pages_in=3,
        pages_retained=2,
        lines_total=4,
        lines_unique=3,
        lines_retained=2,
        sentences_extracted=3,
        sentences_unique=3,
        sentences_labeled=3,
    )
    assert sentences == [
        LabeledSentence(f"{s0}.", "fkv"),
        LabeledSentence(f"{s1}!", "fkv"),
        LabeledSentence(s2, "fkv"),
    ]


def test_pipeline_is_deterministic(models):
    fkv = sentences_of("fkv")
    pages = [Page(url=str(i), text=f"{fkv[i]}. {fkv[i + 1]}") for i in range(4)]
    first = run_pipeline(pages, models)
    second = run_pipeline(pages, models)
    assert first == second


def test_funnel_monotone_on_random_crawls(models):
    rng = random.Random(55)
    vocab = [w for code in ALPHABETS for w in sentences_of(code, 5)]
    for _ in range(30):
        pages = []
        for p in range(rng.randint(0, 5)):
            lines = []
            for _ in range(rng.randint(0, 6)):
                parts = [rng.choice(vocab) for _ in range(rng.randint(1, 3))]
                lines.append(rng.choice(["", ". ", "! "]).join(parts))
            pages.append(Page(url=f"p{p}", text="\n".join(lines)))
        run_pipeline(pages, models)  # PipelineReport validates the funnel


# --- I/O ----------------------------------------------------------------------


def test_page_lines_break_where_str_splitlines_does():
    # unlike the record rule for files, page text also breaks at form feed, U+0085 and U+2028
    text = "one\x0ctwo\x85three\u2028four\u2029five\r\nsix\n\n  \nseven"
    assert page_lines(Page(url="u", text=text)) == [
        "one", "two", "three", "four", "five", "six", "seven"
    ]


def test_load_pages_from_tsv(tmp_path):
    payload = base64.b64encode("tere\nmaailm".encode()).decode()
    path = tmp_path / "pages.tsv"
    path.write_text(f"u1\t{payload}\n\n", encoding="utf-8")
    pages = load_pages(path)
    assert pages == [Page(url="u1", text="tere\nmaailm")]


def test_load_pages_from_directory(tmp_path):
    (tmp_path / "bb.txt").write_text("second", encoding="utf-8")
    (tmp_path / "aa.txt").write_text("first", encoding="utf-8")
    (tmp_path / "ignored.dat").write_text("no", encoding="utf-8")
    pages = load_pages(tmp_path)
    assert pages == [Page(url="aa", text="first"), Page(url="bb", text="second")]


@pytest.mark.parametrize("row", ["u1", "u1\tx\ty", "u1\tnot-base64!"])
def test_load_pages_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "pages.tsv"
    path.write_text(row + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="pages.tsv:1"):
        load_pages(path)


def test_write_sentences_format(tmp_path):
    path = tmp_path / "out.tsv"
    write_sentences([LabeledSentence("tere", "fkv")], path)
    assert path.read_text(encoding="utf-8") == "tere\tfkv\n"


def test_write_report_format(tmp_path):
    report = PipelineReport(3, 2, 4, 3, 2, 3, 3, 3)
    path = tmp_path / "report.tsv"
    write_report(report, path)
    text = path.read_text(encoding="utf-8")
    assert text == format_report(report)
    assert text.splitlines()[0] == "pages_in\t3"
    assert text.splitlines()[-1] == "sentences_labeled\t3"
