"""Tests of the benchmark's text generator.

    python3 -m pytest perfbench/test_zipf.py
"""

from __future__ import annotations

import random
import string
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from uralid.features import tokenize  # noqa: E402
from uralid.identifier import cjk_ratio  # noqa: E402
from uralid.registry import default_registry  # noqa: E402

import prepare  # noqa: E402
import zipf  # noqa: E402

REGISTRY = default_registry()


def write_all(text: zipf.ZipfText, directory: Path) -> str:
    zipf.write_corpora(directory / "corpora", text.corpora(20))
    zipf.write_lines(directory / "stream.txt", (s for _, s in text.stream(300)))
    zipf.write_crawl(directory / "crawl.tsv", text.crawl(6))
    return prepare.digest(directory)


def reuse_ratio(sentences) -> float:
    words = [w for s in sentences for w in tokenize(s)]
    return 1 - len(set(words)) / len(words)


def uniform_sentences(count: int, rng: random.Random) -> list[str]:
    """The generator the earlier backend bench used: uniform letters, no vocabulary."""
    return [
        " ".join(
            "".join(rng.choice(string.ascii_lowercase[:14]) for _ in range(rng.randint(2, 9)))
            for _ in range(rng.randint(1, 8))
        )
        for _ in range(count)
    ]


def test_same_seed_gives_same_bytes(tmp_path):
    first = write_all(zipf.ZipfText(REGISTRY, 7), tmp_path / "a")
    again = write_all(zipf.ZipfText(REGISTRY, 7), tmp_path / "b")
    other = write_all(zipf.ZipfText(REGISTRY, 8), tmp_path / "c")
    assert first == again
    assert first != other


def test_every_registry_language_appears():
    text = zipf.ZipfText(REGISTRY, 1)
    corpora = text.corpora(5)
    assert list(corpora) == REGISTRY.codes()
    assert all(len(sentences) == 5 and all(sentences) for sentences in corpora.values())
    assert {code for code, _ in text.stream(3000)} == set(REGISTRY.codes())


def test_cjk_languages_trip_the_cjk_rule_and_others_do_not():
    text = zipf.ZipfText(REGISTRY, 1)
    for code, sentences in text.corpora(20).items():
        ratios = [cjk_ratio(s, REGISTRY.cjk_blocks) for s in sentences]
        if REGISTRY.is_cjk(code):
            assert min(ratios) > 0.5, code
        else:
            assert max(ratios) == 0.0, code
    assert {code for code in REGISTRY.codes() if REGISTRY.is_cjk(code)} == {"cmn", "jpn", "kor", "wuu", "yue"}


def test_word_reuse_far_above_uniform_generator():
    count = prepare.WORKLOADS["identify-zipf55"].stream_sentences
    zipfian = reuse_ratio(s for _, s in zipf.ZipfText(REGISTRY, 1).stream(count))
    uniform = reuse_ratio(uniform_sentences(count, random.Random(1)))
    assert zipfian > 2 * uniform


def test_crawl_repeats_boilerplate_and_has_multi_sentence_lines():
    pages = zipf.ZipfText(REGISTRY, 3).crawl(40)
    assert len({url for url, _ in pages}) == 40
    lines = [line for _, text in pages for line in text.splitlines()]
    assert len(set(lines)) < len(lines)  # boilerplate repeats across pages
    assert any(line.count(".") > 1 for line in lines)  # multi-sentence lines
