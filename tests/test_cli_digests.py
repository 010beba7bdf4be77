"""sha256 pins of the CLI's output bytes on one seeded input.

The models cover the five disjoint helper languages plus a CJK one; the
stream and the crawl mix clean, code-switched, CJK, empty and letter-free
lines. The `train` pin covers every byte of the model directory. A pin
changes only when an output byte does, so a change that means
to alter output must say why and re-pin here.
"""

from __future__ import annotations

import base64
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import uralid
from helpers import ALPHABETS, disjoint_sentences, make_registry
from uralid.cli import main
from uralid.registry import save_registry

CJK_CHARS = "日本語中文漢字東京大学書道茶花山川"
CODES = (*ALPHABETS, "cmn")

DIGESTS = {
    "identify --scores": "21c45234cd1fbce552d04b69527c8599a18fac7a0b300980d18b74e0a3b09912",
    "identify --candidates fkv --scores": "5d5810f1b73675712381f67376cd1c62c2a83a971fb91925122a6cd728681945",
    "pipeline": "37894319f9e444d76813ab5d4956947229cc451df7dc59df9559d3decdb24a7b",
    "train": "7f532ad90b4f4af4b363502a72bb6f4b9d6834f836384c78d0decbdfbcb0077c",
}


def cjk_sentence(rng: random.Random) -> str:
    return " ".join(
        "".join(rng.choice(CJK_CHARS) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    )


def sentence(rng: random.Random) -> str:
    """A clean, code-switched, CJK, empty or letter-free line."""
    kind = rng.random()
    codes = list(ALPHABETS)
    if kind < 0.5:
        return rng.choice(disjoint_sentences(rng.choice(codes), 30, words=rng.randint(1, 6)))
    if kind < 0.75:
        words = [
            "".join(rng.choice(ALPHABETS[rng.choice(codes)]) for _ in range(rng.randint(1, 7)))
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.3:
            words.append(cjk_sentence(rng))
        return " ".join(words)
    if kind < 0.9:
        return cjk_sentence(rng)
    return rng.choice(["", "123 456", "... !", "  "])


def train_argv(root: Path, out: Path) -> list[str]:
    return ["train", "--registry", str(root / "registry.tsv"), "--corpora", str(root / "corpora"),
            "--out", str(out), "--n-max", "4"]


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    rng = random.Random(20)
    registry = root / "registry.tsv"
    save_registry(make_registry(codes=CODES, cjk={"cmn"}), registry)
    corpora = root / "corpora"
    corpora.mkdir()
    for code in ALPHABETS:
        lines = disjoint_sentences(code, 40)
        (corpora / f"{code}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (corpora / "cmn.txt").write_text(
        "\n".join(cjk_sentence(rng) for _ in range(40)) + "\n", encoding="utf-8"
    )
    models = root / "models"
    assert main(train_argv(root, models)) == 0

    stream = root / "stream.txt"
    stream.write_text("\n".join(sentence(rng) for _ in range(400)) + "\n", encoding="utf-8")

    pages = []
    for i in range(40):
        main_code = rng.choice(list(ALPHABETS))
        clean = disjoint_sentences(main_code, 30)
        lines = [rng.choice(clean) + "." for _ in range(rng.randint(1, 6))]
        lines += [sentence(rng) + rng.choice([".", "!", ""]) for _ in range(rng.randint(0, 3))]
        rng.shuffle(lines)
        text = "\n".join(lines).encode("utf-8")
        pages.append(f"p{i}\t{base64.b64encode(text).decode('ascii')}\n")
    crawl = root / "crawl.tsv"
    crawl.write_text("".join(pages), encoding="utf-8")
    return {"root": root, "models": models, "stream": stream, "crawl": crawl}


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def directory_sha256(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    sha = hashlib.sha256()
    for file in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(file.relative_to(directory).as_posix().encode())
        sha.update(file.read_bytes())
    return sha.hexdigest()


def test_train_model_bytes_are_pinned(seeded):
    assert directory_sha256(seeded["models"]) == DIGESTS["train"]


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_train_bytes_do_not_follow_the_hash_seed(seeded, hash_seed):
    out = seeded["root"] / f"models-hashseed-{hash_seed}"
    src = str(Path(uralid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "uralid", *train_argv(seeded["root"], out)],
                          capture_output=True, text=True, encoding="utf-8", env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert directory_sha256(out) == DIGESTS["train"]


@pytest.mark.parametrize("name", ["identify --scores", "identify --candidates fkv --scores"])
def test_identify_output_bytes_are_pinned(seeded, capsys, name):
    argv = ["identify", "--models", str(seeded["models"]), "--input", str(seeded["stream"])]
    argv += name.split()[1:]
    capsys.readouterr()
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == DIGESTS[name]


def test_pipeline_output_report_and_stdout_are_pinned(seeded, capsys):
    out = seeded["root"] / "sentences.tsv"
    report = seeded["root"] / "report.tsv"
    argv = ["pipeline", "--pages", str(seeded["crawl"]), "--models", str(seeded["models"]),
            "--out", str(out), "--report", str(report)]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    payload = out.read_text(encoding="utf-8") + report.read_text(encoding="utf-8") + printed
    assert sha256(payload) == DIGESTS["pipeline"]
