"""Fuzz the CLI's file and stdin readers with line ends, control characters,
invalid bytes, encoded surrogates and a very long line.

Every command must end with exit code 0, 1 or 2 and never raise. When
``identify`` succeeds it writes one row per record; records are counted with
Python's universal-newline text reader, independently of the program.
"""

import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import disjoint_sentences, make_registry
from uralid.cli import main
from uralid.registry import save_registry

PIECES = [
    b"\r", b"\n", b"\r\n", b"\x00", b"\x0c", b"\t", b" ",
    "\u0085".encode(), "\u2028".encode(),
    b"\xff", b"\xc3", b"\xe2\x80",  # invalid or truncated UTF-8
    "\ud800".encode("utf-8", "surrogatepass"),
    b"a" * 10_000,
    b"abba dede", b"figi", b"fkv", b"izh", b"\xc3\xa4",
    b"u1\tYWJiYQ==",  # a well-formed pipeline page: url<TAB>base64("abba")
    b"fkv\tFKV\t1", b"izh\tIZH\t0",  # well-formed registry rows
]

FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

fuzz_bytes = st.lists(st.sampled_from(PIECES), max_size=12).map(b"".join)


def record_count(data: bytes) -> int:
    return len(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None).readlines())


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    registry = root / "registry.tsv"
    save_registry(make_registry(), registry)
    corpora = root / "corpora"
    corpora.mkdir()
    for code in ("fkv", "izh"):
        (corpora / f"{code}.txt").write_text(
            "\n".join(disjoint_sentences(code, 10)) + "\n", encoding="utf-8"
        )
    models = root / "models"
    argv = ["train", "--registry", str(registry), "--corpora", str(corpora),
            "--out", str(models), "--n-max", "2"]
    assert run(argv)[0] == 0
    return {"root": root, "registry": registry, "corpora": corpora, "models": models}


def run(argv, stdin=b""):
    """``main(argv)`` with the given stdin bytes; returns (exit code, stdout)."""
    out = io.StringIO()
    stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with mock.patch.object(sys, "stdin", stream), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2)
    return code, out.getvalue()


@FUZZ
@given(data=fuzz_bytes)
def test_identify_input_file_writes_one_row_per_record(workspace, data):
    src = workspace["root"] / "input.txt"
    src.write_bytes(data)
    out = workspace["root"] / "identified.tsv"
    code, _ = run(["identify", "--models", workspace["models"], "--input", src, "--out", out])
    if code == 0:
        assert len(out.read_text(encoding="utf-8").splitlines()) == record_count(data)


@FUZZ
@given(data=fuzz_bytes)
def test_identify_stdin_writes_one_row_per_record(workspace, data):
    code, printed = run(["identify", "--models", workspace["models"]], stdin=data)
    if code == 0:
        assert len(printed.splitlines()) == record_count(data)


@FUZZ
@given(gold=fuzz_bytes, pred=fuzz_bytes)
def test_evaluate_never_raises(workspace, gold, pred):
    paths = workspace["root"] / "gold.tsv", workspace["root"] / "pred.tsv"
    paths[0].write_bytes(gold)
    paths[1].write_bytes(pred)
    run(["evaluate", "--gold", paths[0], "--pred", paths[1], "--registry", workspace["registry"]])


@FUZZ
@given(data=fuzz_bytes)
def test_pipeline_pages_tsv_never_raises(workspace, data):
    pages = workspace["root"] / "pages.tsv"
    pages.write_bytes(data)
    run(["pipeline", "--pages", pages, "--models", workspace["models"],
         "--out", workspace["root"] / "sentences.tsv"])


@FUZZ
@given(data=fuzz_bytes)
def test_train_registry_never_raises(workspace, data):
    registry = workspace["root"] / "fuzzed-registry.tsv"
    registry.write_bytes(data)
    run(["train", "--registry", registry, "--corpora", workspace["corpora"],
         "--out", workspace["root"] / "registry-models", "--n-max", "1"])


@FUZZ
@given(data=fuzz_bytes)
def test_train_corpus_never_raises(workspace, data):
    corpora = workspace["root"] / "fuzzed-corpora"
    corpora.mkdir(exist_ok=True)
    (corpora / "fkv.txt").write_bytes(data)
    run(["train", "--registry", workspace["registry"], "--corpora", corpora,
         "--out", workspace["root"] / "corpus-models", "--n-max", "1"])
