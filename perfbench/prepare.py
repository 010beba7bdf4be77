"""Set-up of one workload: write its seeded inputs and train the models.

Runs as its own process, so that the measured process starts from the
same state on every run and set-up memory does not count toward its peak
RSS. The timed part is input generation plus one in-process
``uralid train``. After it, untimed, ``load_models`` of the trained output
must equal the ``ModelSet`` training returned. Prints one JSON line: the
set-up seconds, the number of training tokens in each training shard, and
a digest of every file written, which must be the same for the same seed,
under any hash seed.

    python3 perfbench/prepare.py <workload> <seed> <work directory>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Sizes:
    """Input sizes of a workload; the large one names the workload."""

    train_sentences: int  # per language
    stream_sentences: int
    crawl_pages: int


WORKLOADS = {
    "identify-zipf55": Sizes(train_sentences=150, stream_sentences=3000, crawl_pages=10),
    "pipeline-crawl55": Sizes(train_sentences=100, stream_sentences=1000, crawl_pages=60),
}

# Label rows given to `uralid evaluate`, the same on every workload.
EVALUATE_LABELS = 60000
# A measured round trains one shard, a fifth of the languages, so that a
# round stays short and training samples spread over the whole run.
TRAIN_SHARDS = 5
SETUP_TIMEOUT_S = 150


def paths(work: Path) -> dict[str, Path]:
    return {
        "corpora": work / "corpora",
        "shards": work / "shards",
        "models": work / "models",
        "stream": work / "stream.txt",
        "gold": work / "gold.tsv",
        "crawl": work / "crawl.tsv",
    }


def train_shards(registry) -> list[list[str]]:
    """The registry's languages in TRAIN_SHARDS groups, the CJK ones spread evenly."""
    cjk = [code for code in registry.codes() if registry.is_cjk(code)]
    other = [code for code in registry.codes() if not registry.is_cjk(code)]
    return [cjk[i::TRAIN_SHARDS] + other[i::TRAIN_SHARDS] for i in range(TRAIN_SHARDS)]


def tiled(items: list, count: int) -> list:
    return [items[i % len(items)] for i in range(count)]


def digest(directory: Path) -> str:
    sha = hashlib.sha256()
    for file in sorted(p for p in directory.rglob("*") if p.is_file()):
        sha.update(file.relative_to(directory).as_posix().encode())
        sha.update(file.read_bytes())
    return sha.hexdigest()


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_cli(argv: list[str]) -> str:
    """Run ``uralid <argv>`` in-process; return its stdout, fail on a non-zero exit."""
    from uralid import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"uralid {argv[0]} exited with {code}: {err.getvalue().strip()}")
    return out.getvalue()


def prepare(workload: str, seed: int, work: Path) -> dict:
    from uralid import cli, models
    from uralid.features import tokenize
    from uralid.registry import default_registry

    import zipf

    sizes = WORKLOADS[workload]
    where = paths(work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    started = time.perf_counter()
    registry = default_registry()
    text = zipf.ZipfText(registry, seed)
    corpora = text.corpora(sizes.train_sentences)
    zipf.write_corpora(where["corpora"], corpora)
    shards = train_shards(registry)
    for number, codes in enumerate(shards):
        shard = where["shards"] / str(number)
        shard.mkdir(parents=True)
        for file in where["corpora"].iterdir():
            if file.stem in codes:
                (shard / file.name).write_bytes(file.read_bytes())
    stream = text.stream(sizes.stream_sentences)
    zipf.write_lines(where["stream"], (sentence for _, sentence in stream))
    zipf.write_lines(
        where["gold"], (f"{s}\t{code}" for code, s in tiled(stream, EVALUATE_LABELS))
    )
    zipf.write_crawl(where["crawl"], text.crawl(sizes.crawl_pages))
    trained = []
    original = cli.train_models

    def capture(*args, **kwargs):
        trained.append(original(*args, **kwargs))
        return trained[-1]

    cli.train_models = capture
    try:
        run_cli(["train", "--corpora", str(where["corpora"]), "--out", str(where["models"])])
    finally:
        cli.train_models = original
    setup_s = time.perf_counter() - started

    check(
        models.load_models(where["models"]) == trained[0],
        "load_models of the trained output differs from the trained ModelSet",
    )
    return {
        "setup_s": setup_s,
        "shard_tokens": [
            sum(len(tokenize(s)) for code in codes for s in corpora[code]) for codes in shards
        ],
        "digest": digest(work),
    }


def run_setups(workload: str, seed: int, work: Path, repeats: int) -> list[dict]:
    """Set up ``repeats`` times, each in a fresh process with its own hash seed.

    Each must write the same bytes, so neither generation nor training may
    depend on set or dict order that follows the hash seed.
    """
    results = []
    for repeat in range(repeats):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": str(repeat + 1)},
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up exited with {done.returncode}: {done.stderr.strip()}")
        results.append(json.loads(done.stdout.splitlines()[-1]))
        if results[-1]["digest"] != results[0]["digest"]:
            raise RuntimeError("set-up wrote different inputs for the same seed")
    return results


def main(argv: list[str]) -> int:
    workload, seed, work = argv
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    print(json.dumps(prepare(workload, int(seed), Path(work))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
