"""Planted faults that the tests must catch.

Each mutant is a source file, an exact old text in it, the new text that
replaces it, and the test files that must fail once it is in place. Run::

    python tests/mutants.py [name ...]

The runner copies ``src/`` and ``tests/`` into a temporary directory outside
the checkout and runs every named test file there on the unmutated copy,
which must pass. It then applies each mutant alone and runs its test files
with the tier-1 warning settings. It exits 1 when a mutant survives (its
tests pass) or when a mutant's old text does not occur exactly once in its
file, so code that moves takes its mutants along. pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

PYTEST = [
    sys.executable, "-X", "warn_default_encoding", "-m", "pytest", "-q", "-x",
    "-p", "no:cacheprovider", "-p", "no:benchmark",
    "-W", "error", "-W", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


FEATURES, IDENTIFIER, MODELS = "src/uralid/features.py", "src/uralid/identifier.py", "src/uralid/models.py"
TEST_FEATURES, TEST_IDENTIFIER, TEST_MODELS = (
    ("tests/test_features.py",), ("tests/test_identifier.py",), ("tests/test_models.py",)
)

MUTANTS = [
    # tokenizing a chunk in one array pass
    Mutant("text-bounds-from-unlowered-lengths", FEATURES,
           "accumulate((len(text) + 1 for text in lowered)", "accumulate((len(text) + 1 for text in texts)",
           TEST_FEATURES),
    Mutant("texts-joined-without-a-separator", FEATURES,
           'cp = code_points(" ".join(lowered))', 'cp = code_points("".join(lowered))', TEST_FEATURES),
    Mutant("high-code-points-read-as-non-letters", FEATURES,
           "letter[high] = classes[at]", "letter[high] = False", TEST_FEATURES),
    Mutant("word-starts-read-one-code-point-early", FEATURES,
           "np.flatnonzero(letter & ~np.concatenate(([False], letter[:-1])))",
           "np.flatnonzero(letter[1:] & ~letter[:-1])", TEST_FEATURES),
    Mutant("tokenizing-slice-drops-its-last-sentence", MODELS,
           "corpus.sentences[start : start + _TOKENIZE_SLICE]",
           "corpus.sentences[start : start + _TOKENIZE_SLICE - 1]", TEST_MODELS),
    # n-gram windows, shared by training and lookup, and lookup through sorted key arrays
    Mutant("window-start-off-by-one", FEATURES,
           "counts) + np.arange(counts.sum())", "counts) + np.arange(counts.sum()) + 1",
           TEST_IDENTIFIER + TEST_MODELS),
    Mutant("searchsorted-hit-without-equality-check", IDENTIFIER,
           "return np.where(keys[at] == windows, at, -1), counts", "return at, counts", TEST_IDENTIFIER),
    # training: each window counts its word type's count
    Mutant("type-counts-dropped-from-the-windows", MODELS,
           "windows, np.repeat(weights, counts), params.cutoff_c",
           "windows, np.repeat(np.ones_like(weights), counts), params.cutoff_c", TEST_MODELS),
    # model files: strictly ascending features, the width rule at load and at save
    Mutant("order-check-allows-repeats", MODELS,
           "~(column[1:] > column[:-1])", "~(column[1:] >= column[:-1])", TEST_MODELS),
    Mutant("load-drops-width-check", MODELS,
           "rule((tabs - starts != n) | within,", "rule(within,", TEST_MODELS),
    Mutant("save-drops-width-check", MODELS,
           "(cp == 0, lambda feature: _width_fault(feature, n)),", "", TEST_MODELS),
    Mutant("save-allows-repeated-keys", MODELS,
           "~(keys[1:] > keys[:-1])", "~(keys[1:] >= keys[:-1])", TEST_MODELS),
    Mutant("save-drops-width-check-on-dict-tables", MODELS,
           "bad = None if domain == WORD_DOMAIN else _width_rule_breaker(table, joined, int(domain))",
           "bad = None", TEST_MODELS),
    # the word cache: one table per candidate set, dropped past the limit
    Mutant("cache-reset-skipped", IDENTIFIER,
           "_CACHE_LIMIT:\n            self._cache = {}", "_CACHE_LIMIT:\n            pass", TEST_IDENTIFIER),
    Mutant("new-rows-cached-in-wrong-order", IDENTIFIER,
           "where.update(zip(new, range(used, len(domains))))",
           "where.update(zip(reversed(new), range(used, len(domains))))", TEST_IDENTIFIER),
    Mutant("reset-keeps-the-dropped-tables", IDENTIFIER,
           "_CACHE_LIMIT:\n            self._cache = {}",
           "_CACHE_LIMIT:\n            self._cache = {k: ({}, t, []) for k, (_, t, _) in self._cache.items()}",
           TEST_IDENTIFIER),
    Mutant("one-cache-key-for-every-candidate-set", IDENTIFIER,
           "key = rows.tobytes()", 'key = b""', TEST_IDENTIFIER),
    # the CJK rule, counted once per chunk
    Mutant("whitespace-inside-a-block-counts-as-cjk", IDENTIFIER,
           "for m in (cjk & visible, visible))", "for m in (cjk, visible))", TEST_IDENTIFIER),
    Mutant("cjk-half-trips-the-rule", IDENTIFIER,
           "np.where((2 * cjk > visible)", "np.where((2 * cjk >= visible)", TEST_IDENTIFIER),
    Mutant("whitespace-table-stops-at-u3000", IDENTIFIER,
           "[chr(cp).isspace() for cp in range(0x3002)]",
           "[chr(cp).isspace() and cp < 0x3000 for cp in range(0x3002)]", TEST_IDENTIFIER),
    Mutant("shifted-text-bounds", IDENTIFIER,
           "accumulate(map(len, texts), initial=0)", "accumulate(map(len, texts), initial=1)",
           TEST_IDENTIFIER),
    # the oracle's rules: tie-break, penalty, backoff order
    Mutant("ties-go-to-the-last-candidate", IDENTIFIER,
           "zip(means, means.argmin(axis=1).tolist(),",
           "zip(means, (means.shape[1] - 1 - means[:, ::-1].argmin(axis=1)).tolist(),", TEST_IDENTIFIER),
    Mutant("missing-feature-penalty-off-by-one", IDENTIFIER,
           "table = np.full((used.shape[0] + 1, rows.shape[0]), self.penalty)",
           "table = np.full((used.shape[0] + 1, rows.shape[0]), self.penalty + 1)", TEST_IDENTIFIER),
    Mutant("backoff-from-unigrams-up", IDENTIFIER,
           "self._backoff = self.params.domains()[::-1]", "self._backoff = self.params.domains()",
           TEST_IDENTIFIER),
    # sentence splitting in the pipeline
    Mutant("sentence-break-narrowed", "src/uralid/pipeline.py",
           'SENTENCE_BREAK = re.compile(r"(?<=[.!?…])(?=\\s)")',
           'SENTENCE_BREAK = re.compile(r"(?<=[.!?…])(?=[ \\n])")', ("tests/test_pipeline.py",)),
]


def run_tests(copy: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([*PYTEST, *tests], cwd=copy, env=env, capture_output=True, text=True)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants.py: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory(prefix="uralid-mutants-") as scratch:
        copy = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        files = sorted({test for m in chosen for test in m.tests})
        clean = run_tests(copy, files)
        if clean.returncode != 0:
            print(clean.stdout[-3000:] + clean.stderr[-2000:])
            print("mutants.py: the unmutated copy fails its tests", file=sys.stderr)
            return 1
        for mutant in chosen:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant.old)
            if found != 1:
                failures.append(f"{mutant.name}: old text found {found} times in {mutant.file}")
                print(failures[-1])
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                result = run_tests(copy, mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "killed" if result.returncode != 0 else "SURVIVED"
            print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if result.returncode == 0:
                failures.append(f"{mutant.name}: {', '.join(mutant.tests)} still pass")
    if failures:
        print("\n".join(["mutants.py: failed:", *failures]), file=sys.stderr)
        return 1
    print(f"mutants.py: all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
