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
EVALUATION, TEST_EVALUATION = "src/uralid/evaluation.py", ("tests/test_evaluation.py",)
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
           "letter[high] = np.array([chr(c).isalpha() for c in distinct.tolist()], dtype=bool)[at]",
           "letter[high] = False", TEST_FEATURES),
    Mutant("astral-code-point-read-from-the-table", FEATURES,
           "high = cp >= _BMP", "high = cp > _BMP", TEST_FEATURES),
    Mutant("word-starts-read-one-code-point-early", FEATURES,
           "np.flatnonzero(letter & ~np.concatenate(([False], letter[:-1])))",
           "np.flatnonzero(letter[1:] & ~letter[:-1])", TEST_FEATURES),
    Mutant("tokenizing-slice-drops-its-last-sentence", FEATURES,
           "items[start : start + size]", "items[start : start + size - 1]", TEST_MODELS),
    # n-gram windows and padded words, shared by training and lookup, and lookup through sorted
    # key arrays
    Mutant("window-start-off-by-one", FEATURES,
           "counts) + np.arange(counts.sum())", "counts) + np.arange(counts.sum()) + 1",
           TEST_IDENTIFIER + TEST_MODELS),
    Mutant("word-looked-up-unpadded", IDENTIFIER,
           "get(padded[i], -1)", "get(words[i], -1)", TEST_IDENTIFIER),
    Mutant("searchsorted-hit-without-equality-check", IDENTIFIER,
           "return np.where(keys[at] == windows, at, -1), counts", "return at, counts", TEST_IDENTIFIER),
    # training: each window counts its word type's count, and every domain comes out sorted
    Mutant("type-counts-dropped-from-the-windows", MODELS,
           "windows, np.repeat(weights, counts), params.cutoff_c",
           "windows, np.repeat(np.ones_like(weights), counts), params.cutoff_c", TEST_MODELS),
    Mutant("word-domain-trained-unsorted", MODELS,
           "order = windows.argsort()",
           "order = windows.argsort() if windows.dtype != object else np.arange(windows.shape[0])",
           TEST_MODELS),
    # model files: strictly ascending features, the width rule at load and at save
    Mutant("order-check-allows-repeats", MODELS,
           "~(column[1:] > column[:-1])", "~(column[1:] >= column[:-1])", TEST_MODELS),
    Mutant("load-drops-width-check", MODELS,
           "rule((tabs - starts != n) | within,", "rule(within,", TEST_MODELS),
    Mutant("save-drops-width-check", MODELS,
           "np.union1d(holding(cp == 0), np.flatnonzero(lengths != n))", "np.flatnonzero(lengths != n)",
           TEST_MODELS),
    Mutant("save-allows-repeated-keys", MODELS,
           "~(keys[1:] > keys[:-1])", "~(keys[1:] >= keys[:-1])", TEST_MODELS),
    Mutant("save-drops-width-check-on-object-keys", MODELS,
           "np.union1d(holding(cp == 0), np.flatnonzero(lengths != n))", "holding(cp == 0)", TEST_MODELS),
    # a mapping given to LanguageModel gets <U{n} keys only when they hold each feature whole
    Mutant("conversion-drops-the-nul-clause", MODELS,
           'len(f) == int(domain) and "\\0" not in f', "len(f) == int(domain)", TEST_IDENTIFIER),
    # the word cache: one table per candidate set, dropped past the byte budget
    Mutant("cache-reset-skipped", IDENTIFIER,
           "_CACHE_BYTES:\n            self._cache = {}", "_CACHE_BYTES:\n            pass", TEST_IDENTIFIER),
    Mutant("new-rows-cached-in-wrong-order", IDENTIFIER,
           "where.update(zip(new, range(used, len(domains))))",
           "where.update(zip(reversed(new), range(used, len(domains))))", TEST_IDENTIFIER),
    Mutant("reset-keeps-the-dropped-tables", IDENTIFIER,
           "_CACHE_BYTES:\n            self._cache = {}",
           "_CACHE_BYTES:\n            self._cache = {k: ({}, t, []) for k, (_, t, _) in self._cache.items()}",
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
    # label files and the confusion matrix, read and counted in array passes
    Mutant("blank-line-skip-for-every-empty-code", EVALUATION,
           "if lines[at].strip():", "if codes[fields[at]]:", TEST_EVALUATION),
    Mutant("last-bad-line-reported", EVALUATION,
           "for at in (i for i, field in enumerate(fields) if field in bad):",
           "for at in reversed([i for i, field in enumerate(fields) if field in bad]):", TEST_EVALUATION),
    Mutant("distinct-field-strip-dropped", EVALUATION,
           "codes = {field: field.strip() for field", "codes = {field: field for field", TEST_EVALUATION),
    Mutant("gold-and-pred-swapped-in-the-bincount-index", EVALUATION,
           "np.bincount(gold * n + pred,", "np.bincount(pred * n + gold,", TEST_EVALUATION),
    Mutant("codes-checked-golds-before-preds", EVALUATION,
           "dict.fromkeys(chain.from_iterable(zip(golds, preds)))", "dict.fromkeys(chain(golds, preds))",
           TEST_EVALUATION),
    Mutant("table-equality-skips-the-scores", MODELS,
           "and np.array_equal(self.scores, other.scores)", "", TEST_MODELS),
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
