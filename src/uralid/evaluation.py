"""Confusion matrices and the three track scores.

Track 1 averages per-language F1 over the relevant languages, track 2 is a
micro-F1 over sentences that are in or were predicted to be in relevant
languages, and track 3 averages F1 over every registered language.

A language with no gold sentences scores recall 1; its precision is 1 when
nothing was predicted as it and 0 as soon as a single sentence was. All
metrics are computed in exact rational arithmetic and converted to float
at the boundary.

A label file holds one label a line, either a bare code or a
``sentence<TAB>code`` row; lines end at ``\n``, ``\r`` or ``\r\n``. A
line's code is its text after the last tab, stripped of whitespace. Blank
and whitespace-only lines are skipped; any other line whose code is not
registered, empty included, is a DataError naming the first such line,
``path:lineno: unregistered language code 'xxz'``. ``load_labels`` strips
and checks each distinct code field once, and ``confusion`` counts the
matrix with one ``np.bincount`` over the pairs' row indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, read_utf8, split_records
from .registry import LanguageRegistry


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold x predicted sentence counts over a registry."""

    registry: LanguageRegistry
    counts: np.ndarray  # shape (n, n), rows gold, columns predicted

    def count(self, gold: str, predicted: str) -> int:
        return int(self.counts[self.registry.index(gold), self.registry.index(predicted)])

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TrackScores:
    track1_relevant_macro_f1: float
    track2_relevant_micro_f1: float
    track3_macro_f1: float
    per_language: dict[str, tuple[float, float, float]]


def confusion(golds, preds, registry: LanguageRegistry) -> ConfusionMatrix:
    golds, preds = list(golds), list(preds)
    if len(golds) != len(preds):
        raise DataError(
            f"gold/pred length mismatch: {len(golds)} vs {len(preds)}"
        )
    # Distinct codes in pair order, gold before pred, so the first bad pair's code is named.
    rows = {code: registry.index(code) for code in dict.fromkeys(chain.from_iterable(zip(golds, preds)))}
    gold = np.fromiter(map(rows.__getitem__, golds), np.int64, len(golds))
    pred = np.fromiter(map(rows.__getitem__, preds), np.int64, len(preds))
    n = len(registry)
    counts = np.bincount(gold * n + pred, minlength=n * n).astype(np.int64, copy=False)
    return ConfusionMatrix(registry=registry, counts=counts.reshape(n, n))


def _prf(tp: int, fp: int, fn: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact precision, recall and F1; an empty denominator makes P or R 1, and F1 0."""
    precision = Fraction(1) if tp + fp == 0 else Fraction(tp, tp + fp)
    recall = Fraction(1) if tp + fn == 0 else Fraction(tp, tp + fn)
    f1 = Fraction(0) if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def _counts(cm: ConfusionMatrix, which) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True positives, false positives and false negatives of the languages ``which`` selects."""
    tp = np.diagonal(cm.counts)
    return tp[which], (cm.counts.sum(axis=0) - tp)[which], (cm.counts.sum(axis=1) - tp)[which]


def _relevant(cm: ConfusionMatrix) -> np.ndarray:
    return np.array([e.relevant for e in cm.registry.entries], dtype=bool)


def _macro_f1(cm: ConfusionMatrix, which) -> float:
    f1s = [_prf(*map(int, counts))[2] for counts in zip(*_counts(cm, which))]
    return float(sum(f1s, Fraction(0)) / len(f1s))


def prf(cm: ConfusionMatrix, lang: str) -> tuple[float, float, float]:
    """Precision, recall, F1 for one language, zero-gold conventions applied."""
    precision, recall, f1 = _prf(*map(int, _counts(cm, cm.registry.index(lang))))
    return float(precision), float(recall), float(f1)


def track1(cm: ConfusionMatrix) -> float:
    """Macro-F1 over the relevant languages."""
    relevant = _relevant(cm)
    if not relevant.any():
        raise ValueError("registry has no relevant languages")
    return _macro_f1(cm, relevant)


def track2(cm: ConfusionMatrix) -> float:
    """Micro-F1 over sentences in, or predicted to be in, relevant languages."""
    tp, fp, fn = (int(a.sum()) for a in _counts(cm, _relevant(cm)))
    return float(_prf(tp, fp, fn)[2])


def track3(cm: ConfusionMatrix) -> float:
    """Macro-F1 over every registered language."""
    if not len(cm.registry):
        raise ValueError("empty registry")
    return _macro_f1(cm, slice(None))


def compute_track_scores(cm: ConfusionMatrix) -> TrackScores:
    per_language = {code: prf(cm, code) for code in cm.registry.codes()}
    return TrackScores(
        track1_relevant_macro_f1=track1(cm),
        track2_relevant_micro_f1=track2(cm),
        track3_macro_f1=track3(cm),
        per_language=per_language,
    )


def write_confusion(cm: ConfusionMatrix, path) -> None:
    """TSV matrix, rows gold / columns predicted, zero cells left blank."""
    codes = cm.registry.codes()
    lines = ["gold\\pred\t" + "\t".join(codes)]
    for i, gold in enumerate(codes):
        cells = [str(int(c)) if c else "" for c in cm.counts[i]]
        lines.append(gold + "\t" + "\t".join(cells))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def report(cm: ConfusionMatrix, scores: TrackScores, out_dir) -> None:
    """Write the confusion matrix, per-language P/R/F1 and track scores."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_confusion(cm, out_dir / "confusion.tsv")

    lines = ["code\tprecision\trecall\tf1"]
    for code, (p, r, f1) in scores.per_language.items():
        lines.append(f"{code}\t{p:.6f}\t{r:.6f}\t{f1:.6f}")
    (out_dir / "per_language.tsv").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )

    (out_dir / "tracks.tsv").write_text(format_track_scores(scores), encoding="utf-8")


def format_track_scores(scores: TrackScores) -> str:
    return (
        f"track1_relevant_macro_f1\t{scores.track1_relevant_macro_f1:.6f}\n"
        f"track2_relevant_micro_f1\t{scores.track2_relevant_micro_f1:.6f}\n"
        f"track3_macro_f1\t{scores.track3_macro_f1:.6f}\n"
    )


def load_labels(path, registry: LanguageRegistry) -> list[str]:
    """Read a label file: either ``sentence<TAB>code`` rows or bare codes."""
    path = Path(path)
    lines = split_records(read_utf8(path))
    fields = [line.rpartition("\t")[2] for line in lines]
    codes = {field: field.strip() for field in dict.fromkeys(fields)}
    bad = {field for field, code in codes.items() if code not in registry}
    if bad:
        for at in (i for i, field in enumerate(fields) if field in bad):
            if lines[at].strip():
                raise DataError(f"{path}:{at + 1}: unregistered language code {codes[fields[at]]!r}")
        fields = [field for field in fields if field not in bad]
    return list(map(codes.__getitem__, fields))
