"""Confusion matrices and the three track scores.

Track 1 averages per-language F1 over the relevant languages, track 2 is a
micro-F1 over sentences that are in or were predicted to be in relevant
languages, and track 3 averages F1 over every registered language.

A language with no gold sentences scores recall 1; its precision is 1 when
nothing was predicted as it and 0 as soon as a single sentence was. All
metrics are computed in exact rational arithmetic and converted to float
at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    n = len(registry)
    counts = np.zeros((n, n), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        counts[registry.index(gold), registry.index(pred)] += 1
    return ConfusionMatrix(registry=registry, counts=counts)


def _prf_fractions(cm: ConfusionMatrix, lang: str) -> tuple[Fraction, Fraction, Fraction]:
    i = cm.registry.index(lang)
    tp = int(cm.counts[i, i])
    fp = int(cm.counts[:, i].sum()) - tp
    fn = int(cm.counts[i, :].sum()) - tp
    if tp + fn == 0:
        recall = Fraction(1)
        precision = Fraction(1) if fp == 0 else Fraction(0)
    else:
        recall = Fraction(tp, tp + fn)
        precision = Fraction(1) if tp + fp == 0 else Fraction(tp, tp + fp)
    return precision, recall, _f1(precision, recall)


def _f1(precision: Fraction, recall: Fraction) -> Fraction:
    if precision + recall == 0:
        return Fraction(0)
    return 2 * precision * recall / (precision + recall)


def prf(cm: ConfusionMatrix, lang: str) -> tuple[float, float, float]:
    """Precision, recall, F1 for one language, zero-gold conventions applied."""
    precision, recall, f1 = _prf_fractions(cm, lang)
    return float(precision), float(recall), float(f1)


def track1(cm: ConfusionMatrix) -> float:
    """Macro-F1 over the relevant languages."""
    relevant = cm.registry.relevant_codes()
    if not relevant:
        raise ValueError("registry has no relevant languages")
    total = sum((_prf_fractions(cm, code)[2] for code in relevant), Fraction(0))
    return float(total / len(relevant))


def track2(cm: ConfusionMatrix) -> float:
    """Micro-F1 over sentences in, or predicted to be in, relevant languages."""
    rel = np.array([e.relevant for e in cm.registry.entries], dtype=bool)
    diag = np.diagonal(cm.counts)
    tp = int(diag[rel].sum())
    fp = int(cm.counts[:, rel].sum()) - tp
    fn = int(cm.counts[rel, :].sum()) - tp
    precision = Fraction(1) if tp + fp == 0 else Fraction(tp, tp + fp)
    recall = Fraction(1) if tp + fn == 0 else Fraction(tp, tp + fn)
    return float(_f1(precision, recall))


def track3(cm: ConfusionMatrix) -> float:
    """Macro-F1 over every registered language."""
    codes = cm.registry.codes()
    if not codes:
        raise ValueError("empty registry")
    total = sum((_prf_fractions(cm, code)[2] for code in codes), Fraction(0))
    return float(total / len(codes))


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
    labels: list[str] = []
    for lineno, line in enumerate(split_records(read_utf8(path)), start=1):
        if not line.strip():
            continue
        code = line.rsplit("\t", 1)[-1].strip()
        if code not in registry:
            raise DataError(f"{path}:{lineno}: unregistered language code {code!r}")
        labels.append(code)
    return labels
