"""Model training and serialization.

A language model stores, per feature domain (whole words plus character
n-grams of length 1..n_max), a map from feature string to its negative
log10 relative frequency in the training corpus. Features whose relative
frequency falls below the cutoff are dropped; frequencies are *not*
renormalized afterwards. Scores are quantized to 10 significant decimal
digits at training time, which is also the on-disk precision, so the TSV
round-trip is bit-exact.

Model directory layout::

    manifest.tsv                params, registry, file list with totals
    models/<code>.<domain>.tsv  feature<TAB>score, sorted by feature
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus
from .errors import DataError, read_utf8
from .features import WORD_DOMAIN, all_domains, extract_ngrams, ngram_domains, pad_word, tokenize
from .registry import LanguageEntry, LanguageRegistry, parse_registry

# Absolute slack for score range checks: covers the rounding step of the
# 10-significant-digit quantization at the top of the score range.
SCORE_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class HeliParams:
    """Training and scoring parameters.

    Defaults are the published baseline values: n-grams up to length 6,
    relative-frequency cutoff 5e-7, penalty 7 for unseen features, with a
    whole-word feature domain enabled.
    """

    n_max: int = 6
    cutoff_c: float = 0.0000005
    penalty_p: float = 7.0
    use_words: bool = True

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0.0 < self.cutoff_c < 1.0:
            raise ValueError(f"cutoff_c must be in (0, 1), got {self.cutoff_c}")
        if self.penalty_p < 0:
            raise ValueError(f"penalty_p must be >= 0, got {self.penalty_p}")
        if self.penalty_p <= self.max_score():
            warnings.warn(
                f"penalty_p={self.penalty_p} does not exceed -log10(cutoff_c)"
                f"={self.max_score():.4f}; unseen features can outscore seen ones",
                stacklevel=2,
            )

    def max_score(self) -> float:
        """Upper bound for stored scores: -log10(cutoff_c)."""
        return -math.log10(self.cutoff_c)

    def domains(self) -> list[str]:
        return all_domains(self.n_max, self.use_words)


@dataclass(frozen=True)
class LanguageModel:
    """Per-domain feature score maps for one language."""

    language: str
    domains: dict[str, dict[str, float]]
    totals: dict[str, int]


@dataclass(frozen=True)
class ModelSet:
    params: HeliParams
    models: dict[str, LanguageModel]
    registry: LanguageRegistry
    _scorer: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        for code in self.models:
            self.registry.index(code)

    def scorer(self):
        """Cached array-form scorer for this model set, built on first use."""
        if not self._scorer:
            from .identifier import Scorer

            self._scorer.append(Scorer(self))
        return self._scorer[0]


def quantize_score(score: float) -> float:
    """Round to 10 significant decimal digits (the serialized precision)."""
    return float(f"{score:.10g}")


def _score_counts(counts: Counter, cutoff_c: float) -> tuple[dict[str, float], int]:
    total = sum(counts.values())
    scores: dict[str, float] = {}
    if total == 0:
        return scores, 0
    for feature, count in counts.items():
        rel = count / total
        if rel < cutoff_c:
            continue
        scores[feature] = 0.0 if count == total else quantize_score(-math.log10(rel))
    return scores, total


def train_models(
    corpora: list[Corpus], params: HeliParams, registry: LanguageRegistry
) -> ModelSet:
    """Count features per language and domain, apply the cutoff, take logs.

    Languages may appear at most once; callers concatenate their material
    beforehand. A language with an empty corpus gets empty maps and zero
    totals.
    """
    seen: set[str] = set()
    for corpus in corpora:
        registry.index(corpus.language)
        if corpus.language in seen:
            raise DataError(f"duplicate corpus for language {corpus.language!r}")
        seen.add(corpus.language)

    domains = params.domains()
    models: dict[str, LanguageModel] = {}
    for corpus in corpora:
        counters: dict[str, Counter] = {d: Counter() for d in domains}
        for sentence in corpus.sentences:
            for word in tokenize(sentence):
                if params.use_words:
                    counters[WORD_DOMAIN][pad_word(word)] += 1
                for n in range(1, params.n_max + 1):
                    counters[str(n)].update(extract_ngrams(word, n))
        scored: dict[str, dict[str, float]] = {}
        totals: dict[str, int] = {}
        for domain in domains:
            scored[domain], totals[domain] = _score_counts(
                counters[domain], params.cutoff_c
            )
        models[corpus.language] = LanguageModel(corpus.language, scored, totals)
    return ModelSet(params=params, models=models, registry=registry)


def _format_param(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    return repr(value)


def save_models(model_set: ModelSet, directory) -> None:
    """Write manifest.tsv plus one sorted TSV per language and domain."""
    directory = Path(directory)
    (directory / "models").mkdir(parents=True, exist_ok=True)
    params = model_set.params
    registry = model_set.registry

    manifest: list[str] = []
    for name in ("n_max", "cutoff_c", "penalty_p", "use_words"):
        manifest.append(f"param\t{name}\t{_format_param(getattr(params, name))}")
    for lo, hi in registry.cjk_blocks:
        manifest.append(f"cjkblock\t{lo:04X}\t{hi:04X}")
    for entry in registry.entries:
        manifest.append(
            f"language\t{entry.code}\t{entry.name}\t{int(entry.relevant)}\t{int(entry.cjk)}"
        )

    ordered_codes = [c for c in registry.codes() if c in model_set.models]
    for code in ordered_codes:
        model = model_set.models[code]
        for domain in params.domains():
            rel_path = f"models/{code}.{domain}.tsv"
            manifest.append(f"model\t{code}\t{domain}\t{rel_path}\t{model.totals[domain]}")
            lines = [
                f"{feature}\t{score:.10g}"
                for feature, score in sorted(model.domains[domain].items())
            ]
            (directory / rel_path).write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8"
            )
    (directory / "manifest.tsv").write_text(
        "".join(line + "\n" for line in manifest), encoding="utf-8"
    )


def _read_text(path: Path) -> str:
    """``read_utf8`` plus the universal-newline translation of ``Path.read_text``."""
    return read_utf8(path).replace("\r\n", "\n").replace("\r", "\n")


def _parse_manifest(path: Path):
    params_fields: dict[str, str] = {}
    registry_lines: list[str] = []
    model_rows: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        kind = fields[0]
        if kind == "param" and len(fields) == 3:
            params_fields[fields[1]] = fields[2]
        elif kind == "cjkblock" and len(fields) == 3:
            registry_lines.append(f"#!cjk-block\t{fields[1]}\t{fields[2]}")
        elif kind == "language" and len(fields) == 5:
            registry_lines.append("\t".join(fields[1:]))
        elif kind == "model" and len(fields) == 5:
            try:
                total = int(fields[4])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad total count {fields[4]!r}") from None
            model_rows.append((fields[1], fields[2], fields[3], total))
        else:
            raise DataError(f"{path}:{lineno}: unrecognized manifest row {raw!r}")
    missing = {"n_max", "cutoff_c", "penalty_p", "use_words"} - set(params_fields)
    if missing:
        raise DataError(f"{path}: manifest missing params: {sorted(missing)}")
    try:
        params = HeliParams(
            n_max=int(params_fields["n_max"]),
            cutoff_c=float(params_fields["cutoff_c"]),
            penalty_p=float(params_fields["penalty_p"]),
            use_words=params_fields["use_words"] == "1",
        )
    except ValueError as exc:
        raise DataError(f"{path}: bad params: {exc}") from None
    registry = parse_registry("\n".join(registry_lines), source=path)
    return params, registry, model_rows


def _load_model_file(path: Path, max_score: float) -> dict[str, float]:
    scores: dict[str, float] = {}
    previous: str | None = None
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        if raw == "":
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected feature<TAB>score")
        feature, score_text = parts
        if previous is not None and feature <= previous:
            raise DataError(f"{path}:{lineno}: features out of order at {feature!r}")
        previous = feature
        try:
            score = float(score_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {score_text!r}") from None
        if not 0.0 <= score <= max_score + SCORE_RANGE_SLACK:
            raise DataError(
                f"{path}:{lineno}: score {score} outside [0, {max_score:.6f}]"
            )
        scores[feature] = score
    return scores


def load_models(directory) -> ModelSet:
    """Exact inverse of save_models."""
    directory = Path(directory)
    manifest_path = directory / "manifest.tsv"
    if not manifest_path.is_file():
        raise DataError(f"{directory}: missing manifest.tsv")
    params, registry, model_rows = _parse_manifest(manifest_path)

    domains_by_code: dict[str, dict[str, dict[str, float]]] = {}
    totals_by_code: dict[str, dict[str, int]] = {}
    expected = set(params.domains())
    for code, domain, rel_path, total in model_rows:
        registry.index(code)
        if domain not in expected:
            raise DataError(f"{manifest_path}: unknown domain {domain!r} for {code}")
        file_path = directory / rel_path
        if not file_path.is_file():
            raise DataError(f"{manifest_path}: missing model file {rel_path}")
        domains_by_code.setdefault(code, {})[domain] = _load_model_file(
            file_path, params.max_score()
        )
        totals_by_code.setdefault(code, {})[domain] = total

    models: dict[str, LanguageModel] = {}
    for code in registry.codes():
        if code not in domains_by_code:
            continue
        if set(domains_by_code[code]) != expected:
            missing = sorted(expected - set(domains_by_code[code]))
            raise DataError(f"{manifest_path}: {code} missing domains {missing}")
        models[code] = LanguageModel(code, domains_by_code[code], totals_by_code[code])
    return ModelSet(params=params, models=models, registry=registry)
