"""Model training and serialization.

A language model stores, per feature domain (whole words plus character
n-grams of length 1..n_max), a map from feature string to its negative
log10 relative frequency in the training corpus. Features whose relative
frequency falls below the cutoff are dropped; frequencies are *not*
renormalized afterwards. Scores are quantized to 10 significant decimal
digits at training time, which is also the on-disk precision, so the TSV
round-trip is bit-exact.

Training counts types first: each corpus's tokens become one count per word
type, in first-occurrence order, and each type's features are added once,
weighted by that count. Features are thus first met in the same order as in
a token-by-token pass, so the counts, the scores and each table's key order
equal that pass's, while the work grows with the types, not the tokens. Each
distinct count is scored once, and saving renders each distinct score once.

Model directory layout::

    manifest.tsv                params, registry, file list with totals
    models/<code>.<domain>.tsv  feature<TAB>score, sorted by feature
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, takewhile
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import DataError, read_utf8, split_records
from .features import WORD_DOMAIN, all_domains, extract_ngrams, pad_word, tokenize
from .registry import LanguageRegistry, parse_registry

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
        if not self.penalty_p >= 0:  # NaN too
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


def _score_text(score: float) -> str:
    """A score as saved: 10 significant decimal digits, the one score text rule."""
    return f"{score:.10g}"


def _parse_score(text: str) -> float:
    """The score ``text`` stands for; ValueError unless it is that score's ``_score_text``."""
    score = float(text)
    if _score_text(score) != text:
        raise ValueError(text)
    return score


def quantize_score(score: float) -> float:
    """Round to 10 significant decimal digits (the serialized precision)."""
    return float(_score_text(score))


def _score_counts(counts: dict[str, int], cutoff_c: float) -> tuple[dict[str, float], int]:
    """Scores of the features whose relative frequency reaches the cutoff, in
    ``counts`` order, and the total; each distinct count is scored once."""
    total = sum(counts.values())
    score_of: dict[int, float] = {}
    for count in set(counts.values()):
        rel = count / total
        if rel >= cutoff_c:
            score_of[count] = 0.0 if count == total else quantize_score(-math.log10(rel))
    return {f: score_of[c] for f, c in counts.items() if c in score_of}, total


def train_models(
    corpora: list[Corpus], params: HeliParams, registry: LanguageRegistry
) -> ModelSet:
    """Count features per language and domain, apply the cutoff, take logs.

    Languages may appear at most once; callers concatenate their material
    beforehand. A language with an empty corpus gets empty maps and zero
    totals.
    """
    seen: dict[str, str] = {}
    for corpus in corpora:
        where, code = corpus.source_path, corpus.language
        if code not in registry:
            raise DataError(f"{where}: unregistered language code {code!r}")
        if code in seen:
            raise DataError(f"{where}: duplicate corpus for language {code!r}, also in {seen[code]}")
        seen[code] = where

    models: dict[str, LanguageModel] = {}
    for corpus in corpora:
        # word types in first-occurrence order, so features are first met in token order
        types = Counter(chain.from_iterable(map(tokenize, corpus.sentences)))
        counts: dict[str, dict[str, int]] = {}
        for n in range(1, params.n_max + 1):
            table: dict[str, int] = {}
            get = table.get
            for word, count in types.items():
                for gram in extract_ngrams(word, n):
                    table[gram] = get(gram, 0) + count
            counts[str(n)] = table
        if params.use_words:
            counts[WORD_DOMAIN] = {pad_word(word): count for word, count in types.items()}
        scored: dict[str, dict[str, float]] = {}
        totals: dict[str, int] = {}
        for domain in params.domains():
            scored[domain], totals[domain] = _score_counts(counts[domain], params.cutoff_c)
        models[corpus.language] = LanguageModel(corpus.language, scored, totals)
    return ModelSet(params=params, models=models, registry=registry)


def _format_param(f, params: HeliParams) -> str:
    value = type(f.default)(getattr(params, f.name))  # 7 and 7.0 both write "7.0"
    return str(int(value)) if isinstance(value, bool) else repr(value)


def _model_path(code: str, domain: str) -> str:
    return f"models/{code}.{domain}.tsv"


def _save_order(codes, params: HeliParams, registry: LanguageRegistry) -> list[tuple[str, str]]:
    """The ``(code, domain)`` of each model file in save order: the modeled
    ``codes`` in registry order, each with the params' domains in order."""
    return [(c, d) for c in registry.codes() if c in codes for d in params.domains()]


def _manifest_header(params: HeliParams, registry: LanguageRegistry) -> list[str]:
    """The param, cjkblock and language rows that open every manifest, in order."""
    rows = [f"param\t{f.name}\t{_format_param(f, params)}" for f in fields(params)]
    rows += [f"cjkblock\t{lo:04X}\t{hi:04X}" for lo, hi in registry.cjk_blocks]
    return rows + [
        f"language\t{e.code}\t{e.name}\t{int(e.relevant)}\t{int(e.cjk)}" for e in registry.entries
    ]


def _first_score_outside(table: dict[str, float], max_score: float) -> int | None:
    """Position of the first score in ``table`` outside [0, max_score] (up to the
    quantization slack; NaN is outside), or None: the one range rule of saving and loading."""
    scores = np.fromiter(table.values(), dtype=np.float64, count=len(table))
    outside = ~((scores >= 0.0) & (scores <= max_score + SCORE_RANGE_SLACK))
    return int(outside.argmax()) if outside.any() else None


def _check_model(
    code: str, model: LanguageModel, params: HeliParams
) -> dict[str, dict[float, str]]:
    """Raise a DataError, naming the code and domain, for what ``load_models``
    would reject or read back unequal; else return each domain's score texts as
    ``save_models`` writes them, one per distinct score."""
    if model.language != code:
        raise DataError(f"model {code}: language is {model.language!r}")
    domains, max_score = params.domains(), params.max_score()
    for what, keys in (("domains", model.domains), ("totals", model.totals)):
        if set(keys) != set(domains):
            raise DataError(f"model {code}: {what} {sorted(keys)}, the params give {sorted(domains)}")
    texts: dict[str, dict[float, str]] = {}
    for domain in domains:
        where = f"model {code} {domain}"
        total, table = model.totals[domain], model.domains[domain]
        if type(total) is not int or total < 0:
            raise DataError(f"{where}: total {total!r} is not a non-negative int")
        joined = "".join(table)  # one scan of every feature, not one per feature
        if any(c in joined for c in "\t\r\n"):
            bad = next(f for f in table if any(c in f for c in "\t\r\n"))
            raise DataError(f"{where}: feature {bad!r} holds a tab or line break")
        try:
            joined.encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = next(f for f, end in zip(table, accumulate(map(len, table))) if end > exc.start)
            raise DataError(f"{where}: feature {bad!r} cannot be written as UTF-8") from None
        at = _first_score_outside(table, max_score)
        if at is not None:
            feature, score = list(table.items())[at]
            raise DataError(f"{where}: score {score!r} of {feature!r} outside [0, {max_score:.6f}]")
        texts[domain] = {score: _score_text(score) for score in dict.fromkeys(table.values())}
        for score, text in texts[domain].items():
            if _parse_score(text) != score:
                feature = next(f for f, s in table.items() if s == score)
                raise DataError(f"{where}: score {score!r} of {feature!r} would load back as {text}")
    return texts


def save_models(model_set: ModelSet, directory) -> None:
    """Write manifest.tsv plus one sorted TSV per language and domain.

    Every model is checked before any file is written: one the loader would
    reject or read back unequal is a DataError naming its code and domain.
    Scores are written to 10 significant digits, each distinct score rendered
    once, so only quantized ones (all that ``train_models`` makes) can be saved.
    """
    if not model_set.models:  # load_models refuses a manifest without model rows
        raise DataError("a model set without models cannot be saved")
    params = model_set.params
    texts = {
        code: _check_model(code, model, params) for code, model in model_set.models.items()
    }
    directory = Path(directory)
    (directory / "models").mkdir(parents=True, exist_ok=True)
    registry = model_set.registry

    manifest = _manifest_header(params, registry)
    for code, domain in _save_order(model_set.models, params, registry):
        model, rel_path = model_set.models[code], _model_path(code, domain)
        manifest.append(f"model\t{code}\t{domain}\t{rel_path}\t{model.totals[domain]}")
        table, text_of = model.domains[domain], texts[code][domain]
        (directory / rel_path).write_text(
            "".join([f"{feature}\t{text_of[table[feature]]}\n" for feature in sorted(table)]),
            encoding="utf-8",
        )
    (directory / "manifest.tsv").write_text(
        "".join(line + "\n" for line in manifest), encoding="utf-8"
    )


def _parse_param(f, text: str):
    """A param row's value, read by the type of its HeliParams default."""
    if isinstance(f.default, bool):
        if text not in ("0", "1"):
            raise ValueError(f"{f.name} must be 0 or 1, got {text!r}")
        return text == "1"
    return type(f.default)(text)


def _parse_manifest(path: Path):
    """Params, registry and ``(line, code, domain, total)`` model rows; the rows before
    the first model row must be exactly those ``_manifest_header`` renders, and the
    model rows those ``save_models`` writes, in ``_save_order``."""
    rows = split_records(read_utf8(path))
    texts: dict[str, str] = {}
    registry_lines: list[str] = []  # one per row, so registry errors name manifest lines
    for raw in takewhile(lambda row: not row.startswith("model\t"), rows):
        cells = raw.split("\t")
        if cells[0] == "param" and len(cells) == 3:
            texts[cells[1]] = cells[2]
        rest = "\t".join(cells[1:])
        registry_lines.append({"cjkblock": f"#!cjk-block\t{rest}", "language": rest}.get(cells[0], ""))
    try:
        given = [f for f in fields(HeliParams) if f.name in texts]
        params = HeliParams(**{f.name: _parse_param(f, texts[f.name]) for f in given})
    except ValueError as exc:
        raise DataError(f"{path}: bad params: {exc}") from None
    registry = parse_registry("\n".join(registry_lines), source=path)
    header = _manifest_header(params, registry)
    for lineno, want in enumerate(header, start=1):
        if lineno > len(rows) or rows[lineno - 1] != want:
            raise DataError(f"{path}:{lineno}: expected {want!r}")
    domains = set(params.domains())
    model_rows: list[tuple[int, str, str, int]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(rows[len(header):], start=len(header) + 1):
        where, cells = f"{path}:{lineno}", raw.split("\t")
        if cells[0] != "model" or len(cells) != 5:
            raise DataError(f"{where}: unrecognized manifest row {raw!r}")
        _, code, domain, rel_path, total = cells
        if not (total.isascii() and total.isdigit()):
            raise DataError(f"{where}: bad total count {total!r}")
        if code not in registry:
            raise DataError(f"{where}: unregistered language code {code!r}")
        if domain not in domains:
            raise DataError(f"{where}: unknown domain {domain!r} for {code}")
        if rel_path != _model_path(code, domain):
            raise DataError(f"{where}: model path must be {_model_path(code, domain)}, got {rel_path!r}")
        if (code, domain) in seen:
            raise DataError(f"{where}: second model row for {code} {domain}")
        seen.add((code, domain))
        model_rows.append((lineno, code, domain, int(total)))
    if not model_rows:
        raise DataError(f"{path}: manifest lists no model rows")
    first = model_rows[0][0]  # model rows are consecutive lines
    for at, (code, domain) in enumerate(_save_order({c for c, _ in seen}, params, registry)):
        if at == len(model_rows) or model_rows[at][1:3] != (code, domain):
            raise DataError(f"{path}:{first + at}: expected the model row for {code} {domain}")
    return params, registry, model_rows


def _load_model_file(path: Path, max_score: float, parsed: dict[str, float]) -> dict[str, float]:
    """The file's scores by feature; ``parsed`` holds each score text read so far, parsed once."""
    scores: dict[str, float] = {}
    previous: str | None = None
    for lineno, raw in enumerate(split_records(read_utf8(path)), start=1):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected feature<TAB>score")
        feature, score_text = parts
        if previous is not None and feature <= previous:
            raise DataError(f"{path}:{lineno}: features out of order at {feature!r}")
        previous = feature
        score = parsed.get(score_text)
        if score is None:
            try:
                score = parsed[score_text] = _parse_score(score_text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {score_text!r}") from None
        scores[feature] = score
    at = _first_score_outside(scores, max_score)  # features ascend, so entry i is line i + 1
    if at is not None:
        score = list(scores.values())[at]
        raise DataError(f"{path}:{at + 1}: score {score} outside [0, {max_score:.6f}]")
    return scores


def load_models(directory) -> ModelSet:
    """Exact inverse of save_models: any row, line or score text it would not
    write, a blank line or a model row out of save order included, is a
    DataError naming its file and line. The manifest is checked in full before
    any model file is read, so a model row out of order is reported before a
    missing model file."""
    directory = Path(directory)
    manifest_path = directory / "manifest.tsv"
    if not manifest_path.is_file():
        raise DataError(f"{directory}: missing manifest.tsv")
    params, registry, model_rows = _parse_manifest(manifest_path)
    models: dict[str, LanguageModel] = {}
    parsed: dict[str, float] = {}
    for lineno, code, domain, total in model_rows:
        rel_path = _model_path(code, domain)
        if not (directory / rel_path).is_file():
            raise DataError(f"{manifest_path}:{lineno}: missing model file {rel_path}")
        model = models.setdefault(code, LanguageModel(code, {}, {}))
        model.domains[domain] = _load_model_file(directory / rel_path, params.max_score(), parsed)
        model.totals[domain] = total
    return ModelSet(params=params, models=models, registry=registry)
