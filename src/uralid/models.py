"""Model training and serialization.

A language model stores, per feature domain (whole words plus character
n-grams of length 1..n_max), a map from feature string to its negative
log10 relative frequency in the training corpus. Features whose relative
frequency falls below the cutoff are dropped; frequencies are *not*
renormalized afterwards. Scores are quantized to 10 significant decimal
digits at training time, which is also the on-disk precision, so the TSV
round-trip is bit-exact.

Training counts types first: each corpus's tokens, read a chunk of sentences
at a time (``features.chunks``), become one count per word type. For each n,
every n-gram window of every type is read at once from the types' padded code
points (``ngram_windows``, the rule identify looks n-grams up by); the word
domain's windows are the padded types themselves. Each domain's windows are
sorted, and each distinct one sums its types' counts as exact integers. The
counts equal a token-by-token pass's, while the work grows with the types,
not the tokens. Each distinct count is scored once. Every domain thus comes
out as a ``FeatureTable``: its features one sorted key array, and its scores
one float array. An n-gram domain's keys are fixed-width ``<U{n}``; the word
domain's, which have no fixed width, are ``str`` objects.

Loading gives the same layout and keeps no per-feature Python object for an
n-gram domain: a model file's features are gathered from its code points.
Every n-gram feature is exactly n code points, none of them U+0000 (the width
rule, which ``save_models`` and ``load_models`` both enforce), and a file is
sorted by feature, so its keys come out sorted. ``LanguageModel`` turns any
other mapping it is given into a ``FeatureTable`` sorted by key.
``save_models`` writes every table straight from its arrays, with its checks
as masks over the keys' code points, and each distinct score rendered once.

Model directory layout::

    manifest.tsv                params, registry, file list with totals
    models/<code>.<domain>.tsv  feature<TAB>score, sorted by feature
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, fields
from itertools import takewhile
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import DataError, read_utf8, split_records, unify_line_ends
# extract_ngrams and tokenize stay importable from here: the traced benchmark wraps them in
# this module.
from .features import (
    WORD_DOMAIN, all_domains, chunks, code_points, extract_ngrams, ngram_keys, ngram_windows,
    padded_code_points, tokenize, tokenize_chunk,
)
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


class FeatureTable(Mapping):
    """Read-only feature-to-score mapping of one domain, held as two arrays:
    ``features``, the sorted distinct features, and ``scores``, float64 in the
    same order. An n-gram domain's features are ``<U{n}`` keys and the word
    domain's ``str`` objects. It iterates in key order, the order of its model
    file, and equals any mapping with the same items."""

    __slots__ = ("features", "scores")

    def __init__(self, features: np.ndarray, scores: np.ndarray):
        features.setflags(write=False)
        scores.setflags(write=False)
        self.features = features
        self.scores = scores

    def __len__(self) -> int:
        return self.features.shape[0]

    def __iter__(self):
        return iter(self.features.tolist())

    def __getitem__(self, feature):
        if isinstance(feature, str):
            at = int(np.searchsorted(self.features, feature))
            if at < len(self) and self.features[at] == feature:
                return self.scores.item(at)
        raise KeyError(feature)

    def __eq__(self, other):
        """Equal arrays make equal tables without building a dict; any other case,
        repeated or unsorted hand-built keys and NaN scores among them, takes the
        mapping rule."""
        if (
            isinstance(other, FeatureTable)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.scores, other.scores)
        ):
            return True
        return Mapping.__eq__(self, other)

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)

    def __repr__(self) -> str:
        return f"FeatureTable({dict(self.items())!r})"


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping.features.tolist(), self._mapping.scores.tolist())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping.scores.tolist())


def key_dtype(domain: str) -> np.dtype:
    """The dtype of a domain's feature keys: ``<U{n}`` for an n-gram domain, ``str``
    objects for the word domain."""
    return np.dtype(object if domain == WORD_DOMAIN else f"<U{domain}")


def _feature_table(table: Mapping[str, float], domain: str) -> FeatureTable:
    """``table`` as a FeatureTable sorted by key: ``<U{n}`` keys for an n-gram mapping
    whose every feature is n code points other than U+0000, else ``str`` objects."""
    if isinstance(table, FeatureTable):
        return table
    features = sorted(table)
    scores = np.fromiter(map(table.__getitem__, features), np.float64, len(features))
    fixed = domain.isdecimal() and all(len(f) == int(domain) and "\0" not in f for f in features)
    return FeatureTable(np.array(features, dtype=key_dtype(domain) if fixed else object), scores)


@dataclass(frozen=True)
class LanguageModel:
    """Per-domain feature score maps for one language, each a ``FeatureTable``. Any
    other mapping given is converted into a new ``domains`` dict; the caller's is
    left as it was."""

    language: str
    domains: dict[str, FeatureTable]
    totals: dict[str, int]

    def __post_init__(self):
        tables = {domain: _feature_table(table, domain) for domain, table in self.domains.items()}
        object.__setattr__(self, "domains", tables)


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


def _score_of(counts, total: int, cutoff_c: float) -> dict[int, float]:
    """The score of each of the distinct ``counts`` whose relative frequency in
    ``total`` reaches the cutoff, in ``counts`` order: the one scoring rule."""
    score_of: dict[int, float] = {}
    for count in counts:
        rel = count / total
        if rel >= cutoff_c:
            score_of[count] = 0.0 if count == total else quantize_score(-math.log10(rel))
    return score_of


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``ordered`` starts."""
    new = np.ones(ordered.shape[0], dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return np.flatnonzero(new)


def _score_windows(windows: np.ndarray, weights: np.ndarray, cutoff_c: float) -> tuple[FeatureTable, int]:
    """The table of the distinct ``windows`` whose relative frequency reaches the cutoff,
    each counted as the sum of its occurrences' int64 ``weights``, and the total."""
    order = windows.argsort()
    windows = windows[order]
    first = run_starts(windows)
    counts = np.add.reduceat(weights[order], first)  # integer sums, so exact
    total = int(counts.sum())
    distinct, at = np.unique(counts, return_inverse=True)
    score_of = _score_of(distinct.tolist(), total, cutoff_c)
    scores = np.array([score_of.get(count, np.nan) for count in distinct.tolist()])[at]
    kept = ~np.isnan(scores)
    return FeatureTable(windows[first[kept]], scores[kept]), total


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
        types: Counter[str] = Counter()
        for chunk in chunks(corpus.sentences):
            types.update(tokenize_chunk(chunk)[0])
        weights = np.fromiter(types.values(), np.int64, len(types))
        padded, cp, starts, lengths = padded_code_points(list(types))
        scored: dict[str, FeatureTable] = {}
        totals: dict[str, int] = {}
        for n in range(1, params.n_max + 1):
            windows, counts = ngram_windows(cp, starts, lengths, n)
            scored[str(n)], totals[str(n)] = _score_windows(
                windows, np.repeat(weights, counts), params.cutoff_c
            )
        if params.use_words:
            padded = np.array(padded, dtype=object)
            scored[WORD_DOMAIN], totals[WORD_DOMAIN] = _score_windows(padded, weights, params.cutoff_c)
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


def _outside_range(scores: np.ndarray, max_score: float) -> np.ndarray:
    """Which scores lie outside [0, max_score], up to the quantization slack (NaN
    does): the one range rule of saving and loading."""
    return ~((scores >= 0.0) & (scores <= max_score + SCORE_RANGE_SLACK))


def _width_fault(feature: str, n: int) -> str:
    """The message for an n-gram feature that breaks the width rule."""
    return f"feature {feature!r} is not a {n}-gram: an n-gram is n code points, none of them U+0000"


def _line_break_fault(feature: str) -> str:
    return f"feature {feature!r} holds a tab or line break"


def _utf8_fault(feature: str) -> str:
    return f"feature {feature!r} cannot be written as UTF-8"


def _table_fault(table: FeatureTable, domain: str) -> str | None:
    """Why a table cannot be written as the rows of its domain's file, or None. The
    rules, in order: a tab or line break, a lone surrogate, the width rule, the key
    dtype, strictly ascending keys. The first three are masks over the features'
    code points, read through the fixed-width view of ``<U{n}`` keys and joined
    from any others."""
    keys, want, n = table.features, key_dtype(domain), None if domain == WORD_DOMAIN else int(domain)
    if n is not None and keys.dtype == want:  # a shorter key ends in U+0000s
        cp, lengths = keys.view("<u4"), np.full(keys.shape[0], n)
    else:
        features = keys.tolist()
        cp, lengths = code_points("".join(features)), np.fromiter(map(len, features), np.int64, len(features))
    ends = lengths.cumsum()

    def holding(mask):
        """The features that hold a code point ``mask`` marks, ascending."""
        return np.searchsorted(ends, np.flatnonzero(mask), side="right")

    rules = [(holding((cp == 9) | (cp == 10) | (cp == 13)), _line_break_fault),
             (holding((cp >= 0xD800) & (cp <= 0xDFFF)), _utf8_fault)]  # lone surrogates
    if n is not None:
        wrong = np.union1d(holding(cp == 0), np.flatnonzero(lengths != n))
        rules.append((wrong, lambda feature: _width_fault(feature, n)))
    for rows, describe in rules:
        if rows.size:
            return describe(str(keys[rows[0]]))
    if keys.dtype != want:
        return f"features are {keys.dtype} keys, not {want}"
    repeats = np.flatnonzero(~(keys[1:] > keys[:-1]))
    return f"features out of order at {str(keys[repeats[0] + 1])!r}" if repeats.size else None


def _check_model(
    code: str, model: LanguageModel, params: HeliParams
) -> dict[str, dict[float, str]]:
    """Raise a DataError, naming the code and domain, for what ``load_models``
    would reject or read back unequal; else return each domain's score texts as
    ``save_models`` writes them, one per distinct score, ascending. A table is
    written in its own order, so its keys must also be strictly ascending."""
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
        fault, scores = _table_fault(table, domain), table.scores
        if fault is not None:
            raise DataError(f"{where}: {fault}")
        outside = _outside_range(scores, max_score)
        if outside.any():
            at = int(outside.argmax())
            score, feature = scores.item(at), str(table.features[at])
            raise DataError(f"{where}: score {score!r} of {feature!r} outside [0, {max_score:.6f}]")
        ordered = np.sort(scores)
        texts[domain] = {score: _score_text(score) for score in ordered[run_starts(ordered)].tolist()}
        for score, text in texts[domain].items():
            if _parse_score(text) != score:
                feature = str(table.features[int(np.argmax(scores == score))])
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
        # sorted already: each row is a key and its score's ending, added as str objects
        at = np.searchsorted(np.fromiter(text_of, np.float64, len(text_of)), table.scores)
        ends = np.array([f"\t{text}\n" for text in text_of.values()], dtype=object)
        rows = (table.features.astype(object) + ends[at]).tolist()
        (directory / rel_path).write_text("".join(rows), encoding="utf-8")
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


def _load_model_file(path: Path, domain: str, max_score: float):
    """The file's ``FeatureTable``: ``<U{n}`` keys for an n-gram domain, ``str`` objects
    for the word domain. Each distinct score text in the file is parsed once.

    Each rule is one mask over the rows that passed the rules before it: one tab
    per row, the width rule, strictly ascending features, a score text
    ``_parse_score`` reads, the score range. The fault reported is thus on the
    lowest line that breaks a rule, and on a line that breaks several, the first.
    """
    text = unify_line_ends(read_utf8(path))
    if text and text[-1] != "\n":
        text += "\n"
    cp = code_points(text)
    low = np.flatnonzero(cp <= 10)  # the tabs, line ends and U+0000s, among others
    kinds = cp[low]
    separator = kinds >= 9
    seps, nuls = low[separator], low[kinds == 0]
    # while the separators alternate tab, line end, each row holds one tab
    wrong = kinds[separator] != np.where(np.arange(seps.shape[0]) % 2, 10, 9)
    rows, message = seps.shape[0] // 2, None
    if wrong.any():
        rows, message = int(wrong.argmax()) // 2, "expected feature<TAB>score"
    tabs, ends = seps[0 : 2 * rows : 2], seps[1 : 2 * rows : 2]
    starts = np.concatenate(([0], ends + 1))[:rows]

    def rule(bad, describe):
        """Stop at the first row so far that ``bad`` marks, with its fault."""
        nonlocal rows, message
        hits = np.flatnonzero(bad[:rows])
        if hits.size:
            rows = int(hits[0])
            message = describe(rows)

    # each of those rows is two cells, its feature and its score text
    cells = text.replace("\n", "\t").split("\t", 2 * rows)
    if domain == WORD_DOMAIN:
        column = np.array(cells[0 : 2 * rows : 2], dtype=object)
    else:
        n = int(domain)
        within = np.searchsorted(nuls, tabs) > np.searchsorted(nuls, starts)
        rule((tabs - starts != n) | within, lambda at: _width_fault(cells[2 * at], n))
        column = ngram_keys(cp, starts[:rows], n)
    rule(np.concatenate(([False], ~(column[1:] > column[:-1]))),
         lambda at: f"features out of order at {cells[2 * at]!r}")
    texts = cells[1 : 2 * rows : 2]
    parsed, unreadable = {}, set()
    for score_text in set(texts):
        try:
            parsed[score_text] = _parse_score(score_text)
        except ValueError:
            unreadable.add(score_text)
    if unreadable:
        rule(np.fromiter(map(unreadable.__contains__, texts), bool, len(texts)),
             lambda at: f"bad score {texts[at]!r}")
    scores = np.fromiter(map(parsed.get, texts[:rows]), np.float64, rows)
    rule(_outside_range(scores, max_score), lambda at: f"score {scores.item(at)} outside [0, {max_score:.6f}]")
    if message is not None:
        raise DataError(f"{path}:{rows + 1}: {message}")
    return FeatureTable(column, scores)


def load_models(directory) -> ModelSet:
    """Exact inverse of save_models: any row, line or score text it would not
    write, a blank line, an n-gram that breaks the width rule or a model row out
    of save order included, is a DataError naming its file and line. The
    manifest is checked in full before any model file is read, so a model row
    out of order is reported before a missing model file. Each domain loads as a
    ``FeatureTable`` over two arrays."""
    directory = Path(directory)
    manifest_path = directory / "manifest.tsv"
    if not manifest_path.is_file():
        raise DataError(f"{directory}: missing manifest.tsv")
    params, registry, model_rows = _parse_manifest(manifest_path)
    models: dict[str, LanguageModel] = {}
    for lineno, code, domain, total in model_rows:
        rel_path = _model_path(code, domain)
        if not (directory / rel_path).is_file():
            raise DataError(f"{manifest_path}:{lineno}: missing model file {rel_path}")
        model = models.setdefault(code, LanguageModel(code, {}, {}))
        model.domains[domain] = _load_model_file(directory / rel_path, domain, params.max_score())
        model.totals[domain] = total
    return ModelSet(params=params, models=models, registry=registry)
