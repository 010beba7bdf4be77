"""The measured round every workload repeats, its output checks, and the
per-layer readings taken from a traced round.

A round is the whole user session, in order: ``uralid train``, load the
models and build the scorer, identify the stream with an empty word cache,
again with the cache full, ``uralid evaluate``, and ``uralid pipeline``.
Every workload runs every phase, so every end-to-end metric exists on every
workload; what differs is which input is large (see prepare.WORKLOADS).
Set-up trains on every language, for ``setup_s`` and for the models the
round uses. The round trains again, on the shards it is given, so that the
samples of ``train_tokens_per_s`` fall at different moments of the run,
like every other phase's. A measured round trains one shard, which keeps
rounds short: the machine's speed drifts within a run, and short rounds
give every metric samples from every part of it.

At most one ``ModelSet`` and one ``Scorer`` are alive at a time, as in a
``uralid identify`` or ``uralid pipeline`` process, so that the peak RSS
is the program's and not the benchmark's. Checks that need a second model
set or a second interpreter run in set-up or in a subprocess.

Each phase is one operation. A phase that raises, a CLI call that exits
non-zero and a failed output check all count it as failed and end the run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib.util
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from uralid import cli, identifier, models, pipeline
from uralid.features import tokenize
from uralid.registry import default_registry

from prepare import (
    EVALUATE_LABELS, ROOT, SETUP_TIMEOUT_S, TRAIN_SHARDS, check, paths, run_cli, tiled, train_shards,
)
from spans import Tracer

WARM_REPEATS = 2
EVALUATE_REPEATS = 2
ORACLE_SAMPLE = 16
ORACLE_CJK_SAMPLE = 8
ORACLE_TOLERANCE = 1e-9
FUNNEL = (
    ("pages_retained", "pages_in"),
    ("lines_unique", "lines_total"),
    ("lines_retained", "lines_unique"),
    ("sentences_unique", "sentences_extracted"),
    ("sentences_labeled", "sentences_unique"),
)
DOMAINS = ("word", "6", "5", "4", "3", "2", "1", None)
MIN_ROUNDS = 3


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name, phase=False):
        yield


def predictions_digest(predictions) -> str:
    payload = repr([(p.winner, p.scores, p.domain_trace) for p in predictions])
    return hashlib.sha256(payload.encode()).hexdigest()


def pipeline_digest(printed: str, out: Path) -> str:
    return hashlib.sha256((printed + out.read_text(encoding="utf-8")).encode()).hexdigest()


def load_oracle():
    spec = importlib.util.spec_from_file_location("uralid_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_tracks(golds: list[str], preds: list[str], registry) -> str:
    """The three track scores, recomputed from the label lists by definition."""
    pairs = Counter(zip(golds, preds))
    gold_n, pred_n = Counter(golds), Counter(preds)

    def f1(precision, recall):
        return Fraction(0) if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    def language_f1(code):
        tp = pairs[(code, code)]
        if gold_n[code] == 0:
            return f1(Fraction(1) if pred_n[code] == 0 else Fraction(0), Fraction(1))
        precision = Fraction(1) if pred_n[code] == 0 else Fraction(tp, pred_n[code])
        return f1(precision, Fraction(tp, gold_n[code]))

    relevant = registry.relevant_codes()
    track1 = sum(map(language_f1, relevant), Fraction(0)) / len(relevant)
    track3 = sum(map(language_f1, registry.codes()), Fraction(0)) / len(registry)
    tp = sum(pairs[(c, c)] for c in relevant)
    predicted = sum(pred_n[c] for c in relevant)
    gold = sum(gold_n[c] for c in relevant)
    track2 = f1(
        Fraction(1) if predicted == 0 else Fraction(tp, predicted),
        Fraction(1) if gold == 0 else Fraction(tp, gold),
    )
    return (
        f"track1_relevant_macro_f1\t{float(track1):.6f}\n"
        f"track2_relevant_micro_f1\t{float(track2):.6f}\n"
        f"track3_macro_f1\t{float(track3):.6f}\n"
    )


def array_stats(obj, depth: int = 2) -> tuple[int, int, int]:
    """(bytes, float entries, negative float entries) of the arrays an object holds."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return obj.nbytes, obj.size, int(np.count_nonzero(obj < 0))
        return obj.nbytes, 0, 0
    if depth == 0:
        return 0, 0, 0
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__"):
        children = vars(obj).values()
    else:
        return 0, 0, 0
    total = [0, 0, 0]
    for child in children:
        for i, value in enumerate(array_stats(child, depth - 1)):
            total[i] += value
    return tuple(total)


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class Session:
    """One workload's inputs (already written by set-up) and its rounds."""

    def __init__(self, seed: int, work: Path, setup: dict):
        self.seed = seed
        self.work = work
        self.where = paths(work)
        self.registry = default_registry()
        self.shard_tokens = setup["shard_tokens"]
        self.stream = self.where["stream"].read_text(encoding="utf-8").splitlines()
        gold_rows = self.where["gold"].read_text(encoding="utf-8").splitlines()
        self.gold = [row.rsplit("\t", 1)[1] for row in gold_rows[: len(self.stream)]]
        self.pages = sum(1 for row in self.where["crawl"].read_text(encoding="utf-8").splitlines() if row)
        self.models_dir = self.where["models"]
        self.shard_codes = train_shards(self.registry)
        self.model_files = {  # the hash of every per-language file set-up trained
            file.name: hashlib.sha256(file.read_bytes()).hexdigest()
            for file in (self.models_dir / "models").iterdir()
        }
        self.pred_path = work / "pred.txt"
        self.attempted = 0
        self.failed = 0
        self.expected: dict[str, str] = {}  # digests every round must reproduce

    # -- bookkeeping ----------------------------------------------------------

    @contextlib.contextmanager
    def operation(self):
        self.attempted += 1
        try:
            yield
        except BaseException:
            self.failed += 1
            raise

    def same_as_before(self, key: str, value: str) -> None:
        first = self.expected.setdefault(key, value)
        check(first == value, f"{key} changed between rounds with the same seed")

    # -- the round --------------------------------------------------------------

    def round(self, shards, tracer: Tracer | None = None) -> dict[str, list[float]]:
        """Run every phase, training ``shards``; return end-to-end samples
        (and layer readings if traced).

        The cheap warm and evaluate phases run twice a round, so that they
        get about as many samples as the others.
        """
        t = tracer or _NoTracer()
        samples: dict[str, list[float]] = {}
        gc.collect()
        self._train(t, samples, shards)

        with self.operation(), t.span("load", phase=True):
            start = time.perf_counter()
            model_set = models.load_models(self.models_dir)
            scorer = model_set.scorer()
            samples["model_load_s"] = [time.perf_counter() - start]

        with self.operation(), t.span("identify.cold", phase=True):
            start = time.perf_counter()
            cold = identifier.identify_batch(self.stream, model_set)
            samples["identify_cold_sps"] = [len(self.stream) / (time.perf_counter() - start)]
            self.same_as_before("predictions", predictions_digest(cold))
        samples["identify_warm_sps"] = []
        for _ in range(WARM_REPEATS):
            with self.operation(), t.span("identify.warm", phase=True):
                start = time.perf_counter()
                warm = identifier.identify_batch(self.stream, model_set)
                samples["identify_warm_sps"].append(len(self.stream) / (time.perf_counter() - start))
                check(warm == cold, "warm-cache predictions differ from cold-cache ones")

        if tracer is not None:
            samples.update(self._identify_layers(tracer, model_set, scorer, cold))
        winners = [p.winner for p in cold]
        del model_set, scorer, cold, warm
        gc.collect()

        self._evaluate(t, winners, samples)
        self._pipeline(t, samples)
        return samples

    def _train(self, t, samples, shards) -> None:
        out = self.work / "shard-models"
        samples["train_tokens_per_s"] = []
        for shard in shards:
            shutil.rmtree(out, ignore_errors=True)
            with self.operation(), t.span("train", phase=True):
                start = time.perf_counter()
                run_cli(["train", "--corpora", str(self.where["shards"] / str(shard)), "--out", str(out)])
                samples["train_tokens_per_s"].append(self.shard_tokens[shard] / (time.perf_counter() - start))
                files = {file.name: file for file in (out / "models").iterdir()}
                check(
                    {name.split(".")[0] for name in files} == set(self.shard_codes[shard]),
                    f"uralid train on shard {shard} wrote models for other languages",
                )
                for name, file in files.items():
                    check(
                        hashlib.sha256(file.read_bytes()).hexdigest() == self.model_files[name],
                        f"uralid train on shard {shard} wrote another {name} than set-up",
                    )

    def _evaluate(self, t, winners, samples) -> None:
        self.pred_path.write_text(
            "".join(code + "\n" for code in tiled(winners, EVALUATE_LABELS)), encoding="utf-8"
        )
        expected = expected_tracks(
            tiled(self.gold, EVALUATE_LABELS), tiled(winners, EVALUATE_LABELS), self.registry
        )
        argv = ["evaluate", "--gold", str(self.where["gold"]), "--pred", str(self.pred_path)]
        times = []
        with self.operation(), t.span("evaluate", phase=True):
            for _ in range(EVALUATE_REPEATS):
                start = time.perf_counter()
                printed = run_cli(argv)
                times.append(time.perf_counter() - start)
                check(printed == expected, f"evaluate printed {printed!r}, expected {expected!r}")
        samples["evaluate_labels_per_s"] = [EVALUATE_LABELS / seconds for seconds in times]

    def _pipeline(self, t, samples) -> None:
        out = self.work / "sentences.tsv"
        argv = ["pipeline", "--pages", str(self.where["crawl"]), "--models", str(self.models_dir), "--out", str(out)]
        with self.operation(), t.span("pipeline", phase=True):
            start = time.perf_counter()
            printed = run_cli(argv)
            samples["pipeline_pages_per_s"] = [self.pages / (time.perf_counter() - start)]
            funnel = {name: int(value) for name, value in (row.split("\t") for row in printed.splitlines())}
            check(funnel["pages_in"] == self.pages, f"pipeline read {funnel['pages_in']} of {self.pages} pages")
            for smaller, larger in FUNNEL:
                check(funnel[smaller] <= funnel[larger], f"funnel not monotone: {smaller} > {larger}")
            check(funnel["sentences_labeled"] > 0, "pipeline labeled no sentence")
            rows = out.read_text(encoding="utf-8").splitlines()
            check(len(rows) == funnel["sentences_labeled"], "pipeline output and report disagree")
            for row in rows:
                language = row.rsplit("\t", 1)[1]
                check(self.registry.is_relevant(language), f"pipeline labeled a sentence {language!r}")
            self.same_as_before("pipeline", pipeline_digest(printed, out))
        if isinstance(t, Tracer):
            for name in ("pages_retained", "lines_unique", "lines_retained", "sentences_unique", "sentences_labeled"):
                samples[f"pipeline.{name}"] = funnel[name]

    # -- checks made once per run, after the rounds ------------------------------

    def verify(self, tracer: Tracer | None = None) -> dict[str, float]:
        """Threads, the CLI, the oracle and a fresh interpreter must agree with the rounds."""
        t = tracer or _NoTracer()
        readings: dict[str, float] = {}
        with self.operation(), t.span("pipeline.fresh"):
            self._fresh_pipeline()
        model_set = models.load_models(self.models_dir)
        identifier.identify_batch(self.stream, model_set)  # fills the word cache
        with self.operation(), t.span("identify.threads2", phase=True):
            start = time.perf_counter()
            predictions = identifier.identify_batch(self.stream, model_set, threads=2)
            readings["identifier.batch_threads2_s"] = time.perf_counter() - start
            self.same_as_before("predictions", predictions_digest(predictions))
        with self.operation(), t.span("oracle"):
            self._oracle(model_set, predictions)
        if tracer is not None:
            readings.update(self._identify_extras(tracer, model_set, predictions))
        return readings

    def _fresh_pipeline(self) -> None:
        """``uralid pipeline`` in a new interpreter with another hash seed: the same digest.

        Every round shares this process's hash seed, so only this catches
        output that follows set or dict order.
        """
        out = self.work / "sentences-fresh.tsv"
        hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        done = subprocess.run(
            [sys.executable, "-m", "uralid", "pipeline", "--pages", str(self.where["crawl"]),
             "--models", str(self.models_dir), "--out", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed},
        )
        check(done.returncode == 0, f"uralid pipeline exited with {done.returncode}: {done.stderr.strip()}")
        check(
            pipeline_digest(done.stdout, out) == self.expected["pipeline"],
            "uralid pipeline output changed with the hash seed",
        )

    def _oracle(self, model_set, predictions) -> None:
        oracle = load_oracle()
        rng = random.Random(f"oracle:{self.seed}")
        cjk = [i for i, code in enumerate(self.gold) if self.registry.is_cjk(code)]
        sample = rng.sample(range(len(self.stream)), ORACLE_SAMPLE)
        sample += rng.sample(cjk, min(ORACLE_CJK_SAMPLE, len(cjk)))
        tables = {code: dict(model.domains) for code, model in model_set.models.items()}
        codes = [c for c in self.registry.codes() if c in model_set.models]
        params = model_set.params
        for i in sample:
            sentence = self.stream[i]
            expected = oracle.oracle_score_sentence(
                sentence, tables, codes, params.n_max, params.penalty_p, params.use_words
            )
            if oracle.oracle_cjk_ratio(sentence, self.registry.cjk_blocks) > 0.5:
                expected = {
                    c: s if self.registry.is_cjk(c) else s + identifier.CJK_HIGH_PENALTY
                    for c, s in expected.items()
                }
            got = predictions[i].scores
            worst = max(abs(got[c] - expected[c]) for c in codes)
            check(worst <= ORACLE_TOLERANCE, f"sentence {i} differs from the oracle by {worst}")
            check(
                predictions[i].winner == oracle.oracle_winner(expected, codes),
                f"sentence {i}: winner differs from the oracle",
            )

    # -- per-layer readings -----------------------------------------------------

    def _identify_layers(self, tracer: Tracer, model_set, scorer, cold) -> dict[str, float]:
        nbytes, entries, absent = array_stats(scorer)
        decided = Counter(domain for p in cold for _, domain in p.domain_trace)
        readings = {
            "models.features_stored": sum(
                len(table) for model in model_set.models.values() for table in model.domains.values()
            ),
            "models.disk_bytes": directory_bytes(self.models_dir),
            "identifier.matrix_bytes": nbytes,
            "identifier.matrix_absent_share": absent / entries if entries else 0.0,
            "identifier.cjk_fired": tracer.counters["identifier.cjk_fired:identify.warm"] / WARM_REPEATS,
        }
        for domain in DOMAINS:
            readings[f"identifier.words_decided.{domain or 'none'}"] = decided[domain]
        return readings

    def _identify_extras(self, tracer: Tracer, model_set, predictions) -> dict[str, float]:
        words = list(dict.fromkeys(w for s in self.stream for w in tokenize(s)))
        tokens = sum(len(tokenize(s)) for s in self.stream)
        readings = {"identifier.word_reuse_ratio": 1 - len(words) / tokens}

        fresh = identifier.Scorer(model_set)
        rows, _ = fresh.candidate_rows(None)
        with tracer.span("identify.words_cold", phase=True):
            start = time.perf_counter()
            for word in words:
                fresh.score_word(word, rows)
            readings["identifier.score_words_cold_s"] = time.perf_counter() - start
        del fresh

        with tracer.span("identify.format", phase=True):
            start = time.perf_counter()
            payload = "".join(
                identifier.format_prediction(i, p, False) + "\n" for i, p in enumerate(predictions)
            )
            readings["identifier.format_s"] = time.perf_counter() - start

        out = self.work / "identified.tsv"
        with self.operation(), tracer.span("cli.identify", phase=True):
            start = time.perf_counter()
            run_cli(["identify", "--models", str(self.models_dir), "--input", str(self.where["stream"]), "--out", str(out)])
            readings["cli.identify_s"] = time.perf_counter() - start
            check(out.read_text(encoding="utf-8") == payload, "uralid identify output differs from the API's")
        return readings


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap the public functions each layer exposes, where their callers look them up."""

    def count_tokens(tr, args, result):
        tr.counters["features.tokens"] += len(result)
        tr.sets["features.words"].update(result)

    def count_cjk(tr, args, result):
        if result > 0.5:
            tr.counters[f"identifier.cjk_fired:{tr.phase}"] += 1

    def count_pairs(tr, args):
        if tr.phase == "pipeline":
            _, word, rows = args[:3]
            key = rows.tobytes()
            tr.sets["pipeline.rows"].add(key)
            tr.sets["pipeline.words"].add(word)
            tr.sets["pipeline.pairs"].add((word, key))

    for module in (models, identifier):
        tracer.wrap_hot(module, "tokenize", "features.tokenize", count_tokens)
        tracer.wrap_hot(module, "extract_ngrams", "features.extract_ngrams")
    tracer.wrap_span(cli, "load_corpus", "corpus.load")
    tracer.wrap_span(cli, "train_models", "models.train")
    tracer.wrap_span(cli, "save_models", "models.save")
    tracer.wrap_span(models, "load_models", "models.load")
    tracer.wrap_span(cli, "load_models", "models.load")
    tracer.wrap_span(identifier.Scorer, "__init__", "identifier.scorer_build")
    tracer.wrap_hot(identifier.Scorer, "predict", "identifier.predict")
    tracer.wrap_hot(identifier, "cjk_ratio", "identifier.cjk_ratio", count_cjk)
    tracer.wrap_observe(identifier.Scorer, "score_word", count_pairs)
    tracer.wrap_span(cli, "load_labels", "evaluation.load_labels")
    tracer.wrap_span(cli, "confusion", "evaluation.confusion")
    tracer.wrap_span(cli, "compute_track_scores", "evaluation.track_scores")
    tracer.wrap_span(cli, "load_pages", "pipeline.load_pages")
    tracer.wrap_span(pipeline, "stage1_filter_pages", "pipeline.stage1")
    tracer.wrap_span(pipeline, "stage2_dedup_lines", "pipeline.stage2")
    tracer.wrap_span(pipeline, "stage3_filter_lines", "pipeline.stage3")
    tracer.wrap_hot(pipeline, "stage4_extract_sentences", "pipeline.stage4")
    tracer.wrap_span(pipeline, "stage5_label_sentences", "pipeline.stage5")


def layer_readings(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts of one traced round."""
    pairs = len(tracer.sets["pipeline.pairs"])
    words = len(tracer.sets["pipeline.words"])
    return {
        "features.tokenize_s": tracer.hot_seconds("features.tokenize"),
        "features.extract_ngrams_s": tracer.hot_seconds("features.extract_ngrams"),
        "features.tokens": tracer.counters["features.tokens"],
        "features.unique_words": len(tracer.sets["features.words"]),
        "corpus.load_s": tracer.span_seconds("corpus.load"),
        "models.train_s": tracer.span_seconds("models.train"),
        "models.save_s": tracer.span_seconds("models.save"),
        "models.load_s": tracer.span_seconds("models.load", "load"),
        "identifier.scorer_build_s": tracer.span_seconds("identifier.scorer_build", "load"),
        "identifier.predict_warm_s": tracer.hot_seconds("identifier.predict", "identify.warm") / WARM_REPEATS,
        "identifier.cjk_ratio_s": tracer.hot_seconds("identifier.cjk_ratio", "identify.warm") / WARM_REPEATS,
        "evaluation.load_labels_s": tracer.span_seconds("evaluation.load_labels") / EVALUATE_REPEATS,
        "evaluation.confusion_s": tracer.span_seconds("evaluation.confusion") / EVALUATE_REPEATS,
        "evaluation.track_scores_s": tracer.span_seconds("evaluation.track_scores") / EVALUATE_REPEATS,
        "pipeline.load_pages_s": tracer.span_seconds("pipeline.load_pages"),
        "pipeline.stage1_s": tracer.span_seconds("pipeline.stage1"),
        "pipeline.stage2_s": tracer.span_seconds("pipeline.stage2"),
        "pipeline.stage3_s": tracer.span_seconds("pipeline.stage3"),
        "pipeline.stage4_s": tracer.hot_seconds("pipeline.stage4"),
        "pipeline.stage5_s": tracer.span_seconds("pipeline.stage5"),
        "pipeline.candidate_sets": len(tracer.sets["pipeline.rows"]),
        "pipeline.word_set_pairs": pairs,
        "pipeline.rescoring_ratio": pairs / words if words else 0.0,
    }


def measure(session: Session, seconds: float) -> tuple[dict[str, list[float]], int]:
    """Rounds until the next one would end past ``seconds``; samples pooled by metric."""
    pooled: dict[str, list[float]] = {}
    rounds = 0
    started = time.perf_counter()
    last = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - started + last <= seconds:
        start = time.perf_counter()
        for name, values in session.round([rounds % TRAIN_SHARDS]).items():
            pooled.setdefault(name, []).extend(values)
        last = time.perf_counter() - start
        rounds += 1
    session.verify()
    return pooled, rounds


def measure_traced(session: Session, seconds: float, names) -> tuple[dict[str, float], list[dict]]:
    """Alternate untraced and traced rounds; per-layer medians over the traced ones.

    Each of these rounds trains every shard, so that the training layers
    cover all languages and every count repeats exactly from round to round.
    ``trace.overhead_share`` is the traced rounds' median time over the
    untraced rounds' median time, minus one.
    """
    every_shard = range(TRAIN_SHARDS)
    plain_s, traced_s, readings, traces = [], [], [], []
    started = time.perf_counter()
    while not traced_s or time.perf_counter() - started + plain_s[-1] + traced_s[-1] <= seconds:
        start = time.perf_counter()
        session.round(every_shard)
        plain_s.append(time.perf_counter() - start)

        tracer = Tracer()
        install_layer_tracing(tracer)
        try:
            start = time.perf_counter()
            sample = session.round(every_shard, tracer)
            traced_s.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        sample.update(layer_readings(tracer))
        readings.append(sample)
        traces.append(tracer.to_json())

    tracer = Tracer()
    install_layer_tracing(tracer)
    try:
        extras = session.verify(tracer)
    finally:
        tracer.restore()
    traces.append(tracer.to_json())

    metrics = {name: statistics.median(r[name] for r in readings) for name in names if name in readings[0]}
    metrics.update(extras)
    metrics["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
    return metrics, traces
