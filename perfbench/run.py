"""Seeded benchmark of uralid: train, identify, evaluate and pipeline.

    python3 perfbench/run.py --workload identify-zipf55 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; it imports ``src/uralid`` from
there and installs nothing. Set-up writes the workload's inputs and trains
the models, three times in fresh processes, and reports the median. Then
rounds of the whole session repeat for about ``--seconds`` seconds (at
least three rounds).

``--trace 1`` instead alternates untraced and traced rounds, prints the
per-layer metrics (medians over traced rounds) and the tracing overhead,
and writes every span to ``perfbench/work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "work"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_tokens_per_s": "tokens/s",
    "model_load_s": "s",
    "identify_cold_sps": "sentences/s",
    "identify_warm_sps": "sentences/s",
    "evaluate_labels_per_s": "labels/s",
    "pipeline_pages_per_s": "pages/s",
}

PER_LAYER = {
    **dict.fromkeys((
        "features.tokenize_s", "features.extract_ngrams_s", "corpus.load_s", "models.train_s",
        "models.save_s", "models.load_s", "identifier.scorer_build_s",
        "identifier.score_words_cold_s", "identifier.predict_warm_s", "identifier.cjk_ratio_s",
        "identifier.format_s", "cli.identify_s", "identifier.batch_threads2_s",
        "evaluation.load_labels_s", "evaluation.confusion_s", "evaluation.track_scores_s",
        "pipeline.load_pages_s", "pipeline.stage1_s", "pipeline.stage2_s", "pipeline.stage3_s",
        "pipeline.stage4_s", "pipeline.stage5_s",
    ), "s"),
    **dict.fromkeys((
        "features.tokens", "features.unique_words", "models.features_stored",
        "identifier.cjk_fired", "pipeline.pages_retained", "pipeline.lines_unique",
        "pipeline.lines_retained", "pipeline.sentences_unique", "pipeline.sentences_labeled",
        "pipeline.candidate_sets", "pipeline.word_set_pairs",
        *(f"identifier.words_decided.{d}" for d in ("word", "6", "5", "4", "3", "2", "1", "none")),
    ), "count"),
    **dict.fromkeys(("models.disk_bytes", "identifier.matrix_bytes"), "bytes"),
    **dict.fromkeys((
        "identifier.matrix_absent_share", "identifier.word_reuse_ratio",
        "pipeline.rescoring_ratio", "trace.overhead_share",
    ), "ratio"),
}


def run_context(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    from uralid import backend

    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        top, commit = git.stdout.split() if git.returncode == 0 else ("", "unknown")
        commit = commit if Path(top).resolve() == ROOT else "unknown"
    except (OSError, ValueError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": backend.HAS_NUMBA,
        "backend": backend.resolve_backend(),
        "commit": commit,
    }


def run_average(samples: list[float], unit: str) -> float:
    """A rate as total work over total time (each sample does the same work); a time as its mean.

    Not the median: a shared machine's speed can flip between a slow and a
    fast state every few seconds, and a median jumps with whichever state
    held more samples, while the mean moves only with the share of time
    spent in each.
    """
    return statistics.harmonic_mean(samples) if unit.endswith("/s") else statistics.mean(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "uralid" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"run.py: {needed} is missing; run from a full source checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import prepare
    import session as bench

    if args.workload not in prepare.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(prepare.WORKLOADS)}")
    context = run_context(args.workload, args.seed, bool(args.trace))
    work = WORK_DIR / f"{args.workload}-{args.seed}-trace{args.trace}"
    metrics, pooled, traces, error = {}, {}, [], None
    setups, session = [], None
    try:
        setups = prepare.run_setups(args.workload, args.seed, work, 1 if args.trace else SETUP_REPEATS)
        session = bench.Session(args.seed, work, setups[0])
        if args.trace:
            metrics, traces = bench.measure_traced(session, args.seconds, PER_LAYER)
        else:
            pooled, context["rounds"] = bench.measure(session, args.seconds)
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for name, unit in END_TO_END.items():
                if name not in metrics:
                    metrics[name] = run_average(pooled[name], unit)
    except Exception as exc:  # report the failed operation instead of a traceback
        error = f"{type(exc).__name__}: {exc}"
        print(f"run.py: {error}", file=sys.stderr)
    if setups:  # so that separate runs with the same seed can be compared
        context["digests"] = {"inputs": setups[0]["digest"], **(session.expected if session else {})}
    attempted = len(setups) + (session.attempted if session else 0)
    failed = session.failed if session else 0
    if error is not None and failed == 0:  # it failed outside a measured phase
        attempted, failed = attempted + 1, 1

    wanted = PER_LAYER if args.trace else END_TO_END
    result_metrics = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in wanted.items()}
    correct = error is None
    record = {
        "context": context, "correct": correct, "error": error, "metrics": result_metrics,
        "samples": pooled, "traces": traces,
    }
    shutil.rmtree(work, ignore_errors=True)  # inputs, models and outputs: tens of MB a run
    work.mkdir(parents=True)
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, entry in result_metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print("context " + json.dumps(context))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
