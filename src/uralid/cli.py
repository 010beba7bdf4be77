"""Command line entry point: train, identify, evaluate and pipeline.

Exit codes: 0 success, 1 usage error, 2 data error. Every flag can be
overridden by an ``ULI_``-prefixed environment variable named after its
destination (``ULI_N_MAX``, ``ULI_THREADS``, ``ULI_MIN_SHARE``, ...); the
environment wins over the command line.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .corpus import load_corpus, sniff_format
from .errors import DataError, decode_utf8, read_utf8
from .evaluation import compute_track_scores, confusion, format_track_scores, load_labels, report
from .identifier import format_prediction, identify_batch, main_throughput_note
from .models import HeliParams, load_models, save_models, train_models
from .pipeline import (
    PipelineConfig,
    format_report,
    load_pages,
    run_pipeline,
    write_report,
    write_sentences,
)
from .registry import default_registry, load_registry

log = logging.getLogger("uralid")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return number


def _threads(value: str) -> int:
    if value == "auto":
        return os.cpu_count() or 1
    return _positive_int(value)


def _bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# flag destination -> converter for the matching ULI_<DEST> variable
_ENV_CONVERTERS = {
    "n_max": _positive_int,
    "cutoff": float,
    "penalty": float,
    "use_words": _bool,
    "threads": _threads,
    "min_share": float,
    "registry": str,
    "models": str,
}


def apply_env_overrides(args: argparse.Namespace, environ=os.environ) -> None:
    for dest, convert in _ENV_CONVERTERS.items():
        if not hasattr(args, dest):
            continue
        raw = environ.get("ULI_" + dest.upper())
        if raw is None:
            continue
        try:
            setattr(args, dest, convert(raw))
        except ValueError as exc:
            raise UsageError(f"ULI_{dest.upper()}: {exc}") from None


def _load_registry(args):
    return load_registry(args.registry) if args.registry else default_registry()


def _add_param_flags(parser):
    parser.add_argument("--n-max", dest="n_max", type=_positive_int, default=6,
                        help="longest character n-gram to model (default 6)")
    parser.add_argument("--cutoff", type=float, default=5e-7,
                        help="minimum relative frequency a feature must reach (default 5e-7)")
    parser.add_argument("--penalty", type=float, default=7.0,
                        help="score for features unseen in a model (default 7)")
    parser.add_argument("--no-words", dest="use_words", action="store_false",
                        help="disable the whole-word feature domain")


def build_parser() -> _Parser:
    parser = _Parser(prog="uralid", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="train models from per-language corpora")
    train.add_argument("--registry", help="language registry TSV (default: built-in)")
    train.add_argument("--corpora", required=True,
                       help="directory of corpus files named <code>.txt / <code>.tsv")
    train.add_argument("--out", required=True, help="model directory to write")
    _add_param_flags(train)
    train.set_defaults(func=cmd_train)

    identify = sub.add_parser("identify", help="identify the language of each input line")
    identify.add_argument("--models", required=True, help="model directory")
    identify.add_argument("--input", help="sentence-per-line file (default: stdin)")
    identify.add_argument("--out", help="output TSV (default: stdout)")
    identify.add_argument("--candidates", help="comma-separated candidate codes")
    identify.add_argument("--threads", type=_threads, default=1,
                          help="worker threads, or 'auto' (default 1)")
    identify.add_argument("--scores", action="store_true",
                          help="append the full per-candidate score vector")
    identify.set_defaults(func=cmd_identify)

    evaluate = sub.add_parser("evaluate", help="score predictions against gold labels")
    evaluate.add_argument("--gold", required=True, help="gold labels: sentence<TAB>code or bare codes")
    evaluate.add_argument("--pred", required=True, help="predicted labels, same formats")
    evaluate.add_argument("--registry", help="language registry TSV (default: built-in)")
    evaluate.add_argument("--out", help="directory for confusion matrix and per-language report")
    evaluate.set_defaults(func=cmd_evaluate)

    pipeline = sub.add_parser("pipeline", help="clean a crawl into labeled sentences")
    pipeline.add_argument("--pages", required=True,
                          help="url<TAB>base64(text) TSV, or a directory of .txt files")
    pipeline.add_argument("--models", required=True, help="model directory")
    pipeline.add_argument("--out", required=True, help="labeled sentence TSV to write")
    pipeline.add_argument("--report", help="funnel count TSV to write")
    pipeline.add_argument("--min-share", dest="min_share", type=float, default=0.02,
                          help="minimum relevant text share to keep a page (default 0.02)")
    pipeline.set_defaults(func=cmd_pipeline)

    return parser


def cmd_train(args) -> int:
    registry = _load_registry(args)
    params = HeliParams(
        n_max=args.n_max,
        cutoff_c=args.cutoff,
        penalty_p=args.penalty,
        use_words=args.use_words,
    )
    corpora_dir = Path(args.corpora)
    if not corpora_dir.is_dir():
        raise DataError(f"{corpora_dir}: not a directory")
    corpora = []
    for file in sorted(corpora_dir.iterdir()):
        if not file.is_file() or file.suffix not in {".txt", ".tsv"}:
            continue
        code = file.stem.split("_")[0].split(".")[0]
        corpora.append(load_corpus(file, code, format=sniff_format(file)))
    if not corpora:
        raise DataError(f"{corpora_dir}: no .txt or .tsv corpus files found")
    model_set = train_models(corpora, params, registry)
    save_models(model_set, args.out)
    log.info("trained %d languages into %s", len(model_set.models), args.out)
    print(f"trained {len(model_set.models)} language models -> {args.out}")
    return 0


def _read_stdin() -> str:
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text-only stream such as io.StringIO has no bytes to check
        return sys.stdin.read()
    return decode_utf8(buffer.read(), "<stdin>")


def cmd_identify(args) -> int:
    model_set = load_models(args.models)
    model_set.scorer()  # built before the clock starts
    sentences = (read_utf8(args.input) if args.input else _read_stdin()).splitlines()
    candidates = args.candidates.split(",") if args.candidates else None

    started = time.perf_counter()
    predictions = identify_batch(
        sentences, model_set, candidates=candidates, threads=args.threads
    )
    elapsed = time.perf_counter() - started

    rows = [
        format_prediction(index, prediction, args.scores)
        for index, prediction in enumerate(predictions)
    ]
    payload = "".join(row + "\n" for row in rows)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    main_throughput_note(len(sentences), elapsed)
    return 0


def cmd_evaluate(args) -> int:
    registry = _load_registry(args)
    golds = load_labels(args.gold, registry)
    preds = load_labels(args.pred, registry)
    matrix = confusion(golds, preds, registry)
    scores = compute_track_scores(matrix)
    if args.out:
        report(matrix, scores, args.out)
    sys.stdout.write(format_track_scores(scores))
    return 0


def cmd_pipeline(args) -> int:
    model_set = load_models(args.models)
    pages = load_pages(args.pages)
    sentences, funnel = run_pipeline(
        pages, model_set, PipelineConfig(min_share=args.min_share)
    )
    write_sentences(sentences, args.out)
    if args.report:
        write_report(funnel, args.report)
    sys.stdout.write(format_report(funnel))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        apply_env_overrides(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"uralid: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"uralid: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"uralid: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
