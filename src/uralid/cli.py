"""Command line entry point: train, identify, evaluate and pipeline.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

from . import __version__
from .corpus import load_corpus
from .errors import DataError, decode_utf8, read_utf8, split_records
from .evaluation import compute_track_scores, confusion, format_track_scores, load_labels, report
from .identifier import format_prediction
from .models import HeliParams, load_models, save_models, train_models
from .pipeline import (
    DEFAULT_MIN_SHARE,
    check_min_share,
    format_report,
    load_pages,
    run_pipeline,
    write_report,
    write_sentences,
)
from .registry import default_registry, load_registry


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not sys.exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _load_registry(args):
    return load_registry(args.registry) if args.registry else default_registry()


def _add_param_flags(parser):
    """One flag per HeliParams field, defaulting to it; HeliParams checks the values."""
    parser.add_argument("--n-max", dest="n_max", type=int, default=HeliParams.n_max,
                        help="longest character n-gram to model (default %(default)s)")
    parser.add_argument("--cutoff", dest="cutoff_c", type=float, default=HeliParams.cutoff_c,
                        help="minimum relative frequency a feature must reach (default %(default)s)")
    parser.add_argument("--penalty", dest="penalty_p", type=float, default=HeliParams.penalty_p,
                        help="score for features unseen in a model (default %(default)s)")
    parser.add_argument("--no-words", dest="use_words", action="store_false",
                        default=HeliParams.use_words, help="disable the whole-word feature domain")


def build_parser() -> _Parser:
    parser = _Parser(prog="uralid", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
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
    pipeline.add_argument("--min-share", dest="min_share", type=float, default=DEFAULT_MIN_SHARE,
                          help="minimum relevant text share to keep a page (default %(default)s)")
    pipeline.set_defaults(func=cmd_pipeline)

    return parser


def cmd_train(args) -> int:
    params = HeliParams(**{f.name: getattr(args, f.name) for f in fields(HeliParams)})
    registry = _load_registry(args)
    corpora_dir = Path(args.corpora)
    if not corpora_dir.is_dir():
        raise DataError(f"{corpora_dir}: not a directory")
    corpora = []
    for file in sorted(corpora_dir.iterdir()):
        if not file.is_file() or file.suffix not in {".txt", ".tsv"}:
            continue
        code = file.stem.split("_")[0].split(".")[0]
        corpora.append(load_corpus(file, code))
    if not corpora:
        raise DataError(f"{corpora_dir}: no .txt or .tsv corpus files found")
    model_set = train_models(corpora, params, registry)
    save_models(model_set, args.out)
    print(f"trained {len(model_set.models)} language models -> {args.out}")
    return 0


def _read_stdin() -> str:
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # a text-only stream such as io.StringIO has no bytes to check
        return sys.stdin.read()
    return decode_utf8(buffer.read(), "<stdin>")


def cmd_identify(args) -> int:
    model_set = load_models(args.models)
    candidates = args.candidates.split(",") if args.candidates is not None else None
    scorer = model_set.scorer()  # built before the clock starts
    try:
        rows, codes = scorer.candidate_rows(candidates)
    except ValueError as exc:
        if candidates is None:
            raise
        raise UsageError(f"uralid: error: --candidates: {exc}") from None
    sentences = split_records(read_utf8(args.input) if args.input else _read_stdin())

    # --out opens only once the input is read, so it may name the input file
    started = time.perf_counter()
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for index, prediction in enumerate(scorer.predictions(sentences, rows, codes)):
            out.write(format_prediction(index, prediction, args.scores) + "\n")
    elapsed = time.perf_counter() - started
    rate = len(sentences) / elapsed if elapsed > 0 else float("inf")
    print(f"identified {len(sentences)} sentences in {elapsed:.3f}s ({rate:.0f} sentences/s)",
          file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    registry = _load_registry(args)
    golds = load_labels(args.gold, registry)
    preds = load_labels(args.pred, registry)
    if len(golds) != len(preds):
        raise DataError(
            f"label counts differ: {args.gold} has {len(golds)}, {args.pred} has {len(preds)}"
        )
    matrix = confusion(golds, preds, registry)
    scores = compute_track_scores(matrix)
    if args.out:
        report(matrix, scores, args.out)
    sys.stdout.write(format_track_scores(scores))
    return 0


def cmd_pipeline(args) -> int:
    check_min_share(args.min_share)  # before any file is read
    model_set = load_models(args.models)
    sentences, funnel = run_pipeline(load_pages(args.pages), model_set, args.min_share)
    write_sentences(sentences, args.out)
    if args.report:
        write_report(funnel, args.report)
    sys.stdout.write(format_report(funnel))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
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
