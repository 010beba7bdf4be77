import argparse
import io
import shutil

import pytest

from helpers import ALPHABETS, disjoint_sentences, make_registry
from uralid.cli import UsageError, apply_env_overrides, main
from uralid.models import load_models
from uralid.registry import save_registry


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Registry file, corpora directory and a trained model directory."""
    root = tmp_path_factory.mktemp("cli")
    registry_path = root / "registry.tsv"
    save_registry(make_registry(), registry_path)

    corpora = root / "corpora"
    corpora.mkdir()
    for code in ("fkv", "izh", "swe"):
        listing = disjoint_sentences(code, 20)
        if code == "izh":
            rows = [f"{i + 1}\t{s}" for i, s in enumerate(listing)]
            (corpora / "izh.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        else:
            (corpora / f"{code}.txt").write_text("\n".join(listing) + "\n", encoding="utf-8")

    models = root / "models"
    code = main(
        [
            "train",
            "--registry", str(registry_path),
            "--corpora", str(corpora),
            "--out", str(models),
            "--n-max", "3",
        ]
    )
    assert code == 0
    return {"root": root, "registry": registry_path, "corpora": corpora, "models": models}


def test_train_wrote_loadable_models(workspace):
    ms = load_models(workspace["models"])
    assert set(ms.models) == {"fkv", "izh", "swe"}
    assert ms.params.n_max == 3


def test_train_sniffs_indexed_corpora(workspace):
    ms = load_models(workspace["models"])
    # the izh corpus was indexed; a stray "1" token would poison the model
    assert " 1 " not in ms.models["izh"].domains["word"]


def test_identify_from_file_to_file(workspace, capsys):
    src = workspace["root"] / "input.txt"
    src.write_text("abba dede\nfigi gihi\n", encoding="utf-8")
    out = workspace["root"] / "out.tsv"
    code = main(
        ["identify", "--models", str(workspace["models"]), "--input", str(src), "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0].split("\t")[:2] == ["0", "fkv"]
    assert rows[1].split("\t")[:2] == ["1", "izh"]
    assert "sentences/s" in capsys.readouterr().err


def test_identify_reads_stdin_writes_stdout(workspace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("abba dede\n"))
    code = main(["identify", "--models", str(workspace["models"])])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("0\tfkv\t")


def test_identify_scores_flag_appends_all_candidates(workspace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("abba\n"))
    code = main(["identify", "--models", str(workspace["models"]), "--scores"])
    assert code == 0
    fields = capsys.readouterr().out.splitlines()[0].split("\t")
    assert fields[3:] == [
        "fkv", fields[4], "izh", fields[6], "swe", fields[8]
    ]


def test_identify_candidates_flag_restricts(workspace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("abba dede\n"))
    code = main(
        ["identify", "--models", str(workspace["models"]), "--candidates", "izh,swe"]
    )
    assert code == 0
    winner = capsys.readouterr().out.split("\t")[1]
    assert winner in {"izh", "swe"}


def test_identify_threads_do_not_change_output(workspace, tmp_path):
    src = tmp_path / "input.txt"
    vocab = ["abba dede", "figi gihi", "klon molon"]
    src.write_text("".join(vocab[i % 3] + "\n" for i in range(60)), encoding="utf-8")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.tsv"
        code = main(
            [
                "identify",
                "--models", str(workspace["models"]),
                "--input", str(src),
                "--out", str(out),
                "--threads", threads,
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


BAD_UTF8 = b"abba\n\xff dede\n"


def test_identify_input_invalid_utf8_is_data_error(workspace, tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_bytes(BAD_UTF8)
    assert main(["identify", "--models", str(workspace["models"]), "--input", str(src)]) == 2
    assert capsys.readouterr().err == f"uralid: {src}:2: invalid UTF-8 at byte offset 5\n"


def test_identify_stdin_invalid_utf8_is_data_error(workspace, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(BAD_UTF8), encoding="utf-8"))
    assert main(["identify", "--models", str(workspace["models"])]) == 2
    captured = capsys.readouterr()
    assert captured.err == "uralid: <stdin>:2: invalid UTF-8 at byte offset 5\n"
    assert captured.out == ""


def test_identify_stdin_bytes_give_the_text_stream_output(workspace, capsys, monkeypatch):
    outputs = []
    for stdin in (io.StringIO("abba dede\r\nfigi\n"),
                  io.TextIOWrapper(io.BytesIO(b"abba dede\r\nfigi\n"), encoding="utf-8")):
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["identify", "--models", str(workspace["models"])]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert [row.split("\t")[:2] for row in outputs[0].splitlines()] == [["0", "fkv"], ["1", "izh"]]


@pytest.mark.parametrize("bad", ["gold", "pred"])
def test_evaluate_invalid_utf8_is_data_error(workspace, tmp_path, capsys, bad):
    files = {name: tmp_path / f"{name}.tsv" for name in ("gold", "pred")}
    for name, path in files.items():
        path.write_bytes(b"fkv\n\xfffkv\n" if name == bad else b"fkv\nfkv\n")
    argv = ["evaluate", "--gold", str(files["gold"]), "--pred", str(files["pred"]),
            "--registry", str(workspace["registry"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"uralid: {files[bad]}:2: invalid UTF-8 at byte offset 4\n"


@pytest.mark.parametrize(
    "bad", ["manifest.tsv", "models/fkv.1.tsv"], ids=["manifest", "model-file"]
)
def test_model_files_invalid_utf8_is_data_error(workspace, tmp_path, capsys, monkeypatch, bad):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    target = models / bad
    data = target.read_bytes()
    target.write_bytes(data + b"\xff\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("abba\n"))
    assert main(["identify", "--models", str(models)]) == 2
    line = data.count(b"\n") + 1
    assert capsys.readouterr().err == (
        f"uralid: {target}:{line}: invalid UTF-8 at byte offset {len(data)}\n"
    )


@pytest.mark.parametrize("form", ["directory", "tsv"])
def test_pipeline_pages_invalid_utf8_is_data_error(workspace, tmp_path, capsys, form):
    if form == "directory":
        pages = tmp_path / "pages"
        pages.mkdir()
        bad = pages / "one.txt"
        bad.write_bytes(BAD_UTF8)
        where = f"{bad}:2: invalid UTF-8 at byte offset 5"
    else:
        pages = bad = tmp_path / "pages.tsv"
        bad.write_bytes(b"one\tYWJiYQ==\n\xfftwo\tYWJiYQ==\n")
        where = f"{bad}:2: invalid UTF-8 at byte offset 13"
    argv = ["pipeline", "--pages", str(pages), "--models", str(workspace["models"]),
            "--out", str(tmp_path / "sentences.tsv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"uralid: {where}\n"


def test_evaluate_prints_tracks_in_order(workspace, capsys, tmp_path):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("abba\tfkv\nfigi\tizh\n", encoding="utf-8")
    pred.write_text("fkv\nizh\n", encoding="utf-8")
    code = main(
        [
            "evaluate",
            "--gold", str(gold),
            "--pred", str(pred),
            "--registry", str(workspace["registry"]),
            "--out", str(tmp_path / "report"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        "track1_relevant_macro_f1",
        "track2_relevant_micro_f1",
        "track3_macro_f1",
    ]
    assert all(line.split("\t")[1] == "1.000000" for line in lines)
    assert (tmp_path / "report" / "confusion.tsv").is_file()


def test_evaluate_length_mismatch_is_data_error(workspace, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("fkv\n", encoding="utf-8")
    pred.write_text("fkv\nizh\n", encoding="utf-8")
    code = main(
        ["evaluate", "--gold", str(gold), "--pred", str(pred), "--registry", str(workspace["registry"])]
    )
    assert code == 2


def test_pipeline_end_to_end(workspace, tmp_path, capsys):
    pages = tmp_path / "pages"
    pages.mkdir()
    fkv = disjoint_sentences("fkv", 20)
    (pages / "one.txt").write_text(f"{fkv[0]}. {fkv[1]}!", encoding="utf-8")
    (pages / "two.txt").write_text("klon molon klon", encoding="utf-8")
    out = tmp_path / "sentences.tsv"
    report = tmp_path / "report.tsv"
    code = main(
        [
            "pipeline",
            "--pages", str(pages),
            "--models", str(workspace["models"]),
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    assert "pages_in\t2" in capsys.readouterr().out
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows == [f"{fkv[0]}.\tfkv", f"{fkv[1]}!\tfkv"]
    assert report.read_text(encoding="utf-8").startswith("pages_in\t2\n")


# --- exit codes and env handling ----------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--corpora", "x"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "train" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_missing_model_dir_is_data_error(tmp_path, capsys):
    assert main(["identify", "--models", str(tmp_path / "nope")]) == 2


def test_bad_registry_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("not a registry\n", encoding="utf-8")
    code = main(
        ["train", "--registry", str(bad), "--corpora", str(workspace["corpora"]), "--out", str(tmp_path / "m")]
    )
    assert code == 2


def test_empty_corpora_dir_is_data_error(workspace, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(
        ["train", "--registry", str(workspace["registry"]), "--corpora", str(empty), "--out", str(tmp_path / "m")]
    )
    assert code == 2


def test_unregistered_corpus_filename_is_data_error(workspace, tmp_path, capsys):
    corpora = tmp_path / "corpora"
    corpora.mkdir()
    (corpora / "zzz.txt").write_text("some text\n", encoding="utf-8")
    code = main(
        ["train", "--registry", str(workspace["registry"]), "--corpora", str(corpora), "--out", str(tmp_path / "m")]
    )
    assert code == 2


def test_env_overrides_flag(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ULI_N_MAX", "2")
    out = tmp_path / "models"
    code = main(
        [
            "train",
            "--registry", str(workspace["registry"]),
            "--corpora", str(workspace["corpora"]),
            "--out", str(out),
            "--n-max", "5",
        ]
    )
    assert code == 0
    assert load_models(out).params.n_max == 2


def test_bad_env_value_is_usage_error(workspace, monkeypatch, capsys):
    monkeypatch.setenv("ULI_THREADS", "many")
    code = main(["identify", "--models", str(workspace["models"])])
    assert code == 1
    assert "ULI_THREADS" in capsys.readouterr().err


def test_apply_env_overrides_only_touches_known_destinations(monkeypatch):
    monkeypatch.setenv("ULI_MIN_SHARE", "0.5")
    monkeypatch.setenv("ULI_THREADS", "auto")
    args = argparse.Namespace(min_share=0.02, threads=1, unrelated="x")
    apply_env_overrides(args)
    assert args.min_share == 0.5
    assert args.threads >= 1
    assert args.unrelated == "x"


def test_apply_env_overrides_reports_bad_booleans(monkeypatch):
    monkeypatch.setenv("ULI_USE_WORDS", "maybe")
    args = argparse.Namespace(use_words=True)
    with pytest.raises(UsageError):
        apply_env_overrides(args)
