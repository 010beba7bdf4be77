import base64
import io
import shutil

import pytest

from helpers import ALPHABETS, disjoint_sentences, make_registry
from uralid import cli, features, identifier
from uralid.cli import main
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


def test_identify_writes_one_row_per_record(workspace, tmp_path):
    src = tmp_path / "input.txt"
    src.write_text("abba\u2028dede\nfigi\x85gihi\rabba\x0cdede\r\n\nfigi", encoding="utf-8")
    out = tmp_path / "out.tsv"
    argv = ["identify", "--models", str(workspace["models"]), "--input", str(src), "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[:2] for row in rows] == [
        ["0", "fkv"], ["1", "izh"], ["2", "fkv"], ["3", "fkv"], ["4", "izh"]
    ]


def test_identify_writes_each_chunk_before_scoring_the_next(workspace, tmp_path, monkeypatch):
    src = tmp_path / "input.txt"
    src.write_text("abba\nfigi\ndede\ngihi\nabba figi\n", encoding="utf-8")
    stdout = io.StringIO()
    rows_at_predict = []
    predict = identifier.Scorer.predict

    def recording_predict(self, sentences, rows, codes):
        rows_at_predict.append(stdout.getvalue().count("\n"))
        return predict(self, sentences, rows, codes)

    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.setattr(features, "_CHUNK_SIZE", 2)
    monkeypatch.setattr(identifier.Scorer, "predict", recording_predict)
    assert main(["identify", "--models", str(workspace["models"]), "--input", str(src)]) == 0
    assert rows_at_predict == [0, 2, 4]
    assert stdout.getvalue().count("\n") == 5


def test_identify_out_may_name_the_input_file(workspace, tmp_path):
    src = tmp_path / "input.txt"
    src.write_text("abba dede\nfigi gihi\n\nabba\n", encoding="utf-8")
    separate = tmp_path / "out.tsv"
    for out in (separate, src):
        argv = ["identify", "--models", str(workspace["models"]), "--input", str(src),
                "--out", str(out), "--scores"]
        assert main(argv) == 0
    assert src.read_text(encoding="utf-8") == separate.read_text(encoding="utf-8")
    assert len(separate.read_text(encoding="utf-8").splitlines()) == 4


@pytest.mark.parametrize(
    "candidates, code",
    [("fkv,vep", "vep"), ("fkv,xyz", "xyz"), ("", ""), ("fkv,", "")],
    ids=["unmodeled", "unregistered", "empty", "empty-field"],
)
def test_identify_unscorable_candidate_is_usage_error(workspace, tmp_path, capsys, candidates, code):
    argv = ["identify", "--models", str(workspace["models"]), "--candidates", candidates,
            "--input", str(tmp_path / "never-read.txt")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"uralid: error: --candidates: no model for '{code}'\n"
    assert captured.out == ""


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


def test_evaluate_gold_sentence_may_contain_a_line_separator(workspace, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("kala\u2028talo\tfkv\nfigi\tizh\n", encoding="utf-8")
    pred.write_text("fkv\nizh\n", encoding="utf-8")
    argv = ["evaluate", "--gold", str(gold), "--pred", str(pred),
            "--registry", str(workspace["registry"])]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("track1_relevant_macro_f1\t1.000000\n")


def test_evaluate_length_mismatch_is_data_error(workspace, tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    pred = tmp_path / "pred.tsv"
    gold.write_text("fkv\n", encoding="utf-8")
    pred.write_text("fkv\nizh\n", encoding="utf-8")
    code = main(
        ["evaluate", "--gold", str(gold), "--pred", str(pred), "--registry", str(workspace["registry"])]
    )
    assert code == 2
    assert capsys.readouterr().err == f"uralid: label counts differ: {gold} has 1, {pred} has 2\n"


def test_pipeline_repeated_url_names_both_crawl_lines(workspace, tmp_path, capsys):
    encoded = base64.b64encode(" ".join(disjoint_sentences("fkv", 3)).encode("utf-8")).decode("ascii")
    pages = tmp_path / "crawl.tsv"
    pages.write_text(f"one\t{encoded}\ntwo\t{encoded}\n\none\t{encoded}\n", encoding="utf-8")
    out = tmp_path / "sentences.tsv"
    argv = ["pipeline", "--pages", str(pages), "--models", str(workspace["models"]), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"uralid: {pages}:4: duplicate page url 'one', first on line 1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("crawl", ["empty", "one page"])
def test_pipeline_min_share_out_of_range_is_usage_error_before_any_work(
    workspace, tmp_path, capsys, monkeypatch, crawl
):
    pages = tmp_path / "pages.tsv"
    text = " ".join(disjoint_sentences("fkv", 3))
    encoded = base64.b64encode(text.encode("utf-8")).decode("ascii")
    pages.write_text("" if crawl == "empty" else f"one\t{encoded}\n", encoding="utf-8")
    loaded = []
    monkeypatch.setattr(cli, "load_models", lambda path: loaded.append(path))
    out = tmp_path / "sentences.tsv"
    argv = ["pipeline", "--pages", str(pages), "--models", str(workspace["models"]),
            "--out", str(out), "--min-share", "5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "uralid: error: min_share must be in (0, 1], got 5.0\n"
    assert loaded == [] and not out.exists()


# --- exit codes ------------------------------------------------------------


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


def test_registry_invalid_utf8_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "registry.tsv"
    bad.write_bytes(b"fkv\tFKV\t1\n\xffizh\tIZH\t1\n")
    argv = ["train", "--registry", str(bad), "--corpora", str(workspace["corpora"]),
            "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"uralid: {bad}:2: invalid UTF-8 at byte offset 10\n"


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


def test_train_names_the_corpus_file_at_fault(workspace, tmp_path, capsys):
    corpora = tmp_path / "corpora"
    corpora.mkdir()
    shutil.copy(workspace["corpora"] / "fkv.txt", corpora / "fkv.txt")
    argv = ["train", "--registry", str(workspace["registry"]), "--corpora", str(corpora),
            "--out", str(tmp_path / "m")]
    (corpora / "notes.txt").write_text("some text\n", encoding="utf-8")
    assert main(argv) == 2
    notes = corpora / "notes.txt"
    assert capsys.readouterr().err == f"uralid: {notes}: unregistered language code 'notes'\n"
    notes.unlink()
    shutil.copy(corpora / "fkv.txt", corpora / "fkv_2.txt")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"uralid: {corpora / 'fkv_2.txt'}: duplicate corpus for language 'fkv', "
        f"also in {corpora / 'fkv.txt'}\n"
    )


@pytest.mark.parametrize("command", ["identify", "pipeline"])
def test_manifest_without_model_rows_is_data_error(
    workspace, tmp_path, capsys, monkeypatch, command
):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    manifest = models / "manifest.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest.write_text("".join(row for row in rows if not row.startswith("model\t")), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("abba\n"))
    pages = tmp_path / "pages"
    pages.mkdir()
    argv = {
        "identify": ["identify", "--models", str(models)],
        "pipeline": ["pipeline", "--pages", str(pages), "--models", str(models),
                     "--out", str(tmp_path / "out.tsv")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"uralid: {manifest}: manifest lists no model rows\n"


def test_second_model_row_pointing_at_another_model_names_its_line(
    workspace, tmp_path, capsys, monkeypatch
):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    manifest = models / "manifest.tsv"
    rows = manifest.read_text(encoding="utf-8").splitlines()
    at = next(i for i, row in enumerate(rows) if row.startswith("model\tfkv\t1\t")) + 1
    rows.insert(at, "model\tfkv\t1\tmodels/izh.1.tsv\t10")
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO("abba\n"))
    assert main(["identify", "--models", str(models)]) == 2
    assert capsys.readouterr().err == (
        f"uralid: {manifest}:{at + 1}: model path must be models/fkv.1.tsv, got 'models/izh.1.tsv'\n"
    )


@pytest.mark.parametrize(
    "flag, value, message",
    [("--n-max", "0", "n_max must be >= 1, got 0"),
     ("--cutoff", "1.5", "cutoff_c must be in (0, 1), got 1.5"),
     ("--penalty", "nan", "penalty_p must be >= 0, got nan")],
)
def test_train_param_flags_are_checked_by_heli_params(workspace, tmp_path, capsys, flag, value, message):
    out = tmp_path / "models"
    argv = ["train", "--registry", str(workspace["registry"]),
            "--corpora", str(workspace["corpora"]), "--out", str(out), flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"uralid: error: {message}\n"
    assert not out.exists()


def test_environment_does_not_override_flags(workspace, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ULI_N_MAX", "2")
    out = tmp_path / "models"
    argv = ["train", "--registry", str(workspace["registry"]),
            "--corpora", str(workspace["corpora"]), "--out", str(out), "--n-max", "5"]
    assert main(argv) == 0
    assert load_models(out).params.n_max == 5
