import pytest

from uralid.errors import DataError
from uralid.registry import (
    DEFAULT_CJK_BLOCKS,
    LanguageEntry,
    LanguageRegistry,
    default_registry,
    load_registry,
    parse_registry,
    save_registry,
)

SAMPLE = "vep\tVeps\t1\nfin\tFinnish\t0\ncmn\tMandarin\t0\t1\n"


def test_parse_three_and_four_column_rows():
    reg = parse_registry(SAMPLE)
    assert reg.codes() == ["vep", "fin", "cmn"]
    assert reg.is_relevant("vep") and not reg.is_relevant("fin")
    assert reg.is_cjk("cmn") and not reg.is_cjk("vep")


def test_comments_and_blank_lines_ignored():
    reg = parse_registry("# heading\n\nvep\tVeps\t1\n")
    assert reg.codes() == ["vep"]


def test_order_and_index():
    reg = parse_registry(SAMPLE)
    assert reg.index("fin") == 1
    assert reg.sort_by_order(["cmn", "vep"]) == ["vep", "cmn"]
    assert len(reg) == 3 and "vep" in reg and "xxx" not in reg


def test_unregistered_code_raises():
    reg = parse_registry(SAMPLE)
    with pytest.raises(DataError):
        reg.index("deu")


def test_relevant_partition():
    reg = parse_registry(SAMPLE)
    assert reg.relevant_codes() == ["vep"]
    assert reg.non_relevant_codes() == ["fin", "cmn"]


@pytest.mark.parametrize(
    "text",
    [
        "vep\tVeps\n",                      # too few columns
        "vep\tVeps\t2\n",                   # bad flag
        "vep\tVeps\t1\t1\t1\n",             # too many columns
        "VEP\tVeps\t1\n",                   # uppercase code
        "ve\tVeps\t1\n",                    # short code
        "vep\tVeps\t1\nvep\tAgain\t1\n",    # duplicate
    ],
)
def test_malformed_rows_raise(text):
    with pytest.raises(DataError):
        parse_registry(text)


def test_errors_name_the_line():
    with pytest.raises(DataError, match=":2:"):
        parse_registry("vep\tVeps\t1\nbad line\t1\n")


def test_cjk_block_directives_override_defaults():
    reg = parse_registry("#!cjk-block\t4E00\t9FFF\nvep\tVeps\t1\n")
    assert reg.cjk_blocks == ((0x4E00, 0x9FFF),)


def test_cjk_block_directive_order_preserved():
    reg = parse_registry(
        "#!cjk-block\t3040\t309F\n#!cjk-block\t4E00\t9FFF\nvep\tVeps\t1\n"
    )
    assert reg.cjk_blocks == ((0x3040, 0x309F), (0x4E00, 0x9FFF))


def test_registry_without_directives_uses_default_blocks():
    assert parse_registry(SAMPLE).cjk_blocks == DEFAULT_CJK_BLOCKS


@pytest.mark.parametrize(
    "line",
    ["#!cjk-block\t4E00\n", "#!cjk-block\tZZZZ\t9FFF\n", "#!cjk-block\t9FFF\t4E00\n"],
)
def test_bad_cjk_block_directives_raise(line):
    with pytest.raises(DataError):
        parse_registry(line + "vep\tVeps\t1\n")


def test_save_load_round_trip(tmp_path):
    reg = parse_registry(SAMPLE)
    path = tmp_path / "reg.tsv"
    save_registry(reg, path)
    assert load_registry(path) == reg


def test_save_load_round_trip_with_custom_blocks(tmp_path):
    reg = LanguageRegistry(
        entries=(LanguageEntry("vep", "Veps", True),),
        cjk_blocks=((0x30A0, 0x30FF),),
    )
    path = tmp_path / "reg.tsv"
    save_registry(reg, path)
    assert load_registry(path) == reg


def test_constructor_rejects_duplicates_and_bad_codes():
    with pytest.raises(DataError):
        LanguageRegistry(entries=(LanguageEntry("vep", "a", True), LanguageEntry("vep", "b", True)))
    with pytest.raises(DataError):
        LanguageRegistry(entries=(LanguageEntry("Vep", "a", True),))


@pytest.mark.parametrize(
    "entry, message",
    [
        (LanguageEntry("fkv\n", "Kven", True), "invalid language code"),
        (LanguageEntry("fkv", "K\ud800", True), "not encodable as UTF-8"),
    ],
)
def test_constructor_rejects_what_save_models_cannot_write(entry, message):
    with pytest.raises(DataError, match=message):
        LanguageRegistry(entries=(entry,))


def test_default_registry_shape():
    reg = default_registry()
    assert len(reg.relevant_codes()) == 29
    for code in ("vep", "vro", "olo", "sme", "kpv", "udm", "yrk", "nio", "kca", "mns"):
        assert reg.is_relevant(code)
    for code in ("fin", "ekk", "hun", "swe", "sot", "sun", "hat"):
        assert code in reg and not reg.is_relevant(code)
    for code in ("cmn", "jpn", "kor", "wuu", "yue"):
        assert reg.is_cjk(code)
    assert reg.cjk_blocks == DEFAULT_CJK_BLOCKS


def test_default_registry_relevant_listed_first():
    reg = default_registry()
    flags = [entry.relevant for entry in reg.entries]
    assert flags == sorted(flags, reverse=True)
