import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_registry
from oracle import oracle_confusion, oracle_load_labels
from uralid.errors import DataError
from uralid.evaluation import (
    compute_track_scores,
    confusion,
    load_labels,
    prf,
    report,
    track1,
    track2,
    track3,
    write_confusion,
)
from uralid.registry import default_registry


def cm_from_pairs(pairs, registry=None):
    registry = registry or make_registry()
    golds = [g for g, _ in pairs]
    preds = [p for _, p in pairs]
    return confusion(golds, preds, registry)


def test_confusion_counts_pairs():
    cm = cm_from_pairs([("fkv", "fkv"), ("fkv", "izh"), ("izh", "izh")])
    assert cm.count("fkv", "fkv") == 1
    assert cm.count("fkv", "izh") == 1
    assert cm.count("izh", "izh") == 1
    assert cm.count("izh", "fkv") == 0
    assert cm.total() == 3


def test_confusion_empty_inputs():
    cm = confusion([], [], make_registry())
    assert cm.total() == 0


def test_confusion_identity_diagonal():
    golds = ["fkv", "izh", "vep", "fkv"]
    cm = confusion(golds, golds, make_registry())
    assert int(np.trace(cm.counts)) == 4


def test_confusion_length_mismatch():
    with pytest.raises(DataError):
        confusion(["fkv"], [], make_registry())


def test_confusion_unregistered_code():
    with pytest.raises(DataError):
        confusion(["xxz"], ["xxz"], make_registry())


def test_prf_zero_gold_zero_pred_is_perfect():
    cm = cm_from_pairs([("fkv", "fkv")])
    assert prf(cm, "izh") == (1.0, 1.0, 1.0)


def test_prf_zero_gold_one_pred_zeroes_f1():
    cm = cm_from_pairs([("fkv", "izh")])
    assert prf(cm, "izh") == (0.0, 1.0, 0.0)


def test_prf_hand_example():
    # TP=2, FP=1, FN=1 for fkv
    cm = cm_from_pairs(
        [("fkv", "fkv"), ("fkv", "fkv"), ("fkv", "izh"), ("izh", "fkv")]
    )
    precision, recall, f1 = prf(cm, "fkv")
    assert precision == pytest.approx(2 / 3)
    assert recall == pytest.approx(2 / 3)
    assert f1 == pytest.approx(2 / 3)


def test_prf_gold_but_never_predicted():
    # the precision=1 convention for an empty prediction column
    cm = cm_from_pairs([("fkv", "izh")])
    assert prf(cm, "fkv") == (1.0, 0.0, 0.0)


def test_track1_perfect():
    cm = cm_from_pairs([("fkv", "fkv"), ("izh", "izh"), ("vep", "vep")])
    assert track1(cm) == 1.0


def test_track1_one_stray_prediction_costs_one_language():
    registry = default_registry()
    relevant = registry.relevant_codes()
    pairs = [(code, code) for code in relevant if code != "nio"]
    pairs.append(("fin", "nio"))  # nio has no gold, one false positive
    cm = cm_from_pairs(pairs, registry)
    assert track1(cm) == pytest.approx(28 / 29)


def test_track2_hand_micro_example():
    pairs = [("vep", "vep")] * 8 + [("vep", "fin")] * 2 + [("fin", "vep")] * 2
    cm = cm_from_pairs(pairs)
    assert track2(cm) == 0.8


def test_track2_empty_pool_is_one():
    cm = cm_from_pairs([("fin", "fin"), ("swe", "swe")])
    assert track2(cm) == 1.0


def test_track3_identity_is_one():
    cm = cm_from_pairs([("fkv", "fkv"), ("swe", "swe")])
    assert track3(cm) == 1.0


def test_track3_hand_example():
    registry = make_registry(codes=["fkv", "izh"])
    cm = confusion(["fkv", "fkv", "izh"], ["fkv", "izh", "izh"], registry)
    assert track3(cm) == pytest.approx(2 / 3)


def test_track3_equals_track1_when_all_relevant_and_present():
    registry = make_registry(codes=["fkv", "izh", "vep"])  # all three relevant
    rng = random.Random(8)
    codes = registry.codes()
    golds = [rng.choice(codes) for _ in range(50)] + codes
    preds = [rng.choice(codes) for _ in range(len(golds))]
    cm = confusion(golds, preds, registry)
    assert track1(cm) == track3(cm)


def test_track2_equals_accuracy_when_everything_relevant():
    registry = make_registry(codes=["fkv", "izh", "vep"])
    rng = random.Random(9)
    codes = registry.codes()
    golds = [rng.choice(codes) for _ in range(60)]
    preds = [rng.choice(codes) for _ in range(60)]
    cm = confusion(golds, preds, registry)
    accuracy = sum(g == p for g, p in zip(golds, preds)) / 60
    assert track2(cm) == pytest.approx(accuracy, abs=1e-15)


def test_tracks_are_permutation_invariant():
    rng = random.Random(10)
    registry = make_registry()
    codes = registry.codes()
    pairs = [(rng.choice(codes), rng.choice(codes)) for _ in range(80)]
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    cm_a = cm_from_pairs(pairs, registry)
    cm_b = cm_from_pairs(shuffled, registry)
    assert (track1(cm_a), track2(cm_a), track3(cm_a)) == (
        track1(cm_b),
        track2(cm_b),
        track3(cm_b),
    )


def test_non_relevant_confusion_does_not_move_tracks_1_and_2():
    base = [("vep", "vep"), ("fkv", "izh"), ("fin", "fin")]
    with_noise = base + [("swe", "fin")] * 5
    cm_a = cm_from_pairs(base)
    cm_b = cm_from_pairs(with_noise)
    assert track1(cm_a) == track1(cm_b)
    assert track2(cm_a) == track2(cm_b)
    assert track3(cm_a) != track3(cm_b)


def test_compute_track_scores_covers_every_language():
    cm = cm_from_pairs([("fkv", "fkv")])
    scores = compute_track_scores(cm)
    assert set(scores.per_language) == set(make_registry().codes())
    assert 0.0 <= scores.track1_relevant_macro_f1 <= 1.0
    assert 0.0 <= scores.track2_relevant_micro_f1 <= 1.0
    assert 0.0 <= scores.track3_macro_f1 <= 1.0


def reference_prf(tp, predicted, gold):
    precision = Fraction(tp, predicted) if predicted else Fraction(1)
    recall = Fraction(tp, gold) if gold else Fraction(1)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
    return precision, recall, f1


CODES = make_registry().codes()


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from(CODES), st.sampled_from(CODES)), max_size=30))
@example(pairs=[])
@example(pairs=[("fkv", "izh"), ("izh", "izh"), ("swe", "vep")])  # no gold or never predicted
def test_track_scores_equal_an_exact_reference_from_label_counts(pairs):
    registry = make_registry()
    counts = Counter(pairs)
    gold = Counter(g for g, _ in pairs)
    predicted = Counter(p for _, p in pairs)
    per_language = {
        code: reference_prf(counts[code, code], predicted[code], gold[code]) for code in CODES
    }

    def macro(codes):
        return float(sum((per_language[code][2] for code in codes), Fraction(0)) / len(codes))

    relevant = registry.relevant_codes()
    hits = sum(counts[code, code] for code in relevant)
    pool_predicted = sum(predicted[code] for code in relevant)
    pool_gold = sum(gold[code] for code in relevant)
    scores = compute_track_scores(cm_from_pairs(pairs, registry))
    assert scores.track1_relevant_macro_f1 == macro(relevant)
    assert scores.track2_relevant_micro_f1 == float(
        reference_prf(hits, pool_predicted, pool_gold)[2]
    )
    assert scores.track3_macro_f1 == macro(CODES)
    assert scores.per_language == {
        code: tuple(map(float, values)) for code, values in per_language.items()
    }


def test_confusion_write_read_round_trip(tmp_path):
    rng = random.Random(12)
    registry = make_registry()
    codes = registry.codes()
    pairs = [(rng.choice(codes), rng.choice(codes)) for _ in range(70)]
    cm = cm_from_pairs(pairs, registry)
    path = tmp_path / "confusion.tsv"
    write_confusion(cm, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header.split("\t")[1:] == codes
    assert [row.split("\t")[0] for row in rows] == codes
    cells = [[int(cell or 0) for cell in row.split("\t")[1:]] for row in rows]
    assert cells == cm.counts.tolist()


def test_confusion_file_blanks_zero_cells(tmp_path):
    cm = cm_from_pairs([("fkv", "fkv"), ("fkv", "izh")])
    path = tmp_path / "confusion.tsv"
    write_confusion(cm, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].split("\t")[1:] == make_registry().codes()
    fkv_row = lines[1].split("\t")
    assert fkv_row[0] == "fkv"
    assert fkv_row[1:] == ["1", "1", "", "", ""]
    izh_row = lines[2].split("\t")
    assert izh_row[1:] == ["", "", "", "", ""]


def test_report_writes_all_three_files(tmp_path):
    cm = cm_from_pairs([("fkv", "fkv"), ("izh", "vep")])
    scores = compute_track_scores(cm)
    report(cm, scores, tmp_path / "out")
    for name in ("confusion.tsv", "per_language.tsv", "tracks.tsv"):
        assert (tmp_path / "out" / name).is_file()
    tracks = (tmp_path / "out" / "tracks.tsv").read_text(encoding="utf-8").splitlines()
    assert [line.split("\t")[0] for line in tracks] == [
        "track1_relevant_macro_f1",
        "track2_relevant_micro_f1",
        "track3_macro_f1",
    ]


def test_load_labels_both_formats(tmp_path):
    tab_file = tmp_path / "gold.tsv"
    tab_file.write_text("tere tulemast\tfkv\nhüvä päivä\tizh\n", encoding="utf-8")
    bare_file = tmp_path / "pred.txt"
    bare_file.write_text("fkv\nizh\n", encoding="utf-8")
    registry = make_registry()
    assert load_labels(tab_file, registry) == ["fkv", "izh"]
    assert load_labels(bare_file, registry) == ["fkv", "izh"]


def test_load_labels_sentence_may_contain_tabs(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("col1\tcol2\tfkv\n", encoding="utf-8")
    assert load_labels(path, make_registry()) == ["fkv"]


def test_load_labels_sentence_may_contain_unicode_line_breaks(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("kala\u2028talo\tfkv\nkala\x85talo\x0cja\tizh\rvep\r\n", encoding="utf-8")
    assert load_labels(path, make_registry()) == ["fkv", "izh", "vep"]


def test_load_labels_strips_the_code_in_both_forms(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("kala\tfkv \ntalo\t izh\n vep \n", encoding="utf-8")
    assert load_labels(path, make_registry()) == ["fkv", "izh", "vep"]


def test_load_labels_rejects_unknown_code_with_line_number(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("fkv\nxxz\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_labels(path, make_registry())


# Label files for comparing load_labels with the per-line reader: both row formats,
# sentences holding tabs and other breaks, whitespace around codes, blank and
# whitespace-only lines, every record end, and now and then a bad line.
PADS = st.sampled_from(["", " ", "\t", " \x85", "\u3000"])
SENTENCES = st.text(alphabet="ab \t\x85\x0c\u2028", max_size=6)
BAD_CODES = ["xxz", "FKV", "f kv", ""]


def label_rows(codes):
    tab_rows = st.builds(lambda s, a, c, b: f"{s}\t{a}{c}{b}", SENTENCES, PADS, codes, PADS)
    return st.one_of(tab_rows, st.builds(lambda a, c, b: a + c + b, PADS, codes, PADS))


@st.composite
def label_files(draw):
    lines = draw(st.lists(st.one_of(label_rows(st.sampled_from(CODES)), st.sampled_from(["", "\t", " ", "\x85"]))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(label_rows(st.sampled_from(BAD_CODES))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


def outcome(call, *args):
    try:
        return call(*args)
    except DataError as exc:
        return f"DataError: {exc}"


@pytest.fixture(scope="module")
def label_path(tmp_path_factory):
    return tmp_path_factory.mktemp("labels") / "labels.tsv"


@settings(max_examples=400, deadline=None)
@given(text=label_files())
@example(text="kala\t\nfkv\n")  # an empty code on a non-blank line
@example(text="fkv\n \r\txxz\nizh\r\nxxz\n")  # the first of two bad lines is named
@example(text=" fkv\t\r\n\x85\rkala\tizh \n\t\n")  # a bare code left of a tab is no code
def test_load_labels_equals_the_per_line_reader(label_path, text):
    label_path.write_bytes(text.encode("utf-8"))
    registry = make_registry()
    assert outcome(load_labels, label_path, registry) == outcome(oracle_load_labels, label_path, registry)


def matrix_outcome(call, golds, preds, registry):
    counts = outcome(call, golds, preds, registry)
    return counts if isinstance(counts, str) else (counts.dtype, counts.tolist())


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.sampled_from(CODES), st.sampled_from(CODES)), max_size=20),
    bad=st.lists(st.tuples(st.integers(0, 19), st.booleans(), st.sampled_from(BAD_CODES)), max_size=2),
    short=st.booleans(),
)
@example(pairs=[("fkv", "izh"), ("izh", "fkv")], bad=[(1, True, "xxz"), (0, False, "FKV")], short=False)
@example(pairs=[("fkv", "izh"), ("izh", "fkv")], bad=[(1, False, "xxz"), (1, True, "FKV")], short=False)
def test_confusion_equals_the_per_pair_count(pairs, bad, short):
    """The same int64 matrix, or the same error: the first bad pair in order, gold before pred."""
    golds, preds = [g for g, _ in pairs], [p for _, p in pairs]
    for at, in_gold, code in bad if pairs else ():
        (golds if in_gold else preds)[at % len(pairs)] = code
    if short and preds:
        preds.pop()
    registry = make_registry()
    got = matrix_outcome(lambda *args: confusion(*args).counts, golds, preds, registry)
    assert got == matrix_outcome(oracle_confusion, golds, preds, registry)
