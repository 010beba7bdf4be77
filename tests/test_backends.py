"""The scorer's arithmetic against plain loops, bit for bit."""

import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_matrix, hand_model_set, random_model_set
from uralid.features import WORD_DOMAIN, extract_ngrams, pad_word
from uralid.identifier import Scorer, running_sums


def reference_kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
    """One domain's word scores as a plain loop: one word, one candidate, one feature at a time.

    ``score_matrix`` holds a score per registry row and vocabulary column,
    -1 where none is stored; a feature id of -1 is out of the vocabulary.
    A word is usable if any candidate stores any of its features.
    """
    n_words = counts.shape[0]
    n_rows = candidate_rows.shape[0]
    scores = np.empty((n_words, n_rows), dtype=np.float64)
    usable = np.zeros(n_words, dtype=np.bool_)
    for w in range(n_words):
        start = offsets[w]
        k = counts[w]
        for i in range(n_rows):
            row = candidate_rows[i]
            acc = 0.0
            for j in range(start, start + k):
                col = feature_ids[j]
                if col >= 0:
                    score = score_matrix[row, col]
                    if score >= 0.0:
                        acc += score
                        usable[w] = True
                    else:
                        acc += penalty
                else:
                    acc += penalty
            scores[w, i] = acc / k
    return scores, usable


def reference_word(model_set, word, rows):
    """(scores, domain) of one word: ``reference_kernel`` in the first usable domain, by backoff."""
    params = model_set.params
    backoff = ([WORD_DOMAIN] if params.use_words else []) + [
        str(n) for n in range(params.n_max, 0, -1)
    ]
    for domain in backoff:
        features = sorted({f for m in model_set.models.values() for f in m.domains[domain]})
        vocab = {feature: j for j, feature in enumerate(features)}
        grams = [pad_word(word)] if domain == WORD_DOMAIN else extract_ngrams(word, int(domain))
        if not grams:
            continue
        ids = np.array([vocab.get(g, -1) for g in grams], dtype=np.int64)
        offsets, counts = np.array([0]), np.array([ids.shape[0]])
        matrix = dense_matrix(model_set, vocab, domain)
        scores, usable = reference_kernel(ids, offsets, counts, matrix, rows, float(params.penalty_p))
        if usable[0]:
            return scores[0], domain
    return np.full(rows.shape[0], float(params.penalty_p)), None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_word_scores_equal_the_reference_kernel_in_the_first_usable_domain(seed, data):
    # models cover the letters a-j only, so "z" and "ä" give features no model stores
    model_set = random_model_set(random.Random(seed))
    word = st.text(alphabet="abcdefghijzä", min_size=1, max_size=10)
    words = data.draw(st.lists(word, min_size=1, max_size=12))
    codes = data.draw(st.sets(st.sampled_from(sorted(model_set.models)), min_size=1))
    scorer = Scorer(model_set)
    rows, _ = scorer.candidate_rows(codes)
    table, domains = scorer.score_words(words, rows)
    for word, scores, domain in zip(words, table, domains):
        expected, expected_domain = reference_word(model_set, word, rows)
        assert domain == expected_domain
        assert scores.tobytes() == expected.tobytes()


def test_a_word_no_candidate_knows_gets_the_penalty_row_and_no_domain():
    # no model has a feature of "zz"; only izh, outside the candidate set, stores some of "ja"
    model_set = hand_model_set({
        "fkv": {"word": {" talo ": 0.3}, "1": {"t": 0.5}},
        "izh": {"2": {"ja": 0.5}, "1": {"j": 1.0}},
    })
    scorer = Scorer(model_set)
    rows, _ = scorer.candidate_rows(["fkv"])
    for scores, domain in zip(*scorer.score_words(["zz", "ja"], rows)):
        assert domain is None
        assert scores.tobytes() == np.full(1, 7.0).tobytes()
    rows, _ = scorer.candidate_rows(["fkv", "izh"])
    assert scorer.score_word("ja", rows)[1] == "2"


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(st.floats(0.0, 6.3), min_size=3, max_size=3), min_size=n, max_size=n)
    ),
    data=st.data(),
)
def test_running_sums_equal_an_in_order_loop(rows, data):
    rows = np.array(rows)
    segments = data.draw(st.lists(
        st.lists(st.integers(0, rows.shape[0] - 1), max_size=12), min_size=1, max_size=8
    ))
    index = np.array([i for segment in segments for i in segment], dtype=np.int64)
    counts = np.array([len(segment) for segment in segments], dtype=np.int64)
    sums = running_sums(rows, index, counts.cumsum() - counts, counts)
    for segment, total in zip(segments, sums):
        acc = np.zeros(rows.shape[1])
        for i in segment:
            acc += rows[i]
        assert total.tobytes() == acc.tobytes()


def test_running_sums_memory_stays_within_two_and_a_half_outputs():
    # 20,000 segments of 1-11 terms over 55 columns: a copy of the live sums
    # at each step, or a gather of every term at once, would exceed the bound
    rng = np.random.default_rng(5)
    n_segments, n_cols = 20_000, 55
    rows = rng.uniform(0.0, 6.3, (4_096, n_cols))
    counts = rng.integers(1, 12, n_segments)
    index = rng.integers(0, rows.shape[0], int(counts.sum()))
    starts = counts.cumsum() - counts
    tracemalloc.start()
    try:
        sums = running_sums(rows, index, starts, counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sums.nbytes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_word_scores_do_not_depend_on_the_batch(seed, data):
    model_set = random_model_set(random.Random(seed))
    word = st.text(alphabet="abcdefghijk", min_size=1, max_size=10)
    words = data.draw(st.lists(word, min_size=0, max_size=12))
    order = data.draw(st.permutations(words))
    codes = data.draw(st.sets(st.sampled_from(sorted(model_set.models)), min_size=1))
    batched = Scorer(model_set)
    solo = Scorer(model_set)  # every entry it caches was scored alone
    rows, _ = batched.candidate_rows(codes)
    table, domains = batched.score_words(order, rows)
    assert table.shape == (len(order), rows.shape[0]) and len(domains) == len(order)
    assert not table.flags.writeable
    for word, scores, domain in zip(order, table, domains):
        alone, alone_domain = solo.score_word(word, rows)
        assert domain == alone_domain
        assert scores.tobytes() == alone.tobytes()
