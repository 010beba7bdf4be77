import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_model_set
from uralid.backend import kernel, running_sums
from uralid.identifier import Scorer


def reference_kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
    """The kernel contract as a plain loop: one word, one candidate, one feature at a time."""
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


def random_kernel_case(rng):
    n_rows = rng.randint(1, 6)
    n_cols = rng.randint(1, 12)
    matrix = np.full((n_rows, n_cols), -1.0)
    for i in range(n_rows):
        for j in range(n_cols):
            if rng.random() < 0.6:
                matrix[i, j] = rng.uniform(0.0, 6.3)
    ids = np.array(
        [rng.choice([-1] + list(range(n_cols))) for _ in range(rng.randint(1, 10))],
        dtype=np.int64,
    )
    rows = np.array(
        sorted(rng.sample(range(n_rows), rng.randint(1, n_rows))), dtype=np.int64
    )
    return ids, matrix, rows


def batch_of(word_ids):
    """Kernel arguments (feature_ids, offsets, counts) for a list of words' id lists."""
    counts = np.array([len(ids) for ids in word_ids], dtype=np.int64)
    feature_ids = np.array([i for ids in word_ids for i in ids], dtype=np.int64)
    return feature_ids, np.cumsum(counts) - counts, counts


def test_kernels_agree_on_random_cases():
    rng = random.Random(123)
    for _ in range(300):
        ids, matrix, rows = random_kernel_case(rng)
        out, usable = kernel(*batch_of([ids]), matrix, rows, 7.0)
        out_ref, usable_ref = reference_kernel(*batch_of([ids]), matrix, rows, 7.0)
        assert usable.tolist() == usable_ref.tolist()
        assert out.tobytes() == out_ref.tobytes()


def test_kernels_fill_penalty_when_nothing_known():
    ids = [-1, -1]
    matrix = np.array([[1.0]])
    rows = np.array([0], dtype=np.int64)
    for score in (kernel, reference_kernel):
        out, usable = score(*batch_of([ids]), matrix, rows, 7.0)
        assert not usable[0]
        assert out[0, 0] == 7.0


@st.composite
def kernel_batches(draw):
    """A score matrix, candidate rows, words' feature ids and an order of the words."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 12))
    cell = st.one_of(st.just(-1.0), st.floats(0.0, 6.3))
    matrix = np.array(draw(st.lists(
        st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    )))
    rows = np.array(sorted(draw(st.sets(st.integers(0, n_rows - 1), min_size=1))), dtype=np.int64)
    words = draw(st.lists(
        st.lists(st.integers(-1, n_cols - 1), min_size=1, max_size=10), min_size=1, max_size=10
    ))
    order = draw(st.permutations(range(len(words))))
    return matrix, rows, words, order


@settings(max_examples=180, deadline=None)
@given(case=kernel_batches())
def test_kernel_results_do_not_depend_on_the_batch(case):
    matrix, rows, words, order = case
    batch_scores, batch_usable = kernel(*batch_of([words[w] for w in order]), matrix, rows, 7.0)
    for position, w in enumerate(order):
        alone, alone_usable = kernel(*batch_of([words[w]]), matrix, rows, 7.0)
        assert batch_scores[position].tobytes() == alone[0].tobytes()
        assert batch_usable[position] == alone_usable[0]


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


def test_kernel_memory_stays_within_a_few_outputs():
    # 20,000 words of 8 features each, over 55 candidates and 4,096 columns: a
    # gather of every feature of the batch at once would alone take 8 outputs
    rng = np.random.default_rng(5)
    n_words, n_rows, n_cols, k = 20_000, 55, 4_096, 8
    matrix = rng.uniform(0.0, 6.3, (n_rows, n_cols))
    matrix[rng.random((n_rows, n_cols)) < 0.5] = -1.0
    feature_ids = rng.integers(-1, n_cols, n_words * k)
    counts = np.full(n_words, k, dtype=np.int64)
    rows = np.arange(n_rows, dtype=np.int64)
    tracemalloc.start()
    try:
        scores, _ = kernel(feature_ids, counts.cumsum() - counts, counts, matrix, rows, 7.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * scores.nbytes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_word_scores_do_not_depend_on_the_batch(seed, data):
    model_set = random_model_set(random.Random(seed))
    word = st.text(alphabet="abcdefghijk", min_size=1, max_size=10)
    words = data.draw(st.lists(word, min_size=1, max_size=12))
    order = data.draw(st.permutations(words))
    codes = data.draw(st.sets(st.sampled_from(sorted(model_set.models)), min_size=1))
    batched = Scorer(model_set)
    solo = Scorer(model_set)  # every entry it caches was scored alone
    rows, _ = batched.candidate_rows(codes)
    for word, (scores, domain) in zip(order, batched.score_words(order, rows)):
        alone, alone_domain = solo.score_word(word, rows)
        assert domain == alone_domain
        assert scores.tobytes() == alone.tobytes()

