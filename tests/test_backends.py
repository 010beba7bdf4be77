import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_model_set
from uralid import backend as backend_mod
from uralid.backend import kernel
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
    # the kernel's pairwise sums may differ from the loop's in the last ulp
    rng = random.Random(123)
    for _ in range(300):
        ids, matrix, rows = random_kernel_case(rng)
        out, usable = kernel(*batch_of([ids]), matrix, rows, 7.0)
        out_ref, usable_ref = reference_kernel(*batch_of([ids]), matrix, rows, 7.0)
        assert usable.tolist() == usable_ref.tolist()
        np.testing.assert_allclose(out, out_ref, atol=1e-12, rtol=0.0)


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


@pytest.mark.parametrize("gather_limit", [1, 7, backend_mod._GATHER_LIMIT])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=kernel_batches())
def test_kernel_results_do_not_depend_on_the_batch(monkeypatch, gather_limit, case):
    # a small gather limit splits the kernel's groups into several gathers
    monkeypatch.setattr(backend_mod, "_GATHER_LIMIT", gather_limit)
    matrix, rows, words, order = case
    batch_scores, batch_usable = kernel(*batch_of([words[w] for w in order]), matrix, rows, 7.0)
    for position, w in enumerate(order):
        alone, alone_usable = kernel(*batch_of([words[w]]), matrix, rows, 7.0)
        assert batch_scores[position].tobytes() == alone[0].tobytes()
        assert batch_usable[position] == alone_usable[0]


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

