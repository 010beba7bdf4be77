import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import disjoint_model_set, make_registry, random_model_set, random_sentence
from uralid import backend as backend_mod
from uralid.backend import (
    BACKENDS,
    HAS_NUMBA,
    _numpy_kernel,
    _scalar_kernel,
    available_backends,
    get_kernel,
    resolve_backend,
    warmup,
)
from uralid.identifier import Scorer


@pytest.fixture
def numba_kernel_path(monkeypatch):
    """Make the "numba" backend resolve, to the loop kernel numba compiles.

    Where numba is installed this changes nothing and the compiled kernel is
    used. Elsewhere the uncompiled ``_scalar_kernel`` stands in for
    ``njit(_scalar_kernel)``, so the loop-sum kernel is still compared with
    the pairwise-sum numpy kernel through ``get_kernel`` and ``Scorer``.
    """
    if not backend_mod.HAS_NUMBA:
        monkeypatch.setattr(backend_mod, "_numba_kernel", _scalar_kernel)
        monkeypatch.setattr(backend_mod, "HAS_NUMBA", True)


def test_numba_is_available_here():
    # where numba imports, the backend must detect it and use it
    pytest.importorskip("numba")
    assert HAS_NUMBA
    assert available_backends() == BACKENDS


def test_resolve_explicit_names(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMBA", True)
    assert resolve_backend("numpy") == "numpy"
    assert resolve_backend("numba") == "numba"


def test_resolve_auto_prefers_numba(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMBA", True)
    assert resolve_backend("auto") == "numba"
    assert resolve_backend(None) == "numba"


def test_resolve_reads_environment(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMBA", True)
    monkeypatch.setenv("ULI_BACKEND", "numpy")
    assert resolve_backend(None) == "numpy"
    assert resolve_backend("auto") == "numpy"
    # an explicit name still wins at this level
    assert resolve_backend("numba") == "numba"


def test_resolve_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("fortran")


def test_resolve_without_numba_falls_back(monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMBA", False)
    assert resolve_backend("auto") == "numpy"
    with pytest.raises(RuntimeError):
        resolve_backend("numba")
    assert available_backends() == ("numpy",)


def test_warmup_runs_for_both_backends():
    warmup("numpy")
    if HAS_NUMBA:
        warmup("numba")
    else:
        with pytest.raises(RuntimeError, match="numba"):
            warmup("numba")


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


def test_kernels_agree_on_random_cases(numba_kernel_path):
    numba_kernel = get_kernel("numba")
    rng = random.Random(123)
    for _ in range(300):
        ids, matrix, rows = random_kernel_case(rng)
        out_np, usable_np = _numpy_kernel(*batch_of([ids]), matrix, rows, 7.0)
        out_nb, usable_nb = numba_kernel(*batch_of([ids]), matrix, rows, 7.0)
        assert usable_np.tolist() == usable_nb.tolist()
        np.testing.assert_allclose(out_np, out_nb, atol=1e-12, rtol=0.0)


def test_kernels_fill_penalty_when_nothing_known(numba_kernel_path):
    ids = [-1, -1]
    matrix = np.array([[1.0]])
    rows = np.array([0], dtype=np.int64)
    for name in BACKENDS:
        out, usable = get_kernel(name)(*batch_of([ids]), matrix, rows, 7.0)
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
@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=kernel_batches())
def test_kernel_results_do_not_depend_on_the_batch(
    numba_kernel_path, monkeypatch, name, gather_limit, case
):
    # a small gather limit splits the numpy kernel's groups into several gathers
    monkeypatch.setattr(backend_mod, "_GATHER_LIMIT", gather_limit)
    kernel = get_kernel(name)
    matrix, rows, words, order = case
    batch_scores, batch_usable = kernel(*batch_of([words[w] for w in order]), matrix, rows, 7.0)
    for position, w in enumerate(order):
        alone, alone_usable = kernel(*batch_of([words[w]]), matrix, rows, 7.0)
        assert batch_scores[position].tobytes() == alone[0].tobytes()
        assert batch_usable[position] == alone_usable[0]


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_word_scores_do_not_depend_on_the_batch(numba_kernel_path, name, seed, data):
    model_set = random_model_set(random.Random(seed))
    word = st.text(alphabet="abcdefghijk", min_size=1, max_size=10)
    words = data.draw(st.lists(word, min_size=1, max_size=12))
    order = data.draw(st.permutations(words))
    codes = data.draw(st.sets(st.sampled_from(sorted(model_set.models)), min_size=1))
    batched = Scorer(model_set, backend=name)
    solo = Scorer(model_set, backend=name)  # every entry it caches was scored alone
    rows, _ = batched.candidate_rows(codes)
    for word, (scores, domain) in zip(order, batched.score_words(order, rows)):
        alone, alone_domain = solo.score_word(word, rows)
        assert domain == alone_domain
        assert scores.tobytes() == alone.tobytes()


def test_scorers_agree_across_backends(numba_kernel_path):
    rng = random.Random(321)
    for _ in range(15):
        ms = random_model_set(rng)
        numba_scorer = Scorer(ms, backend="numba")
        numpy_scorer = Scorer(ms, backend="numpy")
        rows, codes = numba_scorer.candidate_rows()
        for _ in range(5):
            sentence = random_sentence(rng)
            a = numba_scorer.predict(sentence, rows, codes)
            b = numpy_scorer.predict(sentence, rows, codes)
            assert a.winner == b.winner
            assert [d for _, d in a.domain_trace] == [d for _, d in b.domain_trace]
            for code in codes:
                assert a.scores[code] == pytest.approx(b.scores[code], abs=1e-12)


def test_disjoint_winners_identical_across_backends(numba_kernel_path):
    ms_a = disjoint_model_set()
    ms_b = disjoint_model_set()
    scorer_a = Scorer(ms_a, backend="numba")
    scorer_b = Scorer(ms_b, backend="numpy")
    rows_a, codes_a = scorer_a.candidate_rows()
    rows_b, codes_b = scorer_b.candidate_rows()
    assert codes_a == codes_b
    for sentence in ("abba dede", "fig gih", "klon moklon", ""):
        assert (
            scorer_a.predict(sentence, rows_a, codes_a).winner
            == scorer_b.predict(sentence, rows_b, codes_b).winner
        )
