"""Scoring kernels: numba-compiled hot loop with a pure-numpy fallback.

The kernel scores a batch of words in one feature domain: it gathers each
word's feature scores for every candidate language and averages them,
substituting the penalty for features a candidate has never seen. That
work dominates identification time, so it ships in two interchangeable
implementations:

* ``numba`` -- @njit compiled, nogil (default when numba imports cleanly);
* ``numpy`` -- vectorized fancy indexing, no compilation step.

Selection: the ``ULI_BACKEND`` environment variable (``numba``, ``numpy``
or ``auto``), overridable per call via ``resolve_backend``. Both kernels
share one contract:

    kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty)
        -> (scores, usable)

``feature_ids`` is the concatenation of every word's feature column indices
(-1 for out-of-vocabulary features); word ``w`` owns the ``counts[w] >= 1``
entries starting at ``offsets[w]``. ``score_matrix`` holds per-language
scores with a negative sentinel for absent features. ``scores[w, i]`` is
the mean over word ``w``'s features of candidate ``i``'s score, and
``usable[w]`` says whether any candidate had any of the word's features,
which drives the backoff over feature domains. A word's results do not
depend on the other words of the batch. The two implementations may differ
in the last float ulp (loop sum vs pairwise sum); each is individually
deterministic.
"""

from __future__ import annotations

import os

import numpy as np

ENV_BACKEND = "ULI_BACKEND"

# Most float64 entries one gather of the numpy kernel may hold, so that its
# temporaries stay a few MB whatever the batch size.
_GATHER_LIMIT = 1 << 18


def _numpy_kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
    n_words = counts.shape[0]
    n_rows = candidate_rows.shape[0]
    scores = np.full((n_words, n_rows), penalty, dtype=np.float64)
    usable = np.zeros(n_words, dtype=np.bool_)
    is_known = feature_ids >= 0
    known_ids = feature_ids[is_known]
    n_known = np.add.reduceat(is_known, offsets, dtype=np.int64)
    known_starts = n_known.cumsum() - n_known
    # Words with the same number m of known features share one (words, rows, m)
    # gather; its sum over the last axis adds each word's m values exactly as
    # a one-word (rows, m) gather would, so batching never changes a bit.
    for m in sorted(set(n_known.tolist()) - {0}):
        words = (n_known == m).nonzero()[0]
        step = max(1, _GATHER_LIMIT // (n_rows * m))
        for first in range(0, words.shape[0], step):
            block = words[first : first + step]
            cols = known_ids[known_starts[block][:, None] + np.arange(m)]
            sub = score_matrix[candidate_rows[None, :, None], cols[:, None, :]]
            present = sub >= 0.0
            vals = np.where(present, sub, penalty)
            k = counts[block]
            scores[block] = (vals.sum(axis=2) + (penalty * (k - m))[:, None]) / k[:, None]
            usable[block] = present.any(axis=(1, 2))
    return scores, usable


def _scalar_kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
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


try:
    from numba import njit

    _numba_kernel = njit(cache=True, nogil=True)(_scalar_kernel)
    HAS_NUMBA = True
except ImportError:
    _numba_kernel = None
    HAS_NUMBA = False

BACKENDS = ("numba", "numpy")


class BackendUnavailable(RuntimeError):
    """A backend was requested by name but cannot run on this machine."""


def available_backends() -> tuple[str, ...]:
    """The names in ``BACKENDS`` that resolve here, numba only if it imports."""
    return tuple(name for name in BACKENDS if name != "numba" or HAS_NUMBA)


def resolve_backend(name: str | None = None) -> str:
    """Pick the kernel backend: explicit arg > ULI_BACKEND env > auto.

    Raises ``ValueError`` for an unknown name and ``BackendUnavailable`` for
    ``numba`` where numba does not import.
    """
    if name is None or name == "auto":
        name = os.environ.get(ENV_BACKEND, "auto")
    if name == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}, expected one of {BACKENDS}")
    if name == "numba" and not HAS_NUMBA:
        raise BackendUnavailable("numba backend requested but numba is not importable")
    return name


def get_kernel(name: str | None = None):
    backend = resolve_backend(name)
    return _numba_kernel if backend == "numba" else _numpy_kernel


def warmup(name: str | None = None) -> None:
    """Trigger JIT compilation outside of timed or threaded sections."""
    kernel = get_kernel(name)
    ids = np.array([0, -1], dtype=np.int64)
    offsets = np.array([0], dtype=np.int64)
    counts = np.array([2], dtype=np.int64)
    matrix = np.array([[0.5, -1.0]], dtype=np.float64)
    rows = np.array([0], dtype=np.int64)
    kernel(ids, offsets, counts, matrix, rows, 7.0)
