"""The scoring kernel: average each word's feature scores per candidate.

The kernel scores a batch of words in one feature domain: it gathers each
word's feature scores for every candidate language and averages them,
substituting the penalty for features a candidate has never seen. That
work dominates identification time. The contract:

    kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty)
        -> (scores, usable)

``feature_ids`` is the concatenation of every word's feature column indices
(-1 for out-of-vocabulary features); word ``w`` owns the ``counts[w] >= 1``
entries starting at ``offsets[w]``. ``score_matrix`` holds per-language
scores with a negative sentinel for absent features. ``scores[w, i]`` is
the mean over word ``w``'s features of candidate ``i``'s score, and
``usable[w]`` says whether any candidate had any of the word's features,
which drives the backoff over feature domains. A word's results do not
depend on the other words of the batch, bit for bit.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# Most float64 entries one gather of the kernel may hold, so that its
# temporaries stay a few MB whatever the batch size.
_GATHER_LIMIT = 1 << 18

# Read only by the benchmark's context line.
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend() -> str:
    """The scoring kernel's name; read only by the benchmark's context line."""
    return "numpy"


def kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
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
