"""The scoring kernel: average each word's feature scores per candidate.

The kernel scores a batch of words in one feature domain: it gathers each
word's feature scores for every candidate language and averages them,
substituting the penalty for features a candidate has never seen. That
work dominates identification time. The contract:

    kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty)
        -> (scores, usable)

``feature_ids`` is the concatenation of every word's feature column indices
(-1 for out-of-vocabulary features); word ``w`` owns the ``counts[w] >= 1``
entries starting at ``offsets[w]``, and the words' entries follow each
other in order. ``score_matrix`` holds per-language scores, rows at
registry positions, with a negative sentinel for absent features; the
scorer passes only the batch's block of used columns, with the feature ids
renumbered to index it. ``scores[w, i]`` is candidate ``i``'s scores of
word ``w``'s features, the penalty in place of each absent one, added in
feature order from 0.0 as ``acc += score`` adds them and divided by
``counts[w]``: bit for bit the loop of ``reference_kernel`` in the tests
and the sums of the brute-force oracle. ``usable[w]`` says whether any
candidate had any of the word's features, which drives the backoff over
feature domains. A word's results do not depend on the other words of the
batch, bit for bit. Temporaries grow with the number of words times
candidates, plus the block's columns times candidates; no step gathers
every feature of the batch at once.

``running_sums`` is the one summation rule: the scorer adds a sentence's
word rows with it, and the kernel a word's feature scores.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# Read only by the benchmark's context line.
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend() -> str:
    """The scoring kernel's name; read only by the benchmark's context line."""
    return "numpy"


def running_sums(rows, index, starts, counts):
    """Per segment ``i``, the sum of ``rows[index[j]]`` over
    ``starts[i] <= j < starts[i] + counts[i]``, added in that order from 0.0 as
    ``acc += row`` adds them; a segment without terms sums to zeros.

    Each step gathers one row for every segment that still has terms, so the
    temporaries stay the size of the result.
    """
    sums = np.zeros((counts.shape[0], rows.shape[1]), dtype=np.float64)
    live = np.flatnonzero(counts > 0)
    k = 0
    while live.size:
        sums[live] += rows[index[starts[live] + k]]
        k += 1
        live = live[counts[live] > k]
    return sums


def kernel(feature_ids, offsets, counts, score_matrix, candidate_rows, penalty):
    # one row per column of the block, then feature id -1's row, absent for all
    table = np.full((score_matrix.shape[1] + 1, candidate_rows.shape[0]), -1.0)
    table[:-1] = score_matrix[candidate_rows].T
    known = (table >= 0.0).any(axis=1)
    usable = np.logical_or.reduceat(known[feature_ids], offsets)
    table[table < 0.0] = penalty
    scores = running_sums(table, feature_ids, offsets, counts)
    scores /= counts[:, None]
    return scores, usable
