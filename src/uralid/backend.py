"""The two names the benchmark's context line reads, and nothing else.

Words are scored in ``identifier``; this module only reports, for
``perfbench/run.py``, whether numba is importable and which scoring path
runs, so that a benchmark result records them.
"""

from __future__ import annotations

import importlib.util

HAS_NUMBA = importlib.util.find_spec("numba") is not None


def resolve_backend() -> str:
    """The scoring path's name: always numpy, the one path there is."""
    return "numpy"
