"""Random-generator plumbing: every stochastic function takes an explicit rng."""

from __future__ import annotations

import numpy as np

from .qcore import _count


def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    Accepts a ready generator, an integer seed >= 0, or None (fresh
    OS-seeded generator); anything else raises InvalidParameter.  There is
    deliberately no module-level global generator: reproducible pipelines
    must pass a seed or generator explicitly.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(None if rng is None else _count(rng, "seed", least=0))
