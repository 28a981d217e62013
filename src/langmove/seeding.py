"""Deterministic RNG derivation.

All randomness in the package flows through :func:`derive_rng` so that
experiment suites are reproducible across runs and worker counts.
``derive_rng(s, *key)`` is numpy's PCG64 (``default_rng``) seeded with
``SeedSequence(entropy=s, spawn_key=key)``.  Every config and function
that takes a seed checks up front that it is an integer ``>= 0``.

Seed layout.  A function that takes a plain seed ``s`` (``simulate``,
``thin_irregular``, ``generate_random_field``, and so the CLI's
``simulate`` and ``gen-cov``) draws from ``derive_rng(s)``.  A study with
master seed ``s`` gives each of its streams the sub-seed
``derive_seed(s, *key)``, so that stream draws from
``derive_rng(derive_seed(s, *key))``.  The keys are:

- ``scenario1``: ``(i,)`` for replication ``i``;
- ``scenario2`` and ``irregular``: ``(0, k)`` for covariate field ``k``,
  ``(1, i)`` for track ``i``, and ``(3, k, i)`` for the random thinning
  of track ``i`` at the ``k``-th mean interval.

The scenario-2 start points are the one stream drawn without a sub-seed,
from ``derive_rng(s, 2)``.  Streams with distinct keys are statistically
independent, and the assignment does not depend on how replications are
scheduled.
"""

from __future__ import annotations

import numpy as np

from .raster import at_least

__all__ = ["derive_rng", "derive_seed"]


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a PCG64 generator for the given seed and stream key.

    Parameters
    ----------
    seed : int
        Master seed.
    *key : int
        Optional stream indices (e.g. replication index).  ``derive_rng(s)``
        and ``derive_rng(s, 0)`` are distinct streams.

    Returns
    -------
    numpy.random.Generator
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def derive_seed(seed: int, *key: int) -> int:
    """Derive an integer sub-seed for stream ``key`` of master ``seed``.

    Useful where an API takes a plain seed (e.g. ``SimConfig``).  The
    returned 128-bit integer is fresh entropy: ``derive_rng(derive_seed(s,
    *key))`` is a different stream from ``derive_rng(s, *key)``, equally
    determined by ``(s, key)`` and independent across keys.
    """
    sequence = np.random.SeedSequence(entropy=at_least(seed, 0, "seed"), spawn_key=tuple(key))
    return int.from_bytes(sequence.generate_state(4).tobytes(), "little")
