"""Counter-based noise streams keyed by (master_seed, replica, site, purpose).

Every Gaussian increment used anywhere in the simulation engine is
addressable by its key, so truncated runs over different volumes can share
noise exactly (common random numbers) without storing or passing arrays
between them.  Streams are backed by numpy's Philox generator; element ``j``
of a stream is the step-``j`` increment.
"""

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose tags keep the driving noise and the initial-data draws disjoint.
TAG_WIENER = 0
TAG_INIT = 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(master_seed: int, *fields: int) -> int:
    """Derive a 128-bit Philox key by mixing the seed with integer fields."""
    lo = _splitmix64(master_seed & _MASK64)
    hi = _splitmix64((master_seed ^ 0xA5A5A5A5A5A5A5A5) & _MASK64)
    for f in fields:
        lo = _splitmix64(lo ^ (f & _MASK64))
        hi = _splitmix64(hi ^ lo)
    return lo | (hi << 64)


def generator(master_seed: int, *fields: int) -> np.random.Generator:
    """A fresh Generator for the given key fields."""
    return np.random.Generator(np.random.Philox(key=stream_key(master_seed, *fields)))


def noise_matrix(master_seed: int, replica: int, site_ids, n_steps: int) -> np.ndarray:
    """Standard-normal increments, shape (len(site_ids), n_steps).

    Row i holds the stream of site ``site_ids[i]``; identical for every
    volume that requests it, which is what couples the truncated runs.
    """
    out = np.empty((len(site_ids), n_steps))
    for i, s in enumerate(site_ids):
        out[i] = generator(master_seed, TAG_WIENER, replica,
                           int(s)).standard_normal(n_steps)
    return out
