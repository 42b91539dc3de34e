"""Counter-based noise addressed by (master_seed, purpose, replica, site, step).

Every random number the engine uses is one pair of words of Philox4x32-10
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3",
SC'11), computed on demand in numpy:

- key: the low 64 bits of ``stream_key(master_seed, tag)``, with tag
  ``TAG_WIENER`` for the driving noise and ``TAG_INIT`` for the initial data;
- counter: the four 32-bit words (step // 2, site, replica, 0), so a site,
  replica or step // 2 of 2^32 or more raises ``ParameterError``;
- draw: the output words w0..w3 of that block give step s the 64-bit word
  w = w[2(s % 2)] << 32 | w[2(s % 2) + 1], taken by ``keyed_draws`` to
  u = ((w >> 11) + 1/2) 2^-53, clamped to 1 - 2^-53 (the top word would
  round to 1.0).  ``noise_matrix`` maps u to the standard normal
  ``scipy.special.ndtri(u)``, importing scipy then, not with the module.

So any (replica, site, step) entry is computed alone, and a truncated run
over any volume, or any batch of replicas, sees exactly the increments of
the full run (common random numbers) without storing arrays between them.
The engine asks for one block (``BLOCK_STEPS`` steps) at a time, so each
word is computed once and it holds 2 steps of noise, however long the run.
``_philox`` reproduces the known-answer vectors of the authors' Random123
library.  ``generator`` remains for the one non-engine draw, the Poisson
configuration of ``geometry.sample_poisson``.
"""

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

# Purpose tags keep the driving noise and the initial-data draws disjoint.
TAG_WIENER = 0
TAG_INIT = 1
# Steps per Philox block: counter (b, site, replica, 0) gives steps 2b, 2b + 1.
BLOCK_STEPS = 2

# Philox4x32 round multipliers and Weyl key bumps (Salmon et al., SC'11).
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(_MASK32)
_S32 = np.uint64(32)
# Philox blocks per vectorised sub-block.  Each temporary is one word per
# block, 64 KiB, below glibc's 128 KiB mmap threshold: a freed mmap'd
# temporary would raise that threshold for the rest of the process.
_SUB_BLOCK = 8192


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


def _philox(key: int, c0, c1, c2, c3):
    """Philox4x32-10 keyed by the low 64 bits of ``key`` on the 32-bit
    counter words (c0, c1, c2, c3), arrays that broadcast together; returns
    the four 32-bit output words as uint64 arrays.  A 32 x 32-bit product is
    exact in uint64, so each round's high and low words are its halves."""
    k0, k1 = key & _MASK32, (key >> 32) & _MASK32
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3))
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0 = (k0 + _PHILOX_W[0]) & _MASK32
            k1 = (k1 + _PHILOX_W[1]) & _MASK32
        p0, p1 = c0 * _PHILOX_M[0], c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = ((p1 >> _S32) ^ c1 ^ np.uint64(k0), p1 & _LO32,
                          (p0 >> _S32) ^ c3 ^ np.uint64(k1), p0 & _LO32)
    return c0, c1, c2, c3


def _ids(name: str, values) -> np.ndarray:
    """``values`` as a uint64 id array; a negative, non-integer or 2^32 and
    larger id raises: each is one 32-bit counter word."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ParameterError(f"{name} ids must be integers, got {a.dtype}")
    if a.size and a.dtype.kind == "i" and a.min() < 0:
        raise ParameterError(f"{name} id {a[a < 0].flat[0]} is negative")
    if a.size and a.max() > _MASK32:
        raise ParameterError(f"{name} id {a[a > _MASK32].flat[0]} is at or above 2^32")
    return a.astype(np.uint64)


def _uniforms(word: np.ndarray) -> np.ndarray:
    """u = ((w >> 11) + 1/2) 2^-53 of uint64 words, in (0, 1): the top word,
    whose u rounds to 1.0, is clamped to the largest double below 1."""
    u = (word >> np.uint64(11)).astype(float)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def keyed_draws(master_seed: int, tag: int, replica, site_ids, n_steps: int,
                first_step: int = 0) -> np.ndarray:
    """Uniforms in (0, 1) of (replica, site, step) under ``tag`` for every
    site in ``site_ids`` and every step in
    ``first_step``..``first_step + n_steps - 1``; callers apply their own map.

    For an int ``replica`` the shape is (sites, steps); for a 1-d array of
    replica ids it is (replicas, sites, steps).  A row's Philox blocks
    b_lo..b_hi-1, two words per step, are its steps from 2 b_lo on, so one
    (rows, 2 blocks) buffer is filled and the requested steps returned as a
    view of it, holding at most 1 unused column at each end.  Rows are
    filled in groups of at most ``_SUB_BLOCK`` blocks, so the temporaries
    stay at 64 KiB; a request of more than 2 ``_SUB_BLOCK`` steps fills one
    row at a time, with temporaries of one row's words.  A step whose block
    b is 2^32 or larger raises ``ParameterError`` naming it.
    """
    if first_step < 0:
        raise ParameterError(f"first_step {first_step} is negative")
    last = first_step + n_steps - 1
    if n_steps > 0 and last // BLOCK_STEPS > _MASK32:
        raise ParameterError(f"step {last} is at or above {BLOCK_STEPS} * 2^32, "
                             f"past the 32-bit block counter")
    reps, sites = _ids("replica", np.atleast_1d(replica)), _ids("site", site_ids)
    key = stream_key(master_seed, tag)
    b_lo, b_hi = first_step // BLOCK_STEPS, -(-(first_step + n_steps) // BLOCK_STEPS)
    b = np.arange(b_lo, b_hi, dtype=np.uint64)
    rows = np.empty((reps.size * sites.size, BLOCK_STEPS * b.size))
    per_row = max(1, _SUB_BLOCK // max(1, b.size))
    for r0 in range(0, rows.shape[0], per_row):
        r = np.arange(r0, min(r0 + per_row, rows.shape[0]))
        rep, site = reps[r // sites.size, None], sites[r % sites.size, None]
        w = _philox(key, b, site, rep, 0)
        for s in range(BLOCK_STEPS):
            rows[r0:r0 + r.size, s::BLOCK_STEPS] = _uniforms(w[2 * s] << _S32 | w[2 * s + 1])
    skip = first_step - BLOCK_STEPS * b_lo
    out = rows[:, skip:skip + n_steps].reshape(reps.size, sites.size, n_steps)
    return out[0] if np.ndim(replica) == 0 else out


def noise_matrix(master_seed: int, replica, site_ids, n_steps: int,
                 first_step: int = 0) -> np.ndarray:
    """Standard-normal Wiener increments of (replica, site, step) for the
    steps ``first_step``..``first_step + n_steps - 1``.

    For an int ``replica`` the shape is (len(site_ids), n_steps); for a 1-d
    array of replica ids it is (replicas, len(site_ids), n_steps).  Entry
    (replica, site, step) is the same whatever else is requested with it,
    which is what couples the truncated runs.
    """
    from scipy.special import ndtri

    u = keyed_draws(master_seed, TAG_WIENER, replica, site_ids, n_steps, first_step)
    return ndtri(u, out=u)
