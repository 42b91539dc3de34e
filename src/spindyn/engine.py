"""Finite-volume SDE integration with common random numbers across volumes.

Per-site data is dense: a volume sequence is one (volumes, sites) boolean
mask array, and initial data is one (replicas, sites) array that every
volume starts from.

Each volume steps only its own sites (``CoefficientField.sites``); the others
keep their initial value exactly.  The Wiener increment for (replica, site,
step) is the Philox word at that counter (``spindyn.rng``), so every volume
sees identical noise.  Every integration steps with ``_step`` and runs
replicas 0..plan.replicas-1 through ``integrate_replicas``, which steps the
volumes of a replica chunk in lockstep and hands every step's states to an
optional observer.  ``run_nested`` keeps whole paths that way, and
``nested_gap_sums`` reduces them to Cauchy-gap sums as it goes, holding no
path.  A replica depends on its own keys alone (the implicit solve stops
per entry), so output is bit-identical for any thread count and chunk size,
and a ``NonFiniteState`` names the earliest (step, replica, site).
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coeffs import CoefficientField
from .errors import NonFiniteState, NumericError, ParameterError
from .geometry import GeometricGraph
from .rng import BLOCK_STEPS, TAG_INIT, keyed_draws, noise_matrix

_NEWTON_MAX_ITERS = 50
_NEWTON_TOL = 1e-12
# Cap on the entries a replica chunk holds: its (volumes, replicas, sites)
# states plus one noise block.
_CHUNK_ELEMENTS = 20_000_000
# Steps per noise draw: one Philox block, whose words are each computed
# once, so the noise a chunk holds does not grow with T.
_NOISE_BLOCK = BLOCK_STEPS

SCHEMES = ("tamed_em", "split_step_implicit")


@dataclass(frozen=True)
class SimPlan:
    """Time grid, scheme, replica count, seed and moment order of a run."""

    dt: float
    T: float
    scheme: str = "tamed_em"
    replicas: int = 1
    master_seed: int = 0
    p: float = 2.0

    def __post_init__(self):
        if not (0 < self.dt <= self.T):
            raise ParameterError("need 0 < dt <= T")
        steps = self.T / self.dt
        if not (np.isfinite(steps) and abs(round(steps) * self.dt - self.T)
                <= 1e-9 * max(1.0, self.T)):
            raise ParameterError(f"T={self.T} is not a multiple of dt={self.dt}")
        if self.scheme not in SCHEMES:
            raise ParameterError(f"unknown scheme '{self.scheme}'")
        if self.replicas < 1:
            raise ParameterError("replicas must be >= 1")
        if self.p < 2:
            raise ParameterError("moment order p must be >= 2")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def time_index(self, t: float) -> int:
        j = int(round(t / self.dt))
        if not (0 <= j <= self.n_steps) or abs(j * self.dt - t) > 1e-9 * max(1.0, self.T):
            raise ParameterError(f"t={t} is not on the simulation grid, the "
                                 f"multiples of dt={self.dt} in [0, T={self.T}]")
        return j


@dataclass(frozen=True)
class VolumeSequence:
    """Strictly nested site sets ending in the full window, held as one
    read-only (volumes, sites) boolean mask array."""

    masks: np.ndarray

    def __post_init__(self):
        m = np.array(self.masks)
        if m.dtype != bool or m.ndim != 2 or not len(m):
            raise ParameterError("volumes must be a non-empty 2-d boolean mask array")
        if np.any(m[:-1] & ~m[1:]) or not np.all(np.any(m[1:] & ~m[:-1], axis=1)):
            raise ParameterError("volumes must be strictly nested")
        if not m[-1].all():
            raise ParameterError("final volume must cover the full window")
        m.flags.writeable = False
        object.__setattr__(self, "masks", m)

    def __len__(self) -> int:
        return len(self.masks)


def radial_volumes(graph: GeometricGraph, radii) -> VolumeSequence:
    """Volumes of sites with |x| <= r for an ascending list of radii,
    with the full window appended as the final volume."""
    masks = graph.radii() <= np.asarray(radii, dtype=float).reshape(-1, 1)
    if not (len(masks) and masks[-1].all()):
        masks = np.vstack([masks, np.ones(graph.n_sites, dtype=bool)])
    return VolumeSequence(masks)


@dataclass(frozen=True)
class RandomInit:
    """I.i.d. scalar initial data; site x of replica r is a transform of the
    ``TAG_INIT`` uniform at counter (0, x, r, 0)."""

    dist: str  # 'normal' | 'uniform'
    a: float = 0.0  # mean (normal) or lower bound (uniform)
    b: float = 1.0  # std dev (normal) or upper bound (uniform)

    def __post_init__(self):
        if self.dist not in ("normal", "uniform"):
            raise ParameterError(f"unknown initial distribution '{self.dist}'")
        floor, name = (self.a, f"a={self.a}") if self.dist == "uniform" else (0.0, "0")
        if not self.b >= floor:
            raise ParameterError(f"b={self.b} must be >= {name} for the {self.dist} law")

    def draw(self, master_seed: int, replica, n_sites: int) -> np.ndarray:
        """Initial states, (n_sites,) for an int ``replica`` and
        (replicas, n_sites) for a 1-d array of replica ids."""
        u = keyed_draws(master_seed, TAG_INIT, replica, range(n_sites), 1)[..., 0]
        if self.dist == "normal":
            from scipy.special import ndtri

            return self.a + self.b * ndtri(u)
        return self.a + (self.b - self.a) * u


def _solve_implicit(drift, state, dt, sites, j):
    """Newton solve of theta = state + dt * phi(theta) at the site ids
    ``sites`` in step j, vectorised; each entry stops at its own tolerance,
    whatever else shares the block."""
    phi, dphi = drift.phi, drift.dphi
    theta = state.copy()
    for _ in range(_NEWTON_MAX_ITERS):
        resid = theta - dt * phi(theta) - state
        live = ~(np.abs(resid) < _NEWTON_TOL)  # NaN stays live
        if not live.any():
            return theta
        denom = 1.0 - dt * dphi(theta)
        size = np.abs(denom)
        if not (size.min() > 0.0 and size.max() < np.inf):  # a zero, NaN or inf
            bad = ~(size > 0.0) | (size == np.inf)
            if np.any(bad & live):
                site = sites[np.nonzero(bad & live)[-1].min()]
                raise NumericError(f"implicit drift solve: Newton denominator 1 - dt*phi' "
                                   f"is zero or non-finite at site {site} (step {j})")
            # Settled entries may be singular; they are not updated.
            denom = np.where(bad, 1.0, denom)
        theta = np.where(live, theta - resid / denom, theta)
    col = int(np.argmax(np.where(live, np.abs(resid), -1.0))) % resid.shape[-1]
    site = sites[col]
    raise NumericError(f"implicit drift solve failed to converge at site {site} (step {j})")


def _step(rows: CoefficientField, state, dW, dt, scheme, j):
    """One ``scheme`` step of the sites ``rows.sites`` of a (replicas, sites)
    block, with their Wiener increments dW; returns their new (replicas,
    len(rows.sites)) states.  The implicit solve names step j when it fails."""
    own = state[:, rows.sites]
    diff = rows.diffusion_all(state)
    if scheme == "tamed_em":
        drift = rows.drift_all(state)
        return own + drift * dt / (1.0 + dt * np.abs(drift)) + diff * dW
    theta = _solve_implicit(rows.drift, own, dt, rows.sites, j)
    return theta + dt * (rows.A @ state.T).T + diff * dW


def _check_finite(cur, j):
    """Raise ``NonFiniteState`` at the first (replica, site), in C order, at
    which any volume of a (volumes, replicas, sites) step-j block is NaN or
    infinite."""
    finite = np.isfinite(cur).all(axis=0)
    if not finite.all():
        replica, site = np.argwhere(~finite)[0].tolist()
        raise NonFiniteState(replica, site, j)


def integrate_ensemble(field_: CoefficientField, masks, init_states,
                       plan: SimPlan, noise, n_steps: int, observe=None) -> np.ndarray:
    """Advance a (replicas, volumes, sites) block ``n_steps`` steps, all
    volumes in lockstep; returns the final states (replicas, volumes, sites).

    ``masks`` holds one boolean site mask per volume.  Each volume steps
    only the rows of its own sites, within its own contiguous (replicas,
    sites) state; the sites outside it keep their initial value exactly.
    All volumes share one set of increments: ``noise(first_step, k)`` returns
    the standard-normal increments of steps first_step..first_step+k-1,
    shape (replicas, sites, k), and is asked for one Philox block at a
    time: k <= ``_NOISE_BLOCK`` steps from a multiple of ``_NOISE_BLOCK``.
    ``observe(j, states)``, if given, sees the (replicas, volumes, sites)
    states of every step j = 0..n_steps; they are overwritten by the next
    step, so it copies what it keeps.

    Each step's states are checked once, across all volumes, as they are
    made: a NaN or infinite entry raises ``NonFiniteState`` at its earliest
    step and, within it, its first (replica, site) in C order, with the
    replica counted within the block, under either scheme, before the
    Newton failure that it would cause one step later.
    """
    # (volumes, replicas, sites), a copy: each volume's state is one
    # C-ordered block, updated in place on its own sites.
    cur = np.array(np.transpose(init_states, (1, 0, 2)), dtype=float, order="C")
    rows = [replace(field_, sites=np.flatnonzero(mask)) for mask in masks]
    _check_finite(cur, 0)
    states = cur.transpose(1, 0, 2)
    if observe is not None:
        observe(0, states)
    sqdt = np.sqrt(plan.dt)
    for j0 in range(0, n_steps, _NOISE_BLOCK):
        block = noise(j0, min(_NOISE_BLOCK, n_steps - j0))
        for j in range(j0, j0 + block.shape[2]):
            dW = block[:, :, j - j0] * sqdt
            for state, own in zip(cur, rows):
                state[:, own.sites] = _step(own, state, dW[:, own.sites], plan.dt,
                                            plan.scheme, j)
            _check_finite(cur, j + 1)
            if observe is not None:
                observe(j + 1, states)
        del block  # before the next block is drawn
    return states


class _Superseded(Exception):
    """Stops a replica chunk once another chunk has failed no later."""


def integrate_replicas(field_: CoefficientField, masks, init, plan: SimPlan,
                       n_steps: int, observer=None, n_threads: int = 1) -> np.ndarray:
    """Integrate replicas 0..plan.replicas-1 under every volume mask, from
    the (replicas, sites) initial states ``init``, which every volume
    shares; returns the final states (replicas, masks, sites).

    ``observer(rows, j, states)``, if given, sees each replica chunk's
    (replicas, masks, sites) states at every step j = 0..n_steps, with the
    chunk's replica ids as a slice.  Chunks holding at most
    ``_CHUNK_ELEMENTS`` entries of states and one noise block run on
    ``n_threads``; each starts from its own rows of ``init``, computes its
    noise from its (replica, site, step) counters and writes only its own
    rows, so the result, and whatever an observer writes into its own rows,
    is bit-identical for any thread count and chunk size.
    A chunk runs to its end, its first failure, or the earliest failing step
    that another chunk has reported so far, and the ``NonFiniteState``
    raised is the earliest of all in (step, replica, site) order.
    """
    n = field_.graph.n_sites
    if not (isinstance(init, np.ndarray) and init.shape == (plan.replicas, n)):
        got = (f"an array of shape {init.shape}" if isinstance(init, np.ndarray)
               else f"a {type(init).__name__}")
        raise ParameterError(f"init is {got}, need (replicas, sites) = "
                             f"{(plan.replicas, n)}")
    out = np.empty((plan.replicas, len(masks), n))
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n * (len(masks) + _NOISE_BLOCK)))
    # The earliest failing step known so far, lowered under the lock.  A
    # chunk that has checked that step can no longer fail first, so it stops;
    # a stale read only stops it later.
    earliest, lock = [n_steps + 1], threading.Lock()

    def work(lo):
        rows = slice(lo, min(lo + chunk, plan.replicas))
        reps = np.arange(rows.start, rows.stop)

        def observe(j, states):
            if j >= earliest[0]:
                raise _Superseded
            if observer is not None:
                observer(rows, j, states)

        try:
            out[rows] = integrate_ensemble(
                field_, masks,
                np.broadcast_to(init[rows, None], (len(reps), len(masks), n)), plan,
                lambda j0, k: noise_matrix(plan.master_seed, reps, range(n), k,
                                           first_step=j0),
                n_steps, observe)
        except _Superseded:
            return None
        except NonFiniteState as e:
            with lock:
                earliest[0] = min(earliest[0], e.step)
            return e.shifted(lo)

    starts = range(0, plan.replicas, chunk)
    if n_threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            failures = [e for e in pool.map(work, starts) if e is not None]
    else:
        failures = [e for e in map(work, starts) if e is not None]
    if failures:
        raise min(failures, key=lambda e: (e.step, e.replica, e.site))
    return out


def _check_nested(field_: CoefficientField, volumes: VolumeSequence, plan: SimPlan):
    """The moment order must cover the drift's growth, and the volume masks
    the graph's sites."""
    R = field_.drift.phi.growth()[1]
    if plan.p < max(2.0, R):
        raise ParameterError(f"moment order p={plan.p} must be >= max(2, R={R})")
    width, n = volumes.masks.shape[1], field_.graph.n_sites
    if width != n:
        raise ParameterError(f"volume masks cover {width} sites, the graph has {n}")


def run_nested(field_: CoefficientField, volumes: VolumeSequence, init,
               plan: SimPlan, n_threads: int = 1) -> np.ndarray:
    """Integrate every volume for every replica with shared noise streams;
    returns every path, (replicas, volumes, sites, steps+1).

    Output is bit-identical for any ``n_threads`` and any chunk schedule,
    as ``integrate_replicas`` guarantees.
    """
    _check_nested(field_, volumes, plan)
    traj = np.empty((plan.replicas, len(volumes), field_.graph.n_sites,
                     plan.n_steps + 1))

    def keep(rows, j, states):
        traj[rows, ..., j] = states

    integrate_replicas(field_, volumes.masks, init, plan, plan.n_steps,
                       observer=keep, n_threads=n_threads)
    return traj


def nested_gap_sums(field_: CoefficientField, volumes: VolumeSequence, init,
                    plan: SimPlan, betas, n_threads: int = 1):
    """Integrate every volume for every replica, as ``run_nested`` does, and
    keep only sums[n, b, r, j] = sum_x e^{-beta_b |x|} |xi^n - xi^m|^p, p =
    ``plan.p``, of replica r at step j, for each volume n below the last
    one, m, and each beta in ``betas``; returns (sums, final), the
    (volumes-1, betas, replicas, steps+1) sums and the (replicas, volumes,
    sites) time-T states.

    Each replica's sum is one ``einsum`` contraction of its own row, whose
    order depends on the site count alone, so the sums and the time-T
    states are bit-identical for any ``n_threads`` and any chunk schedule,
    as ``integrate_replicas`` guarantees.
    """
    _check_nested(field_, volumes, plan)
    weights = np.exp(-np.multiply.outer(betas, field_.graph.radii()))
    m = len(volumes) - 1
    sums = np.empty((m, len(weights), plan.replicas, plan.n_steps + 1))

    def reduce(rows, j, states):
        for n in range(m):
            diff = np.abs(states[:, n] - states[:, m]) ** plan.p
            sums[n, :, rows, j] = np.einsum("rs,bs->br", diff, weights)

    final = integrate_replicas(field_, volumes.masks, init, plan, plan.n_steps,
                               observer=reduce, n_threads=n_threads)
    return sums, final


def moment_p(paths: np.ndarray, p: float):
    """Monte Carlo moments of |xi|^p over the replicas of a (replicas, sites,
    times) path array: (mean, stderr), each of shape (sites, times)."""
    vals = np.abs(paths) ** p
    se = (np.std(vals, axis=0, ddof=1) / np.sqrt(len(vals)) if len(vals) > 1
          else np.zeros(vals.shape[1:]))
    return np.mean(vals, axis=0), se


def cauchy_gap(sums: np.ndarray) -> float:
    """sup over grid times of the replica mean of one (replicas, steps+1)
    slice of ``nested_gap_sums``' sums: E sum_x e^{-beta|x|} |xi^n - xi^m|^p."""
    return float(np.max(np.mean(sums, axis=0)))

