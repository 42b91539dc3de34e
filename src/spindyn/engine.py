"""Finite-volume SDE integration with common random numbers across volumes.

Per-site data is dense: a volume sequence is one (volumes, sites) boolean
mask array, and initial data is one site array (a ``WeightedSeq``), a
(replicas, sites) array or a ``RandomInit`` law.

Sites outside the active volume stay frozen at their initial value exactly;
the Wiener increment for (replica, site, step) comes from a keyed
counter-based stream, so every volume sees identical noise.  Every
integration steps with ``_step``; all but the tagged single-site equation
run their replicas through ``integrate_replicas``.  A replica depends on its
own keys alone (the implicit solve stops per entry), so output is
bit-identical for any thread count and chunk size.  Callers that read only
final states pass ``paths=False`` and get no path array back.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField
from .errors import NonFiniteState, NumericError, ParameterError
from .geometry import GeometricGraph
from .rng import TAG_INIT, generator, noise_matrix
from .spaces import ScaleInterval, WeightedSeq

_NEWTON_MAX_ITERS = 50
_NEWTON_TOL = 1e-12
_FD_STEP = 1e-7
# Replica-chunk size cap keeps noise + trajectory buffers bounded.
_CHUNK_ELEMENTS = 20_000_000

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
            raise ParameterError(f"t={t} is not on the simulation grid")
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
    """I.i.d. scalar initial data, drawn from the keyed stream per site."""

    dist: str  # 'normal' | 'uniform'
    a: float = 0.0  # mean (normal) or lower bound (uniform)
    b: float = 1.0  # std dev (normal) or upper bound (uniform)

    def __post_init__(self):
        if self.dist not in ("normal", "uniform"):
            raise ParameterError(f"unknown initial distribution '{self.dist}'")

    def draw(self, master_seed: int, replica: int, n_sites: int) -> np.ndarray:
        out = np.empty(n_sites)
        for s in range(n_sites):
            g = generator(master_seed, TAG_INIT, replica, s)
            if self.dist == "normal":
                out[s] = self.a + self.b * g.standard_normal()
            else:
                out[s] = g.uniform(self.a, self.b)
        return out


def _initial_states(init, graph, plan, replica_ids) -> np.ndarray:
    """Rows of initial states for ``replica_ids``; an (R, sites) array
    ``init`` holds one row per replica, in replica order."""
    if isinstance(init, np.ndarray):
        return init[list(replica_ids)]
    if isinstance(init, WeightedSeq):
        return np.tile(init.values, (len(replica_ids), 1))
    if isinstance(init, RandomInit):
        return np.stack([init.draw(plan.master_seed, r, graph.n_sites)
                         for r in replica_ids])
    raise ParameterError("init must be a WeightedSeq or a RandomInit")


def _solve_implicit(drift, state, dt, active):
    """Newton solve of theta = state + dt * phi(theta), vectorised; each active
    entry stops at its own tolerance, whatever else shares the block."""
    phi = drift.phi
    dphi = drift.dphi if drift.dphi is not None else \
        (lambda s: (phi(s + _FD_STEP) - phi(s - _FD_STEP)) / (2 * _FD_STEP))
    theta = state.copy()
    for _ in range(_NEWTON_MAX_ITERS):
        resid = theta - dt * phi(theta) - state
        live = ~(np.abs(resid) < _NEWTON_TOL)  # NaN stays live
        if active is not None:
            live &= active
        if not live.any():
            return theta
        denom = 1.0 - dt * dphi(theta)
        size = np.abs(denom)
        if not (size.min() > 0.0 and size.max() < np.inf):  # a zero, NaN or inf
            bad = ~(size > 0.0) | (size == np.inf)
            if np.any(bad & live):
                site = np.nonzero(bad & live)[-1].min()
                raise NumericError(f"implicit drift solve: Newton denominator "
                                   f"1 - dt*phi' is zero or non-finite at site {site}")
            # Settled and frozen entries may be singular; they are not updated.
            denom = np.where(bad, 1.0, denom)
        theta = np.where(live, theta - resid / denom, theta)
    site = int(np.argmax(np.where(live, np.abs(resid), -1.0))) % resid.shape[-1]
    raise NumericError(f"implicit drift solve failed to converge at site {site}")


def _step(field_, state, dW, dt, scheme, active, j):
    """One ``scheme`` step of a (replicas, sites) block with Wiener increments
    dW.  The implicit solve converges on ``active`` sites and names step j
    when it fails; the caller restores frozen sites."""
    diff = field_.diffusion_all(state)
    if scheme == "tamed_em":
        drift = field_.drift_all(state)
        return state + drift * dt / (1.0 + dt * np.abs(drift)) + diff * dW
    try:
        theta = _solve_implicit(field_.drift, state, dt, active)
    except NumericError as e:
        raise NumericError(f"{e} (step {j})") from None
    pair_drift = field_.drift_all(state) - field_.drift.phi(state)
    return theta + dt * pair_drift + diff * dW


def integrate_ensemble(field_: CoefficientField, volume_mask, init_states,
                       plan: SimPlan, noise, n_steps: int | None = None) -> np.ndarray:
    """Advance a (replicas, sites) block; returns (replicas, sites, steps+1).

    ``noise`` holds the standard-normal increments, shape
    (replicas, sites, >= n_steps); sites outside ``volume_mask`` are kept at
    their initial value exactly.  A NaN or infinite entry anywhere in the
    block raises ``NonFiniteState`` at its earliest step, with the replica
    counted within the block, under either scheme: it takes precedence over
    the Newton failure that a non-finite state causes one step later.
    """
    n_steps = plan.n_steps if n_steps is None else n_steps
    state = np.asarray(init_states, dtype=float).copy()
    n_rep, n = state.shape
    mask = np.ones(n, dtype=bool) if volume_mask is None else np.asarray(volume_mask)
    frozen = ~mask
    out = np.empty((n_rep, n, n_steps + 1))
    out[..., 0] = state
    sqdt = np.sqrt(plan.dt)
    err = None
    for j in range(n_steps):
        try:
            new = _step(field_, state, noise[:, :, j] * sqdt, plan.dt, plan.scheme,
                        mask, j)
        except NumericError as e:  # a blown-up state trips the Newton screen first
            err, out = e, out[..., :j + 1]
            break
        new[:, frozen] = state[:, frozen]
        state = new
        out[..., j + 1] = state
    finite = np.isfinite(out)
    if not finite.all():
        bad = np.argwhere(~finite)
        raise NonFiniteState(*bad[np.argmin(bad[:, 2])].tolist())
    if err is not None:
        raise err
    return out


def integrate_replicas(field_: CoefficientField, masks, init, plan: SimPlan,
                       replica_ids, n_steps: int, paths: bool = True,
                       n_threads: int = 1) -> np.ndarray:
    """Integrate consecutive replicas under every volume mask (None: all
    sites active); returns (replicas, masks, sites, steps+1), or with
    ``paths=False`` only the final states (replicas, masks, sites).

    Chunks of at most ``_CHUNK_ELEMENTS`` noise entries run on ``n_threads``;
    each regenerates its noise and initial states from the replica keys and
    fills its own output rows, so the result is bit-identical for any thread
    count and chunk size.
    """
    n = field_.graph.n_sites
    ids = list(replica_ids)
    out = np.empty((len(ids), len(masks), n) + ((n_steps + 1,) if paths else ()))
    last = slice(None) if paths else -1
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n * n_steps))

    def work(lo):
        reps = ids[lo:lo + chunk]
        # Filled stream by stream, so each stream's array is freed before the
        # next is drawn instead of a chunk's worth being held for one stack.
        noise = np.empty((len(reps), n, n_steps))
        for i, r in enumerate(reps):
            noise[i] = noise_matrix(plan.master_seed, r, range(n), n_steps)
        init_states = _initial_states(init, field_.graph, plan, reps)
        for k, mask in enumerate(masks):
            try:
                out[lo:lo + chunk, k] = integrate_ensemble(
                    field_, mask, init_states, plan, noise, n_steps)[..., last]
            except NonFiniteState as e:
                raise e.shifted(reps[0]) from None

    starts = range(0, len(ids), chunk)
    if n_threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, starts))
    else:
        list(map(work, starts))
    return out


def integrate_truncated(field_: CoefficientField, volume, init, plan: SimPlan,
                        replica: int) -> np.ndarray:
    """One replica of the volume-truncated system; shape (sites, steps+1).
    ``volume`` holds site ids in 0..N-1."""
    n = field_.graph.n_sites
    sites = np.array(list(volume))
    outside = sites[~np.isin(sites, np.arange(n))]
    if outside.size:
        raise ParameterError(f"volume site id {outside[0]} is outside 0..{n - 1}")
    mask = np.isin(np.arange(n), sites)
    return integrate_replicas(field_, [mask], init, plan, [replica],
                              plan.n_steps)[0, 0]


@dataclass(frozen=True)
class NestedEnsemble:
    """Trajectories of every (replica, volume) pair on a shared time grid."""

    trajectories: np.ndarray  # (replicas, volumes, sites, steps+1)
    plan: SimPlan
    graph: GeometricGraph

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.trajectories).tobytes()).hexdigest()


def run_nested(field_: CoefficientField, volumes: VolumeSequence, init,
               plan: SimPlan, n_threads: int = 1) -> NestedEnsemble:
    """Integrate every volume for every replica with shared noise streams.

    Output is bit-identical for any ``n_threads`` and any chunk schedule,
    as ``integrate_replicas`` guarantees.
    """
    if plan.p < max(2.0, field_.drift.R):
        raise ParameterError(
            f"moment order p={plan.p} must be >= max(2, R={field_.drift.R})")
    traj = integrate_replicas(field_, volumes.masks, init, plan, range(plan.replicas),
                              plan.n_steps, n_threads=n_threads)
    return NestedEnsemble(trajectories=traj, plan=plan, graph=field_.graph)


def moment_p(ens: NestedEnsemble, volume_idx: int, x: int, t: float,
             p: float | None = None):
    """Monte Carlo p-th absolute moment at (volume, site, time): (mean, stderr)."""
    p = ens.plan.p if p is None else p
    j = ens.plan.time_index(t)
    vals = np.abs(ens.trajectories[:, volume_idx, x, j]) ** p
    n = vals.size
    se = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(vals)), se


def cauchy_gap(ens: NestedEnsemble, n: int, m: int, beta: float, p: float,
               scale: ScaleInterval | None = None) -> float:
    """sup over grid times of E sum_x e^{-beta|x|} |xi^n - xi^m|^p."""
    if n > m:
        raise ParameterError("need n <= m")
    if scale is not None and not scale.contains(beta):
        raise ParameterError(f"beta={beta} outside the scale")
    if n == m:
        return 0.0
    w = np.exp(-beta * ens.graph.radii())
    diff = ens.trajectories[:, n] - ens.trajectories[:, m]  # (rep, sites, time)
    per_rep_time = np.tensordot(w, np.abs(diff) ** p, axes=([0], [1]))  # (rep, time)
    return float(np.max(np.mean(per_rep_time, axis=0)))


def weighted_uniform_moment(ens: NestedEnsemble, volume_idx: int, beta: float,
                            p: float | None = None) -> float:
    """sum_x e^{-beta|x|} sup_t (MC mean of |xi_x,t|^p) for one volume."""
    p = ens.plan.p if p is None else p
    w = np.exp(-beta * ens.graph.radii())
    mom = np.mean(np.abs(ens.trajectories[:, volume_idx]) ** p, axis=0)  # (sites, time)
    return float(np.sum(w * np.max(mom, axis=1)))


def tagged_particle_solve(field_: CoefficientField, x: int, env: np.ndarray,
                          init_x: float, plan: SimPlan, replica: int) -> np.ndarray:
    """Scalar path of site x with all other sites frozen to ``env``.

    ``env`` has shape (sites, steps+1); its row x is ignored.  The noise
    stream is the same one the full runs use for (replica, x, step).
    """
    n_steps = plan.n_steps
    if env.shape != (field_.graph.n_sites, n_steps + 1):
        raise ParameterError("env must have shape (n_sites, n_steps + 1)")
    dW = noise_matrix(plan.master_seed, replica, [x], n_steps)[0] * np.sqrt(plan.dt)
    eta = np.empty(n_steps + 1)
    eta[0] = init_x
    only_x = np.arange(field_.graph.n_sites) == x
    for j in range(n_steps):
        state = env[None, :, j].copy()
        state[0, x] = eta[j]
        eta[j + 1] = _step(field_, state, dW[j], plan.dt, plan.scheme, only_x, j)[0, x]
    return eta


def semigroup_apply(field_: CoefficientField, f, zeta: WeightedSeq, t: float,
                    plan: SimPlan):
    """Monte Carlo estimate of E f(state at time t) started from zeta."""
    j = plan.time_index(t)
    if j == 0:
        return float(f(zeta.values)), 0.0
    final = integrate_replicas(field_, [None], zeta, plan, range(plan.replicas), j,
                               paths=False)[:, 0]
    vals = np.array([f(s) for s in final], dtype=float)
    se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(np.mean(vals)), se
