"""Finite-volume Gibbs kernels, MCMC sampling, DLR residuals and the
reversibility test for the induced gradient dynamics.

The pair potential is W_xy(u, v) = a_xy u v, with one coupling a_xy per CSR
entry of the graph, so a pair beyond the interaction radius has none; the
single-site potential V carries a polynomial lower bound.  The kernel on a
finite site set eta with frozen exterior z has density proportional to
exp[-E_eta(sigma | z)] prod_x exp[-V(sigma_x)].
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .coeffs import (CoefficientField, SinglePotentialDrift,
                     validate_assumptions)
from .engine import SimPlan, integrate_replicas
from .errors import ConstructionError, ParameterError
from .geometry import GeometricGraph
from .spaces import WeightedSeq

_FD_H = 1e-6
_VALIDATE_BOX = 5.0
_TUNE_EVERY = 25
_TUNE_TARGET = (0.5, 0.7)
_ACCEPT_HEALTHY = (0.05, 0.99)


@dataclass(frozen=True)
class GibbsModel:
    """Pair potential W_xy(u,v) = a_xy u v plus single-site potential V.

    ``weights`` holds a_xy for every CSR entry of the graph, aligned with
    ``graph.indices``; it is stored as a read-only float64 copy, finite,
    symmetric (a_xy = a_yx) and with 0 on the self entries.  ``A`` is the
    sparse coupling operator built from it once, the only place the Gibbs
    layer reads pair couplings from.  The growth certificate (a_V, b_V, tau)
    lower-bounds V and (I_W, J_W, r) upper-bounds |W| on the validation box
    with max |a_xy|; both are checked at construction, as is tau > r.
    """

    graph: GeometricGraph
    weights: np.ndarray
    V: callable
    tau: float
    a_V: float = 0.25
    b_V: float = 1.0
    I_W: float = 0.0
    J_W: float = 0.0
    r: float = 0.0
    dV: callable = None
    A: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        A = self.graph.operator(w)  # raises on a wrong shape
        if not np.all(np.isfinite(w)):
            raise ParameterError(f"weights must be finite, entry "
                                 f"{np.argmin(np.isfinite(w))} is not")
        self_w = w[self.graph.indptr[:-1]]
        if np.any(self_w != 0):
            raise ParameterError(f"self entry of site {np.argmax(self_w != 0)} "
                                 f"must have weight 0")
        x, y = (A != A.T).nonzero()
        if x.size:
            raise ParameterError(f"weights must be symmetric: a_xy != a_yx at "
                                 f"(x, y) = ({x[0]}, {y[0]})")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "A", A)
        if self.a_V <= 0 or self.b_V <= 0:
            raise ParameterError("a_V and b_V must be positive")
        if min(self.I_W, self.J_W, self.r) < 0:
            raise ParameterError("I_W, J_W, r must be nonnegative")
        if not self.tau > self.r:
            raise ParameterError(f"need tau > r, got tau={self.tau}, r={self.r}")
        u = np.linspace(-_VALIDATE_BOX, _VALIDATE_BOX, 201)
        if np.any(self.V(u) < self.a_V * np.abs(u) ** self.tau - self.b_V - 1e-9):
            raise ParameterError("V violates its declared lower bound on the test set")
        w_max = float(np.max(np.abs(w))) if w.size else 0.0
        uu, vv = np.meshgrid(u[::8], u[::8])
        lhs = w_max * np.abs(uu * vv)
        rhs = self.I_W * (np.abs(uu) ** self.r + np.abs(vv) ** self.r) + self.J_W
        if np.any(lhs > rhs + 1e-9):
            raise ParameterError("pair potential violates its declared growth bound")

    def grad_V(self, u):
        if self.dV is not None:
            return self.dV(u)
        return (self.V(u + _FD_H) - self.V(u - _FD_H)) / (2 * _FD_H)


# ---------------------------------------------------------------------------
# The conditional target on a finite site set


class _EtaTarget:
    """Quadratic-coupling conditional density on eta, vectorised over chains.

    Energy U(s) = sum V(s_i) + sum_pairs a_ij s_i s_j + sum_i bconst_i s_i,
    where bconst_i = sum_{y not in eta} a_iy z_y collects the frozen boundary
    (one row per chain when ``z_dense`` has a leading chain axis).
    """

    def __init__(self, model: GibbsModel, eta, z_dense: np.ndarray):
        self.model = model
        self.eta = sorted(int(s) for s in eta)
        for a, b in zip(self.eta, self.eta[1:]):
            if a == b:
                raise ParameterError(f"eta lists site {a} twice")
        rows = model.A[self.eta]
        self.K = rows[:, self.eta].toarray()
        z = np.array(z_dense, dtype=float)
        z[..., self.eta] = 0.0
        # A CSR product sums each row from 0 in ascending column order; the
        # zeroed eta columns add only signed zeros.
        self.bconst = (rows @ z.T).T

    def energy_grad(self, s: np.ndarray):
        """(U(s), grad U(s)), both from one product s @ K."""
        sK = s @ self.K
        U = self.model.V(s).sum(axis=-1) + (
            0.5 * (s * sK).sum(axis=-1) + (self.bconst * s).sum(axis=-1))
        return U, self.model.grad_V(s) + sK + self.bconst


@dataclass(frozen=True)
class ChainParams:
    """Metropolis-adjusted Langevin chain settings."""

    steps: int
    burn_in: int
    step_size: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.steps, self.burn_in) < 1 or self.step_size <= 0:
            raise ParameterError("chain parameters must be positive")


@dataclass(frozen=True)
class SpecKernelSample:
    """MCMC draws from the conditional kernel on eta, with diagnostics."""

    eta: tuple
    boundary: WeightedSeq
    samples: np.ndarray  # (n_samples, |eta|)
    acceptance_rate: float
    ess: float
    step_size: float
    warnings: tuple = ()


def _autocorr_ess(series: np.ndarray) -> float:
    """Effective sample size via the initial-positive-sequence estimator."""
    n = series.size
    if n < 4:
        return float(n)
    x = series - series.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return float(n)
    s = 0.0
    for lag in range(1, min(n, 1000)):  # only the lags up to the first <= 0
        acf = np.dot(x[lag:], x[:n - lag]) / (n * var)
        if acf <= 0:
            break
        s += acf
    return float(n / (1.0 + 2.0 * s))


def _mala_run(target: _EtaTarget, init: np.ndarray, chain: ChainParams,
              collect: bool):
    """Run vectorised MALA chains; returns (samples or final states, rate, h).

    ``init`` has shape (n_chains, k).  Step size is adapted toward the
    [0.5, 0.7] acceptance window during burn-in and frozen afterwards.
    """
    rng = np.random.default_rng(chain.seed)
    s = np.asarray(init, dtype=float).copy()
    n_chains, k = s.shape
    h = chain.step_size
    U, G = target.energy_grad(s)
    acc_recent = []
    accepted = 0
    kept = chain.steps if collect else 1
    out = np.empty((kept * n_chains, k)) if collect else None
    for step in range(chain.burn_in + kept):
        mu = s - 0.5 * h * G
        prop = mu + np.sqrt(h) * rng.standard_normal(s.shape)
        U_prop, G_prop = target.energy_grad(prop)
        mu_back = prop - 0.5 * h * G_prop
        log_q_fwd = -((prop - mu) ** 2).sum(axis=-1) / (2 * h)
        log_q_back = -((s - mu_back) ** 2).sum(axis=-1) / (2 * h)
        log_alpha = U - U_prop + log_q_back - log_q_fwd
        take = np.log(rng.uniform(size=n_chains)) < log_alpha
        s[take] = prop[take]
        U[take] = U_prop[take]
        G[take] = G_prop[take]
        n_take = np.count_nonzero(take)
        if step < chain.burn_in:
            acc_recent.append(n_take / max(1, n_chains))
            if len(acc_recent) >= _TUNE_EVERY:
                avg = float(np.mean(acc_recent))
                if avg > _TUNE_TARGET[1]:
                    h *= 1.3
                elif avg < _TUNE_TARGET[0]:
                    h /= 1.3
                acc_recent = []
        else:
            accepted += n_take
            if collect:
                i = (step - chain.burn_in) * n_chains
                out[i:i + n_chains] = s
    rate = accepted / max(1, kept * n_chains)
    return (out if collect else s), rate, h


def kernel_sample(model: GibbsModel, eta, boundary: WeightedSeq,
                  chain: ChainParams) -> SpecKernelSample:
    """Sample the conditional Gibbs kernel on eta with frozen boundary, by
    one MALA chain."""
    eta = sorted(int(s) for s in eta)
    if not eta:
        return SpecKernelSample(eta=(), boundary=boundary,
                                samples=np.zeros((0, 0)), acceptance_rate=1.0,
                                ess=0.0, step_size=chain.step_size)
    target = _EtaTarget(model, eta, boundary.values)
    rng = np.random.default_rng(chain.seed ^ 0x5eed)
    init = rng.standard_normal((1, len(eta)))
    samples, rate, h = _mala_run(target, init, chain, collect=True)
    ess = float(min(_autocorr_ess(samples[:, i]) for i in range(len(eta))))
    warnings = ()
    if not (_ACCEPT_HEALTHY[0] < rate < _ACCEPT_HEALTHY[1]):
        warnings = (f"acceptance rate {rate:.3f} outside healthy range "
                    f"{_ACCEPT_HEALTHY}",)
    return SpecKernelSample(eta=tuple(eta), boundary=boundary, samples=samples,
                            acceptance_rate=rate, ess=ess, step_size=h,
                            warnings=warnings)


def sample_window_measure(model: GibbsModel, n_samples: int,
                          chain: ChainParams) -> np.ndarray:
    """Independent draws from the finite-window Gibbs measure (zero boundary):
    one MALA chain per draw, final state after burn-in."""
    g = model.graph
    target = _EtaTarget(model, range(g.n_sites), np.zeros(g.n_sites))
    rng = np.random.default_rng(chain.seed ^ 0xA11)
    init = rng.standard_normal((n_samples, g.n_sites))
    states, rate, _ = _mala_run(target, init, chain, collect=False)
    return states


# ---------------------------------------------------------------------------
# DLR residual


def energy_distance_test(A: np.ndarray, B: np.ndarray, n_perms: int = 1000,
                         seed: int = 0):
    """Two-sample energy-distance statistic with a permutation p-value.

    Each split of the pooled sample is a 0/1 row x marking the first sample;
    its distance sums x'Dx, x'D(1 - x) and (1 - x)'D(1 - x) come from X @ D
    over a block of splits at once.
    """
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    n, m = A.shape[0], B.shape[0]
    pooled = np.vstack([A, B])
    D = cdist(pooled, pooled)
    rng = np.random.default_rng(seed)
    in_a = np.zeros((n_perms + 1, n + m), dtype=bool)
    in_a[0, :n] = True
    for i in range(1, n_perms + 1):
        in_a[i, rng.permutation(n + m)[:n]] = True
    total = D.sum()
    stats = np.empty(n_perms + 1)
    # Cache-sized blocks, below malloc's mmap threshold: memory flat in n_perms.
    rows = max(1, 2 ** 13 // (n + m))
    for lo in range(0, n_perms + 1, rows):
        X = in_a[lo:lo + rows].astype(float)
        XD = X @ D
        aa = np.einsum("ij,ij->i", XD, X)
        ab = XD.sum(axis=1) - aa
        bb = total - aa - 2 * ab
        stats[lo:lo + rows] = 2 * ab / (n * m) - aa / n ** 2 - bb / m ** 2
    hits = np.count_nonzero(stats[1:] >= stats[0])
    return float(stats[0]), float((1 + hits) / (1 + n_perms))


@dataclass(frozen=True)
class DlrReport:
    """Result of the kernel-consistency resampling test."""

    statistic: float
    p_value: float
    eta: tuple
    outer_samples: int
    acceptance_rate: float
    warnings: tuple = ()


def _battery(model: GibbsModel, eta, sig: np.ndarray, z: np.ndarray) -> np.ndarray:
    """DLR observables per chain: the eta values sig, then a_xy sig_x z_y for
    every boundary entry (x in eta, y outside) of ``model.A``, in CSR order."""
    b = model.A[eta].tocoo()
    outside = np.ones(model.graph.n_sites, dtype=bool)
    outside[eta] = False
    out = outside[b.col]
    return np.hstack([sig, b.data[out] * sig[:, b.row[out]] * z[:, b.col[out]]])


def dlr_residual(model: GibbsModel, eta, chain: ChainParams,
                 outer_samples: int, n_perms: int = 1000) -> DlrReport:
    """Resampling consistency of the conditional kernel on eta.

    Draws full-window samples, resamples eta conditionally on each, and
    compares the observable battery (eta values plus boundary-edge pair
    products) before and after via the energy-distance permutation test.
    """
    if outer_samples < 1:
        raise ParameterError(f"outer_samples must be >= 1, got {outer_samples}")
    eta = sorted(int(s) for s in eta)
    if not eta:
        return DlrReport(statistic=0.0, p_value=1.0, eta=(), outer_samples=0,
                         acceptance_rate=1.0)
    outer = sample_window_measure(model, outer_samples, chain)

    target = _EtaTarget(model, eta, outer)  # per-chain boundary constants
    inner_chain = replace(chain, seed=chain.seed + 1)
    resampled, rate, _ = _mala_run(target, outer[:, eta].copy(), inner_chain,
                                   collect=False)

    statistic, p = energy_distance_test(_battery(model, eta, outer[:, eta], outer),
                                        _battery(model, eta, resampled, outer),
                                        n_perms=n_perms, seed=chain.seed + 2)
    warnings = ()
    if not (_ACCEPT_HEALTHY[0] < rate < _ACCEPT_HEALTHY[1]):
        warnings = (f"inner-chain acceptance rate {rate:.3f} unhealthy",)
    return DlrReport(statistic=statistic, p_value=p, eta=tuple(eta),
                     outer_samples=outer_samples, acceptance_rate=rate,
                     warnings=warnings)


# ---------------------------------------------------------------------------
# Gradient dynamics and reversibility


def gradient_dynamics_field(model: GibbsModel) -> CoefficientField:
    """SDE coefficients whose stationary law is the Gibbs measure.

    Single-site drift -V'(s)/2, pair drift -a_xy v / 2 toward each
    neighbour, unit additive noise; checked by ``validate_assumptions``.
    """
    g = model.graph
    R = max(model.tau - 1.0, 2.0)
    drift = SinglePotentialDrift(phi=lambda s: -0.5 * model.grad_V(s),
                                 c=1.0, R=R, b=0.0)
    field_ = CoefficientField(drift=drift, graph=g,
                              drift_weights=-0.5 * model.weights,
                              diff_weights=np.zeros(g.indices.size), diff_const=1.0)
    report = validate_assumptions(field_, trials=2000, box=_VALIDATE_BOX)
    if not report.passed:
        bad = [c.name for c in report.checks if not c.passed]
        raise ConstructionError(f"gradient dynamics field fails coefficient checks: {bad}",
                                report=report)
    return field_


def reversibility_test(model: GibbsModel, f, g, t: float, plan: SimPlan,
                       nu_chain: ChainParams):
    """Detailed-balance check for the gradient dynamics under the Gibbs law.

    Draws initial states from the finite-window Gibbs measure, evolves each
    to time t, and compares E[f(start) g(end)] with E[f(end) g(start)].
    Returns (lhs, rhs, standard error of the difference).
    """
    field_ = gradient_dynamics_field(model)
    zeta = sample_window_measure(model, plan.replicas, nu_chain)
    j = plan.time_index(t)
    final = zeta if j == 0 else integrate_replicas(
        field_, [None], zeta, plan, j, paths=False)[:, 0]
    f0 = np.asarray([f(z) for z in zeta])
    g0 = np.asarray([g(z) for z in zeta])
    ft = np.asarray([f(z) for z in final])
    gt = np.asarray([g(z) for z in final])
    lhs_i = f0 * gt
    rhs_i = ft * g0
    diff = lhs_i - rhs_i
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else 0.0
    return float(np.mean(lhs_i)), float(np.mean(rhs_i)), se


# ---------------------------------------------------------------------------
# Presets

_POTENTIALS = {
    "quartic": dict(V=lambda u: (u * u) * (u * u) / 4.0,
                    dV=lambda u: u * u * u, tau=4.0, a_V=0.25, b_V=1.0),
    "gaussian": dict(V=lambda u: u ** 2 / 2.0, dV=lambda u: u,
                     tau=2.0, a_V=0.5, b_V=1.0),
}


def make_model(graph: GeometricGraph, potential: str = "quartic", J: float = 0.0,
               coupling_type: str = "constant") -> GibbsModel:
    """Assemble a Gibbs model from named presets; the coupling of each entry
    is J ('constant') or J (1 - |x - y| / rho) ('tent'), 0 on self entries."""
    if potential not in _POTENTIALS:
        raise ParameterError(f"unknown potential preset '{potential}'")
    pos = graph.config.positions
    d = np.linalg.norm(pos[graph.entry_rows()] - pos[graph.indices], axis=-1)
    if coupling_type == "constant":
        w = J * (d <= graph.rho)
    elif coupling_type == "tent":
        w = J * np.maximum(0.0, 1.0 - d / graph.rho)
    else:
        raise ParameterError(f"unknown coupling type '{coupling_type}'")
    w[graph.indptr[:-1]] = 0.0
    preset = _POTENTIALS[potential]
    if J == 0.0:
        I_W, J_W, r = 0.0, 0.0, 0.0
    else:
        I_W, J_W, r = abs(J) * _VALIDATE_BOX, abs(J), 1.0
    return GibbsModel(graph=graph, weights=w, V=preset["V"], dV=preset["dV"],
                      tau=preset["tau"], a_V=preset["a_V"], b_V=preset["b_V"],
                      I_W=I_W, J_W=J_W, r=r)
