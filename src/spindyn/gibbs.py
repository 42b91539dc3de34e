"""Finite-volume Gibbs kernels, MCMC sampling, DLR residuals and the
reversibility test for the induced gradient dynamics.

The pair potential is W_xy(u, v) = a_xy u v, with one coupling a_xy per CSR
entry of the graph, so a pair beyond the interaction radius has none; the
single-site potential V is a polynomial with a computed lower bound.  The
kernel on a finite site set eta with frozen exterior z has density
proportional to exp[-E_eta(sigma | z)] prod_x exp[-V(sigma_x)].
"""

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .coeffs import CoefficientField, Polynomial, SinglePotentialDrift
from .engine import SimPlan, integrate_replicas
from .errors import ParameterError
from .geometry import GeometricGraph
from .spaces import WeightedSeq

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    layer reads pair couplings from.  V has even degree tau and a positive
    leading coefficient 2 a_V; V(u) >= a_V |u|^tau - b_V with the computed
    b_V = max(0, sup(a_V u^tau - V)).  The pair bound |W_xy(u, v)| <=
    I_W (|u|^r + |v|^r) + J_W is computed: 2|uv| <= u^2 + v^2, so with
    a = max |a_xy|, I_W = a / 2, J_W = 0 and r = 2, or r = 0 when every
    weight is 0.  tau > r is checked, so a quadratic V takes no coupling.
    """

    graph: GeometricGraph
    weights: np.ndarray
    V: Polynomial
    A: "sp.csr_matrix" = field(init=False, repr=False)
    grad_V: Polynomial = field(init=False, repr=False)
    tau: int = field(init=False)
    a_V: float = field(init=False)
    b_V: float = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        A = self.graph.operator(w)  # raises on a wrong shape or a non-finite weight
        self_w = w[self.graph.indptr[:-1]]
        if np.any(self_w != 0):
            raise ParameterError(f"self entry of site {np.argmax(self_w != 0)} "
                                 f"must have weight 0")
        x, y = (A != A.T).nonzero()
        if x.size:
            raise ParameterError(f"weights must be symmetric: a_xy != a_yx at "
                                 f"(x, y) = ({x[0]}, {y[0]})")
        w.flags.writeable = False
        if self.V.degree % 2 or self.V.coeffs[-1] < 0:
            raise ParameterError(f"V must have even degree and a positive leading "
                                 f"coefficient, got {self.V}")
        a_V = self.V.coeffs[-1] / 2
        b_V = max(0.0, Polynomial([-a for a in self.V.coeffs[:-1]] + [-a_V]).sup())
        for name, value in (("weights", w), ("A", A), ("grad_V", self.V.deriv()),
                            ("tau", self.V.degree), ("a_V", a_V), ("b_V", b_V)):
            object.__setattr__(self, name, value)
        r = 2 if np.any(w) else 0  # the pair bound's exponent, see above
        if not self.tau > r:
            raise ParameterError(f"need tau > r, got tau={self.tau}, r={r} from "
                                 f"|a_xy u v| <= max|a_xy| (u^2 + v^2) / 2")


# ---------------------------------------------------------------------------
# The conditional target on a finite site set


def _eta_sites(model: GibbsModel, eta) -> list:
    """The site ids of eta, ascending; a non-integer id, one outside 0..n-1
    or a repeated one raises ``ParameterError`` naming it."""
    n, sites = model.graph.n_sites, []
    for s in eta:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 0 <= s < n:
            raise ParameterError(f"eta site {s!r} is not a site id in 0..{n - 1}")
        sites.append(int(s))
    sites.sort()
    for a, b in zip(sites, sites[1:]):
        if a == b:
            raise ParameterError(f"eta lists site {a} twice")
    return sites


class _EtaTarget:
    """Quadratic-coupling conditional density on eta, vectorised over chains.

    Energy U(s) = sum V(s_i) + sum_pairs a_ij s_i s_j + sum_i bconst_i s_i,
    where bconst_i = sum_{y not in eta} a_iy z_y collects the frozen boundary
    (one row per chain when ``z_dense`` has a leading chain axis).
    """

    def __init__(self, model: GibbsModel, eta, z_dense: np.ndarray):
        self.model = model
        self.eta = _eta_sites(model, eta)
        rows = model.A[self.eta]
        self.K = rows[:, self.eta].toarray()
        z = np.array(z_dense, dtype=float)
        z[..., self.eta] = 0.0
        # A CSR product sums each row from 0 in ascending column order; the
        # zeroed eta columns add only signed zeros.
        self.bconst = (rows @ z.T).T

    def energy_grad(self, s: np.ndarray):
        """(U(s), grad U(s)), both from one product s @ K.  V and V' share one
        table of powers of s, and the three sums of U are one reduction."""
        pw = Polynomial.powers(s, self.model.tau)
        sK = s @ self.K
        terms = np.empty((3,) + s.shape)
        terms[0] = self.model.V(s, pw)
        np.multiply(s, sK, out=terms[1])
        np.multiply(self.bconst, s, out=terms[2])
        r = np.add.reduce(terms, axis=-1)  # as .sum, without its Python wrapper
        G = self.model.grad_V(s, pw) + sK
        G += self.bconst
        return r[0] + (0.5 * r[1] + r[2]), G


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
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SpecKernelSample:
    """MCMC draws from the conditional kernel on eta, with diagnostics."""

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
    Row ``cur`` of the (2, n_chains, k) buffer ``x`` holds the states and
    the other row the proposals; ``mu`` holds the backward and forward
    proposal means in the same rows, so one x - mu gives both proposal
    log-densities.  When every chain accepts, the rows swap roles.
    """
    rng = np.random.default_rng(chain.seed)
    x = np.array([init, init], dtype=float)
    n_chains, k = x.shape[1:]
    mu = np.empty_like(x)
    cur, h = 0, chain.step_size
    U, G = target.energy_grad(x[0])
    acc_recent = []
    accepted = 0
    kept = chain.steps if collect else 1
    out = np.empty((kept * n_chains, k)) if collect else None
    for step in range(chain.burn_in + kept):
        s, prop, mu_back, mu_fwd = x[cur], x[1 - cur], mu[cur], mu[1 - cur]
        np.subtract(s, np.multiply(G, 0.5 * h, out=mu_fwd), out=mu_fwd)
        rng.standard_normal(out=prop)
        np.add(mu_fwd, np.multiply(prop, math.sqrt(h), out=prop), out=prop)
        U_prop, G_prop = target.energy_grad(prop)
        np.subtract(prop, np.multiply(G_prop, 0.5 * h, out=mu_back), out=mu_back)
        d = np.square(np.subtract(x, mu, out=mu), out=mu)  # mu is rebuilt each step
        # q / (-2h) is -q / (2h) bit for bit, but for a NaN's sign
        log_q = np.add.reduce(d, axis=-1) / (-2 * h)
        log_alpha = U - U_prop + log_q[cur] - log_q[1 - cur]
        take = np.log(rng.uniform(size=n_chains)) < log_alpha
        n_take = np.count_nonzero(take)
        if n_take == n_chains:
            cur, U, G = 1 - cur, U_prop, G_prop
        elif n_take:
            np.copyto(s, prop, where=take[:, None])
            np.copyto(U, U_prop, where=take)
            np.copyto(G, G_prop, where=take[:, None])
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
                out[i:i + n_chains] = x[cur]
    rate = accepted / max(1, kept * n_chains)
    return (out if collect else x[cur]), rate, h


def kernel_sample(model: GibbsModel, eta, boundary: WeightedSeq,
                  chain: ChainParams) -> SpecKernelSample:
    """Sample the conditional Gibbs kernel on eta with frozen boundary, by
    one MALA chain."""
    eta = _eta_sites(model, eta)
    if not eta:
        return SpecKernelSample(samples=np.zeros((0, 0)), acceptance_rate=1.0,
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
    return SpecKernelSample(samples=samples, acceptance_rate=rate, ess=ess,
                            step_size=h, warnings=warnings)


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


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Row distances as scipy's ``cdist`` computes them: squares summed in column order."""
    return np.sqrt(sum(np.subtract.outer(col, col) ** 2 for col in pts.T))


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
    D = _distance_matrix(pooled)
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
    eta = _eta_sites(model, eta)
    if not eta:
        return DlrReport(statistic=0.0, p_value=1.0, acceptance_rate=1.0)
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
    return DlrReport(statistic=statistic, p_value=p, acceptance_rate=rate,
                     warnings=warnings)


# ---------------------------------------------------------------------------
# Gradient dynamics and reversibility


def gradient_dynamics_field(model: GibbsModel) -> CoefficientField:
    """SDE coefficients whose stationary law is the Gibbs measure.

    Single-site drift phi = -V'/2, a polynomial with computed certificates,
    pair drift -a_xy v / 2 toward each neighbour, unit additive noise.
    """
    phi = Polynomial([-0.5 * a for a in model.grad_V.coeffs])
    return CoefficientField(drift=SinglePotentialDrift(phi), graph=model.graph,
                            drift_weights=-0.5 * model.weights,
                            diff_weights=np.zeros_like(model.weights), diff_const=1.0)


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
    final = integrate_replicas(field_, np.ones((1, model.graph.n_sites), dtype=bool),
                               zeta, plan, j)[:, 0]
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

_POTENTIALS = {"quartic": (0.0, 0.0, 0.0, 0.0, 0.25), "gaussian": (0.0, 0.0, 0.5)}


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
    return GibbsModel(graph=graph, weights=w, V=Polynomial(_POTENTIALS[potential]))
