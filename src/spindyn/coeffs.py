"""Drift and diffusion coefficient fields over a geometric graph.

Pair terms are linear operators over the graph's CSR arrays, one weight per
entry (the closed neighbourhood of each site, self first):

    drift_all(z) = phi(z) + A z,    diffusion_all(z) = S z + c.

Displacement-dependent couplings such as a(x - y) enter as weights, and the
pair constants a_bar and M are computed from them.  Kernels nonlinear in
the spins are out of scope.  Evaluation is pure and takes a state of shape
(sites,) or (replicas, sites).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .geometry import GeometricGraph
from .spaces import WeightedSeq

DEFAULT_TRIALS = 10 ** 5
DEFAULT_BOX = 10.0


@dataclass(frozen=True)
class SinglePotentialDrift:
    """Single-site drift phi with its declared growth/dissipativity constants.

    ``c`` and ``R`` bound the growth |phi| <= c (1 + |s|^R); ``b`` is the
    one-sided Lipschitz constant.  ``dphi`` is optional and only used by the
    implicit integrator's Newton step.
    """

    phi: callable
    c: float
    R: float
    b: float
    dphi: callable = None

    def __post_init__(self):
        if self.c <= 0:
            raise ParameterError("growth constant c must be positive")
        if self.R < 2:
            raise ParameterError("growth exponent R must be >= 2")


@dataclass(frozen=True)
class CoefficientField:
    """Drift and diffusion coefficients bound to a graph.

    ``drift_weights`` / ``diff_weights`` hold one coefficient per CSR entry,
    aligned with ``graph.indices``: the entries of the operators ``A`` and
    ``S``.  ``diff_const`` is c.  Zero weights are dropped, so a zero
    coupling costs nothing and passes on no non-finite spin.
    """

    drift: SinglePotentialDrift
    graph: GeometricGraph
    drift_weights: np.ndarray
    diff_weights: np.ndarray
    diff_const: float = 0.0
    A: sp.csr_matrix = field(init=False, repr=False)
    S: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        g = self.graph
        for name, op in (("drift_weights", "A"), ("diff_weights", "S")):
            w = np.asarray(getattr(self, name), dtype=float)
            if w.shape != g.indices.shape:
                raise ParameterError(f"{name} must have one entry per ordered edge")
            mat = sp.csr_matrix((w, g.indices, g.indptr), shape=(g.n_sites,) * 2,
                                copy=True)
            mat.eliminate_zeros()
            object.__setattr__(self, name, w)
            object.__setattr__(self, op, mat)

    @property
    def a_bar(self) -> float:
        """Pair drift Lipschitz and growth constant, max(1, max|A|)."""
        return float(np.max(np.abs(self.A.data), initial=1.0))

    @property
    def M(self) -> float:
        """Pair diffusion Lipschitz and growth constant, max(1, max|S|, |c|)."""
        return max(float(np.max(np.abs(self.S.data), initial=1.0)), abs(self.diff_const))

    def drift_all(self, state: np.ndarray) -> np.ndarray:
        """phi(z) + A z at every site, for ``state`` of shape (sites,) or
        (replicas, sites)."""
        return self.drift.phi(state) + (self.A @ state.T).T

    def diffusion_all(self, state: np.ndarray) -> np.ndarray:
        """S z + c at every site, for ``state`` of shape (sites,) or
        (replicas, sites)."""
        return (self.S @ state.T).T + self.diff_const


def eval_drift(field_: CoefficientField, state: WeightedSeq, x: int) -> float:
    """phi(z_x) + (A z)_x."""
    if not (0 <= x < field_.graph.n_sites):
        raise ParameterError(f"site {x} out of range")
    return float(field_.drift_all(state.to_dense())[x])


def eval_diffusion(field_: CoefficientField, state: WeightedSeq, x: int) -> float:
    if not (0 <= x < field_.graph.n_sites):
        raise ParameterError(f"site {x} out of range")
    return float(field_.diffusion_all(state.to_dense())[x])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float  # most negative slack seen; >= 0 means satisfied
    counterexample: tuple = None


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _record(name, slack, args) -> CheckResult:
    i = int(np.argmin(slack))
    worst = float(slack.flat[i] if slack.ndim else slack)
    cx = tuple(float(np.asarray(a).flat[i]) for a in args) if worst < 0 else None
    return CheckResult(name=name, passed=worst >= -1e-9, worst_margin=worst,
                       counterexample=cx)


def validate_assumptions(field_: CoefficientField, trials: int = DEFAULT_TRIALS,
                         box: float = DEFAULT_BOX, seed: int = 0) -> AssumptionReport:
    """Randomised falsification of the declared bounds.

    Samples, on arguments uniform in [-box, box], the growth and one-sided
    dissipativity of phi and the four derived per-site inequalities for Phi
    and Psi at random states.  The pair constants a_bar and M are computed
    from the weights, so they are read, not sampled.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if box <= 0:
        raise ParameterError("box must be positive")
    rng = np.random.default_rng(seed)
    d = field_.drift
    checks = []

    s = rng.uniform(-box, box, size=trials)
    checks.append(_record(
        "phi_growth", d.c * (1 + np.abs(s) ** d.R) - np.abs(d.phi(s)), (s,)))

    s1 = rng.uniform(-box, box, size=trials)
    s2 = rng.uniform(-box, box, size=trials)
    checks.append(_record(
        "phi_dissipative",
        d.b * (s1 - s2) ** 2 - (s1 - s2) * (d.phi(s1) - d.phi(s2)), (s1, s2)))

    checks.extend(_site_inequalities(field_, rng, trials, box))
    return AssumptionReport(checks=tuple(checks))


class _Worst:
    """Tracks the most negative slack and one offending argument pair."""

    def __init__(self, name):
        self.name = name
        self.worst = np.inf
        self.cx = None

    def update(self, slack, args):
        i = int(np.argmin(slack))
        w = float(slack.flat[i])
        if w < self.worst:
            self.worst = w
            self.cx = tuple(float(np.asarray(a).flat[i]) for a in args)

    def result(self) -> CheckResult:
        ok = self.worst >= -1e-9
        return CheckResult(name=self.name, passed=ok, worst_margin=self.worst,
                           counterexample=None if ok else self.cx)


def _site_inequalities(field_: CoefficientField, rng, trials, box, chunk=4000):
    """Per-site consequences of the field's constants at random states.

    One trial is one random pair of full states; evaluation is chunked to
    keep memory flat.
    """
    g = field_.graph
    n = g.n_sites
    d, a_bar, M = field_.drift, field_.a_bar, field_.M
    nbar = g.nbar_count.astype(float)
    accs = {name: _Worst(name) for name in (
        "site_diff_lipschitz", "site_drift_growth", "site_drift_pairing")}

    # The open (self-less) adjacency: sums over the neighbours y != x.
    weights = np.ones(g.indices.size)
    weights[g.indptr[:-1]] = 0.0
    adj = sp.csr_matrix((weights, g.indices, g.indptr), shape=(n, n))
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        done += b
        z1 = rng.uniform(-box, box, size=(b, n))
        z2 = rng.uniform(-box, box, size=(b, n))
        phi1, phi2 = field_.drift_all(z1), field_.drift_all(z2)
        psi1, psi2 = field_.diffusion_all(z1), field_.diffusion_all(z2)

        dz = z1 - z2
        neigh_abs_diff = (adj @ np.abs(dz).T).T
        neigh_abs_z1 = (adj @ np.abs(z1).T).T
        neigh_sq_diff = (adj @ (dz * dz).T).T
        accs["site_diff_lipschitz"].update(
            M * (nbar + 1) * np.abs(dz) + M * neigh_abs_diff
            - np.abs(psi1 - psi2), (z1, z2))
        accs["site_drift_growth"].update(
            d.c * (1 + np.abs(z1) ** d.R) + a_bar * nbar * (1 + 2 * np.abs(z1))
            + a_bar * neigh_abs_z1 - np.abs(phi1), (z1,))
        accs["site_drift_pairing"].update(
            (d.b + 0.5 + 4 * a_bar ** 2 * nbar ** 2) * dz ** 2
            + 0.5 * a_bar ** 2 * nbar * neigh_sq_diff - dz * (phi1 - phi2),
            (z1, z2))

    psi0 = field_.diffusion_all(np.zeros(n))
    out = [_record("site_diff_at_zero", M * nbar - np.abs(psi0), (np.zeros(n),))]
    out.extend(a.result() for a in accs.values())
    return out


# ---------------------------------------------------------------------------
# Named presets (selectable from run configs)

def _cubic():
    return SinglePotentialDrift(phi=lambda s: -s * s * s, c=1.0, R=3.0, b=0.0,
                                dphi=lambda s: -3.0 * s ** 2)


def _linear():
    return SinglePotentialDrift(phi=lambda s: -s, c=1.0, R=2.0, b=0.0,
                                dphi=lambda s: -np.ones_like(s))


_DRIFT_PRESETS = {"cubic": _cubic, "linear": _linear}


def make_field(graph: GeometricGraph, drift: str = "cubic", coupling: str = "zero",
               noise: str = "additive", J: float = 0.0, M_tilde: float = 1.0) -> CoefficientField:
    """Assemble a field from named presets.

    drift: 'cubic' (phi = -s^3) or 'linear' (phi = -s); coupling: 'zero' or
    'linear_pair' (weight J on every CSR entry); noise: 'additive' (c = 1,
    S = 0) or 'linear_noise' (weight M_tilde on every CSR entry, c = 0).
    """
    if drift not in _DRIFT_PRESETS:
        raise ParameterError(f"unknown drift preset '{drift}'")
    d = _DRIFT_PRESETS[drift]()

    pair = {"zero": 0.0, "linear_pair": J}
    if coupling not in pair:
        raise ParameterError(f"unknown coupling preset '{coupling}'")
    noises = {"additive": (0.0, 1.0), "linear_noise": (M_tilde, 0.0)}  # (weight, c)
    if noise not in noises:
        raise ParameterError(f"unknown noise preset '{noise}'")
    diff_w, c = noises[noise]
    entries = graph.indices.size
    return CoefficientField(drift=d, graph=graph,
                            drift_weights=np.full(entries, float(pair[coupling])),
                            diff_weights=np.full(entries, float(diff_w)), diff_const=c)
