"""Drift and diffusion coefficient fields over a geometric graph.

Pair terms are linear operators over the graph's CSR arrays, one weight per
entry (the closed neighbourhood of each site, self first):

    drift_all(z) = phi(z) + A z,    diffusion_all(z) = S z + c.

Displacement-dependent couplings such as a(x - y) enter as weights, and the
pair constants a_bar and M are computed from them.  Kernels nonlinear in
the spins are out of scope.  Evaluation is pure and takes a state of shape
(sites,) or (replicas, sites); a field with ``sites`` set evaluates only
those sites.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .geometry import GeometricGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


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
    coupling costs nothing and passes on no non-finite spin.  ``sites``
    are the ascending site ids evaluated, all by default; ``A`` and ``S``
    hold their CSR rows, which sum in the whole operators' order.
    """

    drift: SinglePotentialDrift
    graph: GeometricGraph
    drift_weights: np.ndarray
    diff_weights: np.ndarray
    diff_const: float = 0.0
    sites: np.ndarray | slice = field(default_factory=lambda: slice(None), repr=False)
    A: "sp.csr_matrix" = field(init=False, repr=False)
    S: "sp.csr_matrix" = field(init=False, repr=False)

    def __post_init__(self):
        for name, op in (("drift_weights", "A"), ("diff_weights", "S")):
            try:
                object.__setattr__(self, op,
                                   self.graph.operator(getattr(self, name))[self.sites])
            except ParameterError as e:
                raise ParameterError(f"{name}: {e}") from None

    @property
    def a_bar(self) -> float:
        """Pair drift Lipschitz and growth constant, max(1, max|A|)."""
        return float(np.max(np.abs(self.A.data), initial=1.0))

    @property
    def M(self) -> float:
        """Pair diffusion Lipschitz and growth constant, max(1, max|S|, |c|)."""
        return max(float(np.max(np.abs(self.S.data), initial=1.0)), abs(self.diff_const))

    def drift_all(self, state: np.ndarray) -> np.ndarray:
        """phi(z) + A z at this field's sites, for ``state`` of shape (sites,)
        or (replicas, sites) over the whole window."""
        return self.drift.phi(state[..., self.sites]) + (self.A @ state.T).T

    def diffusion_all(self, state: np.ndarray) -> np.ndarray:
        """S z + c at this field's sites, for ``state`` of shape (sites,) or
        (replicas, sites) over the whole window."""
        return (self.S @ state.T).T + self.diff_const


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


def validate_assumptions(field_: CoefficientField, trials: int = 10 ** 5,
                         box: float = 10.0, seed: int = 0) -> AssumptionReport:
    """Randomised falsification of phi's declared growth and dissipativity:
    ``phi_growth``, |phi(s)| <= c (1 + |s|^R), and ``phi_dissipative``,
    (s1 - s2)(phi(s1) - phi(s2)) <= b (s1 - s2)^2, on s uniform in [-box, box].

    The per-site inequalities for Phi = phi + A z and Psi = S z + c follow
    from these and the computed a_bar and M, so are not sampled.  With n_x >= 1
    the size of the closed neighbourhood of x and y ~ x its other sites:
    1. |(S dz)_x| <= M |dz_x| + M sum_{y~x} |dz_y| and |Psi_x(0)| = |c| <= M n_x.
    2. |Phi_x(z)| <= |phi(z_x)| + a_bar |z_x| + a_bar sum_{y~x} |z_y|, so the
       site growth bound c (1 + |z_x|^R) + a_bar n_x (1 + 2|z_x|)
       + a_bar sum_{y~x} |z_y| has slack >= a_bar + the phi_growth slack at z_x.
    3. a_bar |dz_x dz_y| <= dz_x^2 / (2 n_x) + n_x a_bar^2 dz_y^2 / 2 and
       a_bar <= 4 a_bar^2 n_x^2, so the site pairing bound on dz_x (Phi_x(z) -
       Phi_x(z')), (b + 1/2 + 4 a_bar^2 n_x^2) dz_x^2 + (a_bar^2 n_x / 2)
       sum_{y~x} dz_y^2, has slack >= the phi_dissipative slack at (z_x, z'_x).
    So a site bound can fail only where a phi check fails at the same scalars.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if box <= 0:
        raise ParameterError("box must be positive")
    rng = np.random.default_rng(seed)
    d = field_.drift
    s = rng.uniform(-box, box, size=trials)
    growth = _check("phi_growth", d.c * (1 + np.abs(s) ** d.R) - np.abs(d.phi(s)), (s,))
    s1, s2 = rng.uniform(-box, box, size=trials), rng.uniform(-box, box, size=trials)
    ds = s1 - s2
    return AssumptionReport(checks=(growth, _check(
        "phi_dissipative", d.b * ds ** 2 - ds * (d.phi(s1) - d.phi(s2)), (s1, s2))))


def _check(name: str, slack: np.ndarray, args: tuple) -> CheckResult:
    """The most negative slack and, if below -1e-9, its arguments.  argmin
    takes the first NaN, so a slack that cannot be checked is the worst."""
    i = int(np.argmin(slack))
    ok = bool(slack[i] >= -1e-9)
    return CheckResult(name=name, passed=ok, worst_margin=float(slack[i]),
                       counterexample=None if ok else tuple(float(a[i]) for a in args))


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
