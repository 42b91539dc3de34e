"""Drift and diffusion coefficient fields over a geometric graph.

The drift at site x is phi(z_x) plus a sum of pair terms over the closed
neighbourhood of x (the self-pair included); the diffusion coefficient is
the pair sum alone.  Pair kernels are uniform functions of the two spins,
optionally modulated by a per-edge weight, which is how displacement-
dependent couplings such as a(x - y) enter.

All evaluation is pure and vectorised over leading axes, so a field can be
applied to a whole (replicas x sites) state block at once.
"""

from dataclasses import dataclass, field

import numpy as np

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
class PairCoupling:
    """Uniform pair kernels with their declared Lipschitz/growth constants."""

    phi_xy: callable
    psi_xy: callable
    a_bar: float
    M: float

    def __post_init__(self):
        if self.a_bar <= 0 or self.M <= 0:
            raise ParameterError("pair constants a_bar and M must be positive")


@dataclass(frozen=True)
class CoefficientField:
    """Assembled drift/diffusion coefficients bound to a graph.

    ``drift_weights`` / ``diff_weights`` are per-ordered-edge multipliers
    aligned with the edge arrays (default 1 everywhere); edges enumerate,
    for each site x in order, the pairs (x, y) for y in the closed
    neighbourhood of x with the self-pair first.
    """

    drift: SinglePotentialDrift
    coupling: PairCoupling
    graph: GeometricGraph
    drift_weights: np.ndarray = None
    diff_weights: np.ndarray = None
    edge_src: np.ndarray = field(default=None, repr=False)
    edge_dst: np.ndarray = field(default=None, repr=False)
    edge_starts: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        src, dst, starts = [], [], []
        for x in range(self.graph.n_sites):
            starts.append(len(src))
            for y in self.graph.closed_neighborhood(x):
                src.append(x)
                dst.append(y)
        object.__setattr__(self, "edge_src", np.asarray(src, dtype=np.int64))
        object.__setattr__(self, "edge_dst", np.asarray(dst, dtype=np.int64))
        object.__setattr__(self, "edge_starts", np.asarray(starts, dtype=np.int64))
        for name in ("drift_weights", "diff_weights"):
            w = getattr(self, name)
            if w is not None:
                w = np.asarray(w, dtype=float)
                if w.shape != self.edge_src.shape:
                    raise ParameterError(f"{name} must have one entry per ordered edge")
                object.__setattr__(self, name, w)

    def _pair_sum(self, state: np.ndarray, kernel, weights) -> np.ndarray:
        u = state[..., self.edge_src]
        v = state[..., self.edge_dst]
        terms = np.broadcast_to(kernel(u, v), u.shape).copy()
        if weights is not None:
            terms *= weights
        return np.add.reduceat(terms, self.edge_starts, axis=-1)

    def drift_all(self, state: np.ndarray) -> np.ndarray:
        """Phi at every site, vectorised over leading axes of ``state``."""
        return self.drift.phi(state) + self._pair_sum(
            state, self.coupling.phi_xy, self.drift_weights)

    def diffusion_all(self, state: np.ndarray) -> np.ndarray:
        """Psi at every site, vectorised over leading axes of ``state``."""
        return self._pair_sum(state, self.coupling.psi_xy, self.diff_weights)


def eval_drift(field_: CoefficientField, state: WeightedSeq, x: int) -> float:
    """phi(z_x) + sum over the closed neighbourhood of the pair drift."""
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
    """Randomised falsification of the declared coefficient bounds.

    Checks, on arguments uniform in [-box, box]: the polynomial growth and
    one-sided dissipativity of phi, the Lipschitz/growth bounds of the pair
    kernels (scaled by the largest edge weight in use), and the four
    derived per-site inequalities for Phi and Psi at random states.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if box <= 0:
        raise ParameterError("box must be positive")
    rng = np.random.default_rng(seed)
    d = field_.drift
    cp = field_.coupling
    checks = []

    s = rng.uniform(-box, box, size=trials)
    checks.append(_record(
        "phi_growth", d.c * (1 + np.abs(s) ** d.R) - np.abs(d.phi(s)), (s,)))

    s1 = rng.uniform(-box, box, size=trials)
    s2 = rng.uniform(-box, box, size=trials)
    checks.append(_record(
        "phi_dissipative",
        d.b * (s1 - s2) ** 2 - (s1 - s2) * (d.phi(s1) - d.phi(s2)), (s1, s2)))

    w_drift = 1.0 if field_.drift_weights is None else \
        max(float(np.max(np.abs(field_.drift_weights))), 1e-300)
    w_diff = 1.0 if field_.diff_weights is None else \
        max(float(np.max(np.abs(field_.diff_weights))), 1e-300)
    u1, v1, u2, v2 = (rng.uniform(-box, box, size=trials) for _ in range(4))
    checks.append(_record(
        "pair_drift_lipschitz",
        cp.a_bar * (np.abs(u1 - u2) + np.abs(v1 - v2))
        - w_drift * np.abs(cp.phi_xy(u1, v1) - cp.phi_xy(u2, v2)), (u1, v1, u2, v2)))
    checks.append(_record(
        "pair_drift_growth",
        cp.a_bar * (1 + np.abs(u1) + np.abs(v1)) - w_drift * np.abs(cp.phi_xy(u1, v1)),
        (u1, v1)))
    checks.append(_record(
        "pair_diff_lipschitz",
        cp.M * (np.abs(u1 - u2) + np.abs(v1 - v2))
        - w_diff * np.abs(cp.psi_xy(u1, v1) - cp.psi_xy(u2, v2)), (u1, v1, u2, v2)))
    checks.append(_record(
        "pair_diff_growth",
        cp.M * (1 + np.abs(u1) + np.abs(v1)) - w_diff * np.abs(cp.psi_xy(u1, v1)),
        (u1, v1)))

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
    """Per-site consequences of the declared constants at random states.

    One trial is one random pair of full states; evaluation is chunked to
    keep memory flat.
    """
    g = field_.graph
    n = g.n_sites
    d, cp = field_.drift, field_.coupling
    nbar = g.nbar_count.astype(float)
    accs = {name: _Worst(name) for name in (
        "site_diff_lipschitz", "site_drift_growth", "site_drift_pairing")}

    nb_lists = [list(g.neighbors[x]) for x in range(n)]
    done = 0
    while done < trials:
        b = min(chunk, trials - done)
        done += b
        z1 = rng.uniform(-box, box, size=(b, n))
        z2 = rng.uniform(-box, box, size=(b, n))
        phi1, phi2 = field_.drift_all(z1), field_.drift_all(z2)
        psi1, psi2 = field_.diffusion_all(z1), field_.diffusion_all(z2)

        neigh_abs_diff = np.zeros((b, n))
        neigh_abs_z1 = np.zeros((b, n))
        neigh_sq_diff = np.zeros((b, n))
        for x, nb in enumerate(nb_lists):
            if nb:
                neigh_abs_diff[:, x] = np.sum(np.abs(z1[:, nb] - z2[:, nb]), axis=1)
                neigh_abs_z1[:, x] = np.sum(np.abs(z1[:, nb]), axis=1)
                neigh_sq_diff[:, x] = np.sum((z1[:, nb] - z2[:, nb]) ** 2, axis=1)

        dz = z1 - z2
        accs["site_diff_lipschitz"].update(
            cp.M * (nbar + 1) * np.abs(dz) + cp.M * neigh_abs_diff
            - np.abs(psi1 - psi2), (z1, z2))
        accs["site_drift_growth"].update(
            d.c * (1 + np.abs(z1) ** d.R) + cp.a_bar * nbar * (1 + 2 * np.abs(z1))
            + cp.a_bar * neigh_abs_z1 - np.abs(phi1), (z1,))
        accs["site_drift_pairing"].update(
            (d.b + 0.5 + 4 * cp.a_bar ** 2 * nbar ** 2) * dz ** 2
            + 0.5 * cp.a_bar ** 2 * nbar * neigh_sq_diff - dz * (phi1 - phi2),
            (z1, z2))

    psi0 = field_.diffusion_all(np.zeros(n))
    out = [_record("site_diff_at_zero", cp.M * nbar - np.abs(psi0), (np.zeros(n),))]
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
    'linear_pair' (J * other spin); noise: 'additive' (psi_xx = 1, zero off
    the diagonal) or 'linear_noise' (M_tilde * other spin).
    """
    if drift not in _DRIFT_PRESETS:
        raise ParameterError(f"unknown drift preset '{drift}'")
    d = _DRIFT_PRESETS[drift]()

    if coupling == "zero":
        phi_xy = lambda u, v: np.zeros_like(u)
        a_bar = 1.0
        drift_w = None
    elif coupling == "linear_pair":
        phi_xy = lambda u, v: J * v
        a_bar = max(abs(J), 1.0)
        drift_w = None
    else:
        raise ParameterError(f"unknown coupling preset '{coupling}'")

    n_edges = int(np.sum(graph.nbar_count))
    if noise == "additive":
        psi_xy = lambda u, v: np.ones_like(u)
        M = 1.0
        diff_w = np.zeros(n_edges)
        # self-pairs sit at the start of each edge group
        starts = np.cumsum(np.concatenate([[0], graph.nbar_count[:-1]]))
        diff_w[starts] = 1.0
    elif noise == "linear_noise":
        psi_xy = lambda u, v: M_tilde * v
        M = max(abs(M_tilde), 1.0)
        diff_w = None
    else:
        raise ParameterError(f"unknown noise preset '{noise}'")

    cp = PairCoupling(phi_xy=phi_xy, psi_xy=psi_xy, a_bar=a_bar, M=M)
    return CoefficientField(drift=d, coupling=cp, graph=graph,
                            drift_weights=drift_w, diff_weights=diff_w)
