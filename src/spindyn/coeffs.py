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

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .geometry import GeometricGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Polynomial:
    """p(s) = sum_k a_k s^k from ascending coefficients, held as finite floats
    with trailing zeros dropped; the zero polynomial has degree -1."""

    coeffs: tuple

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        a = a[:np.max(np.flatnonzero(a), initial=-1) + 1]  # np.trim_zeros is slower
        if not np.isfinite(a).all():
            raise ParameterError(f"polynomial coefficients must be finite, got {a}")
        object.__setattr__(self, "coeffs", tuple(a.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def powers(s, n: int) -> list:
        """[None, s, s^2, ..., s^n] by binary powering (s^3 = (s s) s, s^4 =
        (s s)(s s)): one table for every polynomial of s of degree <= n."""
        pw = [None, s]  # s^2j = s^j s^j, s^(2j+1) = s^2j s
        for k in range(2, n + 1):
            pw.append(pw[k - 1] * s if k % 2 else pw[k // 2] * pw[k // 2])
        return pw

    def __call__(self, s, pw=None):
        """p(s) elementwise: its nonzero terms a_k s^k in ascending degree,
        s^k from ``pw = powers(s, n)`` for some n >= degree, built here if not
        given.  Unlike Horner's form, this keeps the presets' bytes, signed
        zeros included.  A term with a_k = +-1 is added or subtracted without
        a multiply, as 1.0 x and -1.0 x are exact, so the result may be an
        entry of ``pw``; it is never s itself."""
        if self.degree < 1:
            return np.full_like(s, self.coeffs[0] if self.coeffs else 0.0)
        pw = self.powers(s, self.degree) if pw is None else pw
        out = None
        for k, a in enumerate(self.coeffs):
            if not a:
                continue
            if out is None:
                out = pw[k] if a == 1.0 and k > 1 else a * pw[k] if k else a
            elif abs(a) == 1.0:
                out = out + pw[k] if a > 0 else out - pw[k]
            else:
                out = out + a * pw[k]
        return out

    def deriv(self) -> "Polynomial":
        return Polynomial([k * a for k, a in enumerate(self.coeffs)][1:])

    def growth(self) -> tuple:
        """(c, R) with |p(s)| <= c (1 + |s|^R) for every real s: c = sum |a_k|,
        rounded up, and R = max(2, degree), since |s|^k <= 1 + |s|^R."""
        c = math.fsum(map(abs, self.coeffs))
        if math.fsum([c, *(-abs(a) for a in self.coeffs)]) < 0:  # c rounded down
            c = math.nextafter(c, math.inf)
        return c, float(max(2, self.degree))

    def sup(self) -> float:
        """An upper bound on sup p over the reals; +inf if p is unbounded above
        or the bound overflows.  p peaks at 0 or at a real zero of p' = s^k r(s).
        Each zero of r lies within m |r(z_i)| / |r_m prod_{j!=i} (z_i - z_j)| of
        one of its m computed zeros z_i (Smith, 1970); h is that radius doubled,
        with r(z_i)'s rounding added.  On [x - h, x + h], x = Re z_i, p is at
        most p(x) + sum_j |p^(j)(x)| h^j / j!, plus that sum's rounding."""
        a, n = self.coeffs, self.degree
        if n < 1 or n % 2 or a[-1] > 0:
            return float(self(0.0)) if n < 1 else math.inf
        eps = 16 * (n + 1) * np.finfo(float).eps  # relative rounding, generously
        r = Polynomial(np.trim_zeros(self.deriv().coeffs, "f"))
        z = np.roots(r.coeffs[::-1])
        with np.errstate(all="ignore"):
            size = np.abs(r(z)) + eps * Polynomial(np.abs(r.coeffs))(np.abs(z))
            gaps = np.abs(z[:, None] - z) + np.eye(z.size)
            h = np.append(2 * z.size * size / (abs(r.coeffs[-1]) * gaps.prod(axis=1)), 0.0)
            x = np.append(z.real, 0.0)
            bound = self(x) + eps * Polynomial(np.abs(a))(np.abs(x) + h)
            p, term = self, np.ones_like(h)
            for j in range(1, n + 1):
                p, term = p.deriv(), term * h / j
                bound = bound + np.abs(p(x)) * term
        return float(np.max(np.where(np.isnan(bound), np.inf, bound)))


@dataclass(frozen=True)
class SinglePotentialDrift:
    """Single-site drift phi, a polynomial, with its certificates computed.

    (c, R) = ``phi.growth()`` bound the growth |phi(s)| <= c (1 + |s|^R).
    ``b`` = sup phi' is the one-sided Lipschitz constant: by the mean value
    theorem, (s1 - s2)(phi(s1) - phi(s2)) <= b (s1 - s2)^2, and no smaller b
    holds.  A phi' unbounded above raises ``ParameterError``.  ``dphi`` is
    phi', built once for the implicit scheme's Newton step.

    The per-site inequalities for Phi = phi + A z and Psi = S z + c_0 follow
    from these and a field's a_bar and M.  With n_x >= 1 the size of the
    closed neighbourhood of x and y ~ x its other sites:
    1. |(S dz)_x| <= M |dz_x| + M sum_{y~x} |dz_y| and |Psi_x(0)| = |c_0| <= M n_x.
    2. |Phi_x(z)| <= |phi(z_x)| + a_bar |z_x| + a_bar sum_{y~x} |z_y|, so the
       site growth bound c (1 + |z_x|^R) + a_bar n_x (1 + 2|z_x|)
       + a_bar sum_{y~x} |z_y| has slack >= a_bar.
    3. a_bar |dz_x dz_y| <= dz_x^2 / (2 n_x) + n_x a_bar^2 dz_y^2 / 2 and
       a_bar <= 4 a_bar^2 n_x^2, so the site pairing bound on dz_x (Phi_x(z) -
       Phi_x(z')), (b + 1/2 + 4 a_bar^2 n_x^2) dz_x^2 + (a_bar^2 n_x / 2)
       sum_{y~x} dz_y^2, holds too.
    """

    phi: Polynomial
    dphi: Polynomial = field(init=False, repr=False)
    b: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dphi", self.phi.deriv())
        b = self.dphi.sup()
        if b == math.inf:
            raise ParameterError(f"phi' of {self.phi} is unbounded above")
        object.__setattr__(self, "b", b)


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
        (replicas, sites) over the whole window.  An empty S, as under
        additive noise, is not multiplied: 0.0 + c is c."""
        if not self.S.nnz:
            return np.full(state.shape[:-1] + self.S.shape[:1], 0.0 + self.diff_const)
        return (self.S @ state.T).T + self.diff_const


# ---------------------------------------------------------------------------
# Named presets (selectable from run configs)

_DRIFT_PRESETS = {"cubic": (0.0, 0.0, 0.0, -1.0), "linear": (0.0, -1.0)}


def make_field(graph: GeometricGraph, drift: str = "cubic", coupling: str = "zero",
               noise: str = "additive", J: float = 0.0, M_tilde: float = 1.0) -> CoefficientField:
    """Assemble a field from named presets.

    drift: 'cubic' (phi = -s^3) or 'linear' (phi = -s); coupling: 'zero' or
    'linear_pair' (weight J on every CSR entry); noise: 'additive' (c = 1,
    S = 0) or 'linear_noise' (weight M_tilde on every CSR entry, c = 0).
    """
    if drift not in _DRIFT_PRESETS:
        raise ParameterError(f"unknown drift preset '{drift}'")
    d = SinglePotentialDrift(Polynomial(_DRIFT_PRESETS[drift]))

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
