"""Norm-bound certification for finite-range operators on the weighted-l1 scale.

Contains the growth-series evaluator K_T, the series solution of the linear
integral equation f = z + int Q f, an empirical two-phase estimate of the
scale-norm constant L, a comparison check for integral inequalities with
non-negative kernels, and the resulting weighted-sup (Gronwall-type) bound.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp

from .errors import IntegrityError, NumericError, ParameterError
from .geometry import GeometricGraph
from .spaces import ScaleInterval, WeightedSeq, norm_l1_dense

_ESTIMATE_MARGIN = 0.1
_SERIES_TERM_CUTOFF = 1e-14
_COMPARISON_TOL = 1e-9
# Cap on the (sites x pairs) temporaries of one estimate_L block.
_PAIR_BLOCK_ELEMENTS = 2 ** 20

# Sweep size and seed of the L estimate behind every Gronwall bound.
GRONWALL_TRIALS = 2000
GRONWALL_SEED = 0


@dataclass
class FiniteRangeMatrix:
    """Sparse site-to-site matrix vanishing beyond the interaction radius.

    Entries are bounded by ``bound_C * n_x**bound_k`` where n_x counts the
    closed neighbourhood of the row site.
    """

    entries: dict
    graph: GeometricGraph
    bound_C: float
    bound_k: float
    _csr: sp.csr_matrix = field(default=None, repr=False, compare=False)

    def validate(self) -> None:
        pos = self.graph.config.positions
        rho = self.graph.rho
        nbar = self.graph.nbar_count
        for (x, y), v in self.entries.items():
            if v == 0.0:
                continue
            dist = float(np.linalg.norm(pos[x] - pos[y]))
            if dist > rho * (1 + 1e-12):
                raise IntegrityError(
                    f"entry ({x},{y}) nonzero at distance {dist:.6g} > rho={rho}")
            cap = self.bound_C * float(nbar[x]) ** self.bound_k
            if abs(v) > cap * (1 + 1e-12):
                raise IntegrityError(
                    f"entry ({x},{y})={v:.6g} exceeds C*n_x^k={cap:.6g}")

    def csr(self) -> sp.csr_matrix:
        if self._csr is None:
            n = self.graph.n_sites
            if self.entries:
                rows, cols = zip(*self.entries.keys())
                vals = list(self.entries.values())
            else:
                rows, cols, vals = [], [], []
            self._csr = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._csr

    def dense(self) -> np.ndarray:
        return self.csr().toarray()

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.csr() @ vec


def induced_matrix(graph: GeometricGraph, B: float, k: float) -> FiniteRangeMatrix:
    """The kernel Q_{x,y} = B n_x^k on the closed neighbourhood of x."""
    rows = graph.entry_rows()
    vals = (B * graph.nbar_count.astype(float) ** k)[rows]
    entries = dict(zip(zip(rows.tolist(), graph.indices.tolist()), vals.tolist()))
    return FiniteRangeMatrix(entries=entries, graph=graph, bound_C=B, bound_k=k)


@dataclass(frozen=True)
class OvsCertificate:
    """Record of an empirical scale-norm bound check."""

    q: float
    L: float
    trials: int
    max_ratio: float
    seed: int

    @property
    def valid(self) -> bool:
        return self.max_ratio <= self.L

    def to_json(self) -> str:
        return json.dumps(asdict(self) | {"valid": self.valid}, indent=2)


def _sample_pair(rng: np.random.Generator, scale: ScaleInterval):
    a = rng.uniform(scale.alpha_star, scale.alpha_top)
    b = rng.uniform(scale.alpha_star, scale.alpha_top)
    lo, hi = min(a, b), max(a, b)
    if hi - lo < 1e-9 * scale.width:
        hi = min(lo + 0.5 * scale.width, scale.alpha_top)
        lo = hi - 0.5 * scale.width
    return lo, hi


def estimate_L(Q: FiniteRangeMatrix, q: float, trials: int, seed: int,
               scale: ScaleInterval) -> float:
    """Empirical constant for the (beta-alpha)^-q norm bound, with 10% headroom.

    The sup over vectors at fixed (alpha, beta) is evaluated exactly via
    column sums; (alpha, beta) itself is swept over a grid plus random draws.
    """
    if not (0 < q < 1):
        raise ParameterError(f"q must be in (0,1), got {q}")
    radii = Q.graph.radii()
    abs_t = sp.csr_matrix(abs(Q.csr())).T
    rng = np.random.default_rng(seed)
    pairs = []
    # Deterministic sweep including the extreme pair, where diagonal
    # operators attain their sup.
    grid = np.linspace(scale.alpha_star, scale.alpha_top, 25)
    for i, a in enumerate(grid):
        for b in grid[i + 1:]:
            pairs.append((float(a), float(b)))
    for _ in range(max(0, trials)):
        pairs.append(_sample_pair(rng, scale))
    alphas, betas = np.asarray(pairs).T
    # Sup over z of the norm ratio for an l1 -> l1 map is attained at a
    # basis vector, so each pair reduces to a weighted column sum of |Q|;
    # one column of the block per pair.
    block = max(1, _PAIR_BLOCK_ELEMENTS // max(1, radii.size))
    best = 0.0
    for lo in range(0, alphas.size, block):
        a, b = alphas[lo:lo + block], betas[lo:lo + block]
        col = abs_t @ np.exp(np.outer(radii, -b))
        col *= np.exp(np.outer(radii, a))
        # A pair whose weights over- and underflow to inf * 0 is NaN and is
        # skipped, as max() over single pairs skips it.
        best = float(np.nanmax((b - a) ** q * col.max(axis=0), initial=best))
    return (1.0 + _ESTIMATE_MARGIN) * best


def verify_ovs_bound(Q: FiniteRangeMatrix, q: float, L: float, trials: int,
                     seed: int, scale: ScaleInterval) -> OvsCertificate:
    """Check the (beta-alpha)^-q bound with constant L on random trials."""
    if not (0 < q < 1):
        raise ParameterError(f"q must be in (0,1), got {q}")
    if not L > 0:
        raise ParameterError(f"L must be positive, got {L}")
    Q.validate()
    radii = Q.graph.radii()
    csr = Q.csr()
    n = Q.graph.n_sites
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    for _ in range(trials):
        a, b = _sample_pair(rng, scale)
        z = rng.standard_normal(n)
        nz = norm_l1_dense(z, radii, a)
        if nz == 0.0:
            continue
        ratio = norm_l1_dense(csr @ z, radii, b) * (b - a) ** q / nz
        max_ratio = max(max_ratio, ratio)
    return OvsCertificate(q=q, L=L, trials=trials, max_ratio=max_ratio, seed=seed)


def k_series(L: float, T: float, q: float, alpha: float, beta: float,
             rel_tol: float = 1e-12, n_cap: int = 10 ** 5) -> float:
    """Partial sum of sum_n L^n T^n (beta-alpha)^(-qn) n^(qn) / n!.

    The n = 0 term is 1 (0^0 = 1 convention); terms are added until the
    last term is below rel_tol relative to the partial sum.
    """
    if beta <= alpha:
        raise ParameterError(f"beta must exceed alpha, got alpha={alpha}, beta={beta}")
    if rel_tol <= 0:
        raise ParameterError("rel_tol must be positive")
    if L < 0 or T <= 0 or not (0 <= q < 1):
        raise ParameterError("need L >= 0, T > 0, 0 <= q < 1")
    if L == 0.0:
        return 1.0
    log_base = math.log(L) + math.log(T) - q * math.log(beta - alpha)
    total = 1.0
    prev_term = math.inf
    for n in range(1, n_cap + 1):
        log_term = n * log_base + q * n * math.log(n) - math.lgamma(n + 1)
        if log_term > 700:
            raise NumericError(
                "K_T series exceeds double-precision range for these parameters")
        term = math.exp(log_term)
        total += term
        if math.isinf(total):
            raise NumericError(
                "K_T series exceeds double-precision range for these parameters")
        # The log-terms are concave in n, so once the ratio test fires past
        # the mode the tail is negligible.
        if term <= prev_term and term < rel_tol * total:
            return total
        prev_term = term
    raise NumericError(f"K_T series did not converge within {n_cap} terms")


def series_solve(Q: FiniteRangeMatrix, z0: WeightedSeq, t: float,
                 n_max: int = 10 ** 4, scale: ScaleInterval | None = None) -> WeightedSeq:
    """sum_{n<=N} t^n/n! Q^n z0, truncated once the last term is negligible.

    The cutoff norm is l^1 at the top of the scale when one is supplied,
    otherwise the unweighted l^1 norm (which is the stricter choice).
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    radii = Q.graph.radii()
    alpha_norm = scale.alpha_top if scale is not None else 0.0
    csr = Q.csr()
    term = z0.to_dense()
    total = term.copy()
    if t == 0.0:
        return WeightedSeq.from_dense(total, Q.graph, keep_zeros=True)
    for n in range(1, n_max + 1):
        term = (t / n) * (csr @ term)
        total += term
        if norm_l1_dense(term, radii, alpha_norm) < \
                _SERIES_TERM_CUTOFF * max(norm_l1_dense(total, radii, alpha_norm), 1e-300):
            return WeightedSeq.from_dense(total, Q.graph, keep_zeros=True)
    raise NumericError(f"series solution did not reach tolerance within {n_max} terms")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the integral-inequality comparison check."""

    hypothesis_ok: bool
    bound_ok: bool
    max_hypothesis_violation: float
    max_bound_violation: float
    min_slack: float

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.bound_ok


def comparison_check(Q: FiniteRangeMatrix, times, g_values, z: WeightedSeq,
                     T: float, scale: ScaleInterval | None = None,
                     tol: float = _COMPARISON_TOL) -> ComparisonReport:
    """Verify g <= f where f solves the equality version of g's inequality.

    ``times`` is the sample grid of g in [0, T]; ``g_values`` has shape
    (n_sites, len(times)).  The inequality hypothesis
    g_x(t) <= z_x + [int_0^t Q g ds]_x is checked by trapezoid quadrature on
    the same grid; a failure yields a hypothesis-violated report rather than
    an exception.
    """
    entries = Q.csr()
    if entries.nnz and entries.min() < 0:
        raise ParameterError("comparison check requires a non-negative kernel")
    times = np.asarray(times, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if g.shape != (Q.graph.n_sites, times.size):
        raise ParameterError("g_values must have shape (n_sites, len(times))")
    if times.size < 2 or np.any(np.diff(times) <= 0) or times[-1] > T + 1e-12:
        raise ParameterError("times must be increasing within [0, T]")
    zd = z.to_dense()

    qg = entries @ g
    integral = np.zeros_like(g)
    dt = np.diff(times)
    integral[:, 1:] = np.cumsum(0.5 * dt * (qg[:, :-1] + qg[:, 1:]), axis=1)
    hyp_gap = g - (zd[:, None] + integral)
    max_hyp = float(np.max(hyp_gap))
    hypothesis_ok = max_hyp <= tol
    if not hypothesis_ok:
        return ComparisonReport(False, False, max_hyp, math.inf, -math.inf)

    f = np.empty_like(g)
    for j, tj in enumerate(times):
        f[:, j] = series_solve(Q, z, float(tj), scale=scale).to_dense()
    gap = g - f
    max_bound = float(np.max(gap))
    return ComparisonReport(True, max_bound <= tol, max_hyp, max_bound,
                            float(-np.max(gap)))


def nonneg_l1_norm(b_vec: WeightedSeq, radii: np.ndarray, alpha: float) -> float:
    """||b||_{l1_alpha} of a componentwise non-negative sequence."""
    dense_b = b_vec.to_dense()
    if np.any(dense_b < 0):
        raise ParameterError("b_vec must be componentwise non-negative")
    return norm_l1_dense(dense_b, radii, alpha)


def gronwall_bound(B: float, k: float, graph: GeometricGraph, b_vec: WeightedSeq,
                   alpha: float, beta: float, T: float, q: float,
                   scale: ScaleInterval, trials: int = GRONWALL_TRIALS,
                   seed: int = GRONWALL_SEED) -> float:
    """Weighted-sup bound K_T(alpha, beta) * ||b||_{l1_alpha} for the
    integral inequality with kernel B n_x^k on closed neighbourhoods."""
    if beta <= alpha:
        raise ParameterError("beta must exceed alpha")
    b_norm = nonneg_l1_norm(b_vec, graph.radii(), alpha)
    Q = induced_matrix(graph, B, k)
    L = estimate_L(Q, q, trials, seed, scale)
    return k_series(L, T, q, alpha, beta) * b_norm


def matrix_to_csv(Q: FiniteRangeMatrix, path) -> None:
    rows = [(x, y, v) for (x, y), v in sorted(Q.entries.items())]
    arr = np.asarray(rows, dtype=float).reshape(len(rows), 3)
    np.savetxt(path, arr, fmt=["%d", "%d", "%.17g"], delimiter=",",
               header="a,b,value", comments="")


def matrix_from_csv(path, graph: GeometricGraph, bound_C: float,
                    bound_k: float) -> FiniteRangeMatrix:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    entries = {(int(r[0]), int(r[1])): float(r[2]) for r in data} if data.size else {}
    return FiniteRangeMatrix(entries=entries, graph=graph,
                             bound_C=bound_C, bound_k=bound_k)
