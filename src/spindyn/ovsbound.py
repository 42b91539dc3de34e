"""Norm-bound certification for finite-range operators on the weighted-l1 scale.

Contains the growth-series evaluator K_T, the series solution of the linear
integral equation f = z + int Q f, a computed upper bound on the scale-norm
constant L, a comparison check for integral inequalities with non-negative
kernels, and the resulting weighted-sup (Gronwall-type) bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import IntegrityError, NumericError, ParameterError
from .geometry import GeometricGraph
from .spaces import ScaleInterval, WeightedSeq, norm_l1_dense

_SERIES_TERM_CUTOFF = 1e-14
_COMPARISON_TOL = 1e-9
# Cap on the (CSR entries x grid columns) temporaries of one estimate_L block.
_PAIR_BLOCK_ELEMENTS = 2 ** 20
# The delta = beta - alpha grid of estimate_L, in units of the scale width:
# 0, then 256 geometric points from 1e-6 to 1.  Neighbours differ by a factor
# 1.0557, so the bound exceeds the sup it covers by at most 1.0557^q.
_DELTA_GRID = np.concatenate([[0.0], np.geomspace(1e-6, 1.0, 256)])
# Each computed term is within a few ulps of its exact value and a sum of n
# terms within about n more, so rounding can leave the computed bound below
# the exact one by roughly (n + 5) * 1.1e-16 relative.  This pad covers
# columns of up to about 4000 entries.
_ROUNDING_PAD = 5e-13


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


def estimate_L(Q: FiniteRangeMatrix, q: float, scale: ScaleInterval) -> float:
    """Upper bound L on (beta-alpha)^q ||Q||_{l1_alpha -> l1_beta} over all
    alpha_star <= alpha < beta <= alpha_top, computed on a fixed delta grid.

    The norm of an l1 -> l1 map is attained at a basis vector, so it is
    F(alpha, beta) = max_y sum_x |Q_xy| e^{-beta|x| + alpha|y|}.
    """
    if not (0 < q < 1):
        raise ParameterError(f"q must be in (0,1), got {q}")
    # Why the grid value bounds the sup over the whole scale:
    # 1. At fixed delta = beta - alpha, each term |Q_xy| e^{-delta|x|} *
    #    e^{alpha(|y|-|x|)} is convex in alpha, so F (a max of sums of them)
    #    is convex too, and its max over alpha is at an end of the range:
    #    alpha = alpha_star or beta = alpha_top.
    # 2. Along either end family F does not grow with delta: at alpha =
    #    alpha_star, e^{-beta|x|} falls as beta grows; at beta = alpha_top,
    #    e^{alpha|y|} falls as alpha shrinks.
    # 3. So with G(delta) the larger of the two end values, delta^q F <=
    #    delta_{i+1}^q G(delta_i) for every delta in [delta_i, delta_{i+1}],
    #    and the max over i of the right side bounds the sup.
    # Each entry is evaluated in log space: an entry within range rho has
    # ||y| - |x|| <= rho, so no factor overflows however far out x lies.
    abs_q = abs(Q.csr()).tocsc()
    radii = Q.graph.radii()
    r_x = radii[abs_q.indices]
    r_diff = np.repeat(radii, np.diff(abs_q.indptr)) - r_x
    # Row y of col_sums adds up the entries of column y of |Q|.
    col_sums = sp.csr_matrix((abs_q.data, np.arange(abs_q.nnz), abs_q.indptr),
                             shape=(Q.graph.n_sites, abs_q.nnz))
    deltas = scale.width * _DELTA_GRID
    m = deltas.size - 1
    d = np.tile(deltas[:-1], 2)
    a = np.concatenate([np.full(m, scale.alpha_star), scale.alpha_top - deltas[:-1]])
    block = max(1, _PAIR_BLOCK_ELEMENTS // max(1, abs_q.nnz))
    F = np.empty(2 * m)
    for lo in range(0, 2 * m, block):
        e = np.exp(np.outer(-r_x, d[lo:lo + block]) + np.outer(r_diff, a[lo:lo + block]))
        F[lo:lo + block] = (col_sums @ e).max(axis=0, initial=0.0)
    G = np.maximum(F[:m], F[m:])
    return (1.0 + _ROUNDING_PAD) * float(np.max(deltas[1:] ** q * G))


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
                   scale: ScaleInterval) -> float:
    """Weighted-sup bound K_T(alpha, beta) * ||b||_{l1_alpha} for the
    integral inequality with kernel B n_x^k on closed neighbourhoods."""
    if beta <= alpha:
        raise ParameterError("beta must exceed alpha")
    b_norm = nonneg_l1_norm(b_vec, graph.radii(), alpha)
    Q = induced_matrix(graph, B, k)
    L = estimate_L(Q, q, scale)
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
