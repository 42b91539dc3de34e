"""Norm-bound certification for finite-range operators on the weighted-l1 scale.

A kernel Q is the sparse matrix ``graph.operator(weights)``, one weight per
CSR entry of the graph, so an entry beyond the interaction radius cannot be
written down.

Contains the growth-series evaluator K_T, the series solution of the linear
integral equation f = z + int Q f, a computed upper bound on the scale-norm
constant L, a comparison check for integral inequalities with non-negative
kernels, and the resulting weighted-sup (Gronwall-type) bound.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericError, ParameterError
from .geometry import GeometricGraph
from .spaces import ScaleInterval, WeightedSeq, norm_l1

if TYPE_CHECKING:
    import scipy.sparse as sp

_SERIES_TERM_CUTOFF = 1e-14
_SERIES_MAX_TERMS = 10 ** 4
_K_SERIES_REL_TOL = 1e-12
_K_SERIES_MAX_TERMS = 10 ** 5
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


def induced_matrix(graph: GeometricGraph, B: float, k: float) -> "sp.csr_matrix":
    """The kernel Q_{x,y} = B n_x^k on the closed neighbourhood of x."""
    with np.errstate(over="ignore", invalid="ignore"):
        row_w = B * graph.nbar_count.astype(float) ** k
    finite = np.isfinite(row_w)
    if not finite.all():
        raise NumericError(f"kernel weight B n_x^k at site {np.argmin(finite)} exceeds "
                           f"double-precision range (B={B}, k={k})")
    return graph.operator(row_w[graph.entry_rows()])


def estimate_L(Q: "sp.csr_matrix", graph: GeometricGraph, q: float,
               scale: ScaleInterval) -> float:
    """Upper bound L on (beta-alpha)^q ||Q||_{l1_alpha -> l1_beta} over all
    alpha_star <= alpha < beta <= alpha_top, computed on a fixed delta grid;
    Q acts on the sites of ``graph``, whose radii weight the norms.

    The norm of an l1 -> l1 map is attained at a basis vector, so it is
    F(alpha, beta) = max_y sum_x |Q_xy| e^{-beta|x| + alpha|y|}.
    """
    import scipy.sparse as sp

    if not (0 < q < 1):
        raise ParameterError(f"q must be in (0,1), got {q}")
    n = graph.n_sites
    if Q.shape != (n, n):
        raise ParameterError(f"Q has shape {Q.shape}, the graph has {n} sites")
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
    abs_q = abs(Q).tocsc()
    radii = graph.radii()
    r_x = radii[abs_q.indices]
    r_diff = np.repeat(radii, np.diff(abs_q.indptr)) - r_x
    # Row y of col_sums adds up the entries of column y of |Q|.
    col_sums = sp.csr_matrix((abs_q.data, np.arange(abs_q.nnz), abs_q.indptr),
                             shape=(n, abs_q.nnz))
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


def k_series(L: float, T: float, q: float, alpha: float, beta: float) -> float:
    """Partial sum of sum_n L^n T^n (beta-alpha)^(-qn) n^(qn) / n!.

    The n = 0 term is 1 (0^0 = 1 convention); terms are added until the
    last term is below 1e-12 relative to the partial sum.
    """
    if beta <= alpha:
        raise ParameterError(f"beta must exceed alpha, got alpha={alpha}, beta={beta}")
    if L < 0 or T <= 0 or not (0 <= q < 1):
        raise ParameterError("need L >= 0, T > 0, 0 <= q < 1")
    if L == 0.0:
        return 1.0
    log_base = math.log(L) + math.log(T) - q * math.log(beta - alpha)
    total = 1.0
    prev_term = math.inf
    for n in range(1, _K_SERIES_MAX_TERMS + 1):
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
        if term <= prev_term and term < _K_SERIES_REL_TOL * total:
            return total
        prev_term = term
    raise NumericError(f"K_T series did not converge within {_K_SERIES_MAX_TERMS} terms")


def series_solve(Q: "sp.csr_matrix", z0: WeightedSeq, t: float) -> WeightedSeq:
    """sum_{n<=N} t^n/n! Q^n z0, truncated once the last term is negligible
    in the unweighted l^1 norm."""
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if t == 0.0:
        return z0
    term = z0.values
    total = term.copy()
    for n in range(1, _SERIES_MAX_TERMS + 1):
        term = (t / n) * (Q @ term)
        total += term
        if np.sum(np.abs(term)) < _SERIES_TERM_CUTOFF * max(np.sum(np.abs(total)), 1e-300):
            return WeightedSeq(total, z0.graph)
    raise NumericError(
        f"series solution did not reach tolerance within {_SERIES_MAX_TERMS} terms")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of the integral-inequality comparison check."""

    hypothesis_ok: bool
    bound_ok: bool
    max_hypothesis_violation: float
    max_bound_violation: float

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and self.bound_ok


def comparison_check(Q: "sp.csr_matrix", times, g_values, z: WeightedSeq,
                     T: float) -> ComparisonReport:
    """Verify g <= f where f solves the equality version of g's inequality.

    ``times`` is the sample grid of g in [0, T]; ``g_values`` has shape
    (n_sites, len(times)).  The inequality hypothesis
    g_x(t) <= z_x + [int_0^t Q g ds]_x is checked by trapezoid quadrature on
    the same grid; a failure yields a hypothesis-violated report rather than
    an exception.
    """
    if Q.nnz and Q.min() < 0:
        raise ParameterError("comparison check requires a non-negative kernel")
    times = np.asarray(times, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if g.shape != (z.graph.n_sites, times.size):
        raise ParameterError("g_values must have shape (n_sites, len(times))")
    if times.size < 2 or np.any(np.diff(times) <= 0) or times[-1] > T + 1e-12:
        raise ParameterError("times must be increasing within [0, T]")

    qg = Q @ g
    integral = np.zeros_like(g)
    dt = np.diff(times)
    integral[:, 1:] = np.cumsum(0.5 * dt * (qg[:, :-1] + qg[:, 1:]), axis=1)
    hyp_gap = g - (z.values[:, None] + integral)
    max_hyp = float(np.max(hyp_gap))
    if not max_hyp <= _COMPARISON_TOL:
        return ComparisonReport(False, False, max_hyp, math.inf)

    f = np.empty_like(g)
    for j, tj in enumerate(times):
        f[:, j] = series_solve(Q, z, float(tj)).values
    max_bound = float(np.max(g - f))
    return ComparisonReport(True, max_bound <= _COMPARISON_TOL, max_hyp, max_bound)


def gronwall_bound(B: float, k: float, graph: GeometricGraph, tails, alpha: float,
                   betas, T: float, q: float, scale: ScaleInterval) -> np.ndarray:
    """The (betas, tails) grid of weighted-sup bounds K_T(alpha, beta) *
    ||b||_{l1_alpha}, all from one L, for the integral inequality with kernel
    B n_x^k on closed neighbourhoods and each non-negative b in ``tails``.
    alpha and every beta must lie in the scale that L covers, beta > alpha."""
    for name, value in (("alpha", alpha), *(("beta", beta) for beta in betas)):
        if not scale.contains(value):
            raise ParameterError(f"{name}={value} outside the scale")
    if any(np.any(b.values < 0) for b in tails):
        raise ParameterError("tails must be componentwise non-negative")
    b_norms = [norm_l1(b, alpha, scale) for b in tails]
    L = estimate_L(induced_matrix(graph, B, k), graph, q, scale)
    # k_series rejects a beta <= alpha.
    return np.outer([k_series(L, T, q, alpha, beta) for beta in betas], b_norms)
