import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import closed_neighborhood, sparse_seq
from spindyn import (Configuration, NumericError, ParameterError, ScaleInterval,
                     WeightedSeq, build_graph, comparison_check, estimate_L,
                     gronwall_bound, induced_matrix, k_series,
                     lattice_configuration, norm_l1, sample_poisson,
                     series_solve)
from spindyn import ovsbound

SCALE = ScaleInterval(0.1, 1.0)


@pytest.fixture(scope="module")
def graph():
    return build_graph(lattice_configuration(-5, 5), 1.5)


def slot(graph, x, y):
    """Index of the CSR entry (x, y) in ``graph.indices``."""
    return graph.indptr[x] + closed_neighborhood(graph, x).index(y)


def matrix_with(graph, entries):
    """The operator holding the given {(x, y): value} entries and zeros
    elsewhere."""
    w = np.zeros(graph.indices.size)
    for (x, y), v in entries.items():
        w[slot(graph, x, y)] = v
    return graph.operator(w)


def kt_oracle(L, T, q, width, terms=400):
    """200-digit evaluation of the growth series, summed term by term."""
    import mpmath as mp
    with mp.workdps(200):
        total = mp.mpf(1)
        for n in range(1, terms):
            term = (mp.mpf(L) * T) ** n * mp.mpf(width) ** (-q * n) \
                * mp.mpf(n) ** (q * n) / mp.factorial(n)
            total += term
            if term < mp.mpf(10) ** -60 * total and n > 5:
                break
        return float(total)


class TestKSeries:
    def test_L_zero_is_one(self):
        assert k_series(0.0, 1.0, 0.5, 0.0, 0.3) == 1.0

    def test_q_zero_is_exponential(self):
        assert k_series(1.0, 1.0, 0.0, 0.0, 0.7) == pytest.approx(np.e, abs=1e-12)
        assert k_series(2.0, 1.5, 0.0, 0.0, 0.7) == pytest.approx(np.exp(3.0), rel=1e-12)

    def test_random_parameters_match_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = rng.uniform(0.1, 1.5)
            T = rng.uniform(0.1, 1.5)
            q = rng.uniform(0.05, 0.6)
            width = rng.uniform(0.5, 1.5)
            got = k_series(L, T, q, 0.0, width)
            want = kt_oracle(L, T, q, width)
            assert got == pytest.approx(want, rel=1e-10)

    def test_monotone_in_width(self):
        # Shrinking beta - alpha can only grow the series.
        vals = [k_series(1.0, 1.0, 0.5, 0.0, w) for w in (0.2, 0.4, 0.8)]
        assert vals[0] > vals[1] > vals[2] > 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            k_series(1.0, 1.0, 0.5, 0.5, 0.5)  # beta == alpha
        with pytest.raises(ParameterError):
            k_series(1.0, 1.0, 1.0, 0.0, 0.5)  # q >= 1
        with pytest.raises(NumericError):
            k_series(1e9, 1e3, 0.99, 0.0, 1e-6)


def column_norm(Q, graph, alpha, beta):
    """F(alpha, beta) = max_y sum_x |Q_xy| e^{-beta|x| + alpha|y|}, the
    l1_alpha -> l1_beta norm of Q on the sites of ``graph``, for one pair."""
    radii = graph.radii()
    col = abs(Q).T @ np.exp(-beta * radii)
    return float(np.max(col * np.exp(alpha * radii), initial=0.0))


def grid_sup(Q, graph, q, scale, m):
    """max of (beta-alpha)^q F(alpha, beta) over an m x m grid of the scale."""
    radii = graph.radii()
    abs_t = abs(Q).T
    grid = np.linspace(scale.alpha_star, scale.alpha_top, m)
    best = 0.0
    for i, a in enumerate(grid[:-1]):
        b = grid[i + 1:]
        col = (abs_t @ np.exp(np.outer(radii, -b))) * np.exp(a * radii)[:, None]
        best = max(best, float(np.max((b - a) ** q * col.max(axis=0))))
    return best


def sampled_max_ratio(Q, graph, q, scale, trials, rng_seed):
    """Largest (beta-alpha)^q ||Qz||_beta / ||z||_alpha over random pairs
    (alpha, beta) and random normal vectors z."""
    rng = np.random.default_rng(rng_seed)
    radii = graph.radii()
    a, b = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, (2, trials)),
                   axis=0)
    z = rng.standard_normal((graph.n_sites, trials))
    num = np.sum(np.exp(-np.outer(radii, b)) * np.abs(Q @ z), axis=0)
    den = np.sum(np.exp(-np.outer(radii, a)) * np.abs(z), axis=0)
    return float(np.max((b - a) ** q * num / den))


@st.composite
def signed_operators(draw):
    """A random 1-D or 2-D point set with a signed random weight on every
    CSR entry, a random scale and q, and random (alpha, beta) pairs."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = draw(st.floats(1.0, 12.0))
    config = Configuration(positions=rng.uniform(-side, side, size=(n, dim)),
                           window=np.array([[-side, side]] * dim))
    graph = build_graph(config, draw(st.floats(0.3, 3.0)))
    Q = graph.operator(rng.uniform(-3.0, 3.0, graph.indices.size))
    lo = draw(st.floats(0.0, 1.0))
    scale = ScaleInterval(lo, lo + draw(st.floats(0.05, 2.0)))
    pairs = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, (20, 2)), axis=1)
    pairs = np.vstack([pairs, [scale.alpha_star, scale.alpha_top]])
    return Q, graph, draw(st.floats(0.05, 0.95)), scale, pairs


def poisson_operator(seed):
    config = sample_poisson(1.5, np.array([[-8.0, 8.0], [-8.0, 8.0]]), seed)
    graph = build_graph(config, 1.2)
    return induced_matrix(graph, 0.2, 1.0), graph


class TestCertification:
    def test_estimate_then_verify(self, graph):
        # The sampled cross-check: no random (alpha, beta, z) beats L.
        Q = induced_matrix(graph, 0.3, 1.0)
        L = estimate_L(Q, graph, 0.5, SCALE)
        assert sampled_max_ratio(Q, graph, 0.5, SCALE, 2000, 1) <= L

    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(signed_operators())
    def test_bound_dominates_norm_at_random_pairs(self, case):
        Q, graph, q, scale, pairs = case
        L = estimate_L(Q, graph, q, scale)
        for a, b in pairs:
            assert L >= (b - a) ** q * column_norm(Q, graph, a, b)

    def test_within_five_percent_of_fine_grid_sup(self):
        for seed_ in range(5):
            Q, graph = poisson_operator(seed_)
            scale = ScaleInterval(0.05, 0.9)
            L = estimate_L(Q, graph, 0.5, scale)
            sup = grid_sup(Q, graph, 0.5, scale, 200)
            assert sup <= L <= 1.05 * sup

    def test_zero_matrix(self, graph):
        Q = matrix_with(graph, {})
        assert estimate_L(Q, graph, 0.5, SCALE) == 0.0

    def test_diagonal_matrix_exact_constant(self, graph):
        # Q = c I: F(alpha, beta) = c at the origin site for every pair, so
        # the sup is c width^q, attained at the widest pair.
        c = 2.0
        w = np.zeros(graph.indices.size)
        w[graph.indptr[:-1]] = c
        L = estimate_L(graph.operator(w), graph, 0.5, SCALE)
        exact = c * SCALE.width ** 0.5
        assert L >= exact
        assert L == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("outward", [True, False])
    def test_single_entry_closed_form(self, graph, outward):
        # One unit entry between the origin site and a site at |x| = 1.
        # Outward (row x, column 0), F = e^{-beta}, and the sup is at
        # alpha = alpha_star; inward (row 0, column x), F = e^{alpha}, and it
        # is at beta = alpha_top.  Either way beta - alpha = q at the sup.
        origin, x = 5, 6
        q = 0.5
        entry = (x, origin) if outward else (origin, x)
        Q = matrix_with(graph, {entry: 1.0})
        exact = q ** q * np.exp(-SCALE.alpha_star - q if outward
                                else SCALE.alpha_top - q)
        L = estimate_L(Q, graph, q, SCALE)
        assert exact <= L <= 1.03 * exact

    def test_wide_window_is_finite(self):
        # e^{alpha|x|} alone overflows at |x| = 800, the ratio does not.
        g = build_graph(lattice_configuration(-800, 800), 1.5)
        L = estimate_L(induced_matrix(g, 0.3, 1.0), g, 0.5, SCALE)
        assert np.isfinite(L) and L > 0

    @staticmethod
    def per_pair_L(Q, graph, q, scale):
        """The delta-grid bound with every end value from column_norm."""
        deltas = scale.width * ovsbound._DELTA_GRID
        G = [max(column_norm(Q, graph, scale.alpha_star, scale.alpha_star + d),
                 column_norm(Q, graph, scale.alpha_top - d, scale.alpha_top))
             for d in deltas[:-1]]
        return max(deltas[1:] ** q * np.asarray(G))

    def test_batched_sweep_matches_per_pair_reference(self):
        for seed_ in range(6):
            config = sample_poisson(1.5, np.array([[-5.0, 5.0], [-5.0, 5.0]]), seed_)
            graph = build_graph(config, 1.2)
            Q = induced_matrix(graph, 0.2, 1.0)
            scale = ScaleInterval(0.05, 0.9)
            got = estimate_L(Q, graph, 0.4, scale)
            want = (1 + ovsbound._ROUNDING_PAD) * self.per_pair_L(Q, graph, 0.4, scale)
            assert got == pytest.approx(want, rel=1e-12)

    def test_batched_sweep_spanning_several_blocks(self, monkeypatch):
        g = build_graph(lattice_configuration(-12, 12, dim=2), 1.5)
        Q = induced_matrix(g, 0.3, 1.0)
        columns = 2 * (ovsbound._DELTA_GRID.size - 1)
        assert Q.nnz * columns > 2 * ovsbound._PAIR_BLOCK_ELEMENTS
        blocked = estimate_L(Q, g, 0.5, SCALE)
        monkeypatch.setattr(ovsbound, "_PAIR_BLOCK_ELEMENTS", 2 ** 62)
        assert estimate_L(Q, g, 0.5, SCALE) == blocked

    def test_weights_of_wrong_length_rejected(self, graph):
        # One weight per CSR entry is the only layout, so an entry beyond
        # rho, such as (0, 10), has no slot to go in.
        e = graph.indices.size
        for bad in (np.ones(e - 1), np.ones(e + 1), np.ones((1, e))):
            with pytest.raises(ParameterError, match="shape"):
                graph.operator(bad)

    def test_overflowing_kernel_raises_numeric_error(self, graph):
        # B n_x^k overflows first at site 0 (n_0 = 2); no RuntimeWarning is
        # let through, as pytest turns one into an error.
        with pytest.raises(NumericError, match=r"site 0 .*\(B=1e\+308, k=1\.0\)"):
            induced_matrix(graph, 1e308, 1.0)
        with pytest.raises(NumericError, match=r"site 0 .*\(B=0\.0, k=1e\+308\)"):
            induced_matrix(graph, 0.0, 1e308)  # 0 * 2^k is 0 * inf, NaN

    def test_operator_of_another_graph_rejected(self, graph):
        # Q acts on the 11 sites of the -5..5 chain; the radii are of 21.
        Q = induced_matrix(graph, 0.3, 1.0)
        wide = build_graph(lattice_configuration(-10, 10), 1.5)
        with pytest.raises(ParameterError,
                           match=r"Q has shape \(11, 11\), the graph has 21 sites"):
            estimate_L(Q, wide, 0.5, SCALE)

    @pytest.mark.parametrize("lo, hi, B, scale, want", [
        # the converge_chain kernel: 201 sites, B = a_bar = 1
        (-100, 100, 1.0, ScaleInterval(0.0, 1.0), "0x1.59b47cae31744p+2"),
        # the kernel of `spindyn ovs` on the -5..5 chain
        (-5, 5, 0.2, ScaleInterval(0.1, 1.0), "0x1.1491692fed2d1p+0"),
    ])
    def test_L_is_pinned_bit_for_bit(self, lo, hi, B, scale, want):
        # The values the (x, y) -> value dict layout gave; the CSR layout
        # must reproduce them, since they reach gaps.csv and kt_table.csv.
        g = build_graph(lattice_configuration(lo, hi), 1.5)
        assert estimate_L(induced_matrix(g, B, 1.0), g, 0.5, scale).hex() == want

class TestSeriesSolve:
    def test_matches_matrix_exponential(self, graph):
        rng = np.random.default_rng(2)
        small = build_graph(lattice_configuration(0, 7), 1.5)
        for _ in range(10):
            Q = small.operator(rng.uniform(-1, 1, small.indices.size))
            z0 = WeightedSeq(rng.standard_normal(small.n_sites), small)
            t = rng.uniform(0.1, 1.5)
            got = series_solve(Q, z0, t).values
            want = expm(t * Q.toarray()) @ z0.values
            assert np.max(np.abs(got - want)) < 1e-10

    def test_t_zero_identity(self, graph):
        Q = induced_matrix(graph, 0.5, 1.0)
        z0 = sparse_seq(graph, {3: 2.0})
        assert np.array_equal(series_solve(Q, z0, 0.0).values, z0.values)

    def test_zero_matrix_constant(self, graph):
        Q = matrix_with(graph, {})
        z0 = sparse_seq(graph, {3: 2.0})
        assert np.array_equal(series_solve(Q, z0, 5.0).values, z0.values)


class TestComparison:
    def comparison_instance(self, graph, seed, kind):
        rng = np.random.default_rng(seed)
        Q = induced_matrix(graph, rng.uniform(0.05, 0.3), 1.0)
        z = WeightedSeq(rng.uniform(0.0, 1.0, graph.n_sites), graph)
        T = 1.0
        times = np.linspace(0, T, 201)
        f = np.stack([series_solve(Q, z, float(t)).values for t in times], axis=1)
        if kind == "scaled":
            lam = rng.uniform(0.1, 1.0)
            g = lam * f
        else:  # time-dilated
            kappa = rng.uniform(0.1, 1.0)
            g = np.stack([series_solve(Q, z, float(kappa * t)).values
                          for t in times], axis=1)
        return Q, times, g, z, T

    def test_scaled_solutions_satisfy_hypothesis_and_bound(self, graph):
        for seed in range(5):
            Q, times, g, z, T = self.comparison_instance(graph, seed, "scaled")
            rep = comparison_check(Q, times, g, z, T)
            assert rep.hypothesis_ok and rep.bound_ok

    def test_dilated_solutions_satisfy_hypothesis_and_bound(self, graph):
        for seed in range(5):
            Q, times, g, z, T = self.comparison_instance(graph, 100 + seed, "dilated")
            rep = comparison_check(Q, times, g, z, T)
            assert rep.hypothesis_ok and rep.bound_ok

    def test_violating_g_is_reported_not_raised(self, graph):
        Q = induced_matrix(graph, 0.1, 1.0)
        z = WeightedSeq(np.ones(graph.n_sites), graph)
        times = np.linspace(0, 1.0, 50)
        g = 10.0 * np.ones((graph.n_sites, times.size))  # breaks the hypothesis
        rep = comparison_check(Q, times, g, z, 1.0)
        assert not rep.hypothesis_ok and not rep.passed
        assert rep.max_hypothesis_violation > 0

    def test_negative_kernel_rejected(self, graph):
        Q = matrix_with(graph, {(0, 1): -1.0})
        z = WeightedSeq(np.zeros(graph.n_sites), graph)
        times = np.linspace(0, 1, 10)
        with pytest.raises(ParameterError):
            comparison_check(Q, times, np.zeros((graph.n_sites, 10)), z, 1.0)


class TestGronwall:
    def test_dominates_true_solution_norm(self, graph):
        # The weighted-sup of the series solution is bounded by
        # K_T(alpha, beta) * ||b||_{l1_alpha}.
        rng = np.random.default_rng(4)
        scale = ScaleInterval(0.1, 1.0)
        for _ in range(5):
            B, k = rng.uniform(0.05, 0.3), 1.0
            b = WeightedSeq(rng.uniform(0, 1, graph.n_sites), graph)
            alpha, beta, T, q = 0.2, 0.9, 1.0, 0.5
            bound = gronwall_bound(B, k, graph, [b], alpha, [beta], T, q, scale)[0, 0]
            Q = induced_matrix(graph, B, k)
            sup_norm = max(
                norm_l1(series_solve(Q, b, t), beta, scale)
                for t in np.linspace(0, T, 21))
            assert sup_norm <= bound * (1 + 1e-9)

    def test_grid_is_k_series_times_alpha_norm(self, graph):
        # One L serves every (beta, tail) entry, and each entry is the
        # scalar bound exactly.
        rng = np.random.default_rng(7)
        B, k, alpha, betas, T, q = 0.15, 1.0, 0.2, [0.6, 0.9], 0.5, 0.5
        tails = [WeightedSeq(rng.uniform(0, 1, graph.n_sites), graph) for _ in range(3)]
        L = estimate_L(induced_matrix(graph, B, k), graph, q, SCALE)
        w = np.exp(-alpha * graph.radii())
        want = [[k_series(L, T, q, alpha, beta) * np.sum(w * b.values) for b in tails]
                for beta in betas]
        got = gronwall_bound(B, k, graph, tails, alpha, betas, T, q, SCALE)
        assert got.shape == (2, 3)
        assert np.all(got == np.array(want))

    @pytest.mark.parametrize("alpha, betas, match", [
        (0.05, [0.9], r"alpha=0\.05 outside the scale"),
        (0.2, [0.9, 1.5], r"beta=1\.5 outside the scale"),
        (0.2, [0.9, 0.2], r"beta must exceed alpha, got alpha=0\.2, beta=0\.2"),
        (0.5, [0.3], r"beta must exceed alpha, got alpha=0\.5, beta=0\.3"),
    ])
    def test_alpha_and_betas_must_lie_in_scale_and_ascend(self, graph, alpha, betas,
                                                           match):
        b = WeightedSeq(np.ones(graph.n_sites), graph)
        with pytest.raises(ParameterError, match=match):
            gronwall_bound(0.1, 1.0, graph, [b], alpha, betas, 1.0, 0.5, SCALE)

    def test_negative_b_rejected(self, graph):
        good = WeightedSeq(np.ones(graph.n_sites), graph)
        b = sparse_seq(graph, {0: -1.0})
        with pytest.raises(ParameterError, match="non-negative"):
            gronwall_bound(0.1, 1.0, graph, [good, b], 0.2, [0.9], 1.0, 0.5, SCALE)
