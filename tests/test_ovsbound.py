import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spindyn import (Configuration, FiniteRangeMatrix, IntegrityError,
                     NumericError, ParameterError, ScaleInterval, WeightedSeq,
                     build_graph, comparison_check, estimate_L, gronwall_bound,
                     induced_matrix, k_series, lattice_configuration,
                     matrix_from_csv, matrix_to_csv, norm_lp, sample_poisson,
                     series_solve)
from spindyn import ovsbound

SCALE = ScaleInterval(0.1, 1.0)


@pytest.fixture(scope="module")
def graph():
    return build_graph(lattice_configuration(-5, 5), 1.5)


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


def column_norm(Q, alpha, beta):
    """F(alpha, beta) = max_y sum_x |Q_xy| e^{-beta|x| + alpha|y|}, the
    l1_alpha -> l1_beta norm of Q, for one pair."""
    radii = Q.graph.radii()
    col = abs(Q.csr()).T @ np.exp(-beta * radii)
    return float(np.max(col * np.exp(alpha * radii), initial=0.0))


def grid_sup(Q, q, scale, m):
    """max of (beta-alpha)^q F(alpha, beta) over an m x m grid of the scale."""
    radii = Q.graph.radii()
    abs_t = abs(Q.csr()).T
    grid = np.linspace(scale.alpha_star, scale.alpha_top, m)
    best = 0.0
    for i, a in enumerate(grid[:-1]):
        b = grid[i + 1:]
        col = (abs_t @ np.exp(np.outer(radii, -b))) * np.exp(a * radii)[:, None]
        best = max(best, float(np.max((b - a) ** q * col.max(axis=0))))
    return best


def sampled_max_ratio(Q, q, scale, trials, rng_seed):
    """Largest (beta-alpha)^q ||Qz||_beta / ||z||_alpha over random pairs
    (alpha, beta) and random normal vectors z."""
    rng = np.random.default_rng(rng_seed)
    radii = Q.graph.radii()
    a, b = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, (2, trials)),
                   axis=0)
    z = rng.standard_normal((Q.graph.n_sites, trials))
    num = np.sum(np.exp(-np.outer(radii, b)) * np.abs(Q.csr() @ z), axis=0)
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
    vals = rng.uniform(-3.0, 3.0, graph.indices.size)
    entries = dict(zip(zip(graph.entry_rows().tolist(), graph.indices.tolist()),
                       vals.tolist()))
    Q = FiniteRangeMatrix(entries=entries, graph=graph, bound_C=3.0, bound_k=0.0)
    lo = draw(st.floats(0.0, 1.0))
    scale = ScaleInterval(lo, lo + draw(st.floats(0.05, 2.0)))
    pairs = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, (20, 2)), axis=1)
    pairs = np.vstack([pairs, [scale.alpha_star, scale.alpha_top]])
    return Q, draw(st.floats(0.05, 0.95)), scale, pairs


def poisson_operator(seed):
    config = sample_poisson(1.5, np.array([[-8.0, 8.0], [-8.0, 8.0]]), seed)
    return induced_matrix(build_graph(config, 1.2), 0.2, 1.0)


class TestCertification:
    def test_estimate_then_verify(self, graph):
        # The sampled cross-check: no random (alpha, beta, z) beats L.
        Q = induced_matrix(graph, 0.3, 1.0)
        L = estimate_L(Q, 0.5, SCALE)
        assert sampled_max_ratio(Q, 0.5, SCALE, 2000, 1) <= L

    @seed(20261018)
    @settings(max_examples=60, deadline=None, database=None)
    @given(signed_operators())
    def test_bound_dominates_norm_at_random_pairs(self, case):
        Q, q, scale, pairs = case
        L = estimate_L(Q, q, scale)
        for a, b in pairs:
            assert L >= (b - a) ** q * column_norm(Q, a, b)

    def test_within_five_percent_of_fine_grid_sup(self):
        for seed_ in range(5):
            Q = poisson_operator(seed_)
            scale = ScaleInterval(0.05, 0.9)
            L = estimate_L(Q, 0.5, scale)
            sup = grid_sup(Q, 0.5, scale, 200)
            assert sup <= L <= 1.05 * sup

    def test_zero_matrix(self, graph):
        Q = FiniteRangeMatrix(entries={}, graph=graph, bound_C=1.0, bound_k=0.0)
        assert estimate_L(Q, 0.5, SCALE) == 0.0

    def test_diagonal_matrix_exact_constant(self, graph):
        # Q = c I: F(alpha, beta) = c at the origin site for every pair, so
        # the sup is c width^q, attained at the widest pair.
        c = 2.0
        entries = {(x, x): c for x in range(graph.n_sites)}
        Q = FiniteRangeMatrix(entries=entries, graph=graph, bound_C=c, bound_k=0.0)
        L = estimate_L(Q, 0.5, SCALE)
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
        Q = FiniteRangeMatrix(entries={entry: 1.0}, graph=graph, bound_C=1.0,
                              bound_k=0.0)
        exact = q ** q * np.exp(-SCALE.alpha_star - q if outward
                                else SCALE.alpha_top - q)
        L = estimate_L(Q, q, SCALE)
        assert exact <= L <= 1.03 * exact

    def test_wide_window_is_finite(self):
        # e^{alpha|x|} alone overflows at |x| = 800, the ratio does not.
        g = build_graph(lattice_configuration(-800, 800), 1.5)
        L = estimate_L(induced_matrix(g, 0.3, 1.0), 0.5, SCALE)
        assert np.isfinite(L) and L > 0

    @staticmethod
    def per_pair_L(Q, q, scale):
        """The delta-grid bound with every end value from column_norm."""
        deltas = scale.width * ovsbound._DELTA_GRID
        G = [max(column_norm(Q, scale.alpha_star, scale.alpha_star + d),
                 column_norm(Q, scale.alpha_top - d, scale.alpha_top))
             for d in deltas[:-1]]
        return max(deltas[1:] ** q * np.asarray(G))

    def test_batched_sweep_matches_per_pair_reference(self):
        for seed_ in range(6):
            config = sample_poisson(1.5, np.array([[-5.0, 5.0], [-5.0, 5.0]]), seed_)
            Q = induced_matrix(build_graph(config, 1.2), 0.2, 1.0)
            scale = ScaleInterval(0.05, 0.9)
            got = estimate_L(Q, 0.4, scale)
            want = (1 + ovsbound._ROUNDING_PAD) * self.per_pair_L(Q, 0.4, scale)
            assert got == pytest.approx(want, rel=1e-12)

    def test_batched_sweep_spanning_several_blocks(self, monkeypatch):
        g = build_graph(lattice_configuration(-12, 12, dim=2), 1.5)
        Q = induced_matrix(g, 0.3, 1.0)
        columns = 2 * (ovsbound._DELTA_GRID.size - 1)
        assert Q.csr().nnz * columns > 2 * ovsbound._PAIR_BLOCK_ELEMENTS
        blocked = estimate_L(Q, 0.5, SCALE)
        monkeypatch.setattr(ovsbound, "_PAIR_BLOCK_ELEMENTS", 2 ** 62)
        assert estimate_L(Q, 0.5, SCALE) == blocked

    def test_validate_catches_range_violation(self, graph):
        Q = FiniteRangeMatrix(entries={(0, 10): 1.0}, graph=graph,
                              bound_C=10.0, bound_k=1.0)
        with pytest.raises(IntegrityError):
            Q.validate()

    def test_validate_catches_growth_violation(self, graph):
        Q = FiniteRangeMatrix(entries={(5, 6): 100.0}, graph=graph,
                              bound_C=1.0, bound_k=1.0)
        with pytest.raises(IntegrityError):
            Q.validate()


class TestSeriesSolve:
    def test_matches_matrix_exponential(self, graph):
        rng = np.random.default_rng(2)
        small = build_graph(lattice_configuration(0, 7), 1.5)
        for _ in range(10):
            entries = {}
            for x in range(small.n_sites):
                for y in small.closed_neighborhood(x):
                    entries[(x, y)] = rng.uniform(-1, 1)
            Q = FiniteRangeMatrix(entries=entries, graph=small,
                                  bound_C=1.0, bound_k=0.0)
            z0 = WeightedSeq.from_dense(rng.standard_normal(small.n_sites), small)
            t = rng.uniform(0.1, 1.5)
            got = series_solve(Q, z0, t).to_dense()
            want = expm(t * Q.dense()) @ z0.to_dense()
            assert np.max(np.abs(got - want)) < 1e-10

    def test_t_zero_identity(self, graph):
        Q = induced_matrix(graph, 0.5, 1.0)
        z0 = WeightedSeq({3: 2.0}, graph)
        assert np.array_equal(series_solve(Q, z0, 0.0).to_dense(), z0.to_dense())

    def test_zero_matrix_constant(self, graph):
        Q = FiniteRangeMatrix(entries={}, graph=graph, bound_C=1.0, bound_k=0.0)
        z0 = WeightedSeq({3: 2.0}, graph)
        assert np.array_equal(series_solve(Q, z0, 5.0).to_dense(), z0.to_dense())


class TestComparison:
    def comparison_instance(self, graph, seed, kind):
        rng = np.random.default_rng(seed)
        Q = induced_matrix(graph, rng.uniform(0.05, 0.3), 1.0)
        z = WeightedSeq.from_dense(rng.uniform(0.0, 1.0, graph.n_sites), graph)
        T = 1.0
        times = np.linspace(0, T, 201)
        f = np.stack([series_solve(Q, z, float(t)).to_dense() for t in times], axis=1)
        if kind == "scaled":
            lam = rng.uniform(0.1, 1.0)
            g = lam * f
        else:  # time-dilated
            kappa = rng.uniform(0.1, 1.0)
            g = np.stack([series_solve(Q, z, float(kappa * t)).to_dense()
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
        z = WeightedSeq.from_dense(np.ones(graph.n_sites), graph)
        times = np.linspace(0, 1.0, 50)
        g = 10.0 * np.ones((graph.n_sites, times.size))  # breaks the hypothesis
        rep = comparison_check(Q, times, g, z, 1.0)
        assert not rep.hypothesis_ok and not rep.passed
        assert rep.max_hypothesis_violation > 0

    def test_negative_kernel_rejected(self, graph):
        Q = FiniteRangeMatrix(entries={(0, 1): -1.0}, graph=graph,
                              bound_C=1.0, bound_k=0.0)
        z = WeightedSeq({}, graph)
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
            b = WeightedSeq.from_dense(rng.uniform(0, 1, graph.n_sites), graph)
            alpha, beta, T, q = 0.2, 0.9, 1.0, 0.5
            bound = gronwall_bound(B, k, graph, b, alpha, beta, T, q, scale)
            Q = induced_matrix(graph, B, k)
            sup_norm = max(
                norm_lp(series_solve(Q, b, t), beta, 1.0, scale)
                for t in np.linspace(0, T, 21))
            assert sup_norm <= bound * (1 + 1e-9)

    def test_negative_b_rejected(self, graph):
        b = WeightedSeq({0: -1.0}, graph)
        with pytest.raises(ParameterError):
            gronwall_bound(0.1, 1.0, graph, b, 0.2, 0.9, 1.0, 0.5, SCALE)


def test_matrix_csv_round_trip(tmp_path, graph):
    Q = induced_matrix(graph, 0.25, 1.0)
    p = tmp_path / "q.csv"
    matrix_to_csv(Q, p)
    back = matrix_from_csv(p, graph, bound_C=0.25, bound_k=1.0)
    assert back.entries == Q.entries
    back.validate()
