import numpy as np
import pytest
from scipy.linalg import expm

from spindyn import (FiniteRangeMatrix, IntegrityError, NumericError,
                     ParameterError, ScaleInterval, WeightedSeq, build_graph,
                     comparison_check, estimate_L, gronwall_bound,
                     induced_matrix, k_series, lattice_configuration,
                     matrix_from_csv, matrix_to_csv, norm_lp, sample_poisson,
                     series_solve, verify_ovs_bound)

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


class TestCertification:
    def test_estimate_then_verify(self, graph):
        Q = induced_matrix(graph, 0.3, 1.0)
        L = estimate_L(Q, 0.5, trials=200, seed=0, scale=SCALE)
        cert = verify_ovs_bound(Q, 0.5, L, trials=2000, seed=1, scale=SCALE)
        assert cert.valid
        assert cert.max_ratio <= L

    def test_zero_matrix(self, graph):
        Q = FiniteRangeMatrix(entries={}, graph=graph, bound_C=1.0, bound_k=0.0)
        assert estimate_L(Q, 0.5, trials=10, seed=0, scale=SCALE) == 0.0

    def test_diagonal_matrix_exact_constant(self, graph):
        # Q = c I: ratio is c (beta-alpha)^q e^{(alpha-beta)|x|}, sup at the
        # origin site and the widest pair.
        c = 2.0
        entries = {(x, x): c for x in range(graph.n_sites)}
        Q = FiniteRangeMatrix(entries=entries, graph=graph, bound_C=c, bound_k=0.0)
        L = estimate_L(Q, 0.5, trials=0, seed=0, scale=SCALE)
        exact = c * SCALE.width ** 0.5  # attained at alpha_star, alpha_top, x=0
        assert L == pytest.approx(1.1 * exact, rel=1e-9)

    @staticmethod
    def per_pair_L(Q, q, trials, seed, scale):
        """Reference sweep: one sparse column-sum evaluation per (alpha, beta)."""
        from spindyn.ovsbound import _sample_pair
        radii = Q.graph.radii()
        abs_csr = abs(Q.csr())
        rng = np.random.default_rng(seed)
        grid = np.linspace(scale.alpha_star, scale.alpha_top, 25)
        pairs = [(float(a), float(b)) for i, a in enumerate(grid)
                 for b in grid[i + 1:]]
        pairs += [_sample_pair(rng, scale) for _ in range(trials)]
        best = 0.0
        for a, b in pairs:
            col = abs_csr.T @ np.exp(-b * radii)
            best = max(best, (b - a) ** q * np.max(col * np.exp(a * radii)))
        return 1.1 * best

    def test_batched_sweep_matches_per_pair_reference(self):
        for seed in range(6):
            config = sample_poisson(1.5, np.array([[-5.0, 5.0], [-5.0, 5.0]]), seed)
            Q = induced_matrix(build_graph(config, 1.2), 0.2, 1.0)
            scale = ScaleInterval(0.05, 0.9)
            got = estimate_L(Q, 0.4, trials=300, seed=seed, scale=scale)
            want = self.per_pair_L(Q, 0.4, 300, seed, scale)
            assert got == pytest.approx(want, rel=1e-12)

    def test_batched_sweep_spanning_several_blocks(self):
        from spindyn.ovsbound import _PAIR_BLOCK_ELEMENTS
        trials = 500
        n_pairs = 300 + trials  # 25-point grid pairs plus the random draws
        half = int(np.sqrt(_PAIR_BLOCK_ELEMENTS / n_pairs)) // 2 + 3
        g = build_graph(lattice_configuration(-half, half, dim=2), 1.5)
        assert g.n_sites * n_pairs > _PAIR_BLOCK_ELEMENTS
        Q = induced_matrix(g, 0.3, 1.0)
        got = estimate_L(Q, 0.5, trials=trials, seed=3, scale=SCALE)
        assert got == pytest.approx(self.per_pair_L(Q, 0.5, trials, 3, SCALE),
                                    rel=1e-12)

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

    def test_certificate_json_round_trip(self, graph):
        import json
        Q = induced_matrix(graph, 0.1, 0.5)
        L = estimate_L(Q, 0.3, trials=50, seed=5, scale=SCALE)
        cert = verify_ovs_bound(Q, 0.3, L, trials=100, seed=6, scale=SCALE)
        data = json.loads(cert.to_json())
        assert data["valid"] is True
        assert data["L"] == cert.L


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
        for seed in range(5):
            B, k = rng.uniform(0.05, 0.3), 1.0
            b = WeightedSeq.from_dense(rng.uniform(0, 1, graph.n_sites), graph)
            alpha, beta, T, q = 0.2, 0.9, 1.0, 0.5
            bound = gronwall_bound(B, k, graph, b, alpha, beta, T, q, scale,
                                   trials=100, seed=seed)
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
