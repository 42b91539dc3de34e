import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import closed_neighborhood, pair_covariance, sparse_seq
from spindyn import (ChainParams, GibbsModel, ParameterError, Polynomial,
                     SimPlan, WeightedSeq, build_graph,
                     dlr_residual, gradient_dynamics_field,
                     kernel_sample, lattice_configuration, make_model,
                     reversibility_test, sample_window_measure)
from spindyn import gibbs
from spindyn.gibbs import (_autocorr_ess, _battery, _EtaTarget, _mala_run,
                           energy_distance_test)


@pytest.fixture(scope="module")
def chain():
    return build_graph(lattice_configuration(0, 11), 1.5)


@pytest.fixture(scope="module")
def pair_graph():
    return build_graph(lattice_configuration(0, 1), 1.5)


CHAIN = ChainParams(steps=4000, burn_in=800, step_size=0.5, seed=0)
QUARTIC = Polynomial((0.0, 0.0, 0.0, 0.0, 0.25))


class TestModel:
    def test_tau_must_exceed_r(self, chain):
        # One coupling makes r = 2, which a quadratic V (tau = 2) cannot carry.
        w = np.where(chain.entry_rows() == chain.indices, 0.0, 0.5)
        with pytest.raises(ParameterError, match="tau=2, r=2"):
            GibbsModel(graph=chain, weights=w, V=Polynomial((0.0, 0.0, 0.5)))
        assert GibbsModel(graph=chain, weights=w, V=QUARTIC).tau == 4

    def test_coupled_gaussian_chain_rejected(self):
        # I + A has least eigenvalue -0.62: exp(-U) is not integrable.
        g = build_graph(lattice_configuration(0, 5), 1.5)
        with pytest.raises(ParameterError, match="need tau > r, got tau=2, r=2"):
            make_model(g, potential="gaussian", J=0.9)

    @pytest.mark.parametrize("potential, J, lo, hi, rho", [
        ("quartic", 0.9, 0, 5, 1.5), ("quartic", -3.0, 0, 11, 1.5),
        ("quartic", 40.0, 0, 5, 2.5), ("gaussian", 0.0, 0, 11, 1.5),
        # edgeless: a single site, and a chain whose spacing exceeds rho
        ("gaussian", 0.9, 0, 0, 1.0), ("gaussian", -0.9, 0, 5, 0.5)])
    def test_certificate_accepts(self, potential, J, lo, hi, rho):
        g = build_graph(lattice_configuration(lo, hi), rho)
        for coupling_type in ("constant", "tent"):
            make_model(g, potential=potential, J=J, coupling_type=coupling_type)

    def test_lower_bound_checked(self, chain):
        with pytest.raises(ParameterError):
            GibbsModel(graph=chain, weights=np.zeros(chain.indices.size),
                       V=Polynomial((0.0, 0.0, -1.0)))

    def _model(self, graph, weights):
        return GibbsModel(graph=graph, weights=weights, V=QUARTIC)

    def test_weights_stored_read_only(self, chain):
        w = np.where(chain.entry_rows() == chain.indices, 0.0, 0.5)
        m = self._model(chain, w)
        assert m.weights.dtype == np.float64 and not m.weights.flags.writeable
        w[1] = 7.0
        assert m.weights[1] == 0.5

    def test_weights_of_wrong_length_rejected(self, chain):
        e = chain.indices.size
        for bad in (np.zeros(e - 1), np.zeros(e + 1), np.zeros((1, e))):
            with pytest.raises(ParameterError, match="shape"):
                self._model(chain, bad)

    def test_nan_weight_rejected(self, chain):
        # A NaN makes max|a_xy| NaN, which no growth comparison catches.
        w = np.zeros(chain.indices.size)
        w[5] = np.nan
        with pytest.raises(ParameterError, match="entry 5"):
            self._model(chain, w)

    def test_nonzero_self_entry_rejected(self, chain):
        w = np.zeros(chain.indices.size)
        w[chain.indptr[3]] = 0.1
        with pytest.raises(ParameterError, match="site 3"):
            self._model(chain, w)

    def test_asymmetric_weights_rejected(self, pair_graph):
        # CSR rows of the 0..1 chain: (0, 1) and (1, 0); a_01 = 0.3, a_10 = -0.3.
        with pytest.raises(ParameterError, match=r"\(x, y\) = \(0, 1\)"):
            self._model(pair_graph, np.array([0.0, 0.3, 0.0, -0.3]))
        self._model(pair_graph, np.array([0.0, 0.3, 0.0, 0.3]))

    def test_presets_compute_lower_bound(self, chain):
        # V(u) >= a_V |u|^tau - b_V with a_V half the leading coefficient.
        for potential, tau, a_V in (("quartic", 4, 0.125), ("gaussian", 2, 0.25)):
            m = make_model(chain, potential=potential)
            assert (m.tau, m.a_V, m.b_V) == (tau, a_V, 0.0)
        m = GibbsModel(graph=chain, weights=np.zeros(chain.indices.size),
                       V=Polynomial((1.0, 0.0, -3.0, 0.0, 0.5)))
        # sup(u^4 / 4 - V) = sup(3u^2 - 1 - u^4 / 4) = 8, at u^2 = 6
        assert m.b_V >= 8.0 and m.b_V - 8.0 <= 1e-12
        assert m.grad_V == Polynomial((0.0, -6.0, 0.0, 2.0))

    def test_odd_degree_potential_rejected(self, chain):
        for V in ((0.0, 0.0, 0.0, 1.0), (1.0, 2.0), (), (0.0, 0.0, 0.5, 1.0)):
            with pytest.raises(ParameterError, match="even degree"):
                GibbsModel(graph=chain, weights=np.zeros(chain.indices.size),
                           V=Polynomial(V))


def interaction(model, eta, sigma, z):
    """Pair and boundary energy of values sigma on eta with frozen exterior z:
    the conditional energy U less its single-site sum of V."""
    sigma = np.asarray(sigma, dtype=float)
    U, _ = _EtaTarget(model, eta, z.values).energy_grad(sigma)
    return float(U - model.V(sigma).sum())


@pytest.fixture(scope="module")
def tent_lattice():
    g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)  # 25 sites
    return make_model(g, potential="quartic", J=0.15, coupling_type="tent")


class TestLocalEnergy:
    def test_isolated_site_zero(self):
        # a genuinely isolated configuration has no pairs at all
        iso = build_graph(lattice_configuration(0, 0), 1.0)
        m_iso = make_model(iso, potential="gaussian", J=0.4)
        zero = WeightedSeq(np.zeros(iso.n_sites), iso)
        assert interaction(m_iso, {0}, [1.7], zero) == 0.0

    def test_two_site_pair(self, pair_graph):
        m = make_model(pair_graph, potential="quartic", J=0.3)
        zero = WeightedSeq(np.zeros(pair_graph.n_sites), pair_graph)
        e = interaction(m, {0, 1}, [2.0, -1.0], zero)
        assert e == pytest.approx(0.3 * 2.0 * -1.0)

    def test_boundary_terms(self, chain):
        m = make_model(chain, potential="quartic", J=0.25)
        z = sparse_seq(chain, {2: 3.0})  # exterior neighbour of site 1
        e = interaction(m, {0, 1}, [1.0, 2.0], z)
        # interior pair (0,1): 0.25*1*2; boundary pair (1,2): 0.25*2*3
        assert e == pytest.approx(0.25 * 2.0 + 0.25 * 6.0)

    def test_matches_brute_force_oracle(self):
        g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)  # 25 sites
        m = make_model(g, potential="quartic", J=0.15, coupling_type="tent")
        rng = np.random.default_rng(5)
        pos = g.config.positions
        for _ in range(10):
            eta = sorted(rng.choice(g.n_sites, size=8, replace=False).tolist())
            sig = rng.standard_normal(len(eta))
            zd = rng.standard_normal(g.n_sites)
            z = WeightedSeq(zd, g)
            # brute force over all ordered pairs
            val = dict(zip(eta, sig))
            total = 0.0
            for i, x in enumerate(eta):
                for y in range(g.n_sites):
                    if y == x:
                        continue
                    d = np.linalg.norm(pos[x] - pos[y])
                    a = 0.15 * max(0.0, 1.0 - d / g.rho)
                    if y in val:
                        if x < y:
                            total += a * sig[i] * val[y]
                    else:
                        total += a * sig[i] * zd[y]
            assert interaction(m, eta, sig, z) == pytest.approx(total, abs=1e-12)

    def test_relabel_symmetry(self, pair_graph):
        m = make_model(pair_graph, potential="quartic", J=0.3)
        z = WeightedSeq(np.zeros(pair_graph.n_sites), pair_graph)
        assert interaction(m, [0, 1], [1.0, 2.0], z) == \
            interaction(m, [1, 0], [1.0, 2.0], z)


    def test_eta_target_matches_pair_loop(self):
        # The conditional target's coupling matrix and boundary constants
        # against a per-pair reference loop; each entry is computed with the
        # same arithmetic in the same order, so they agree exactly.
        g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)
        m = make_model(g, potential="quartic", J=0.15, coupling_type="tent")
        pos = g.config.positions
        rng = np.random.default_rng(3)
        for _ in range(5):
            eta = sorted(rng.choice(g.n_sites, size=9, replace=False).tolist())
            z = rng.standard_normal((4, g.n_sites))
            K = np.zeros((len(eta), len(eta)))
            bconst = np.zeros((4, len(eta)))
            for i, x in enumerate(eta):
                for y in closed_neighborhood(g, x)[1:]:
                    d = np.linalg.norm(pos[x] - pos[y])
                    w = 0.15 * max(0.0, 1.0 - d / g.rho)
                    if w == 0.0:
                        continue
                    if y in eta:
                        K[i, eta.index(y)] = w
                    else:
                        bconst[:, i] += w * z[:, y]
            target = _EtaTarget(m, eta, z)
            assert np.array_equal(target.K, K)
            assert np.array_equal(target.bconst, bconst)
            # One boundary, as kernel_sample passes it: no chain axis.
            target = _EtaTarget(m, eta, z[0])
            assert target.bconst.shape == (len(eta),)
            assert np.array_equal(target.bconst, bconst[0])

    def test_repeated_eta_site_rejected(self, chain):
        m = make_model(chain, potential="quartic", J=0.2)
        with pytest.raises(ParameterError, match="site 4"):
            _EtaTarget(m, [3, 4, 4], np.zeros(chain.n_sites))

    def test_gradient_is_derivative_of_energy(self, tent_lattice):
        m = tent_lattice
        rng = np.random.default_rng(11)
        eta = sorted(rng.choice(m.graph.n_sites, size=9, replace=False).tolist())
        target = _EtaTarget(m, eta, rng.standard_normal((3, m.graph.n_sites)))
        s = rng.standard_normal((3, len(eta)))
        _, G = target.energy_grad(s)
        eps = 1e-5
        for i in range(len(eta)):
            e = np.zeros(len(eta))
            e[i] = eps
            up, _ = target.energy_grad(s + e)
            down, _ = target.energy_grad(s - e)
            assert np.allclose(G[:, i], (up - down) / (2 * eps), rtol=0, atol=1e-6)


def _reference_energy(target, s):
    return (np.sum(target.model.V(s), axis=-1)
            + (0.5 * np.sum(s * (s @ target.K), axis=-1)
               + np.sum(target.bconst * s, axis=-1)))


def _reference_grad(target, s):
    return target.model.grad_V(s) + s @ target.K + target.bconst


def _mala_reference(target, init, chain, collect, takes=None):
    """MALA as first written: the gradient of the current state recomputed
    every step, the energy and gradient each from their own s @ K.  Each
    step's accept count is appended to ``takes``, if given."""
    rng = np.random.default_rng(chain.seed)
    s = np.asarray(init, dtype=float).copy()
    n_chains = s.shape[0]
    h = chain.step_size
    U = _reference_energy(target, s)
    acc_recent, accepted, proposed, out = [], 0, 0, []
    for step in range(chain.burn_in + (chain.steps if collect else 1)):
        mu = s - 0.5 * h * _reference_grad(target, s)
        prop = mu + np.sqrt(h) * rng.standard_normal(s.shape)
        U_prop = _reference_energy(target, prop)
        mu_back = prop - 0.5 * h * _reference_grad(target, prop)
        log_q_fwd = -np.sum((prop - mu) ** 2, axis=-1) / (2 * h)
        log_q_back = -np.sum((s - mu_back) ** 2, axis=-1) / (2 * h)
        take = np.log(rng.uniform(size=n_chains)) < U - U_prop + log_q_back - log_q_fwd
        s[take] = prop[take]
        U[take] = U_prop[take]
        if takes is not None:
            takes.append(int(np.sum(take)))
        if step < chain.burn_in:
            acc_recent.append(float(np.mean(take)))
            if len(acc_recent) >= 25:
                avg = float(np.mean(acc_recent))
                if avg > 0.7:
                    h *= 1.3
                elif avg < 0.5:
                    h /= 1.3
                acc_recent = []
        else:
            accepted += int(np.sum(take))
            proposed += n_chains
            if collect:
                out.append(s.copy())
    states = np.concatenate(out, axis=0) if collect else s
    return states, accepted / max(1, proposed), h


class TestMalaStepRule:
    @pytest.mark.parametrize("n_chains", [1, 7])
    @pytest.mark.parametrize("collect", [True, False])
    def test_matches_recomputing_reference(self, tent_lattice, n_chains, collect):
        # Keeping the current state's energy and gradient changes no byte.
        m = tent_lattice
        rng = np.random.default_rng(20 + n_chains)
        eta = sorted(rng.choice(m.graph.n_sites, size=9, replace=False).tolist())
        z = rng.standard_normal((n_chains, m.graph.n_sites))
        target = _EtaTarget(m, eta, z[0] if n_chains == 1 else z)
        init = rng.standard_normal((n_chains, len(eta)))
        chain_p = ChainParams(steps=300, burn_in=200, step_size=0.8, seed=n_chains)
        states, rate, h = _mala_run(target, init, chain_p, collect)
        want, want_rate, want_h = _mala_reference(target, init, chain_p, collect)
        assert states.shape == want.shape
        assert np.array_equal(states, want)
        assert rate == want_rate and h == want_h
        assert h != chain_p.step_size  # burn-in tuned the step
        assert 0 < rate < 1 or not collect  # kept steps both accept and reject

    @pytest.mark.parametrize("potential", ["quartic", "gaussian"])
    @pytest.mark.parametrize("n_chains", [1, 7, 100])
    @pytest.mark.parametrize("step_size, steps_seen", [
        (1e-6, "all accept"), (0.8, "mixed"), (1e3, "none accept")])
    def test_fused_step_matches_reference(self, n_chains, potential, step_size,
                                          steps_seen):
        # Tiny steps make every chain accept, huge ones every chain reject:
        # the all-accept row swap, the masked copies and the no-op path.
        # Under gaussian V, V'(s) = s, which no in-place update may write.
        g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)
        m = make_model(g, potential=potential, J=0.15 * (potential == "quartic"),
                       coupling_type="tent")
        rng = np.random.default_rng(n_chains)
        eta = sorted(rng.choice(g.n_sites, size=9, replace=False).tolist())
        target = _EtaTarget(m, eta, rng.standard_normal((n_chains, g.n_sites)))
        init = rng.standard_normal((n_chains, len(eta)))
        given = init.copy()
        chain_p = ChainParams(steps=60, burn_in=50, step_size=step_size, seed=5)
        for collect in (True, False):
            takes = []
            states, rate, h = _mala_run(target, init, chain_p, collect)
            want, want_rate, want_h = _mala_reference(target, init, chain_p, collect,
                                                      takes)
            assert np.array_equal(init, given)
            assert states.shape == want.shape and states.tobytes() == want.tobytes()
            assert rate == want_rate and h == want_h
            seen = {"all accept": n_chains in takes, "none accept": 0 in takes,
                    "mixed": len(set(takes)) > 1}
            assert seen[steps_seen], takes

    @pytest.mark.parametrize("potential", ["quartic", "gaussian"])
    @pytest.mark.parametrize("shape", [(9,), (1, 9), (7, 9)])
    def test_energy_grad_matches_reference_and_keeps_its_input(self, potential, shape):
        g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)
        m = make_model(g, potential=potential, J=0.15 * (potential == "quartic"),
                       coupling_type="tent")
        rng = np.random.default_rng(len(shape))
        eta = sorted(rng.choice(g.n_sites, size=9, replace=False).tolist())
        target = _EtaTarget(m, eta, rng.standard_normal(shape[:-1] + (g.n_sites,)))
        s = rng.standard_normal(shape)
        s[..., 0] = -0.0
        given = s.copy()
        U, G = target.energy_grad(s)
        assert s.tobytes() == given.tobytes()
        assert G is not s and not np.shares_memory(G, s)
        assert np.asarray(U).tobytes() == np.asarray(_reference_energy(target, s)).tobytes()
        assert G.tobytes() == _reference_grad(target, s).tobytes()


def _autocorr_ess_reference(series):
    """The initial-positive-sequence ESS from the full np.correlate."""
    n = series.size
    if n < 4:
        return float(n)
    x = series - series.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return float(n)
    acf = np.correlate(x, x, mode="full")[n - 1:] / (n * var)
    s = 0.0
    for lag in range(1, min(n, 1000)):
        if acf[lag] <= 0:
            break
        s += acf[lag]
    return float(n / (1.0 + 2.0 * s))


class TestAutocorrEss:
    @pytest.mark.parametrize("n", [4, 5, 17, 250, 999, 1000, 1001, 6000])
    def test_ar1_matches_full_correlation(self, n):
        e = np.random.default_rng(n).standard_normal(n)
        for phi in (0.0, 0.5, 0.95, -0.6):
            x = np.empty(n)
            x[0] = e[0]
            for i in range(1, n):
                x[i] = phi * x[i - 1] + e[i]
            assert _autocorr_ess(x) == _autocorr_ess_reference(x)

    def test_constant_series(self):
        x = np.full(50, 2.5)
        assert _autocorr_ess(x) == _autocorr_ess_reference(x) == 50.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_short_series(self, n):
        x = np.arange(n, dtype=float)
        assert _autocorr_ess(x) == _autocorr_ess_reference(x) == float(n)

    def test_lag_cap(self):
        # A random walk's sample ACF stays positive past lag 999, so the
        # sum stops at the cap, not at a non-positive lag.
        x = np.cumsum(np.random.default_rng(2).standard_normal(5000))
        c = x - x.mean()
        assert np.all(np.correlate(c, c, mode="full")[5000:5999] > 0)
        assert _autocorr_ess(x) == _autocorr_ess_reference(x)


class TestPairCovarianceOracle:
    def test_uncoupled_quartic_moment(self):
        # E u^2 = 2 Gamma(3/4) / Gamma(1/4) under exp(-u^4 / 4).
        cov = pair_covariance(QUARTIC, 0.0)
        want = 2 * math.gamma(0.75) / math.gamma(0.25)
        assert cov[0, 0] == pytest.approx(want, rel=1e-12)
        assert cov[1, 1] == pytest.approx(want, rel=1e-12)
        assert abs(cov[0, 1]) <= 1e-15

    def test_coupled_gaussian_inverse_precision(self):
        # exp(-(u^2 + v^2) / 2 - J u v) is the normal law with precision
        # [[1, J], [J, 1]]; integrable, though GibbsModel takes no such model.
        # Its tails beyond |u| = 7 hold about 1e-9 of the mass.
        J = 0.4
        want = np.linalg.inv(np.array([[1.0, J], [J, 1.0]]))
        assert np.allclose(pair_covariance(Polynomial((0.0, 0.0, 0.5)), J), want,
                           rtol=0, atol=1e-7)


class TestKernelSample:
    def test_single_site_standard_normal(self):
        g = build_graph(lattice_configuration(0, 0), 1.0)
        m = make_model(g, potential="gaussian")
        s = kernel_sample(m, {0}, WeightedSeq(np.zeros(g.n_sites), g), CHAIN)
        n_eff = max(s.ess, 10.0)
        assert abs(s.samples.mean()) <= 3.0 / np.sqrt(n_eff)
        # the variance estimate decorrelates at the rate of the squared series
        n_eff_sq = max(_autocorr_ess(s.samples[:, 0] ** 2), 10.0)
        assert abs(s.samples.var(ddof=1) - 1.0) <= 3.0 * np.sqrt(2.0 / n_eff_sq)
        assert 0.3 < s.acceptance_rate < 0.95
        assert s.warnings == ()

    def test_two_site_quartic_covariance(self, pair_graph):
        J = 0.4
        m = make_model(pair_graph, potential="quartic", J=J)
        zero = WeightedSeq(np.zeros(pair_graph.n_sites), pair_graph)
        s = kernel_sample(m, {0, 1}, zero,
                          ChainParams(steps=8000, burn_in=1000, seed=3))
        cov = np.cov(s.samples.T)
        want = pair_covariance(m.V, J)
        n_eff = max(s.ess, 10.0)
        tol = 3.0 * np.sqrt(2.0 / n_eff) * np.max(np.abs(want))
        assert np.max(np.abs(cov - want)) <= tol

    def test_constant_shift_invariance(self):
        g = build_graph(lattice_configuration(0, 0), 1.0)
        base = make_model(g, potential="gaussian")
        shifted = GibbsModel(graph=g, weights=np.zeros(g.indices.size),
                             V=Polynomial((17.0, 0.0, 0.5)))
        s1 = kernel_sample(base, {0}, WeightedSeq(np.zeros(g.n_sites), g), CHAIN)
        s2 = kernel_sample(shifted, {0}, WeightedSeq(np.zeros(g.n_sites), g), CHAIN)
        n_eff = max(min(s1.ess, s2.ess), 10.0)
        assert abs(s1.samples.var() - s2.samples.var()) \
            <= 3 * 2 * np.sqrt(2.0 / n_eff)

    @pytest.mark.parametrize("eta, match", [
        ([-1], "eta site -1 "),  # once sampled site 5
        ([0, -6], "eta site -6 "),  # once sampled site 0 as two coordinates
        ([6], "eta site 6 "),  # once an IndexError
        ([2.5], "eta site 2.5 "),  # once sampled site 2
        ([True], "eta site True ")])
    def test_bad_eta_rejected(self, eta, match):
        g = build_graph(lattice_configuration(0, 5), 1.5)
        m = make_model(g, potential="quartic", J=0.2)
        with pytest.raises(ParameterError, match=match):
            kernel_sample(m, eta, WeightedSeq(np.zeros(g.n_sites), g), CHAIN)

    def test_empty_eta(self, chain):
        m = make_model(chain, potential="gaussian")
        s = kernel_sample(m, set(), WeightedSeq(np.zeros(chain.n_sites), chain),
                          CHAIN)
        assert s.samples.shape == (0, 0)

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed; the chain names it first.
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            ChainParams(steps=10, burn_in=10, seed=-1)
        assert ChainParams(steps=10, burn_in=10, seed=0).seed == 0


class TestDlr:
    def test_empty_eta_identity(self, chain):
        m = make_model(chain, potential="quartic", J=0.2)
        rep = dlr_residual(m, set(), CHAIN, outer_samples=10)
        assert rep.statistic == 0.0 and rep.p_value == 1.0

    def test_outer_samples_must_be_positive(self, chain):
        m = make_model(chain, potential="quartic")
        for eta in ({2, 3}, set()):
            with pytest.raises(ParameterError, match="outer_samples must be >= 1, got 0"):
                dlr_residual(m, eta, CHAIN, outer_samples=0)

    def test_quartic_model_consistent(self, chain):
        m = make_model(chain, potential="quartic", J=0.2)
        chain_p = ChainParams(steps=200, burn_in=600, step_size=0.5, seed=4)
        rep = dlr_residual(m, {4, 5, 6}, chain_p, outer_samples=60, n_perms=500)
        assert rep.p_value > 0.01

    def test_battery_matches_pair_loop(self):
        # The eta values, then a_xy s_x z_y for every x in eta and neighbour
        # y outside it, x ascending and y ascending within x: the same
        # products in the same order as a per-pair loop, so they agree exactly.
        g = build_graph(lattice_configuration(-2, 2, dim=2), 1.5)
        m = make_model(g, potential="quartic", J=0.15, coupling_type="tent")
        pos = g.config.positions
        rng = np.random.default_rng(7)
        for _ in range(5):
            eta = sorted(rng.choice(g.n_sites, size=6, replace=False).tolist())
            z = rng.standard_normal((4, g.n_sites))
            sig = rng.standard_normal((4, len(eta)))
            cols = list(sig.T)
            for i, x in enumerate(eta):
                for y in closed_neighborhood(g, x)[1:]:
                    if y not in eta:
                        d = np.linalg.norm(pos[x] - pos[y])
                        w = 0.15 * max(0.0, 1.0 - d / g.rho)
                        cols.append(w * sig[:, i] * z[:, y])
            assert len(cols) > len(eta)
            assert np.array_equal(_battery(m, eta, sig, z), np.column_stack(cols))

    def test_wrong_kernel_detected(self, chain):
        # dlr_residual's steps, with the resampling kernel's coupling swapped:
        # J = 1.2 on eta = {4, 5, 6} against outer states of J = 0.4 shifts
        # the battery; the true J leaves it in law.
        m = make_model(chain, potential="quartic", J=0.4)
        eta = [4, 5, 6]
        for seed in range(3):
            chain_p = ChainParams(steps=200, burn_in=600, seed=seed)
            outer = sample_window_measure(m, 80, chain_p)
            p_values = []
            for J in (1.2, 0.4):
                target = _EtaTarget(make_model(chain, potential="quartic", J=J), eta, outer)
                resampled, _, _ = _mala_run(target, outer[:, eta].copy(),
                                            replace(chain_p, seed=seed + 1), collect=False)
                _, p = energy_distance_test(_battery(m, eta, outer[:, eta], outer),
                                            _battery(m, eta, resampled, outer),
                                            n_perms=300, seed=seed + 2)
                p_values.append(p)
            assert p_values[0] < 0.01 < p_values[1], (seed, p_values)

    @pytest.mark.parametrize("eta, match", [([7], "eta site 7 "), ([-1], "eta site -1 "),
                                            ([2.0], "eta site 2.0 "),
                                            ([3, 1, 3], "eta lists site 3 twice")])
    def test_bad_eta_rejected_before_sampling(self, monkeypatch, eta, match):
        def no_sampling(*args):
            raise AssertionError("outer samples drawn")

        monkeypatch.setattr(gibbs, "sample_window_measure", no_sampling)
        m = make_model(build_graph(lattice_configuration(0, 5), 1.5), potential="quartic",
                       J=0.2)
        with pytest.raises(ParameterError, match=match):
            dlr_residual(m, eta, CHAIN, outer_samples=10)


def _energy_distance_loop(A, B, n_perms, seed):
    """The permutation test scored one split at a time."""
    n, m = len(A), len(B)
    pooled = np.vstack([A, B])
    D = cdist(pooled, pooled)

    def stat(a, b):
        return (2 * D[np.ix_(a, b)].mean() - D[np.ix_(a, a)].mean()
                - D[np.ix_(b, b)].mean())

    observed = stat(np.arange(n), np.arange(n, n + m))
    rng = np.random.default_rng(seed)
    hits = sum(stat(p[:n], p[n:]) >= observed
               for p in (rng.permutation(n + m) for _ in range(n_perms)))
    return observed, (1 + hits) / (1 + n_perms)


@pytest.mark.parametrize("seed", range(5))
def test_energy_distance_matches_split_by_split_loop(seed):
    # Unequal sample sizes; the scale gap grows with the seed, so the
    # p-values run from mid-range to the smallest possible.
    rng = np.random.default_rng(100 + seed)
    A = rng.standard_normal((60, 4))
    B = (1.0 + 0.15 * seed) * rng.standard_normal((45, 4))
    stat, p = energy_distance_test(A, B, n_perms=400, seed=seed)
    want_stat, want_p = _energy_distance_loop(A, B, 400, seed)
    assert p == want_p
    assert stat == pytest.approx(want_stat, rel=1e-12)


@pytest.mark.parametrize("cols", [1, 2, 3, 7, 8, 9, 16, 29, 30])
def test_energy_distance_equals_cdist_based_test(cols, monkeypatch):
    # From 8 columns on, numpy's pairwise summation would reorder a naive
    # ``.sum(axis=-1)`` of the squares; cdist adds them column by column.
    rng = np.random.default_rng(300 + cols)
    A = rng.standard_normal((50, cols))
    B = 1.2 * rng.standard_normal((40, cols))
    pooled = np.vstack([A, B])
    assert np.array_equal(gibbs._distance_matrix(pooled), cdist(pooled, pooled))
    got = energy_distance_test(A, B, n_perms=200, seed=cols)
    monkeypatch.setattr(gibbs, "_distance_matrix", lambda pts: cdist(pts, pts))
    assert energy_distance_test(A, B, n_perms=200, seed=cols) == got
    assert got[1] == _energy_distance_loop(A, B, 200, cols)[1]


class TestGradientDynamics:
    def test_quartic_decoupled_drift(self, chain):
        m = make_model(chain, potential="quartic", J=0.0)
        field = gradient_dynamics_field(m)
        s = np.linspace(-2, 2, 9)
        assert np.allclose(field.drift.phi(s), -s ** 3 / 2)
        assert field.drift.phi.growth()[1] == 3.0 and field.drift.b == 0.0

    def test_drift_descends_potential(self, chain):
        m = make_model(chain, potential="quartic")
        field = gradient_dynamics_field(m)
        s = np.array([-1.5, -0.1, 0.1, 1.5])
        # drift sign opposite to V' = s^3
        assert np.all(field.drift.phi(s) * s ** 3 <= 0)

    def test_pair_drift_sign(self, pair_graph):
        J = 0.3
        m = make_model(pair_graph, potential="quartic", J=J)
        field = gradient_dynamics_field(m)
        state = np.array([0.0, 2.0])
        # Phi_0 = -V'(0)/2 - J/2 * z_1 = -0.3
        assert field.drift_all(state)[0] == pytest.approx(-J / 2 * 2.0)

    def test_drift_certificate_computed_from_V(self, chain):
        # phi = -V'/2 = -u^7/2 + u: growth exponent 7, b = sup(1 - 7u^6/2) = 1.
        m = GibbsModel(graph=chain, weights=np.zeros(chain.indices.size),
                       V=Polynomial((0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.125)))
        drift = gradient_dynamics_field(m).drift
        assert drift.phi == Polynomial((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5))
        assert drift.phi.growth() == (1.5, 7.0)
        assert drift.b >= 1.0 and drift.b - 1.0 <= 1e-12

    def test_ou_stationary_variance(self):
        # Gaussian single-site model: dynamics is OU with rate 1/2 and unit
        # noise, stationary variance 1 = variance of exp(-V).
        g = build_graph(lattice_configuration(0, 0), 1.0)
        m = make_model(g, potential="gaussian")
        field = gradient_dynamics_field(m)
        from spindyn import moment_p, radial_volumes, run_nested
        plan = SimPlan(dt=0.01, T=6.0, replicas=1500, master_seed=4)
        paths = run_nested(field, radial_volumes(g, []),
                           np.zeros((plan.replicas, g.n_sites)), plan)
        mean, se = moment_p(paths[:, 0, :, -1:], plan.p)
        assert abs(mean[0, 0] - 1.0) <= 3 * se[0, 0] + 0.02


class TestReversibility:
    def test_t_zero_exact(self, chain):
        m = make_model(chain, potential="quartic", J=0.1)
        plan = SimPlan(dt=0.01, T=0.5, replicas=200, master_seed=0, p=3.0)
        f = lambda z: np.tanh(z[2])
        g_ = lambda z: np.tanh(z[9])
        lhs, rhs, se = reversibility_test(m, f, g_, 0.0, plan, CHAIN)
        assert lhs == rhs and se == 0.0
        # at t = 0 both sides are the mean of f g over the window-measure draws
        zeta = sample_window_measure(m, plan.replicas, CHAIN)
        assert lhs == np.mean([f(z) * g_(z) for z in zeta])

    def test_single_site_quartic(self):
        g = build_graph(lattice_configuration(0, 0), 1.0)
        m = make_model(g, potential="quartic")
        plan = SimPlan(dt=0.01, T=0.5, replicas=3000, master_seed=1, p=3.0)
        f = lambda z: np.tanh(z[0])
        lhs, rhs, se = reversibility_test(
            m, f, f, 0.5, plan, ChainParams(steps=1, burn_in=600, seed=2))
        assert abs(lhs - rhs) <= 3 * se


def test_window_measure_gaussian_marginal(chain):
    m = make_model(chain, potential="gaussian", J=0.0)
    z = sample_window_measure(m, 2000, ChainParams(steps=1, burn_in=600, seed=5))
    assert z.shape == (2000, chain.n_sites)
    assert abs(z.mean()) < 0.1
    assert abs(z.var() - 1.0) < 0.1
