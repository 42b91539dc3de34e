"""End-to-end acceptance checks, one test per certified behaviour.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the stated tolerance.
"""

import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import spindyn as sd
from helpers import normal_init, one_path, pair_covariance, tagged_path
from spindyn import (ChainParams, ScaleInterval,
                     SimPlan, WeightedSeq, build_graph, cauchy_gap,
                     comparison_check, dlr_residual, estimate_L,
                     gronwall_bound, induced_matrix, k_series, kernel_sample,
                     lattice_configuration, make_field, make_model, moment_p,
                     nested_gap_sums, norm_l1, radial_volumes,
                     reversibility_test, run_nested,
                     sample_poisson, series_solve)


def report(num, name, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def kt_oracle(L, T, q, width, terms=500):
    import mpmath as mp
    with mp.workdps(200):
        total = mp.mpf(1)
        for n in range(1, terms):
            term = (mp.mpf(L) * T) ** n * mp.mpf(width) ** (-q * n) \
                * mp.mpf(n) ** (q * n) / mp.factorial(n)
            total += term
            if n > 5 and term < mp.mpf(10) ** -60 * total:
                break
        return float(total)


def test_01_growth_series_closed_forms():
    ok = k_series(0.0, 1.0, 0.5, 0.0, 0.3) == 1.0
    ok &= abs(k_series(1.0, 1.0, 0.0, 0.0, 0.7) - np.e) <= 1e-12
    rng = np.random.default_rng(10)
    for _ in range(20):
        L = rng.uniform(0.1, 1.5)
        T = rng.uniform(0.1, 1.5)
        q = rng.uniform(0.05, 0.6)
        width = rng.uniform(0.5, 1.5)
        got = k_series(L, T, q, 0.0, width)
        want = kt_oracle(L, T, q, width)
        ok &= abs(got - want) <= 1e-10 * abs(want)
    report(1, "K_T series closed forms vs 200-digit oracle", ok)


def sampled_max_ratio(Q, graph, q, scale, trials, seed):
    """Largest (beta-alpha)^q ||Qz||_beta / ||z||_alpha over random pairs
    alpha < beta of the scale and random normal vectors z."""
    rng = np.random.default_rng(seed)
    radii = graph.radii()
    a, b = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, (2, trials)),
                   axis=0)
    z = rng.standard_normal((graph.n_sites, trials))
    num = np.sum(np.exp(-np.outer(radii, b)) * np.abs(Q @ z), axis=0)
    den = np.sum(np.exp(-np.outer(radii, a)) * np.abs(z), axis=0)
    return float(np.max((b - a) ** q * num / den))


def test_02_operator_bound_certification():
    scale = ScaleInterval(0.1, 1.0)
    rng = np.random.default_rng(20)
    ok = True
    for trial in range(25):
        cfg = sample_poisson(1.0, np.array([[-25.0, 25.0]]), seed=trial)
        while cfg.n_sites < 10:
            cfg = sample_poisson(1.0, np.array([[-25.0, 25.0]]),
                                 seed=1000 + trial)
        g = build_graph(cfg, rng.uniform(1.0, 3.0))
        C = rng.uniform(0.5, 3.0)
        k = rng.uniform(0.0, 2.0)
        q = rng.uniform(0.2, 0.8)
        cap = (C * g.nbar_count.astype(float) ** k)[g.entry_rows()]
        Q = g.operator(rng.uniform(-cap, cap))
        L = estimate_L(Q, g, q, scale)
        ok &= np.isfinite(L) and sampled_max_ratio(Q, g, q, scale, 10 ** 4,
                                                   trial + 1) <= L
    report(2, "computed operator bound, zero violations on fresh trials", ok)


def test_03_series_solution_vs_matrix_exponential():
    rng = np.random.default_rng(30)
    ok = True
    for trial in range(10):
        n = int(rng.integers(2, 9))
        g = build_graph(lattice_configuration(0, n - 1), float(rng.uniform(1.0, 3.0)))
        Q = g.operator(rng.uniform(-1.5, 1.5, g.indices.size))
        z0 = WeightedSeq(rng.standard_normal(n), g)
        t = rng.uniform(0.1, 2.0)
        got = series_solve(Q, z0, t).values
        want = expm(t * Q.toarray()) @ z0.values
        ok &= np.max(np.abs(got - want)) <= 1e-10
    report(3, "series solution matches dense matrix exponential", ok)


def test_04_comparison_and_gronwall():
    g = build_graph(lattice_configuration(-10, 10), 1.5)
    scale = ScaleInterval(0.1, 1.0)
    alpha, beta, T, q = 0.3, 0.9, 1.0, 0.5
    rng = np.random.default_rng(40)
    times = np.linspace(0.0, T, 101)
    ok = True
    for trial in range(50):
        B = rng.uniform(0.02, 0.2)
        Q = induced_matrix(g, B, 1.0)
        z = WeightedSeq(rng.uniform(0.0, 1.0, g.n_sites), g)
        f = np.stack([series_solve(Q, z, float(t)).values for t in times],
                     axis=1)
        if trial % 2 == 0:
            gvals = rng.uniform(0.1, 1.0) * f
        else:
            kappa = rng.uniform(0.1, 1.0)
            gvals = np.stack([series_solve(Q, z, float(kappa * t)).values
                              for t in times], axis=1)
        rep = comparison_check(Q, times, gvals, z, T)
        ok &= rep.hypothesis_ok and rep.bound_ok
        bound = gronwall_bound(B, 1.0, g, [z], alpha, [beta], T, q, scale)[0, 0]
        gw = WeightedSeq(np.abs(gvals).max(axis=1), g)
        sup_norm = norm_l1(gw, beta, scale)
        ok &= sup_norm <= bound * (1 + 1e-12)
    report(4, "comparison inequality and weighted-sup bound, 50 instances", ok)


def test_05_sde_engine_correctness():
    single = build_graph(lattice_configuration(0, 0), 1.0)
    field = make_field(single, drift="linear", noise="additive")
    plan = SimPlan(dt=1e-3, T=2.0, replicas=10 ** 4, master_seed=5)
    paths = run_nested(field, radial_volumes(single, []),
                       np.zeros((plan.replicas, single.n_sites)), plan)
    mean, se = moment_p(paths[:, 0, :, -1:], plan.p)
    target = (1 - np.exp(-4.0)) / 2
    ok = abs(mean[0, 0] - target) <= 3 * se[0, 0]

    # deterministic mode vs ODE oracle
    chain = build_graph(lattice_configuration(-4, 4), 1.5)
    dfield = make_field(chain, drift="cubic", coupling="linear_pair", J=0.1,
                        noise="linear_noise", M_tilde=0.0)
    dt = 0.01
    dplan = SimPlan(dt=dt, T=1.0, master_seed=0, p=4.0)
    init = np.linspace(-1.0, 1.0, chain.n_sites)[None]
    traj = one_path(dfield, np.ones(chain.n_sites, dtype=bool), init, dplan)
    sol = solve_ivp(lambda t, y: dfield.drift_all(y), (0, 1.0),
                    init[0], rtol=1e-10, atol=1e-12, t_eval=[1.0])
    ok &= np.max(np.abs(traj[:, -1] - sol.y[:, 0])) <= 5 * dt
    report(5, "Ornstein-Uhlenbeck moment and deterministic ODE oracle", ok)


def _truncation_setup(seed, replicas=96):
    g = build_graph(lattice_configuration(-24, 25), 1.5)
    field = make_field(g, drift="cubic", coupling="linear_pair", J=0.2)
    plan = SimPlan(dt=0.01, T=1.0, replicas=replicas, master_seed=seed, p=4.0)
    vols = radial_volumes(g, [5.0, 10.0, 15.0, 20.0])
    return g, field, plan, vols, normal_init(plan, g.n_sites)


def test_06_truncation_convergence():
    beta = 0.8
    ok = True
    for seed in (1, 2, 3):
        g, field, plan, vols, init = _truncation_setup(seed)
        m = len(vols) - 1
        sums, _ = nested_gap_sums(field, vols, init, plan, [beta], n_threads=2)
        gaps = [cauchy_gap(sums[n, 0]) for n in range(m)]
        ok &= all(a > b for a, b in zip(gaps, gaps[1:]))
        paths = run_nested(field, vols, init, plan, n_threads=2)
        # sum_x e^{-beta|x|} sup_t of the Monte Carlo mean of |xi_x,t|^p
        w = np.exp(-beta * g.radii())
        moments = [float(np.sum(w * moment_p(paths[:, n], plan.p)[0].max(axis=1)))
                   for n in range(m + 1)]
        ok &= all(np.isfinite(moments))
        ok &= max(moments) < 2.0 * moments[0]
    report(6, "finite-volume Cauchy gaps decrease; weighted moment stable", ok)


def test_07_tagged_particle_consistency():
    # The tagged equation of site x, driven by the largest volume's path,
    # is that volume's own equation at x: its gap to the volume-n path is
    # exactly 0 at n = m, positive at n = 0, and strictly falls with n
    # until it reaches 0.
    ok = True
    sites = [21, 23, 25, 27, 29]  # interior of the 50-site chain
    for seed in (1, 2, 3):
        g, field, plan, vols, init = _truncation_setup(seed, replicas=24)
        paths = run_nested(field, vols, init, plan, n_threads=2)
        m = len(vols) - 1
        for x in sites:
            diffs = np.empty((plan.replicas, m + 1))
            for r in range(plan.replicas):
                env = paths[r, m]
                eta = tagged_path(field, x, env, float(env[x, 0]), plan, r)
                diffs[r] = np.max(np.abs(eta - paths[r, :, x]), axis=1) ** plan.p
            gaps = diffs.mean(axis=0)  # E max_t |eta - xi^n_x|^p, n = 0..m
            ok &= gaps[m] == 0 and gaps[0] > 0
            ok &= all(b < a or a == b == 0 for a, b in zip(gaps, gaps[1:]))
    report(7, "tagged-particle gap shrinks with the volume", ok)


def test_08_frozen_site_and_determinism():
    g = build_graph(lattice_configuration(-4, 4), 1.5)
    field = make_field(g, drift="cubic", coupling="linear_pair", J=0.2)
    plan = SimPlan(dt=0.01, T=0.3, replicas=32, master_seed=8, p=4.0)
    init = np.full((plan.replicas, g.n_sites), 0.8)
    volume = np.isin(np.arange(g.n_sites), [3, 4, 5])
    traj = one_path(field, volume, init, plan)
    ok = bool(np.all(traj[~volume, :] == 0.8))

    vols = radial_volumes(g, [1.0, 3.0])
    hashes = [hashlib.sha256(run_nested(field, vols, init, plan,
                                        n_threads=k)).hexdigest()
              for k in (1, 2, 4)]
    ok &= hashes[0] == hashes[1] == hashes[2]
    report(8, "frozen sites exact; ensembles bit-identical across threads", ok)


def test_09_gibbs_kernel_correctness():
    from spindyn.gibbs import _autocorr_ess

    single = build_graph(lattice_configuration(0, 0), 1.0)
    m1 = make_model(single, potential="gaussian")
    s = kernel_sample(m1, {0}, WeightedSeq(np.zeros(single.n_sites), single),
                      ChainParams(steps=6000, burn_in=1000, seed=9))
    x = s.samples[:, 0]
    ess_x = max(_autocorr_ess(x), 10.0)
    ess_x2 = max(_autocorr_ess(x ** 2), 10.0)
    ok = abs(x.mean()) <= 3.0 / np.sqrt(ess_x)
    ok &= abs(x.var(ddof=1) - 1.0) <= 3.0 * np.sqrt(2.0 / ess_x2)

    pair = build_graph(lattice_configuration(0, 1), 1.5)
    J = 0.4
    m2 = make_model(pair, potential="quartic", J=J)
    s2 = kernel_sample(m2, {0, 1}, WeightedSeq(np.zeros(pair.n_sites), pair),
                       ChainParams(steps=20000, burn_in=1000, seed=11))
    want = pair_covariance(m2.V, J)
    cov = np.cov(s2.samples.T)
    ess2 = max(min(_autocorr_ess(s2.samples[:, 0] ** 2),
                   _autocorr_ess(s2.samples[:, 1] ** 2),
                   _autocorr_ess(s2.samples[:, 0] * s2.samples[:, 1])), 10.0)
    tol = 3.0 * np.sqrt(2.0 / ess2) * np.max(np.abs(want))
    ok &= np.max(np.abs(cov - want)) <= tol

    chain = build_graph(lattice_configuration(0, 11), 1.5)
    m3 = make_model(chain, potential="quartic", J=0.2)
    passes = 0
    for rep in range(100):
        r = dlr_residual(m3, {4, 5, 6},
                         ChainParams(steps=150, burn_in=400, step_size=0.5,
                                     seed=1000 + rep),
                         outer_samples=50, n_perms=1000)
        passes += r.p_value > 0.01
    ok &= passes >= 95
    report(9, f"Gibbs kernel moments and DLR residual ({passes}/100 reps pass)", ok)


def test_10_reversibility():
    g = build_graph(lattice_configuration(0, 7), 1.5)
    model = make_model(g, potential="quartic", J=0.1)
    plan = SimPlan(dt=0.005, T=0.5, replicas=10 ** 4, master_seed=10, p=3.0)
    nu_chain = ChainParams(steps=1, burn_in=600, step_size=0.5, seed=12)

    obs_pairs = [
        (lambda z: np.tanh(z[1]), lambda z: np.tanh(z[6])),
        (lambda z: np.tanh(z[3]), lambda z: np.tanh(z[4])),
        (lambda z: np.tanh(z[0] + z[2]), lambda z: np.tanh(z[5] - z[7])),
    ]
    ok = True
    for f, g_ in obs_pairs:
        lhs, rhs, se = reversibility_test(model, f, g_, 0.5, plan, nu_chain)
        ok &= abs(lhs - rhs) <= 3 * se

    lhs0, rhs0, se0 = reversibility_test(
        model, obs_pairs[0][0], obs_pairs[0][1], 0.0,
        SimPlan(dt=0.005, T=0.5, replicas=500, master_seed=3, p=3.0), nu_chain)
    ok &= lhs0 == rhs0 and se0 == 0.0
    report(10, "detailed balance within 3 SE for 3 observable pairs", ok)


def test_11_assumption_validators():
    g = build_graph(lattice_configuration(-5, 5), 1.5)

    from spindyn import ParameterError, Polynomial, SinglePotentialDrift

    # The presets' (c, R, b) are computed from their coefficients.
    want = {"cubic": (1.0, 3.0, 0.0), "linear": (1.0, 2.0, -1.0)}
    presets = [
        ("cubic", make_field(g, drift="cubic", coupling="zero", noise="additive")),
        ("cubic", make_field(g, drift="cubic", coupling="linear_pair", J=0.2)),
        ("linear", make_field(g, drift="linear", coupling="zero", noise="additive")),
        ("linear", make_field(g, drift="linear", coupling="linear_pair", J=0.2,
                              noise="linear_noise", M_tilde=0.5)),
    ]
    ok = True
    for name, field in presets:
        d = field.drift
        ok &= (*d.phi.growth(), d.b) == want[name]

    # phi = s^2 and 100 s^2 have phi' unbounded above: no one-sided
    # Lipschitz constant exists, so neither can be built.
    for coeffs in ((0.0, 0.0, 1.0), (0.0, 0.0, 100.0)):
        try:
            SinglePotentialDrift(Polynomial(coeffs))
            ok = False
        except ParameterError:
            pass
    report(11, "computed coefficient constants for presets, reject phi = s^2", ok)
