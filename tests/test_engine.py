import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import sparse_seq, volumes_of
from spindyn import (NonFiniteState, NumericError, ParameterError, RandomInit,
                     ScaleInterval, SimPlan, SinglePotentialDrift,
                     VolumeSequence, WeightedSeq, build_graph, cauchy_gap,
                     integrate_truncated, lattice_configuration, make_field,
                     moment_p, radial_volumes, run_nested, semigroup_apply,
                     tagged_particle_solve)
from spindyn.engine import SCHEMES


@pytest.fixture(scope="module")
def chain():
    return build_graph(lattice_configuration(-4, 4), 1.5)


@pytest.fixture(scope="module")
def single():
    return build_graph(lattice_configuration(0, 0), 1.0)


def constant_init(graph, value=0.0):
    return WeightedSeq(np.full(graph.n_sites, value), graph)


class TestPlanAndVolumes:
    def test_plan_validation(self):
        with pytest.raises(ParameterError):
            SimPlan(dt=0.0, T=1.0)
        with pytest.raises(ParameterError):
            SimPlan(dt=2.0, T=1.0)
        with pytest.raises(ParameterError):
            SimPlan(dt=0.1, T=1.0, scheme="euler")
        with pytest.raises(ParameterError):
            SimPlan(dt=0.1, T=1.0, p=1.0)

    def test_T_off_the_dt_grid_rejected(self):
        with pytest.raises(ParameterError, match=r"T=0\.105 .*dt=0\.01"):
            SimPlan(dt=0.01, T=0.105)
        with pytest.raises(ParameterError, match="multiple"):
            SimPlan(dt=0.3, T=1.0)
        # on the grid up to rounding: 0.3 / 0.1 is 2.9999999999999996
        assert SimPlan(dt=0.1, T=0.3).n_steps == 3

    def test_time_grid(self):
        plan = SimPlan(dt=0.25, T=1.0)
        assert plan.n_steps == 4
        assert np.allclose(plan.times(), [0, 0.25, 0.5, 0.75, 1.0])
        assert plan.time_index(0.5) == 2
        with pytest.raises(ParameterError):
            plan.time_index(0.3)

    def test_volume_nesting_enforced(self, chain):
        n = chain.n_sites
        with pytest.raises(ParameterError, match="strictly nested"):
            volumes_of(n, {0, 1}, {0, 1}, range(n))  # equal consecutive volumes
        with pytest.raises(ParameterError, match="strictly nested"):
            volumes_of(n, {0, 1}, {1, 2}, range(n))  # unequal, not nested
        with pytest.raises(ParameterError, match="full window"):
            volumes_of(n, {0, 1})
        with pytest.raises(ParameterError, match="boolean mask"):
            VolumeSequence(np.ones((1, n), dtype=int))  # ids or 0/1, not a mask
        vols = radial_volumes(chain, [1.0, 3.0])
        assert len(vols) == 3
        assert vols.masks[-1].all() and not vols.masks.flags.writeable
        radii = chain.radii()
        assert np.array_equal(vols.masks, [radii <= 1.0, radii <= 3.0, radii >= 0])

    def test_run_nested_enforces_p_vs_R(self, chain):
        field = make_field(chain, drift="cubic")
        plan = SimPlan(dt=0.1, T=0.2, p=2.0)  # cubic needs p >= 3
        with pytest.raises(ParameterError):
            run_nested(field, radial_volumes(chain, []), constant_init(chain), plan)


class TestIntegration:
    def test_zero_field_constant_paths(self, chain):
        field = make_field(chain, drift="linear", noise="linear_noise", M_tilde=0.0)
        # kill the drift too by freezing every site except none: use zero init
        plan = SimPlan(dt=0.05, T=0.5, replicas=3, master_seed=1)
        traj = integrate_truncated(field, range(chain.n_sites),
                                   constant_init(chain, 0.0), plan, replica=0)
        assert np.all(traj == 0.0)

    def test_frozen_sites_exact(self, chain):
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2,
                           noise="additive")
        plan = SimPlan(dt=0.01, T=0.3, master_seed=5, p=4.0)
        init = WeightedSeq(np.full(chain.n_sites, 1.5), chain)
        volume = {3, 4, 5}
        traj = integrate_truncated(field, volume, init, plan, replica=0)
        outside = [x for x in range(chain.n_sites) if x not in volume]
        assert np.all(traj[outside, :] == 1.5)
        # active sites actually move
        assert np.any(traj[list(volume), -1] != 1.5)

    def test_volume_site_outside_window_rejected(self, chain):
        # Ids 0..8 on the -4..4 chain; an unknown id must not freeze the run.
        field = make_field(chain, drift="cubic")
        plan = SimPlan(dt=0.01, T=0.1, master_seed=5)
        init = constant_init(chain, 0.5)
        for volume, bad in (([2, 99, -3], "99"), ([-3], "-3"), ([9], "9"),
                            ([1, 2.5], "2.5")):
            with pytest.raises(ParameterError, match=f"site id {bad} is outside 0..8"):
                integrate_truncated(field, volume, init, plan, replica=0)

    def test_ou_second_moment(self, single):
        field = make_field(single, drift="linear", noise="additive")
        plan = SimPlan(dt=1e-3, T=1.0, replicas=4000, master_seed=2)
        ens = run_nested(field, radial_volumes(single, []),
                         constant_init(single), plan)
        mean, se = moment_p(ens, 0, 0, 1.0)
        target = (1 - np.exp(-2.0)) / 2
        assert abs(mean - target) <= 3 * se + 1e-3

    def test_split_step_ou_moment(self, single):
        field = make_field(single, drift="linear", noise="additive")
        plan = SimPlan(dt=1e-3, T=1.0, replicas=2000, master_seed=9,
                       scheme="split_step_implicit")
        ens = run_nested(field, radial_volumes(single, []),
                         constant_init(single), plan)
        mean, se = moment_p(ens, 0, 0, 1.0)
        target = (1 - np.exp(-2.0)) / 2
        assert abs(mean - target) <= 3 * se + 2e-3

    @pytest.mark.parametrize("scheme", ["tamed_em", "split_step_implicit"])
    def test_deterministic_mode_matches_ode_oracle(self, chain, scheme):
        # Psi = 0: cubic drift with linear pair coupling is a smooth ODE.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.1,
                           noise="linear_noise", M_tilde=0.0)
        dt = 0.01
        plan = SimPlan(dt=dt, T=1.0, master_seed=0, scheme=scheme, p=4.0)
        init = WeightedSeq(np.linspace(-1.2, 1.2, chain.n_sites), chain)
        traj = integrate_truncated(field, range(chain.n_sites), init, plan, 0)
        sol = solve_ivp(lambda t, y: field.drift_all(y), (0, 1.0),
                        init.values, rtol=1e-10, atol=1e-12,
                        t_eval=[1.0])
        err = np.max(np.abs(traj[:, -1] - sol.y[:, 0]))
        assert err <= 5 * dt

    def test_newton_failure_names_site_and_step(self, single):
        from spindyn import NumericError, SinglePotentialDrift
        base = make_field(single)
        # theta = 2 + 0.9 exp(theta) has no real solution, so the implicit
        # step cannot converge
        bad = SinglePotentialDrift(phi=np.exp, dphi=np.exp,
                                   c=100.0, R=2.0, b=100.0)
        field = dataclasses.replace(base, drift=bad)
        plan = SimPlan(dt=0.9, T=1.8, scheme="split_step_implicit", master_seed=0)
        init = sparse_seq(single, {0: 2.0})
        with pytest.raises(NumericError, match="site"):
            integrate_truncated(field, {0}, init, plan, 0)


    def test_newton_zero_denominator_raises_without_warning(self, single):
        base = make_field(single)
        # phi(s) = 2s with dt = 0.5 makes 1 - dt * phi' exactly zero
        lin = SinglePotentialDrift(phi=lambda s: 2.0 * s,
                                   dphi=lambda s: np.full_like(s, 2.0),
                                   c=2.0, R=2.0, b=2.0)
        field = dataclasses.replace(base, drift=lin)
        plan = SimPlan(dt=0.5, T=1.0, scheme="split_step_implicit")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"zero or non-finite at site 0 \(step 0\)"):
                integrate_truncated(field, {0}, sparse_seq(single, {0: 1.0}), plan, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_names_global_replica(self, single, monkeypatch):
        # |x|^3 overflows for |x| > 5.6e102: the tamed step turns those
        # replicas to NaN at step 1.
        field = make_field(single, drift="cubic")
        init = RandomInit("normal", 0.0, 1e103)
        plan = SimPlan(dt=0.01, T=0.02, replicas=8, master_seed=0, p=4.0)
        starts = [init.draw(0, r, 1)[0] for r in range(8)]
        want = next(r for r, x in enumerate(starts) if not np.isfinite(x * x * x))
        assert want > 0
        # one replica per chunk, so the id must carry the chunk offset
        monkeypatch.setattr("spindyn.engine._CHUNK_ELEMENTS", 1)
        for threads in (1, 2):
            with pytest.raises(NonFiniteState) as err:
                run_nested(field, radial_volumes(single, []), init, plan,
                           n_threads=threads)
            assert (err.value.replica, err.value.site, err.value.step) == (want, 0, 1)
            assert f"replica {want}, site 0, step 1" in str(err.value)


class TestDeterminismAndCoupling:
    def test_thread_count_does_not_change_hash(self, chain, monkeypatch):
        # Neither the thread count nor the replica chunk may change a bit, and
        # a lone replica must equal its row of the ensemble, under both schemes.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.1)
        vols = radial_volumes(chain, [1.0, 3.0])
        init = RandomInit(dist="normal", a=0.0, b=0.5)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.2, replicas=64, master_seed=11, p=4.0,
                           scheme=scheme)
            ens = [run_nested(field, vols, init, plan, n_threads=k) for k in (1, 2, 4)]
            with monkeypatch.context() as m:
                m.setattr("spindyn.engine._CHUNK_ELEMENTS", 1)
                ens.append(run_nested(field, vols, init, plan, n_threads=2))
            h = [e.content_hash() for e in ens]
            assert h[0] == h[1] == h[2] == h[3], scheme
            lone = integrate_truncated(field, range(chain.n_sites), init, plan,
                                       replica=11)
            assert np.array_equal(lone, ens[0].trajectories[11, -1]), scheme

    def test_noise_shared_across_volumes(self, chain):
        # The largest volume's trajectories must not depend on which smaller
        # volumes are simulated alongside it.
        field = make_field(chain, drift="cubic", noise="additive")
        plan = SimPlan(dt=0.02, T=0.2, replicas=8, master_seed=3, p=4.0)
        init = constant_init(chain, 0.5)
        e1 = run_nested(field, radial_volumes(chain, [1.0]), init, plan)
        e2 = run_nested(field, radial_volumes(chain, [2.0, 3.0]), init, plan)
        assert np.array_equal(e1.trajectories[:, -1], e2.trajectories[:, -1])

    def test_random_init_deterministic(self, chain):
        init = RandomInit(dist="uniform", a=-1.0, b=1.0)
        d1 = init.draw(7, 0, chain.n_sites)
        d2 = init.draw(7, 0, chain.n_sites)
        assert np.array_equal(d1, d2)
        assert not np.array_equal(d1, init.draw(7, 1, chain.n_sites))
        assert np.all((d1 >= -1) & (d1 <= 1))

    def test_cauchy_gap_basics(self, chain):
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        plan = SimPlan(dt=0.02, T=0.5, replicas=16, master_seed=21, p=4.0)
        vols = radial_volumes(chain, [0.5, 2.0])
        ens = run_nested(field, vols, RandomInit("normal", 0.0, 1.0), plan)
        scale = ScaleInterval(0.0, 1.0)
        assert cauchy_gap(ens, 1, 1, 0.5, 4.0, scale) == 0.0
        g0 = cauchy_gap(ens, 0, 2, 0.5, 4.0, scale)
        g1 = cauchy_gap(ens, 1, 2, 0.5, 4.0, scale)
        assert g0 > g1 >= 0.0
        with pytest.raises(ParameterError):
            cauchy_gap(ens, 2, 1, 0.5, 4.0, scale)

    def test_cauchy_gap_zero_for_decoupled_extra_sites(self, chain):
        # With zero coupling the extra sites never influence the shared ones.
        field = make_field(chain, drift="cubic", coupling="zero")
        plan = SimPlan(dt=0.02, T=0.3, replicas=4, master_seed=2, p=4.0)
        vols = radial_volumes(chain, [1.0, 3.0])
        ens = run_nested(field, vols, constant_init(chain, 1.0), plan)
        diff = ens.trajectories[:, 0, vols.masks[0], :] \
            - ens.trajectories[:, 2, vols.masks[0], :]
        assert np.all(diff == 0.0)


class TestTaggedParticle:
    def test_decoupled_site_matches_own_run_exactly(self, chain):
        field = make_field(chain, drift="cubic", coupling="zero")
        init = constant_init(chain, 0.7)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.4, master_seed=13, p=4.0, scheme=scheme)
            traj = integrate_truncated(field, range(chain.n_sites), init, plan, 0)
            x = 4
            eta = tagged_particle_solve(field, x, traj, 0.7, plan, replica=0)
            assert np.array_equal(eta, traj[x]), scheme

    def test_tracks_largest_volume(self, chain):
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        init = constant_init(chain, 0.5)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.4, master_seed=17, p=4.0, scheme=scheme)
            traj = integrate_truncated(field, range(chain.n_sites), init, plan, 0)
            eta = tagged_particle_solve(field, 4, traj, 0.5, plan, replica=0)
            # identical equation, step rule and noise -> identical path
            assert np.array_equal(eta, traj[4]), scheme


class TestSemigroup:
    def test_t_zero_exact(self, chain):
        field = make_field(chain, drift="cubic")
        zeta = sparse_seq(chain, {0: 2.0})
        plan = SimPlan(dt=0.1, T=1.0, replicas=10, master_seed=0, p=4.0)
        val, se = semigroup_apply(field, lambda s: float(np.sum(s ** 2)),
                                  zeta, 0.0, plan)
        assert val == 4.0 and se == 0.0

    def test_constant_observable(self, chain):
        field = make_field(chain, drift="cubic")
        plan = SimPlan(dt=0.05, T=0.2, replicas=16, master_seed=1, p=4.0)
        val, se = semigroup_apply(field, lambda s: 1.0,
                                  constant_init(chain), 0.2, plan)
        assert val == 1.0 and se == 0.0

    def test_matches_moment_estimate(self, single):
        field = make_field(single, drift="linear", noise="additive")
        plan = SimPlan(dt=0.005, T=1.0, replicas=1000, master_seed=8)
        val, se = semigroup_apply(field, lambda s: float(s[0] ** 2),
                                  constant_init(single), 1.0, plan)
        ens = run_nested(field, radial_volumes(single, []), constant_init(single), plan)
        mean, _ = moment_p(ens, 0, 0, 1.0)
        assert val == pytest.approx(mean, rel=1e-12)
