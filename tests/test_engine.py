import dataclasses
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import (gap_sums_reference, one_path, path_gap, sparse_seq, tagged_path,
                     volumes_of)
from spindyn import (NonFiniteState, NumericError, ParameterError, Polynomial,
                     RandomInit, SimPlan, SinglePotentialDrift, VolumeSequence,
                     WeightedSeq,
                     build_graph, cauchy_gap, lattice_configuration, make_field,
                     moment_p, nested_gap_sums, radial_volumes, run_nested,
                     sample_poisson)
from spindyn import engine
from spindyn.engine import SCHEMES, integrate_ensemble, integrate_replicas
from spindyn.rng import BLOCK_STEPS, noise_matrix


@pytest.fixture(scope="module")
def chain():
    return build_graph(lattice_configuration(-4, 4), 1.5)


@pytest.fixture(scope="module")
def single():
    return build_graph(lattice_configuration(0, 0), 1.0)


def constant_init(graph, value=0.0):
    return WeightedSeq(np.full(graph.n_sites, value), graph)


def all_sites(graph):
    return np.ones(graph.n_sites, dtype=bool)


def observed_paths(field, masks, init, plan, **kwargs):
    """(replicas, masks, sites, steps+1) paths that ``integrate_replicas``
    hands its observer, with the final states it returns."""
    paths = np.empty((plan.replicas, len(masks), field.graph.n_sites,
                      plan.n_steps + 1))

    def keep(rows, j, states):
        paths[rows, ..., j] = states

    final = integrate_replicas(field, masks, init, plan, plan.n_steps,
                               observer=keep, **kwargs)
    return paths, final


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
        traj = one_path(field, all_sites(chain), constant_init(chain, 0.0), plan)
        assert np.all(traj == 0.0)

    def test_frozen_sites_exact(self, chain):
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2,
                           noise="additive")
        plan = SimPlan(dt=0.01, T=0.3, master_seed=5, p=4.0)
        init = WeightedSeq(np.full(chain.n_sites, 1.5), chain)
        volume = np.isin(np.arange(chain.n_sites), [3, 4, 5])
        traj = one_path(field, volume, init, plan)
        assert np.all(traj[~volume, :] == 1.5)
        # active sites actually move
        assert np.any(traj[volume, -1] != 1.5)

    def test_each_volume_steps_only_its_own_sites(self, chain):
        # A tamed step evaluates phi once per volume, on that volume's sites
        # alone: replicas x steps x sum_k |Lambda_k| entries in one run.
        evaluated = [0]

        class Counting(Polynomial):
            def __call__(self, s):
                evaluated[0] += np.size(s)
                return super().__call__(s)

        counting = SinglePotentialDrift(Counting((0.0, 0.0, 0.0, -1.0)))
        field = dataclasses.replace(make_field(chain, coupling="linear_pair", J=0.2),
                                    drift=counting)
        vols = radial_volumes(chain, [1.0, 2.0])  # 3, 5 and 9 sites
        plan = SimPlan(dt=0.01, T=0.1, replicas=3, master_seed=4, p=4.0)
        run_nested(field, vols, RandomInit("normal", 0.0, 1.0), plan)
        assert evaluated[0] == plan.replicas * plan.n_steps * 17

    def test_run_nested_rejects_volume_width(self, chain):
        # Masks over 8 or 10 sites do not fit the 9 sites of the -4..4 chain.
        field = make_field(chain, drift="cubic")
        plan = SimPlan(dt=0.01, T=0.1, master_seed=5, p=4.0)
        for width in (8, 10):
            vols = VolumeSequence(np.ones((1, width), dtype=bool))
            with pytest.raises(ParameterError,
                               match=rf"volume masks cover {width} sites, the graph has 9"):
                run_nested(field, vols, constant_init(chain, 0.5), plan)

    def test_run_nested_rejects_init_array_shape(self, chain):
        # An (R, sites) init needs one row per replica and one column per site.
        field = make_field(chain, drift="cubic")
        plan = SimPlan(dt=0.01, T=0.1, replicas=4, master_seed=5, p=4.0)
        vols = radial_volumes(chain, [1.0])
        for shape in ((2, 9), (4, 8)):
            with pytest.raises(ParameterError,
                               match=re.escape(f"shape {shape}, need (replicas, "
                                               f"sites) = (4, 9)")):
                run_nested(field, vols, np.zeros(shape), plan)

    def test_ou_second_moment(self, single):
        field = make_field(single, drift="linear", noise="additive")
        plan = SimPlan(dt=1e-3, T=1.0, replicas=4000, master_seed=2)
        paths = run_nested(field, radial_volumes(single, []),
                           constant_init(single), plan)
        mean, se = moment_p(paths[:, 0, :, -1:], plan.p)
        target = (1 - np.exp(-2.0)) / 2
        assert abs(mean[0, 0] - target) <= 3 * se[0, 0] + 1e-3

    def test_split_step_ou_moment(self, single):
        field = make_field(single, drift="linear", noise="additive")
        plan = SimPlan(dt=1e-3, T=1.0, replicas=2000, master_seed=9,
                       scheme="split_step_implicit")
        paths = run_nested(field, radial_volumes(single, []),
                           constant_init(single), plan)
        mean, se = moment_p(paths[:, 0, :, -1:], plan.p)
        target = (1 - np.exp(-2.0)) / 2
        assert abs(mean[0, 0] - target) <= 3 * se[0, 0] + 2e-3

    @pytest.mark.parametrize("scheme", ["tamed_em", "split_step_implicit"])
    def test_deterministic_mode_matches_ode_oracle(self, chain, scheme):
        # Psi = 0: cubic drift with linear pair coupling is a smooth ODE.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.1,
                           noise="linear_noise", M_tilde=0.0)
        dt = 0.01
        plan = SimPlan(dt=dt, T=1.0, master_seed=0, scheme=scheme, p=4.0)
        init = WeightedSeq(np.linspace(-1.2, 1.2, chain.n_sites), chain)
        traj = one_path(field, all_sites(chain), init, plan)
        sol = solve_ivp(lambda t, y: field.drift_all(y), (0, 1.0),
                        init.values, rtol=1e-10, atol=1e-12,
                        t_eval=[1.0])
        err = np.max(np.abs(traj[:, -1] - sol.y[:, 0]))
        assert err <= 5 * dt

    def test_split_step_adds_the_pair_drift_A_z(self):
        # The split step is the implicit single-site solve plus dt * A z.
        # Taken as drift_all - phi(own), the middle site's coupling 100.2
        # would first be rounded next to phi(1e3) = -1e9, to a multiple of
        # 2^-23.
        g = build_graph(lattice_configuration(0, 2), 1.5)
        field = make_field(g, drift="cubic", coupling="linear_pair", J=0.1)
        state, dt = np.array([[1.0, 1e3, 1.0]]), 0.01
        got = engine._step(field, state, np.zeros((1, 3)), dt, "split_step_implicit", 0)
        theta = engine._solve_implicit(field.drift, state, dt, np.arange(3), 0)
        pair = np.array([[0.1 * 1.0 + 0.1 * 1e3, 0.1 * 1e3 + 0.1 * 1.0 + 0.1 * 1.0,
                          0.1 * 1.0 + 0.1 * 1e3]])
        assert np.array_equal(got, theta + dt * pair)

    def test_newton_failure_names_site_and_step(self, single):
        base = make_field(single)
        # phi(s) = -s^3 + 2s with dt = 1: Newton on theta^3 - theta = 0.4,
        # started at 0.4, does not settle within its iteration cap
        bad = SinglePotentialDrift(Polynomial((0.0, 2.0, 0.0, -1.0)))
        field = dataclasses.replace(base, drift=bad)
        plan = SimPlan(dt=1.0, T=2.0, scheme="split_step_implicit", master_seed=0)
        init = sparse_seq(single, {0: 0.4})
        with pytest.raises(NumericError,
                           match=r"failed to converge at site 0 \(step 0\)"):
            one_path(field, all_sites(single), init, plan)


    def test_newton_zero_denominator_raises_without_warning(self, single):
        base = make_field(single)
        # phi(s) = 2s with dt = 0.5 makes 1 - dt * phi' exactly zero
        lin = SinglePotentialDrift(Polynomial((0.0, 2.0)))
        field = dataclasses.replace(base, drift=lin)
        plan = SimPlan(dt=0.5, T=1.0, scheme="split_step_implicit")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"zero or non-finite at site 0 \(step 0\)"):
                one_path(field, all_sites(single), sparse_seq(single, {0: 1.0}), plan)

    @pytest.mark.parametrize("coeffs, state, dt, message", [
        # theta + 0.01 theta^3 = 1e5 from theta = 1e5: Newton needs more steps
        ((0.0, 0.0, 0.0, -1.0), [[1.0, 1e5, 1.0]], 0.01,
         r"failed to converge at site 1 \(step 7\)"),
        # phi(s) = 2s with dt = 0.5: 1 - dt phi' = 0, live at site 1 alone
        ((0.0, 2.0), [[0.0, 1.0, 0.0]], 0.5,
         r"zero or non-finite at site 1 \(step 7\)")])
    def test_newton_failure_names_site_of_whole_window_field(self, coeffs, state, dt,
                                                             message):
        # A field with the default sites=slice(None) names the window column.
        g = build_graph(lattice_configuration(0, 2), 1.5)
        field = dataclasses.replace(make_field(g),
                                    drift=SinglePotentialDrift(Polynomial(coeffs)))
        assert field.sites == slice(None)
        with pytest.raises(NumericError, match=message):
            engine._step(field, np.array(state), np.zeros((1, 3)), dt,
                         "split_step_implicit", 7)

    def test_split_step_builds_no_derivative(self, chain, monkeypatch):
        # phi' is built once, with the drift; the Newton solve only reads it.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        assert field.drift.dphi == field.drift.phi.deriv()
        plan = SimPlan(dt=0.01, T=0.05, replicas=2, master_seed=3, p=4.0,
                       scheme="split_step_implicit")
        want = run_nested(field, radial_volumes(chain, [1.0]), constant_init(chain, 0.5),
                          plan)

        def no_deriv(self):
            raise AssertionError("Polynomial.deriv called during a run")

        monkeypatch.setattr(Polynomial, "deriv", no_deriv)
        got = run_nested(field, radial_volumes(chain, [1.0]), constant_init(chain, 0.5),
                         plan)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, -0.0, 0.0, 2.5])
    def test_empty_S_diffusion_equals_its_product(self, chain, c):
        # An empty S is skipped: the bytes of S z + c stay, NaN rows and the
        # sign of a zero c included, for one state or a block, on any sites.
        whole = dataclasses.replace(make_field(chain, noise="additive"), diff_const=c)
        assert whole.S.nnz == 0
        rng = np.random.default_rng(8)
        block = rng.standard_normal((3, chain.n_sites))
        block[1, 2] = np.nan
        for field in (whole, dataclasses.replace(whole, sites=np.array([1, 4, 5]))):
            for state in (block, block[0]):
                got = field.diffusion_all(state)
                want = (field.S @ state.T).T + field.diff_const
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_names_global_replica(self, single, monkeypatch):
        # |x|^3 overflows for |x| > 5.6e102: the tamed step turns replicas
        # 3 and 6 to NaN at step 1, and the first of them is named.
        field = make_field(single, drift="cubic")
        init = np.full((8, 1), 0.5)
        init[[3, 6]] = 1e103
        plan = SimPlan(dt=0.01, T=0.02, replicas=8, master_seed=0, p=4.0)
        want = 3
        # one replica per chunk, so the id must carry the chunk offset
        monkeypatch.setattr("spindyn.engine._CHUNK_ELEMENTS", 1)
        for threads in (1, 2):
            with pytest.raises(NonFiniteState) as err:
                run_nested(field, radial_volumes(single, []), init, plan,
                           n_threads=threads)
            assert (err.value.replica, err.value.site, err.value.step) == (want, 0, 1)
            assert f"replica {want}, site 0, step 1" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_later_chunks_stop_at_the_earliest_failure(self, chain, monkeypatch):
        # Replica 0 overflows at step 1 in the first chunk; every later chunk,
        # run after it on one thread, checks step 1 and steps no further.
        field = make_field(chain, drift="cubic")
        init = np.full((6, chain.n_sites), 0.5)
        init[0, 4] = 1e103
        plan = SimPlan(dt=0.01, T=0.1, replicas=6, master_seed=0, p=4.0)
        last = {}

        def count(rows, j, states):
            last[rows.start] = j

        monkeypatch.setattr("spindyn.engine._CHUNK_ELEMENTS", 1)
        with pytest.raises(NonFiniteState) as err:
            integrate_replicas(field, [all_sites(chain)], init, plan, plan.n_steps,
                               observer=count, n_threads=1)
        assert (err.value.replica, err.value.site, err.value.step) == (0, 4, 1)
        assert sorted(last) == list(range(6))
        assert max(j for lo, j in last.items() if lo > 0) <= 1


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
            h = [hashlib.sha256(e).hexdigest() for e in ens]
            assert h[0] == h[1] == h[2] == h[3], scheme
            few = run_nested(field, radial_volumes(chain, []), init,
                             dataclasses.replace(plan, replicas=12))
            assert np.array_equal(few[11, 0], ens[0][11, -1]), scheme

    def test_noise_shared_across_volumes(self, chain):
        # The largest volume's trajectories must not depend on which smaller
        # volumes are simulated alongside it.
        field = make_field(chain, drift="cubic", noise="additive")
        plan = SimPlan(dt=0.02, T=0.2, replicas=8, master_seed=3, p=4.0)
        init = constant_init(chain, 0.5)
        e1 = run_nested(field, radial_volumes(chain, [1.0]), init, plan)
        e2 = run_nested(field, radial_volumes(chain, [2.0, 3.0]), init, plan)
        assert np.array_equal(e1[:, -1], e2[:, -1])

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
        init = RandomInit("normal", 0.0, 1.0)
        sums, _ = nested_gap_sums(field, vols, init, plan, [0.5])
        assert sums.shape == (2, 1, 16, plan.n_steps + 1)
        # every volume starts from the same states
        assert np.all(sums[..., 0] == 0.0)
        g0 = cauchy_gap(sums[0, 0])
        g1 = cauchy_gap(sums[1, 0])
        assert g0 > g1 >= 0.0
        # run_nested's checks guard the streamed path too
        with pytest.raises(ParameterError, match="moment order"):
            nested_gap_sums(field, vols, init, dataclasses.replace(plan, p=2.0),
                            [0.5])
        with pytest.raises(ParameterError, match="volume masks cover 8 sites"):
            nested_gap_sums(field, VolumeSequence(np.ones((1, 8), dtype=bool)),
                            init, plan, [0.5])

    def test_cauchy_gap_zero_for_decoupled_extra_sites(self, chain):
        # With zero coupling the extra sites never influence the shared ones.
        field = make_field(chain, drift="cubic", coupling="zero")
        plan = SimPlan(dt=0.02, T=0.3, replicas=4, master_seed=2, p=4.0)
        vols = radial_volumes(chain, [1.0, 3.0])
        paths = run_nested(field, vols, constant_init(chain, 1.0), plan)
        diff = paths[:, 0, vols.masks[0], :] - paths[:, 2, vols.masks[0], :]
        assert np.all(diff == 0.0)


class TestStreamedGaps:
    def test_gaps_equal_path_reference(self, chain, monkeypatch):
        # The gaps reduced step by step equal the path-array formula bit for
        # bit, for any chunk size and thread count, and the time-T states
        # hashed are the last column of the paths.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        vols = radial_volumes(chain, [1.0, 2.0, 3.0])
        init = RandomInit("normal", 0.0, 1.0)
        betas = [0.3, 0.8]
        m = len(vols) - 1
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.3, replicas=7, master_seed=4, p=4.0,
                           scheme=scheme)
            paths = run_nested(field, vols, init, plan)
            want = np.array([[path_gap(paths, chain, n, m, beta, plan.p)
                              for beta in betas] for n in range(m)])
            want_hash = hashlib.sha256(
                np.ascontiguousarray(paths[..., -1])).hexdigest()
            runs = []
            for chunk, threads in ((None, 1), (None, 2), (1, 1), (1, 2)):
                with monkeypatch.context() as mp:
                    if chunk is not None:
                        mp.setattr("spindyn.engine._CHUNK_ELEMENTS", chunk)
                    runs.append(nested_gap_sums(field, vols, init, plan, betas,
                                                n_threads=threads))
            for sums, final in runs:
                got = np.array([[cauchy_gap(sums[n, b]) for b in range(2)]
                                for n in range(m)])
                assert np.array_equal(got, want), scheme
                assert np.array_equal(sums, runs[0][0]), scheme
                assert hashlib.sha256(final).hexdigest() == want_hash, scheme

    @pytest.mark.parametrize("n_sites, radii, replicas, steps", [
        (2, [0.5], 1, 3), (33, [4.0, 12.0], 5, 10), (401, [50.0], 9, 6),
        (8200, [1000.0, 3000.0], 3, 2)])
    def test_sums_equal_the_per_row_reference(self, monkeypatch, n_sites, radii,
                                              replicas, steps):
        # Every (replica, step) sum equals its row contracted alone, bit for
        # bit, with the default chunk, two replicas and one replica per chunk,
        # on 1 and 2 threads; the last shape's rows pass numpy's 8192-element
        # buffer.  Each sum is the weighted sum to rounding.
        graph = build_graph(lattice_configuration(0, n_sites - 1), 1.5)
        field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        vols = radial_volumes(graph, radii)
        init = RandomInit("normal", 0.0, 1.0)
        plan = SimPlan(dt=0.01, T=0.01 * steps, replicas=replicas, master_seed=7, p=4.0)
        betas = [0.01, 0.5, 2.0]
        paths = run_nested(field, vols, init, plan)
        want = gap_sums_reference(paths, graph, betas, plan.p)
        two = 2 * n_sites * (len(vols) + BLOCK_STEPS)
        for chunk in (engine._CHUNK_ELEMENTS, two, 1):
            for threads in (1, 2):
                with monkeypatch.context() as mp:
                    mp.setattr("spindyn.engine._CHUNK_ELEMENTS", chunk)
                    sums, _ = nested_gap_sums(field, vols, init, plan, betas,
                                              n_threads=threads)
                assert np.array_equal(sums, want), (chunk, threads)
        for n in range(len(vols) - 1):
            for b, beta in enumerate(betas):
                w = np.exp(-beta * graph.radii())
                for r in range(replicas):
                    for j in range(steps + 1):
                        terms = w * np.abs(paths[r, n, :, j] - paths[r, -1, :, j]) ** 4.0
                        assert sums[n, b, r, j] == pytest.approx(math.fsum(terms),
                                                                 rel=1e-13, abs=1e-300)

    def test_noise_blocks_do_not_change_a_bit(self, chain, monkeypatch):
        # 150 steps take 75 noise blocks of 2 steps, by default;
        # paths, final states and gap sums equal those of one 152-step block.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        vols = radial_volumes(chain, [1.0, 3.0])
        init = RandomInit("normal", 0.0, 1.0)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.01, T=1.5, replicas=5, master_seed=6, p=4.0,
                           scheme=scheme)
            runs = []
            for block in (engine._NOISE_BLOCK, 152):
                with monkeypatch.context() as mp:
                    mp.setattr("spindyn.engine._NOISE_BLOCK", block)
                    runs.append((
                        run_nested(field, vols, init, plan, n_threads=2),
                        integrate_replicas(field, vols.masks, init, plan,
                                           plan.n_steps),
                        nested_gap_sums(field, vols, init, plan, [0.5])))
            ((paths_a, final_a, (sums_a, end_a)),
             (paths_b, final_b, (sums_b, end_b))) = runs
            assert np.array_equal(paths_a, paths_b), scheme
            assert np.array_equal(final_a, final_b), scheme
            assert np.array_equal(final_a, paths_a[..., -1]), scheme
            assert np.array_equal(sums_a, sums_b), scheme
            assert hashlib.sha256(end_a).hexdigest() == hashlib.sha256(end_b).hexdigest()


class TestTaggedParticle:
    def test_decoupled_site_matches_own_run_exactly(self, chain):
        field = make_field(chain, drift="cubic", coupling="zero")
        init = constant_init(chain, 0.7)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.4, master_seed=13, p=4.0, scheme=scheme)
            traj = one_path(field, all_sites(chain), init, plan)
            x = 4
            eta = tagged_path(field, x, traj, 0.7, plan, replica=0)
            assert np.array_equal(eta, traj[x]), scheme

    def test_tracks_largest_volume(self, chain):
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        init = constant_init(chain, 0.5)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.4, master_seed=17, p=4.0, scheme=scheme)
            traj = one_path(field, all_sites(chain), init, plan)
            eta = tagged_path(field, 4, traj, 0.5, plan, replica=0)
            # identical equation, step rule and noise -> identical path
            assert np.array_equal(eta, traj[4]), scheme

    def test_tracks_poisson_window_bit_for_bit(self):
        # 31 sites whose rows hold 2 to 7 entries, under both noise presets:
        # the scalar oracle reproduces every replica's path of every site.
        g = build_graph(sample_poisson(1.0, [[-3.0, 3.0], [-3.0, 3.0]], 5), 1.2)
        assert (g.n_sites, g.nbar_count.min(), g.nbar_count.max()) == (31, 2, 7)
        init = RandomInit(dist="normal")
        for noise in ("additive", "linear_noise"):
            field = make_field(g, drift="cubic", coupling="linear_pair", J=0.2,
                               noise=noise, M_tilde=0.5)
            for scheme in SCHEMES:
                plan = SimPlan(dt=0.02, T=0.4, replicas=3, master_seed=11, p=4.0,
                               scheme=scheme)
                paths = run_nested(field, radial_volumes(g, []), init, plan)[:, 0]
                for r in range(plan.replicas):
                    for x in range(g.n_sites):
                        eta = tagged_path(field, x, paths[r], paths[r, x, 0], plan, r)
                        assert np.array_equal(eta, paths[r, x]), (noise, scheme, r, x)

    def test_reads_only_the_closed_neighbourhood(self, chain):
        # Volume {3, 4, 5} is the closed neighbourhood of site 4.  Site 0 lies
        # outside every one of its rows: a frozen spin of 1e200 there, whose
        # cube overflows, changes no step of the volume's sites.
        volume = np.isin(np.arange(chain.n_sites), [3, 4, 5])
        for noise in ("additive", "linear_noise"):
            field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2,
                               noise=noise, M_tilde=0.5)
            for scheme in SCHEMES:
                plan = SimPlan(dt=0.02, T=0.4, master_seed=17, p=4.0, scheme=scheme)
                base = one_path(field, volume, constant_init(chain, 0.5), plan)
                far = np.full(chain.n_sites, 0.5)
                far[0] = 1e200
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    traj = one_path(field, volume, WeightedSeq(far, chain), plan)
                assert np.all(traj[0] == 1e200), (noise, scheme)
                assert np.array_equal(traj[1:], base[1:]), (noise, scheme)


class TestSemigroup:
    def test_t_zero_exact(self, chain):
        # P_0 f = f: zero steps leave every replica at zeta, so the sample
        # mean of f is f(zeta) exactly and its spread is zero.
        field = make_field(chain, drift="cubic")
        zeta = sparse_seq(chain, {0: 2.0})
        plan = SimPlan(dt=0.1, T=1.0, replicas=10, master_seed=0, p=4.0)
        final = integrate_replicas(field, [all_sites(chain)], zeta, plan,
                                   plan.time_index(0.0))[:, 0]
        vals = np.array([np.sum(s ** 2) for s in final])
        assert np.all(final == zeta.values)
        assert vals.mean() == 4.0 and vals.std() == 0.0


class TestFinalStates:
    def test_final_states_equal_path_columns(self, chain, monkeypatch):
        # A run stopped at step j returns the states there; they must be
        # column j of the paths an observer sees bit for bit, whatever the
        # chunks and threads of either run.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        masks = [all_sites(chain), np.isin(np.arange(chain.n_sites), [3, 4, 5])]
        init = RandomInit("normal", 0.0, 1.0)
        for scheme in SCHEMES:
            plan = SimPlan(dt=0.02, T=0.2, replicas=6, master_seed=8, p=4.0,
                           scheme=scheme)
            paths, last = observed_paths(field, masks, init, plan)
            assert np.array_equal(last, paths[..., -1]), scheme
            with monkeypatch.context() as m:
                m.setattr("spindyn.engine._CHUNK_ELEMENTS", 1)
                for j in (1, 4, plan.n_steps):
                    final = integrate_replicas(field, masks, init, plan, j,
                                               n_threads=2)
                    assert np.array_equal(final, paths[..., j]), (scheme, j)

    def test_final_states_need_no_path_memory(self):
        # The path of this run is 10.3 MB, as large as its noise; without an
        # observer the run holds one 2-step noise block and the current
        # states, not the path as well.
        graph = build_graph(lattice_configuration(0, 49), 1.5)
        field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        plan = SimPlan(dt=0.01, T=4.0, replicas=64, master_seed=3, p=4.0)
        noise_bytes = plan.replicas * graph.n_sites * plan.n_steps * 8
        tracemalloc.start()
        try:
            integrate_replicas(field, [all_sites(graph)], RandomInit("normal", 0.0, 1.0),
                               plan, plan.n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * noise_bytes, (peak, noise_bytes)

    def test_gap_sums_memory_does_not_grow_with_T(self):
        # converge's integration at T and 4T: the noise comes in blocks of
        # 2 steps, so only the gap-sum array may grow with the horizon
        # (10 % of the T peak allowed for the allocator).  Drawn whole, the
        # 4T noise alone would be 3 * 8 * 401 * 64 * 8 B = 4.9 MB larger.
        graph = build_graph(lattice_configuration(-200, 200), 1.5)
        field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        vols = radial_volumes(graph, [50.0, 100.0])
        betas = [0.5, 1.0]

        def peak(T):
            plan = SimPlan(dt=0.01, T=T, replicas=8, master_seed=3, p=4.0)
            tracemalloc.start()
            try:
                sums, _ = nested_gap_sums(field, vols, RandomInit("normal", 0.0, 1.0),
                                          plan, betas)
                return tracemalloc.get_traced_memory()[1], sums.nbytes
            finally:
                tracemalloc.stop()

        (peak_1, sums_1), (peak_4, sums_4) = peak(0.64), peak(2.56)
        assert peak_4 <= peak_1 + (sums_4 - sums_1) + 0.1 * peak_1, (peak_1, peak_4)

    def test_gap_sums_hold_one_noise_block(self):
        # 64 replicas of a 401-site chain over 200 steps, where a 64-step
        # noise block (13 MB) would outweigh everything else 4 to 1.  Less
        # the gap sums, which grow with T, the peak stays below the states
        # (working copy, result and initial rows: 2V + 1 (replicas, sites)
        # arrays), one Philox block of BLOCK_STEPS steps, 8 such arrays of step and
        # reduction temporaries and 1 MiB; it does not grow when T doubles.
        graph = build_graph(lattice_configuration(-200, 200), 1.5)
        field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        vols = radial_volumes(graph, [100.0])
        init = RandomInit("normal", 0.0, 1.0)
        R = 64

        def peak(T):
            plan = SimPlan(dt=0.01, T=T, replicas=R, master_seed=3, p=4.0)
            tracemalloc.start()
            try:
                sums, _ = nested_gap_sums(field, vols, init, plan, [0.5])
                return tracemalloc.get_traced_memory()[1] - sums.nbytes
            finally:
                tracemalloc.stop()

        peak(0.01)  # lazy imports and caches, paid once per process
        row = R * graph.n_sites * 8
        bound = (2 * len(vols) + 1 + BLOCK_STEPS + 8) * row + 2 ** 20
        peak_T, peak_2T = peak(2.0), peak(4.0)
        assert peak_T <= bound, (peak_T, bound)
        assert peak_2T <= peak_T + 2 ** 16, (peak_T, peak_2T)

    def test_noise_is_drawn_one_philox_block_at_a_time(self, chain, monkeypatch):
        # Every request of a 150-step run is at most one Philox block of
        # BLOCK_STEPS steps from a step that starts one, and the requests tile
        # the run in order.
        field = make_field(chain, drift="cubic", coupling="linear_pair", J=0.2)
        init = RandomInit("normal", 0.0, 1.0)
        plan = SimPlan(dt=0.01, T=1.5, replicas=3, master_seed=6, p=4.0)
        calls = []

        def spy(master_seed, replica, site_ids, n_steps, first_step=0):
            calls.append((first_step, n_steps))
            return noise_matrix(master_seed, replica, site_ids, n_steps, first_step)

        monkeypatch.setattr("spindyn.engine.noise_matrix", spy)
        integrate_replicas(field, [all_sites(chain)], init, plan, plan.n_steps)
        assert all(k <= BLOCK_STEPS and j0 % BLOCK_STEPS == 0 for j0, k in calls), calls
        assert [j0 for j0, _ in calls] == list(range(0, 150, BLOCK_STEPS))
        assert sum(k for _, k in calls) == 150


class TestStrongOrder:
    """Strong convergence order of both schemes, fitted over a dt ladder.

    Every run follows one Brownian path per replica: the coarse run with
    dt = k dt_f is driven by the fine increments of ``noise_matrix`` summed
    in groups of k and scaled by 1/sqrt(k), so its sqrt(dt)-scaled
    increments are exact sums of the fine ones.  The error at T is the RMS
    over replicas and sites against the finest run (dt_f = T/2048); the
    ladder k = 16..128 keeps that reference at least 16 times finer, which
    moves an order-1 slope by about log(127/15)/log(8) - 1 = 0.03.

    Bands:
    - additive noise (c = 1, S = 0): the diffusion is constant, so the
      Milstein correction vanishes and Euler-Maruyama is Milstein's scheme,
      of strong order 1 (Kloeden & Platen, sec. 10.3).  Taming moves each
      step's drift by dt^2 |f| f / (1 + dt |f|), O(dt) over the run
      (Hutzenthaler, Jentzen & Kloeden, Ann. Appl. Probab. 22(4), 2012), and
      the split-step implicit scheme is order 1 for additive noise by the
      same argument (Higham, Mao & Stuart, SIAM J. Numer. Anal. 40(3),
      2002).  Band [0.75, 1.25]: order 1 with +-1/4 for the fit over four
      rungs of one seed.
    - linear noise (S = M_tilde on every CSR entry, c = 0): the diffusion
      depends on the state, the iterated Ito integrals that Milstein adds
      are missing, and both schemes have strong order 1/2 (same sources).
      On coarse steps the O(dt) drift error still shows, so the fitted
      slope lies between 1/2 and 1.  Band [0.4, 0.9]: 1/2 less 0.1 for fit
      noise below, and clear of order 1 above.
    """

    T, R, FINE, KS = 0.5, 256, 2048, (16, 32, 64, 128)

    def _slope(self, graph, noise, scheme):
        field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2,
                           noise=noise)
        reps = np.arange(self.R)
        fine = noise_matrix(1, reps, range(graph.n_sites), self.FINE)
        init = RandomInit("normal", 0.0, 1.0).draw(1, reps, graph.n_sites)

        def final(k):
            plan = SimPlan(dt=k * self.T / self.FINE, T=self.T, scheme=scheme,
                           replicas=self.R, master_seed=1)
            dW = fine.reshape(self.R, graph.n_sites, -1, k).sum(-1) / np.sqrt(k)
            return integrate_ensemble(field, [all_sites(graph)], init[:, None], plan,
                                      lambda j0, k: dW[:, :, j0:j0 + k],
                                      plan.n_steps)[:, 0]

        ref = final(1)
        err = [np.sqrt(np.mean((final(k) - ref) ** 2)) for k in self.KS]
        return np.polyfit(np.log(self.KS), np.log(err), 1)[0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("noise, band", [("additive", (0.75, 1.25)),
                                             ("linear_noise", (0.4, 0.9))])
    def test_strong_order(self, chain, noise, band, scheme):
        slope = self._slope(chain, noise, scheme)
        assert band[0] <= slope <= band[1], (noise, scheme, slope)
