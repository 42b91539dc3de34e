"""Property tests for the engine's fail-fast guarantees: off-grid horizons,
non-finite states and singular Newton steps are reported, with their
(replica, site, step), for any chunk size and thread count."""

import dataclasses
import itertools
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import spindyn.engine as engine
from helpers import normal_init, volumes_of
from spindyn import (NonFiniteState, NumericError, ParameterError, Polynomial,
                     SimPlan, SinglePotentialDrift, build_graph,
                     lattice_configuration, make_field, run_nested)
from spindyn.engine import SCHEMES

CHAIN = build_graph(lattice_configuration(-3, 3), 1.5)
N = CHAIN.n_sites


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(dt=st.floats(1e-3, 1.0), k=st.integers(2, 1000),
       c=st.one_of(st.floats(-0.5, 0.5), st.floats(2.0, 100.0), st.floats(-100.0, -2.0)))
def test_plan_accepts_T_exactly_on_the_dt_grid(dt, k, c):
    # T sits c tolerances of 1e-9 * max(1, T) away from k steps of dt.
    T = k * dt + c * 1e-9 * max(1.0, k * dt)
    if abs(c) <= 0.5:
        assert SimPlan(dt=dt, T=T).n_steps == k
    else:
        message = re.escape(f"T={T} is not a multiple of dt={dt}")
        with pytest.raises(ParameterError, match=message):
            SimPlan(dt=dt, T=T)


@st.composite
def blow_ups(draw):
    replicas = draw(st.integers(2, 8))
    n_steps = draw(st.integers(1, 5))
    poisoned = draw(st.lists(st.integers(0, replicas - 1), min_size=2, max_size=2,
                             unique=True))
    return dict(replicas=replicas, n_steps=n_steps,
                poisons=[(replica, draw(st.integers(0, N - 1)),
                          draw(st.integers(0, n_steps - 1))) for replica in poisoned],
                value=draw(st.sampled_from([np.inf, -np.inf, np.nan])),
                chunk=draw(st.integers(1, 2 * N * n_steps * replicas)),
                via=draw(st.sampled_from(["run_nested", "integrate_replicas"])),
                scheme=draw(st.sampled_from(SCHEMES)),
                inner=frozenset(draw(st.sets(st.integers(0, N - 2), min_size=1))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(blow_ups())
@example(dict(replicas=8, n_steps=5, poisons=[(3, 2, 4), (6, 2, 1)], value=np.inf,
              chunk=1, via="run_nested", scheme="tamed_em", inner=frozenset({1, 2, 3})))
def test_blow_up_names_global_replica_site_and_step(case):
    # A non-finite Wiener increment at (replica, site, step) makes that
    # state non-finite one step later, and nothing is non-finite earlier.
    # Under the implicit scheme the Newton screen meets that state first.
    # Of two such increments in two replicas, the state that fails first in
    # (step, replica, site) order is named: with one replica per chunk as
    # with one chunk for all, on one thread as on two.
    field = make_field(CHAIN, drift="cubic", coupling="linear_pair", J=0.2,
                       noise="additive")
    plan = SimPlan(dt=0.01, T=0.01 * case["n_steps"], scheme=case["scheme"],
                   replicas=case["replicas"], master_seed=3, p=4.0)
    clean = engine.noise_matrix

    def noise(master_seed, replica, site_ids, n_steps, first_step=0):
        # one batched call per replica chunk and noise block:
        # (replicas, sites, steps first_step..first_step + n_steps - 1)
        out = clean(master_seed, replica, site_ids, n_steps, first_step)
        for r, x, step in case["poisons"]:
            if first_step <= step < first_step + n_steps:
                out[np.asarray(replica) == r, x, step - first_step] = case["value"]
        return out

    step, replica, site = min((s + 1, r, x) for r, x, s in case["poisons"])
    want = (replica, site, step)
    chunks = (engine._CHUNK_ELEMENTS, 1, case["chunk"])
    for chunk, threads in itertools.product(chunks, (1, 2)):
        with mock.patch.object(engine, "noise_matrix", noise), \
                mock.patch.object(engine, "_CHUNK_ELEMENTS", chunk), \
                pytest.raises(NonFiniteState) as err:
            if case["via"] == "run_nested":
                # a blown-up site may lie outside the inner volume
                vols = volumes_of(N, case["inner"], range(N))
                run_nested(field, vols, normal_init(plan, N), plan,
                           n_threads=threads)
            else:
                init = np.zeros((plan.replicas, N))
                init[:, 0] = 1.0
                engine.integrate_replicas(field, np.ones((1, N), dtype=bool), init,
                                          plan, plan.n_steps, n_threads=threads)
        got = (err.value.replica, err.value.site, err.value.step)
        assert got == want, (chunk, threads)
        assert "replica {}, site {}, step {}".format(*want) in str(err.value)


@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(0, 6), n_steps=st.integers(1, 4), replicas=st.integers(1, 5),
       inner=st.sets(st.integers(0, N - 1), min_size=1, max_size=N - 1),
       threads=st.sampled_from([1, 2]), chunk=st.integers(1, 200))
def test_zero_newton_denominator_raises_without_warning(k, n_steps, replicas, inner,
                                                        threads, chunk):
    # phi(s) = s / dt with dt = 2^-k makes 1 - dt * phi' exactly zero at
    # every site; the first active site of the first volume is named.
    dt = 2.0 ** -k
    base = make_field(CHAIN)
    lin = SinglePotentialDrift(Polynomial((0.0, 1.0 / dt)))
    field = dataclasses.replace(base, drift=lin)
    plan = SimPlan(dt=dt, T=dt * n_steps, scheme="split_step_implicit",
                   replicas=replicas, master_seed=5)
    vols = volumes_of(N, inner, range(N))
    with warnings.catch_warnings(), \
            mock.patch.object(engine, "_CHUNK_ELEMENTS", chunk):
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"zero or non-finite at site "
                                               rf"{min(inner)} \(step 0\)"):
            run_nested(field, vols, normal_init(plan, N), plan,
                       n_threads=threads)
