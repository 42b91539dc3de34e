"""Property tests for the engine's fail-fast guarantees: off-grid horizons,
non-finite states and singular Newton steps are reported, with their
(replica, site, step), for any chunk size and thread count."""

import dataclasses
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import spindyn.engine as engine
from spindyn import (NonFiniteState, NumericError, ParameterError, RandomInit,
                     SimPlan, SinglePotentialDrift, VolumeSequence, WeightedSeq,
                     build_graph, lattice_configuration, make_field, run_nested,
                     semigroup_apply)
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
    replicas = draw(st.integers(1, 6))
    n_steps = draw(st.integers(1, 5))
    return dict(replicas=replicas, n_steps=n_steps,
                replica=draw(st.integers(0, replicas - 1)),
                site=draw(st.integers(0, N - 1)),
                step=draw(st.integers(0, n_steps - 1)),
                value=draw(st.sampled_from([np.inf, -np.inf, np.nan])),
                chunk=draw(st.integers(1, 2 * N * n_steps * replicas)),
                threads=draw(st.sampled_from([1, 2])),
                via=draw(st.sampled_from(["run_nested", "semigroup_apply"])),
                scheme=draw(st.sampled_from(SCHEMES)),
                inner=frozenset(draw(st.sets(st.integers(0, N - 2), min_size=1))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@seed(20261018)
@settings(max_examples=60, deadline=None, database=None)
@given(blow_ups())
def test_blow_up_names_global_replica_site_and_step(case):
    # A non-finite Wiener increment at (replica, site, step) makes that
    # state non-finite one step later, and nothing is non-finite earlier.
    # Under the implicit scheme the Newton screen meets that state first.
    field = make_field(CHAIN, drift="cubic", coupling="linear_pair", J=0.2,
                       noise="additive")
    plan = SimPlan(dt=0.01, T=0.01 * case["n_steps"], scheme=case["scheme"],
                   replicas=case["replicas"], master_seed=3, p=4.0)
    clean = engine.noise_matrix

    def noise(master_seed, replica, site_ids, n_steps):
        out = clean(master_seed, replica, site_ids, n_steps)
        if replica == case["replica"]:
            out[case["site"], case["step"]] = case["value"]
        return out

    with mock.patch.object(engine, "noise_matrix", noise), \
            mock.patch.object(engine, "_CHUNK_ELEMENTS", case["chunk"]), \
            pytest.raises(NonFiniteState) as err:
        if case["via"] == "run_nested":
            # the blown-up site may lie outside the inner volume
            vols = VolumeSequence((case["inner"], range(N)), N)
            run_nested(field, vols, RandomInit("normal", 0.0, 1.0), plan,
                       n_threads=case["threads"])
        else:
            semigroup_apply(field, lambda s: 0.0, WeightedSeq({0: 1.0}, CHAIN),
                            plan.T, plan)
    want = (case["replica"], case["site"], case["step"] + 1)
    assert (err.value.replica, err.value.site, err.value.step) == want
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
    lin = SinglePotentialDrift(phi=lambda s: s / dt,
                               dphi=lambda s: np.full_like(s, 1.0 / dt),
                               c=1.0 / dt, R=2.0, b=1.0 / dt)
    field = dataclasses.replace(base, drift=lin)
    plan = SimPlan(dt=dt, T=dt * n_steps, scheme="split_step_implicit",
                   replicas=replicas, master_seed=5)
    vols = VolumeSequence((inner, range(N)), N)
    with warnings.catch_warnings(), \
            mock.patch.object(engine, "_CHUNK_ELEMENTS", chunk):
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"zero or non-finite at site "
                                               rf"{min(inner)} \(step 0\)"):
            run_nested(field, vols, RandomInit("normal", 0.0, 1.0), plan,
                       n_threads=threads)
