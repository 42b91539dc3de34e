import dataclasses

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spindyn import (CoefficientField, Configuration, ParameterError,
                     SinglePotentialDrift, WeightedSeq, build_graph,
                     eval_diffusion, eval_drift, gradient_dynamics_field,
                     lattice_configuration, make_field, make_model,
                     validate_assumptions)


@pytest.fixture(scope="module")
def graph():
    return build_graph(lattice_configuration(-3, 3), 1.5)


def test_drift_constants_validated():
    with pytest.raises(ParameterError):
        SinglePotentialDrift(phi=lambda s: -s, c=0.0, R=2.0, b=0.0)
    with pytest.raises(ParameterError):
        SinglePotentialDrift(phi=lambda s: -s, c=1.0, R=1.5, b=0.0)


def test_cubic_drift_with_linear_pair_closed_form(graph):
    field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.5)
    state = WeightedSeq(np.arange(graph.n_sites, dtype=float), graph)
    # site 3 (interior): neighbours 2 and 4, closed neighbourhood {3,2,4}
    # Phi_3 = -27 + 0.5*(3 + 2 + 4)
    assert eval_drift(field, state, 3) == pytest.approx(-27.0 + 0.5 * 9.0)
    # endpoint site 0: neighbourhood {0, 1}
    assert eval_drift(field, state, 0) == pytest.approx(0.0 + 0.5 * 1.0)


def test_additive_noise_is_unit(graph):
    field = make_field(graph, drift="cubic", coupling="zero", noise="additive")
    state = WeightedSeq(np.random.default_rng(0).standard_normal(graph.n_sites),
                        graph)
    for x in range(graph.n_sites):
        assert eval_diffusion(field, state, x) == pytest.approx(1.0)


def test_linear_noise_sums_neighbourhood(graph):
    field = make_field(graph, drift="linear", noise="linear_noise", M_tilde=2.0)
    state = WeightedSeq(np.ones(graph.n_sites), graph)
    # Psi_x = 2 * nbar_x for the all-ones state
    for x in range(graph.n_sites):
        assert eval_diffusion(field, state, x) == pytest.approx(
            2.0 * graph.nbar_count[x])


def test_vectorised_matches_sitewise(graph):
    field = make_field(graph, drift="cubic", coupling="linear_pair", J=-0.3)
    rng = np.random.default_rng(1)
    states = rng.standard_normal((4, graph.n_sites))
    block = field.drift_all(states)
    for i in range(4):
        z = WeightedSeq(states[i], graph)
        for x in range(graph.n_sites):
            assert block[i, x] == pytest.approx(eval_drift(field, z, x))


def test_cubic_preset_passes_validator(graph):
    field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.1)
    report = validate_assumptions(field, trials=20000, seed=0)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report["phi_dissipative"].passed
    assert report["site_drift_pairing"].passed


def test_quadratic_drift_rejected_with_counterexample(graph):
    # phi(s) = s^2 is not one-sided Lipschitz with b = 0: the validator must
    # produce a concrete violating pair.
    bad = SinglePotentialDrift(phi=lambda s: s ** 2, c=1.0, R=2.0, b=0.0)
    field = dataclasses.replace(make_field(graph), drift=bad)
    report = validate_assumptions(field, trials=5000, seed=0)
    assert not report.passed
    check = report["phi_dissipative"]
    assert not check.passed
    s1, s2 = check.counterexample[:2]
    assert (s1 - s2) * (s1 ** 2 - s2 ** 2) > 0  # the violation is real


def test_growth_violation_detected(graph):
    bad = SinglePotentialDrift(phi=lambda s: 100.0 * s ** 2, c=1.0, R=2.0, b=100.0)
    field = dataclasses.replace(make_field(graph), drift=bad)
    report = validate_assumptions(field, trials=5000, seed=0)
    assert not report["phi_growth"].passed


def test_nan_slack_fails_its_check(graph):
    # phi is NaN beyond |s| = 5: a slack that cannot be evaluated must not
    # pass, in the single-site checks and the per-site ones alike.
    nan_phi = SinglePotentialDrift(phi=lambda s: np.where(np.abs(s) > 5, np.nan, -s),
                                   c=1.0, R=2.0, b=0.0)
    field = dataclasses.replace(make_field(graph), drift=nan_phi)
    report = validate_assumptions(field, trials=2000, seed=0)
    for name in ("phi_growth", "phi_dissipative", "site_drift_growth",
                 "site_drift_pairing"):
        assert not report[name].passed and np.isnan(report[name].worst_margin)
    assert report["site_diff_lipschitz"].passed


def test_linear_preset_passes(graph):
    field = make_field(graph, drift="linear", coupling="zero")
    assert validate_assumptions(field, trials=10000, seed=3).passed


def test_validator_rejects_bad_arguments(graph):
    field = make_field(graph)
    with pytest.raises(ParameterError):
        validate_assumptions(field, trials=0)
    with pytest.raises(ParameterError):
        validate_assumptions(field, box=-1.0)


def test_unknown_presets_rejected(graph):
    with pytest.raises(ParameterError):
        make_field(graph, drift="quintic")
    with pytest.raises(ParameterError):
        make_field(graph, coupling="magnetic")
    with pytest.raises(ParameterError):
        make_field(graph, noise="multiplicative")


def test_site_out_of_range(graph):
    field = make_field(graph)
    z = WeightedSeq(np.zeros(graph.n_sites), graph)
    with pytest.raises(ParameterError):
        eval_drift(field, z, graph.n_sites)


@st.composite
def weighted_fields(draw):
    """A random 1-D or 2-D point set with random weights per CSR entry,
    some of them exactly zero, and a random diffusion constant."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = 4.0
    config = Configuration(positions=rng.uniform(0.0, side, size=(n, dim)),
                           window=np.array([[0.0, side]] * dim))
    graph = build_graph(config, draw(st.floats(0.2, 2.5)))
    e = graph.indices.size
    w_drift, w_diff = rng.uniform(-3.0, 3.0, size=(2, e))
    w_drift[rng.uniform(size=e) < 0.2] = 0.0
    w_diff[rng.uniform(size=e) < 0.2] = 0.0
    field = CoefficientField(drift=make_field(graph).drift, graph=graph,
                             drift_weights=w_drift, diff_weights=w_diff,
                             diff_const=draw(st.floats(-5.0, 5.0)))
    replicas = draw(st.sampled_from([None, 1, 4]))
    shape = (n,) if replicas is None else (replicas, n)
    return field, rng.uniform(-3.0, 3.0, size=shape)


def _pair_terms_by_loop(field, z):
    """A z, S z and the sums of |terms| of each, entry by entry."""
    g = field.graph
    out = np.zeros((4, g.n_sites))
    for x in range(g.n_sites):
        for k, y in enumerate(g.closed_neighborhood(x), start=g.indptr[x]):
            a, s = field.drift_weights[k] * z[y], field.diff_weights[k] * z[y]
            out[:, x] += (a, s, abs(a), abs(s))
    return out


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(weighted_fields())
def test_operators_match_entrywise_loop(case):
    field, state = case
    drift, diff = field.drift_all(state), field.diffusion_all(state)
    assert drift.shape == diff.shape == state.shape
    for row, got_drift, got_diff in zip(np.atleast_2d(state), np.atleast_2d(drift),
                                        np.atleast_2d(diff)):
        a, s, a_abs, s_abs = _pair_terms_by_loop(field, row)
        phi = field.drift.phi(row)
        c = field.diff_const
        assert np.all(np.abs(got_drift - (phi + a)) <= 1e-12 * (np.abs(phi) + a_abs))
        assert np.all(np.abs(got_diff - (s + c)) <= 1e-12 * (s_abs + abs(c)))


@pytest.mark.parametrize("kwargs, a_bar, M", [
    (dict(coupling="zero", noise="additive"), 1.0, 1.0),
    (dict(coupling="linear_pair", J=0.2), 1.0, 1.0),
    (dict(coupling="linear_pair", J=-2.5), 2.5, 1.0),
    (dict(noise="linear_noise", M_tilde=0.5), 1.0, 1.0),
    (dict(coupling="linear_pair", J=1.5, noise="linear_noise", M_tilde=-3.0),
     1.5, 3.0),
])
def test_computed_pair_constants_equal_preset_values(graph, kwargs, a_bar, M):
    # max(|J|, 1) and max(|M_tilde|, 1), as the presets once declared them
    field = make_field(graph, **kwargs)
    assert (field.a_bar, field.M) == (a_bar, M)


@pytest.mark.parametrize("J", [0.0, 0.3, 3.0])
def test_gradient_dynamics_pair_constants(graph, J):
    model = make_model(graph, potential="quartic", J=J)
    field = gradient_dynamics_field(model)
    assert field.a_bar == max(abs(J) / 2, 1.0)
    assert field.M == 1.0


def test_weights_of_wrong_length_rejected(graph):
    base = make_field(graph)
    e = graph.indices.size
    for name in ("drift_weights", "diff_weights"):
        for bad in (np.ones(e - 1), np.ones(e + 1), np.ones((1, e))):
            with pytest.raises(ParameterError, match=name):
                dataclasses.replace(base, **{name: bad})
