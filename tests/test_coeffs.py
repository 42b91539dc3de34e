import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import closed_neighborhood
from spindyn import (CoefficientField, Configuration, ParameterError, Polynomial,
                     SinglePotentialDrift, build_graph, gradient_dynamics_field,
                     lattice_configuration, make_field, make_model)


@pytest.fixture(scope="module")
def graph():
    return build_graph(lattice_configuration(-3, 3), 1.5)


def test_drift_constants_validated():
    # phi' unbounded above leaves no one-sided Lipschitz constant.
    for coeffs in ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, -1.0)):
        with pytest.raises(ParameterError, match="unbounded above"):
            SinglePotentialDrift(Polynomial(coeffs))
    for bad in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            Polynomial((0.0, bad))
    assert SinglePotentialDrift(Polynomial(())).b == 0.0


def test_cubic_drift_with_linear_pair_closed_form(graph):
    field = make_field(graph, drift="cubic", coupling="linear_pair", J=0.5)
    drift = field.drift_all(np.arange(graph.n_sites, dtype=float))
    # site 3 (interior): neighbours 2 and 4, closed neighbourhood {3,2,4}
    # Phi_3 = -27 + 0.5*(3 + 2 + 4)
    assert drift[3] == pytest.approx(-27.0 + 0.5 * 9.0)
    # endpoint site 0: neighbourhood {0, 1}
    assert drift[0] == pytest.approx(0.0 + 0.5 * 1.0)


def test_additive_noise_is_unit(graph):
    field = make_field(graph, drift="cubic", coupling="zero", noise="additive")
    state = np.random.default_rng(0).standard_normal(graph.n_sites)
    assert field.diffusion_all(state) == pytest.approx(np.ones(graph.n_sites))


def test_linear_noise_sums_neighbourhood(graph):
    field = make_field(graph, drift="linear", noise="linear_noise", M_tilde=2.0)
    # Psi_x = 2 * nbar_x for the all-ones state
    assert field.diffusion_all(np.ones(graph.n_sites)) == pytest.approx(
        2.0 * graph.nbar_count)


def test_vectorised_matches_sitewise(graph):
    field = make_field(graph, drift="cubic", coupling="linear_pair", J=-0.3)
    rng = np.random.default_rng(1)
    states = rng.standard_normal((4, graph.n_sites))
    block = field.drift_all(states)
    for i in range(4):
        assert block[i] == pytest.approx(field.drift_all(states[i]))


def _phi_slacks(drift, s1, s2):
    """Growth and dissipativity slacks of a drift at the pairs (s1, s2)."""
    (c, R), ds = drift.phi.growth(), s1 - s2
    return (c * (1 + np.abs(s1) ** R) - np.abs(drift.phi(s1)),
            drift.b * ds ** 2 - ds * (drift.phi(s1) - drift.phi(s2)))


def test_cubic_preset_passes_validator(graph):
    d = make_field(graph, drift="cubic", coupling="linear_pair", J=0.1).drift
    assert (*d.phi.growth(), d.b) == (1.0, 3.0, 0.0)
    s1, s2 = np.random.default_rng(0).uniform(-10.0, 10.0, size=(2, 20000))
    assert all(np.all(slack >= 0) for slack in _phi_slacks(d, s1, s2))


def test_growth_violation_detected():
    # The constants are computed, so 100 s^2 gets c = 100 where c = 1 failed.
    p = Polynomial((0.0, 0.0, 100.0))
    assert p.growth() == (100.0, 2.0)
    s = np.random.default_rng(0).uniform(-10.0, 10.0, size=5000)
    assert np.all(np.abs(p(s)) <= 100.0 * (1 + s ** 2))
    assert np.any(np.abs(p(s)) > 1 + s ** 2)
    # c = sum |a_k| is rounded up where the float sum is below it.
    c, _ = Polynomial((1.0, 2.0 ** -60)).growth()
    assert c == np.nextafter(1.0, 2.0)


def test_linear_preset_passes(graph):
    d = make_field(graph, drift="linear", coupling="zero").drift
    assert (*d.phi.growth(), d.b) == (1.0, 2.0, -1.0)
    s1, s2 = np.random.default_rng(3).uniform(-10.0, 10.0, size=(2, 10000))
    assert all(np.all(slack >= 0) for slack in _phi_slacks(d, s1, s2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_presets_evaluate_bit_for_bit_as_their_closed_forms(graph):
    # Ascending terms with binary powers: Horner's form or np.polyval would
    # flip the sign of some zeros and round the quartic differently.
    s = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, 1e154,
                         -1e154, 1e103], np.random.default_rng(0).standard_normal(1000),
                        np.exp(np.random.default_rng(1).uniform(-700, 700, 1000))])
    s = np.concatenate([s, -s])
    cubic, linear = (make_field(graph, drift=d).drift.phi for d in ("cubic", "linear"))
    quartic, gauss = (make_model(graph, potential=v) for v in ("quartic", "gaussian"))
    pairs = [(cubic, -s * s * s), (cubic.deriv(), -3.0 * s ** 2), (linear, -s),
             (linear.deriv(), -np.ones_like(s)), (quartic.V, (s * s) * (s * s) / 4.0),
             (quartic.grad_V, s * s * s), (gauss.V, s ** 2 / 2.0), (gauss.grad_V, s),
             (gradient_dynamics_field(quartic).drift.phi, -0.5 * (s * s * s)),
             (gradient_dynamics_field(gauss).drift.phi, -0.5 * s)]
    for p, want in pairs:
        assert p(s).tobytes() == want.tobytes(), p


def test_unknown_presets_rejected(graph):
    with pytest.raises(ParameterError):
        make_field(graph, drift="quintic")
    with pytest.raises(ParameterError):
        make_field(graph, coupling="magnetic")
    with pytest.raises(ParameterError):
        make_field(graph, noise="multiplicative")


@st.composite
def weighted_fields(draw):
    """A random 1-D or 2-D point set with random weights per CSR entry,
    some of them exactly zero, and a random diffusion constant."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    side = 4.0
    config = Configuration(positions=rng.uniform(0.0, side, size=(n, dim)))
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
        for k, y in enumerate(closed_neighborhood(g, x), start=g.indptr[x]):
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


_COEF = st.floats(-10.0, 10.0)
_LEAD = st.floats(1e-3, 10.0)


@st.composite
def certifiable_phis(draw):
    """A phi of degree <= 5 with phi' bounded above: degree 0 or 1, or odd
    with a negative leading coefficient."""
    deg = draw(st.sampled_from([0, 1, 3, 5]))
    sign = -1.0 if deg >= 3 else draw(st.sampled_from([-1.0, 1.0]))
    return Polynomial(draw(st.lists(_COEF, min_size=deg, max_size=deg)) + [sign * draw(_LEAD)])


@st.composite
def potentials(draw):
    """A V of even degree 2 or 4 with a positive leading coefficient."""
    deg = draw(st.sampled_from([2, 4]))
    return Polynomial(draw(st.lists(_COEF, min_size=deg, max_size=deg)) + [draw(_LEAD)])


def _mp_sup(p):
    """sup of p over the reals at 50 digits: its largest value at 0 and at
    the real parts of the zeros of p'."""
    with mpmath.workdps(50):
        a = [mpmath.mpf(x) for x in p.coeffs]
        d = [k * a[k] for k in range(1, len(a))]
        while d and d[0] == 0:  # zeros of p' at 0
            d.pop(0)
        xs = [mpmath.mpf(0)]
        if len(d) > 1:
            xs += [mpmath.re(z) for z in mpmath.polyroots(d[::-1], maxsteps=500,
                                                          extraprec=500)]
        return max(mpmath.polyval(a[::-1], x) for x in xs)


def _mp(p, s):
    return mpmath.polyval([mpmath.mpf(a) for a in p.coeffs[::-1]], mpmath.mpf(s))


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(certifiable_phis(), potentials(), st.integers(0, 2 ** 32 - 1))
def test_computed_certificates_hold(phi, V, sample_seed):
    drift = SinglePotentialDrift(phi)
    c, R = phi.growth()
    model = make_model(build_graph(lattice_configuration(0, 0), 1.0))
    model = dataclasses.replace(model, V=V)
    a_V, tau = model.a_V, model.tau
    gap = Polynomial([-a for a in V.coeffs[:-1]] + [-a_V])  # a_V u^tau - V
    assert model.b_V == max(0.0, gap.sup())
    # sup() is an upper bound, and within 1e-9 of the 50-digit supremum.
    for p in (phi.deriv(), gap):
        got, want = p.sup(), _mp_sup(p)
        assert mpmath.mpf(got) >= want
        assert got - want <= 1e-9 * max(1.0, abs(want))
    # Growth, dissipativity and V's lower bound hold exactly: 400 bits hold
    # every product of these doubles.
    s1, s2 = np.random.default_rng(sample_seed).uniform(-10.0, 10.0, size=(2, 40))
    with mpmath.workprec(400):
        for x, y in zip(s1, s2):
            assert abs(_mp(phi, x)) <= c * (1 + abs(mpmath.mpf(x)) ** R)
            dx = mpmath.mpf(x) - mpmath.mpf(y)
            assert dx * (_mp(phi, x) - _mp(phi, y)) <= drift.b * dx ** 2
            assert _mp(V, x) >= a_V * abs(mpmath.mpf(x)) ** tau - model.b_V


def _site_slacks(field, z1, z2):
    """The four per-site inequalities for Phi and Psi at the state pairs
    (z1, z2), written out as slacks (>= 0 where they hold)."""
    g, d, a_bar, M = field.graph, field.drift, field.a_bar, field.M
    c, R = d.phi.growth()
    n = g.nbar_count.astype(float)
    open_w = np.ones(g.indices.size)
    open_w[g.indptr[:-1]] = 0.0
    adj = g.operator(open_w)  # sums over the neighbours y != x

    dz = z1 - z2
    phi1, phi2 = field.drift_all(z1), field.drift_all(z2)
    psi1, psi2 = field.diffusion_all(z1), field.diffusion_all(z2)
    return {
        "site_diff_lipschitz": M * (n + 1) * np.abs(dz) + M * (adj @ np.abs(dz).T).T
        - np.abs(psi1 - psi2),
        "site_diff_at_zero": M * n - np.abs(field.diffusion_all(np.zeros(g.n_sites))),
        "site_drift_growth": c * (1 + np.abs(z1) ** R) + a_bar * n * (1 + 2 * np.abs(z1))
        + a_bar * (adj @ np.abs(z1).T).T - np.abs(phi1),
        "site_drift_pairing": (d.b + 0.5 + 4 * a_bar ** 2 * n ** 2) * dz ** 2
        + 0.5 * a_bar ** 2 * n * (adj @ (dz * dz).T).T - dz * (phi1 - phi2),
    }


@seed(20261019)
@settings(max_examples=100, deadline=None, database=None)
@given(weighted_fields(), certifiable_phis(), st.floats(-2.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_site_inequalities_fail_only_where_phi_checks_fail(case, phi, log_scale, state_seed):
    # SinglePotentialDrift's docstring derives the four per-site inequalities
    # from phi's computed growth and dissipativity constants, which hold
    # everywhere.  Check that derivation on random fields and phis, weight
    # scales from 1e-2 to 1e3 and state pairs in [-10, 10].
    field, _ = case
    scale = 10.0 ** log_scale
    field = dataclasses.replace(field, drift=SinglePotentialDrift(phi),
                                drift_weights=scale * field.drift_weights,
                                diff_weights=scale * field.diff_weights)
    rng = np.random.default_rng(state_seed)
    z1, z2 = rng.uniform(-10.0, 10.0, size=(2, 500, field.graph.n_sites))
    for name, slack in _site_slacks(field, z1, z2).items():
        assert np.all(slack >= 0), name


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
        # A non-finite weight is named by its field and its entry.
        for value in (np.nan, np.inf, -np.inf):
            bad = np.ones(e)
            bad[3] = value
            with pytest.raises(ParameterError,
                               match=rf"^{name}: weight of entry 3, \(1, 0\), is "):
                dataclasses.replace(base, **{name: bad})


def _every_term_multiplied(p, s):
    """p(s) with every nonzero term a_k s^k multiplied out, 1.0 s^k too."""
    if p.degree < 1:
        return np.full_like(s, p.coeffs[0] if p.coeffs else 0.0)
    out, pw = None, [None, s]
    for k, a in enumerate(p.coeffs):
        if k > 1:
            pw.append(pw[k - 1] * s if k % 2 else pw[k // 2] * pw[k // 2])
        if a:
            term = a * pw[k] if k else a
            out = term if out is None else out + term
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("coeffs", [
    (0.0, 0.0, 0.0, 0.0, 0.25), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0, -1.0), (0.0, -1.0),
    (0.0, 1.0), (1.0, -1.0, 0.0, 1.0), (-1.0, 0.0, 1.0, -1.0, 0.5),
    (2.0, 1.0, -1.0, 0.0, -1.0, 0.0, 1.0), (0.0, 0.0, 1.0), (3.0,), ()])
def test_shared_powers_evaluate_bit_for_bit(coeffs):
    # One table of powers serves p and p', and a +-1 coefficient adds or
    # subtracts its power unmultiplied: both keep every byte of the plain
    # evaluation, at signed zeros, subnormals, overflow and non-finite s.
    s = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e154, 1e103, 1e308,
                         np.inf, np.nan], np.random.default_rng(3).standard_normal(200),
                        np.exp(np.random.default_rng(4).uniform(-700, 700, 200))])
    s = np.concatenate([s, -s])
    given = s.copy()
    p = Polynomial(coeffs)
    pw = Polynomial.powers(s, max(p.degree, 1))
    for q in (p, p.deriv()):
        want = _every_term_multiplied(q, s).tobytes()
        assert q(s).tobytes() == want and q(s, pw).tobytes() == want, q
        assert q(s) is not s and q(s, pw) is not s
    assert s.tobytes() == given.tobytes()
    assert [w.tobytes() for w in pw[2:]] == [
        w.tobytes() for w in Polynomial.powers(given, max(p.degree, 1))[2:]]
