import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from spindyn import (Configuration, ParameterError, build_graph,
                     configuration_from_csv, configuration_to_csv,
                     fit_degree_constant, graph_to_csv, lattice_configuration,
                     sample_poisson)


def test_lattice_neighbors_radius_1_5():
    g = build_graph(lattice_configuration(-5, 5), 1.5)
    assert g.n_sites == 11
    # interior site: left and right lattice neighbours
    assert g.closed_neighborhood(5) == [5, 4, 6]
    assert g.nbar_count[5] == 3
    # endpoint has a single neighbour
    assert g.closed_neighborhood(0) == [0, 1]
    assert g.nbar_count[0] == 2


def test_closed_neighborhood_includes_self_first():
    g = build_graph(lattice_configuration(0, 3), 1.1)
    assert g.closed_neighborhood(1) == [1, 0, 2]


def test_isolated_points():
    cfg = Configuration(positions=np.array([[0.0], [10.0]]),
                        window=np.array([[-1.0, 11.0]]))
    g = build_graph(cfg, 1.0)
    assert [g.closed_neighborhood(x) for x in range(2)] == [[0], [1]]
    assert list(g.nbar_count) == [1, 1]
    assert len(g.edges()) == 0


def test_pair_at_exact_radius_is_adjacent():
    cfg = Configuration(positions=np.array([[0.0], [1.0]]),
                        window=np.array([[-1.0, 2.0]]))
    g = build_graph(cfg, 1.0)
    assert g.closed_neighborhood(0) == [0, 1]


def test_rho_must_be_positive():
    cfg = lattice_configuration(0, 1)
    with pytest.raises(ParameterError):
        build_graph(cfg, 0.0)


def test_points_outside_window_rejected():
    with pytest.raises(ParameterError):
        Configuration(positions=np.array([[5.0]]), window=np.array([[0.0, 1.0]]))


def test_nonfinite_positions_rejected():
    with pytest.raises(ParameterError):
        Configuration(positions=np.array([[np.nan]]), window=np.array([[-1.0, 1.0]]))


@st.composite
def point_sets(draw):
    """(positions, rho): random 1-3 D points, or integer lattice points whose
    pairs sit at exactly rho, with some sites repeated."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 120))
    if draw(st.booleans()):
        coords = st.integers(-3, 3).map(float)
        rho = draw(st.sampled_from([1.0, 2.0, np.sqrt(2.0)]))
    else:
        coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
        rho = draw(st.floats(0.05, 3.0))
    pos = np.asarray(draw(st.lists(coords, min_size=n * dim, max_size=n * dim)),
                     dtype=float).reshape(n, dim)
    if n:
        pos = np.vstack([pos, pos[draw(st.lists(st.integers(0, n - 1), max_size=4))]])
    return pos, rho


def _reference_neighbourhoods(pos, rho):
    """O(N^2) closed neighbourhoods: self first, then ascending."""
    out = []
    for x in range(pos.shape[0]):
        d2 = np.sum((pos - pos[x]) ** 2, axis=-1)
        out.append([x] + [y for y in np.flatnonzero(d2 <= rho * rho).tolist() if y != x])
    return out


@seed(20240611)
@settings(max_examples=200, deadline=None, database=None)
@given(point_sets())
@example((np.zeros((0, 2)), 1.0))
@example((np.zeros((1, 3)), 1.0))
@example((np.array([[0.0], [1.0], [2.0], [1.0]]), 1.0))
@example((np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), float(np.sqrt(2.0))))
@example((np.random.default_rng(7).uniform(-20, 20, size=(2500, 2)), 1.3))
def test_build_graph_matches_quadratic_reference(case):
    pos, rho = case
    dim = pos.shape[1]
    lo = pos.min(axis=0) - 1.0 if pos.size else np.full(dim, -1.0)
    hi = pos.max(axis=0) + 1.0 if pos.size else np.full(dim, 1.0)
    g = build_graph(Configuration(positions=pos, window=np.stack([lo, hi], axis=1)), rho)
    want = _reference_neighbourhoods(pos, rho)
    assert [g.closed_neighborhood(x) for x in range(g.n_sites)] == want
    assert list(g.nbar_count) == [len(v) for v in want]
    assert g.indptr.dtype == g.indices.dtype == np.int64
    edges = g.edges()
    assert edges.shape[1] == 2 and edges.dtype == np.int64
    assert edges.tolist() == [[x, y] for x, v in enumerate(want) for y in v[1:] if x < y]


def test_poisson_deterministic_and_in_window():
    win = np.array([[-3.0, 3.0], [-2.0, 2.0]])
    c1 = sample_poisson(2.0, win, seed=11)
    c2 = sample_poisson(2.0, win, seed=11)
    assert np.array_equal(c1.positions, c2.positions)
    assert np.all(c1.positions >= win[:, 0]) and np.all(c1.positions <= win[:, 1])
    c3 = sample_poisson(2.0, win, seed=12)
    assert c1.positions.shape != c3.positions.shape or \
        not np.array_equal(c1.positions, c3.positions)


def test_poisson_count_scale():
    # Mean count = intensity * volume; check a loose 5-sigma band.
    win = np.array([[0.0, 20.0], [0.0, 20.0]])
    counts = [sample_poisson(1.0, win, seed=s).n_sites for s in range(20)]
    mean = np.mean(counts)
    assert abs(mean - 400) < 5 * np.sqrt(400 / 20)


def test_degree_constant_lattice():
    g = build_graph(lattice_configuration(-24, 25), 1.5)
    # interior n_x = 3 at |x| -> the max of n_x / (1 + log(1+|x|)) is at the
    # origin region where the log weight is smallest
    c = fit_degree_constant(g)
    r = g.radii()
    expected = max(g.nbar_count / (1 + np.log1p(r)))
    assert c == pytest.approx(expected)
    assert np.all(g.nbar_count <= c * (1 + np.log1p(r)) + 1e-12)


def test_empty_graph_degree_constant_rejected():
    cfg = Configuration(positions=np.zeros((0, 1)), window=np.array([[-1.0, 1.0]]))
    g = build_graph(cfg, 1.0)
    with pytest.raises(ParameterError):
        fit_degree_constant(g)


def test_csv_round_trip(tmp_path):
    cfg = lattice_configuration(-3, 3)
    p = tmp_path / "conf.csv"
    configuration_to_csv(cfg, p)
    back = configuration_from_csv(p, window=cfg.window)
    assert np.allclose(back.positions, cfg.positions)
    g = build_graph(cfg, 1.5)
    graph_to_csv(g, tmp_path / "deg.csv", tmp_path / "edges.csv")
    deg = np.loadtxt(tmp_path / "deg.csv", delimiter=",", skiprows=1)
    assert deg.shape == (7, 3)
    assert np.array_equal(deg[:, 2], g.nbar_count)
    edges = np.loadtxt(tmp_path / "edges.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(edges) == 6
