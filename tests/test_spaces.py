import numpy as np
import pytest

from helpers import sparse_seq
from spindyn import (ParameterError, ScaleInterval, WeightedSeq, build_graph,
                     lattice_configuration, norm_l1, weighted_seq_from_csv)

SCALE = ScaleInterval(0.0, 2.0)


@pytest.fixture
def graph():
    return build_graph(lattice_configuration(-5, 5), 1.5)


def test_scale_interval_validation():
    with pytest.raises(ParameterError):
        ScaleInterval(1.0, 1.0)
    with pytest.raises(ParameterError):
        ScaleInterval(-0.5, 1.0)
    s = ScaleInterval(0.25, 1.75)
    assert s.contains(0.25) and s.contains(1.75) and not s.contains(2.0)
    assert s.width == pytest.approx(1.5)


def test_norm_single_site_closed_form(graph):
    # One nonzero entry at position x: norm = e^{-alpha |x|} |z_x|
    z = sparse_seq(graph, {8: 3.0})  # site 8 sits at coordinate 3
    for alpha in (0.0, 0.5, 1.5):
        expected = np.exp(-alpha * 3.0) * 3.0
        assert norm_l1(z, alpha, SCALE) == pytest.approx(expected, rel=1e-12)


def test_norm_hand_sum(graph):
    z = sparse_seq(graph, {5: 1.0, 6: -2.0})  # positions 0 and 1
    expected = 1.0 + np.exp(-0.7) * 2.0
    assert norm_l1(z, 0.7, SCALE) == pytest.approx(expected, rel=1e-12)


def test_zero_vector_norm(graph):
    assert norm_l1(WeightedSeq(np.zeros(graph.n_sites), graph), 1.0, SCALE) == 0.0


def test_alpha_outside_scale_rejected(graph):
    z = sparse_seq(graph, {0: 1.0})
    with pytest.raises(ParameterError, match=r"alpha=3\.0 outside scale \[0\.0, 2\.0\]"):
        norm_l1(z, 3.0, SCALE)


def test_norms_non_increasing_in_alpha(graph):
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = WeightedSeq(rng.standard_normal(graph.n_sites), graph)
        alphas = np.unique(rng.uniform(0.0, 2.0, size=5))
        norms = [norm_l1(z, a, SCALE) for a in alphas]
        assert all(nb <= na * (1 + 1e-12) for na, nb in zip(norms, norms[1:]))


def test_dense_round_trip(graph):
    vec = np.arange(graph.n_sites, dtype=float) - 5
    z = WeightedSeq(vec, graph)
    assert np.array_equal(z.values, vec)
    assert z.values[0] == -5.0 and z.values[10] == 5.0
    # a read-only copy: neither the caller's array nor z can change the other
    vec[0] = 99.0
    assert z.values[0] == -5.0 and vec.flags.writeable
    with pytest.raises(ValueError):
        z.values[1] = 0.0


def test_wrong_length_rejected(graph):
    n = graph.n_sites
    for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n)), 0.0):
        with pytest.raises(ParameterError, match="shape"):
            WeightedSeq(bad, graph)


def test_non_finite_value_names_its_site(graph):
    for bad in (np.inf, -np.inf, np.nan):
        vec = np.zeros(graph.n_sites)
        vec[[4, 7]] = bad
        with pytest.raises(ParameterError, match="non-finite value at site 4$"):
            WeightedSeq(vec, graph)


def test_csv_round_trip(tmp_path, graph):
    p = tmp_path / "z.csv"
    p.write_text("site_id,value\n0,1.5\n7,-2.25\n")
    back = weighted_seq_from_csv(p, graph)
    assert np.array_equal(back.values, sparse_seq(graph, {0: 1.5, 7: -2.25}).values)
    p.write_text("site_id,value\n")
    assert not weighted_seq_from_csv(p, graph).values.any()


@pytest.mark.parametrize("rows, named", [
    ("11,1.0\n", "site_id 11 outside 0..10"),
    ("-1,1.0\n", "site_id -1 outside 0..10"),
    ("2.5,1.0\n", "site_id 2.5 outside 0..10"),
    ("3,1.0\n5,2.0\n3,4.0\n", "site_id 3 is repeated"),
])
def test_csv_malformed_site_ids_rejected(tmp_path, graph, rows, named):
    p = tmp_path / "z.csv"
    p.write_text("site_id,value\n" + rows)
    with pytest.raises(ParameterError, match=named):
        weighted_seq_from_csv(p, graph)


@pytest.mark.parametrize("rows, line", [
    ("0,1.0\n1,abc\n", 3),
    ("0,1.0\n1\n", 3),
    ("0,1.0\n\n# note\n2\n", 5),
    ("3\n", 2),
])
def test_csv_malformed_row_names_its_line(tmp_path, graph, rows, line):
    p = tmp_path / "z.csv"
    p.write_text("site_id,value\n" + rows)
    with pytest.raises(ParameterError) as info:
        weighted_seq_from_csv(p, graph)
    assert str(info.value).startswith(f"{p}: line {line}: ")
    assert "row" not in str(info.value)[len(str(p)):]
