import re

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from helpers import closed_neighborhood
from spindyn import (Configuration, ParameterError, build_graph,
                     configuration_from_csv, configuration_to_csv,
                     fit_degree_constant, graph_to_csv, lattice_configuration,
                     sample_poisson)
from spindyn import geometry


def test_lattice_neighbors_radius_1_5():
    g = build_graph(lattice_configuration(-5, 5), 1.5)
    assert g.n_sites == 11
    # interior site: left and right lattice neighbours
    assert closed_neighborhood(g, 5) == [5, 4, 6]
    assert g.nbar_count[5] == 3
    # endpoint has a single neighbour
    assert closed_neighborhood(g, 0) == [0, 1]
    assert g.nbar_count[0] == 2


def test_closed_neighborhood_includes_self_first():
    g = build_graph(lattice_configuration(0, 3), 1.1)
    assert closed_neighborhood(g, 1) == [1, 0, 2]


def test_isolated_points():
    cfg = Configuration(positions=np.array([[0.0], [10.0]]))
    g = build_graph(cfg, 1.0)
    assert [closed_neighborhood(g, x) for x in range(2)] == [[0], [1]]
    assert list(g.nbar_count) == [1, 1]
    assert len(g.edges()) == 0


def test_pair_at_exact_radius_is_adjacent():
    cfg = Configuration(positions=np.array([[0.0], [1.0]]))
    g = build_graph(cfg, 1.0)
    assert closed_neighborhood(g, 0) == [0, 1]


def test_sites_whose_distance_overflows():
    # 2e308 is beyond the largest float; the pairs near each end remain.
    cfg = Configuration(positions=np.array([[-1e308], [1e308], [1e308], [0.0], [0.5]]))
    g = build_graph(cfg, 1.0)
    assert [closed_neighborhood(g, x) for x in range(5)] == [[0], [1, 2], [2, 1], [3, 4], [4, 3]]


def test_rho_must_be_positive():
    cfg = lattice_configuration(0, 1)
    with pytest.raises(ParameterError):
        build_graph(cfg, 0.0)


@pytest.mark.parametrize("lo, hi, dim, named", [
    (0, 3, 0, "dim must be >= 1, got 0"),
    (0, 3, -2, "dim must be >= 1, got -2"),
    (3, 0, 1, "need lo <= hi, got lo=3, hi=0"),
])
def test_lattice_arguments_checked(lo, hi, dim, named):
    with pytest.raises(ParameterError, match=named):
        lattice_configuration(lo, hi, dim=dim)


def test_operator_rejects_non_finite_weight():
    # Entry (5, 6) of the -5..5 chain: row 5 is [5, 4, 6], after 2 + 4 * 3
    # entries of rows 0..4.
    g = build_graph(lattice_configuration(-5, 5), 1.5)
    i = g.indptr[5] + closed_neighborhood(g, 5).index(6)
    assert i == 16
    w = np.zeros(g.indices.size)
    for bad in (np.nan, np.inf, -np.inf):
        w[i] = bad
        with pytest.raises(ParameterError,
                           match=rf"^weight of entry 16, \(5, 6\), is {bad}, not finite$"):
            g.operator(w)
    w[i] = -3.0
    Q = g.operator(w)
    assert Q.nnz == 1 and Q[5, 6] == -3.0


def test_nonfinite_positions_rejected():
    with pytest.raises(ParameterError):
        Configuration(positions=np.array([[np.nan]]))


@pytest.mark.parametrize("shape", [(3,), (3, 0), (2, 2, 1)])
def test_positions_shape_checked(shape):
    with pytest.raises(ParameterError, match=re.escape(
            f"positions must have shape (N, d) with d >= 1, got {shape}")):
        Configuration(positions=np.zeros(shape))


@st.composite
def point_sets(draw):
    """(positions, rho): random 1-4 D points, or integer lattice points whose
    pairs sit at exactly rho, with some sites repeated; then scaled by a
    power of two and shifted, to |x| up to 1e12.  The lattice stays exact:
    its pairs still sit at exactly rho, and rho = 1e-3 keeps only repeats."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(0, 120))
    if draw(st.booleans()):
        coords = st.integers(-3, 3).map(float)
        rho = draw(st.sampled_from([1.0, 2.0, np.sqrt(2.0), 1e-3]))
    else:
        coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
        rho = draw(st.floats(1e-3, 3.0))
    pos = np.asarray(draw(st.lists(coords, min_size=n * dim, max_size=n * dim)),
                     dtype=float).reshape(n, dim)
    if n:
        pos = np.vstack([pos, pos[draw(st.lists(st.integers(0, n - 1), max_size=4))]])
    scale = draw(st.sampled_from([1.0, 2.0 ** -10, 2.0 ** 38]))
    shift = draw(st.sampled_from([0.0, 1e12, -3.5e11]))
    return pos * scale + shift, rho * scale


def _far_clusters():
    """Tight 3-D clusters 1e9 apart: 2e12 cells of 1e-3 per axis."""
    rng = np.random.default_rng(0)
    centres = rng.uniform(-1e9, 1e9, size=(4, 3))
    return centres[rng.integers(0, 4, 60)] + rng.uniform(-2e-3, 2e-3, size=(60, 3))


def _reference_neighbourhoods(pos, rho):
    """O(N^2) closed neighbourhoods: self first, then ascending."""
    out = []
    for x in range(pos.shape[0]):
        d2 = np.sum((pos - pos[x]) ** 2, axis=-1)
        out.append([x] + [y for y in np.flatnonzero(d2 <= rho * rho).tolist() if y != x])
    return out


def _lexsort_csr(pos, rho):
    """The CSR arrays of the earlier construction, which lexsorted the
    entries by (row, not the self entry, column)."""
    n = pos.shape[0]
    a, b = cKDTree(pos).query_pairs(float(rho), output_type="ndarray").T
    sites = np.arange(n)
    src = np.concatenate([sites, a, b])
    dst = np.concatenate([sites, b, a])
    order = np.lexsort((dst, src != dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


@seed(20240611)
@settings(max_examples=200, deadline=None, database=None)
@given(point_sets())
@example((np.zeros((0, 2)), 1.0))
@example((np.zeros((1, 3)), 1.0))
@example((np.array([[0.0], [1.0], [2.0], [1.0]]), 1.0))
@example((np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), float(np.sqrt(2.0))))
@example((np.random.default_rng(7).uniform(-20, 20, size=(2500, 2)), 1.3))
@example((np.zeros((5, 1)), 0.5))
@example((np.array([[0.0], [5.0], [10.0]]), 1.0))
@example((1e12 + np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [2.5, 1.0]]), 1.0))
@example((np.full((3, 4), -1e12), 1e-3))
@example((np.array([[-1e12], [1e12], [1e12 + 2.0 ** -12]]), 2.0 ** -12))
# With cells exactly rho wide, rounding puts this pair two cells apart.
@example((np.array([[-85650.08149445722], [17598.329571177157], [17599.116321646285]]),
          0.7867504691286891))
# With no cap on the cell count, these two lose their pair to rounding
# (about 2^54 cells on one axis), and the next case overflows an int64 key.
@example((np.array([[-1e12], [1000000000081.531], [1000000000081.5311]]), 2.0 ** -13))
@example((_far_clusters(), 1e-3))
def test_build_graph_matches_quadratic_reference(case):
    pos, rho = case
    g = build_graph(Configuration(positions=pos), rho)
    want = _reference_neighbourhoods(pos, rho)
    assert [closed_neighborhood(g, x) for x in range(g.n_sites)] == want
    assert list(g.nbar_count) == [len(v) for v in want]
    assert g.indptr.dtype == g.indices.dtype == np.int64
    edges = g.edges()
    assert edges.shape[1] == 2 and edges.dtype == np.int64
    assert edges.tolist() == [[x, y] for x, v in enumerate(want) for y in v[1:] if x < y]
    indptr, indices = _lexsort_csr(pos, rho)
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


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
    cfg = Configuration(positions=np.zeros((0, 1)))
    g = build_graph(cfg, 1.0)
    with pytest.raises(ParameterError):
        fit_degree_constant(g)


def test_csv_round_trip(tmp_path):
    cfg = lattice_configuration(-3, 3)
    p = tmp_path / "conf.csv"
    configuration_to_csv(cfg, p)
    back = configuration_from_csv(p)
    assert np.allclose(back.positions, cfg.positions)
    g = build_graph(cfg, 1.5)
    graph_to_csv(g, tmp_path / "deg.csv", tmp_path / "edges.csv")
    deg = np.loadtxt(tmp_path / "deg.csv", delimiter=",", skiprows=1)
    assert deg.shape == (7, 3)
    assert np.array_equal(deg[:, 2], g.nbar_count)
    edges = np.loadtxt(tmp_path / "edges.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(edges) == 6


_INT_SPECIALS = [-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 1, 2 ** 63 - 2, -1, 0]
_FLOAT_SPECIALS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 2.0 ** 63, -2.0 ** 63]
_NONFINITE = [np.inf, -np.inf, np.nan]
_B = geometry._CSV_BLOCK_ROWS


@seed(20261018)
@settings(max_examples=80, deadline=None, database=None)
@given(n_rows=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 8 * _B - 1, 8 * _B, 8 * _B + 1])
       | st.integers(0, 40),
       n_cols=st.integers(1, 5), is_int=st.booleans(),
       fmt_bits=st.integers(0, 31), n_specials=st.integers(0, 12),
       table_seed=st.integers(0, 2 ** 32 - 1))
def test_write_csv_matches_savetxt(tmp_path_factory, n_rows, n_cols, is_int,
                                   fmt_bits, n_specials, table_seed):
    rng = np.random.default_rng(table_seed)
    fmts = ["%d" if fmt_bits >> j & 1 else "%.17g" for j in range(n_cols)]
    if is_int:
        rows = rng.integers(-2 ** 63, 2 ** 63 - 1, size=(n_rows, n_cols),
                            dtype=np.int64, endpoint=True)
        specials = _INT_SPECIALS
    else:
        rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(
            -320, 308, size=(n_rows, n_cols))
        specials = _FLOAT_SPECIALS
    if n_rows:
        for _ in range(n_specials):
            r, c = rng.integers(n_rows), rng.integers(n_cols)
            pool = specials + (_NONFINITE if not is_int and fmts[c] == "%.17g" else [])
            rows[r, c] = pool[rng.integers(len(pool))]
    header = ",".join(f"c{j}" for j in range(n_cols))
    d = tmp_path_factory.mktemp("csv")
    np.savetxt(d / "want.csv", rows, fmt=fmts, delimiter=",", header=header, comments="")
    geometry.write_csv(d / "got.csv", header, rows, fmts)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def _points_csv(path, text):
    path.write_text("site_id,x0\n" + text)
    return path


def test_csv_reader_places_rows_by_site_id(tmp_path):
    p = _points_csv(tmp_path / "p.csv", "2,0.5\n0,1.5\n1,-2\n")
    assert configuration_from_csv(p).positions[:, 0].tolist() == [1.5, -2.0, 0.5]


@pytest.mark.parametrize("body, named", [
    ("0,0\n5,1\n5,2\n", "site_id 5 outside 0..2"),
    ("0,0\n2.5,1\n-1,2\n", "site_id 2.5 outside 0..2"),
    ("0,0\n-1,1\n", "site_id -1 outside 0..1"),
    ("1,0\n1,1\n", "site_id 1 is repeated"),
    ("nan,0\n", "site_id nan outside 0..0"),
    ("0,0\n1,nan\n", "site 1 has a non-finite position"),
    ("1,inf\n0,0\n", "site 1 has a non-finite position"),
    ("", "expected site_id,x0,... rows"),
    ("0,0\n1,abc\n", "could not convert string 'abc'"),
    ("0,0\n1,1,1\n", "number of columns changed"),
])
def test_csv_reader_rejects_malformed_table(tmp_path, body, named):
    p = _points_csv(tmp_path / "p.csv", body)
    with pytest.raises(ParameterError) as info:
        configuration_from_csv(p)
    assert str(info.value).startswith(f"{p}: ")
    assert named in str(info.value)


@pytest.mark.parametrize("body, line", [
    ("0,0\n1,abc\n", 3),
    ("0,0\n1\n", 3),
    ("0,0\n1,1,1\n", 3),
    ("abc,0\n", 2),
    ("\n0,0\n# note\n\n1,x\n2,2\n", 6),  # blank and comment lines are lines too
    pytest.param("".join(f"{i},{i}\n" for i in range(40)) + "40,?\n", 42,
                 id="last-of-41-rows-42"),
])
def test_csv_reader_names_the_file_line(tmp_path, body, line):
    # The header is line 1; numpy's own row count starts at 0 or 1 by error
    # and skips blank lines, so it must not be passed through.
    p = _points_csv(tmp_path / "p.csv", body)
    with pytest.raises(ParameterError) as info:
        configuration_from_csv(p)
    message = str(info.value)
    assert message.startswith(f"{p}: line {line}: ")
    assert "row" not in message[len(str(p)):]
