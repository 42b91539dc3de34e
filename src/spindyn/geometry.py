"""Quenched point configurations and their geometric interaction graphs.

A configuration is a finite set of labelled points in d dimensions.  Sites
interact when their Euclidean distance is at most the interaction radius
``rho``.  The graph is one CSR adjacency over closed neighbourhoods: row x
of ``indices[indptr[x]:indptr[x + 1]]`` is x itself first, then its
neighbours in ascending order, so every pair sum, coupling table and kernel
walks the same entries in the same order.  The graph is immutable once
built and safe to share across threads.
"""

import math
import re
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .rng import generator

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class Configuration:
    """Labelled point set in d dimensions.

    ``positions`` has shape (N, d), d >= 1, and finite entries; site ids are
    dense 0..N-1 and index the rows.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] < 1:
            raise ParameterError(f"positions must have shape (N, d) with d >= 1, "
                                 f"got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ParameterError("positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def radii(self) -> np.ndarray:
        """Euclidean norm |x| of every site position."""
        return np.linalg.norm(self.positions, axis=1)


@dataclass(frozen=True)
class GeometricGraph:
    """Radius-rho adjacency on a configuration, stored as CSR over closed
    neighbourhoods.

    ``indptr`` (N+1,) and ``indices`` are int64; the entries of row x are
    ``indices[indptr[x]:indptr[x + 1]]``: x itself first, then every y != x
    with |x-y| <= rho in ascending order.  ``nbar_count[x]`` is the row
    length, the size of the closed neighbourhood.
    """

    config: Configuration
    rho: float
    indptr: np.ndarray
    indices: np.ndarray
    nbar_count: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "nbar_count", np.diff(self.indptr))

    @property
    def n_sites(self) -> int:
        return self.config.n_sites

    def entry_rows(self) -> np.ndarray:
        """Row site of every CSR entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_sites), self.nbar_count)

    def operator(self, weights) -> "sp.csr_matrix":
        """The (N, N) sparse matrix with one finite weight per CSR entry,
        aligned with ``indices``; zero weights are dropped."""
        import scipy.sparse as sp

        w = np.asarray(weights, dtype=float)
        if w.shape != self.indices.shape:
            raise ParameterError(f"weights must have shape {self.indices.shape}, got {w.shape}")
        finite = np.isfinite(w)
        if not finite.all():
            i = np.argmin(finite)
            raise ParameterError(f"weight of entry {i}, ({self.entry_rows()[i]}, "
                                 f"{self.indices[i]}), is {w[i]}, not finite")
        # copy=True: eliminate_zeros works in place and must not edit the graph.
        mat = sp.csr_matrix((w, self.indices, self.indptr), shape=(self.n_sites,) * 2,
                            copy=True)
        mat.eliminate_zeros()
        return mat

    def edges(self) -> np.ndarray:
        """Unordered neighbour pairs as an (E, 2) array, rows (a, b) with
        a < b in ascending order."""
        rows = self.entry_rows()
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]])

    def radii(self) -> np.ndarray:
        return self.config.radii()


def _pairs(pos: np.ndarray, rho: float) -> np.ndarray:
    """The (2, E) array of unordered pairs a, b with sum_k (x_k - y_k)^2 <= rho^2,
    summed in axis order as scipy's k-d tree does up to d = 7.  On a linked-cell
    grid over the (at most 3) widest axes, cells >= rho (1 + 2^-6) wide, <= 2^40
    per axis and 2^60 in all, keep each pair within rho after rounding in one or
    two neighbouring cells; a site meets its cell's later sites and the half-stencil."""
    n, d = pos.shape
    if n == 0:
        return np.zeros((2, 0), dtype=np.int64)
    # Halved coordinates: no difference overflows, and each rounds as before.
    lo, span = pos.min(axis=0) / 2, np.ptp(pos / 2, axis=0)
    axes = np.argsort(-span, kind="stable")[:3]
    width = max(rho * (1 + 2.0 ** -6) / 2, span.max() * 2.0 ** -min(40, 60 // len(axes)))
    # Cells 1..n_k in radix n_k + 2: a stencil step never carries to the next axis.
    cell = ((pos[:, axes] / 2 - lo[axes]) / width).astype(np.int64) + 1
    stride = np.cumprod(np.concatenate([[1], cell.max(axis=0)[:-1] + 2]))
    order = np.argsort(cell @ stride)
    key = (cell @ stride)[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    occupied, end = key[start], np.append(start[1:], n)
    site_cell = np.repeat(np.arange(start.size), end - start)
    offsets = (np.indices((3,) * len(axes)).reshape(len(axes), -1).T - 1) @ stride
    kept = []
    for off in offsets[offsets >= 0]:
        at = np.minimum(np.searchsorted(occupied, occupied + off), start.size - 1)
        last = np.where(occupied[at] == occupied + off, end[at], 0)[site_cell]
        cnt = np.maximum(last - np.maximum(start[at][site_cell], np.arange(1, n + 1)), 0)
        p = np.repeat(order, cnt)
        q = order[np.arange(p.size) + np.repeat(last - np.cumsum(cnt), cnt)]
        keep = sum((pos[p, k] - pos[q, k]) ** 2 for k in range(d)) <= rho * rho
        kept.append(np.stack([p[keep], q[keep]]))
    return np.concatenate(kept, axis=1)


def build_graph(config: Configuration, rho: float) -> GeometricGraph:
    """Build the radius-rho geometric graph on a configuration."""
    if not rho > 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    n = config.n_sites
    a, b = _pairs(config.positions, float(rho))
    # One int64 key per entry, row * (n + 1) + (0 for the self entry, else
    # column + 1): sorted, each row holds its self entry first, then the
    # neighbours ascending.  The key is below (n + 1)^2, exact for n < 3e9.
    m = n + 1
    key = np.concatenate([np.arange(n, dtype=np.int64) * m, a * m + b + 1,
                          b * m + a + 1])
    key.sort()
    indptr = np.zeros(m, dtype=np.int64)
    np.cumsum(np.bincount(key // m, minlength=n), out=indptr[1:])
    key %= m
    key -= 1
    key[indptr[:-1]] = np.arange(n)
    return GeometricGraph(config=config, rho=float(rho), indptr=indptr, indices=key)


def sample_poisson(intensity: float, window, seed: int) -> Configuration:
    """Homogeneous Poisson point sample in a box window, deterministic per seed."""
    win = np.asarray(window, dtype=float)
    if win.ndim != 2 or win.shape[1] != 2 or np.any(win[:, 0] >= win[:, 1]):
        raise ParameterError("window must have shape (d, 2) with lo < hi")
    if intensity < 0:
        raise ParameterError(f"intensity must be >= 0, got {intensity}")
    # In Python floats, an overflowing volume is inf, with no numpy warning.
    volume = math.prod(hi - lo for lo, hi in win.tolist())
    rng = generator(int(seed), 0x9015504, 0)
    try:
        count = int(rng.poisson(intensity * volume))
    except ValueError:  # numpy's limit on the mean, or a NaN or infinite mean
        raise ParameterError(f"intensity {intensity} on a window of volume {volume} "
                             f"gives a mean point count numpy cannot sample") from None
    pts = rng.uniform(win[:, 0], win[:, 1], size=(count, win.shape[0]))
    return Configuration(pts)


def lattice_configuration(lo: int, hi: int, dim: int = 1) -> Configuration:
    """Integer lattice {lo..hi}^dim."""
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    if lo > hi:
        raise ParameterError(f"need lo <= hi, got lo={lo}, hi={hi}")
    axis = np.arange(lo, hi + 1, dtype=float)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return Configuration(np.stack([g.ravel() for g in grids], axis=-1))


def fit_degree_constant(graph: GeometricGraph) -> float:
    """Smallest C with n_x <= C (1 + log(1 + |x|)) over all sites."""
    if graph.n_sites == 0:
        raise ParameterError("degree constant is undefined for an empty graph")
    return float(np.max(graph.nbar_count / (1.0 + np.log1p(graph.radii()))))


# Rows formatted per `%`.  Blocks of 4096 rows were no faster, and their
# Python objects raised the peak RSS of `spindyn simulate` by 0.7 MiB.
_CSV_BLOCK_ROWS = 512


def write_csv(path, header: str, rows, fmts) -> None:
    """Write ``header`` and the rows of a 2-D array as comma-separated text,
    column j formatted with the ``%`` format ``fmts[j]``.

    The bytes are those numpy's ``savetxt`` writes with ``fmt=fmts``,
    ``delimiter=","`` and ``comments=""``: it applies the same ``%``
    formatting one row at a time.  Here one ``%`` formats a block of rows,
    which removes the per-row Python work; the block size bounds the memory.
    """
    rows = np.asarray(rows)
    line = ",".join(fmts) + "\n"
    with open(path, "w", encoding="latin1", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def configuration_to_csv(config: Configuration, path) -> None:
    d = config.dim
    header = "site_id," + ",".join(f"x{i}" for i in range(d))
    rows = np.column_stack([np.arange(config.n_sites), config.positions])
    write_csv(path, header, rows, ["%d"] + ["%.17g"] * d)


def _load_rows(source, usecols):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only input
        return np.loadtxt(source, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)


def _first_bad_line(path, usecols) -> int:
    """The line of ``path``, from 1 at the header, where loading first fails.
    numpy's own row count skips blank lines and starts at 0 or 1 by message."""
    with open(path, encoding="latin1") as fh:
        lines = fh.read().splitlines()
    good, bad = 1, len(lines)  # lines[:good] load, lines[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load_rows(lines[:mid], usecols)
            good = mid
        except ValueError:
            bad = mid
    return bad


def read_site_rows(path, n_sites: int | None = None, usecols=None):
    """Site ids and the other ``usecols`` of a ``site_id,...`` CSV table with
    a header line; the ids must be distinct integers in 0..n_sites-1 (default:
    the row count).  A malformed table or a bad id is rejected naming the file
    and, for a malformed row, its line."""
    try:
        data = _load_rows(path, usecols)
    except OSError as e:
        raise ParameterError(f"{path}: {e}") from None
    except ValueError as e:
        why = re.sub(r" at row \d+|; use `usecols`.*", "", str(e))
        raise ParameterError(f"{path}: line {_first_bad_line(path, usecols)}: {why}") from None
    ids = data[:, 0]
    n = ids.size if n_sites is None else n_sites
    bad = ~((ids >= 0) & (ids < n) & (ids == np.floor(ids)))
    if bad.any():
        raise ParameterError(f"{path}: site_id {ids[bad][0]:g} outside 0..{n - 1}")
    ids = ids.astype(np.int64)
    repeated = np.bincount(ids, minlength=n)[ids] > 1
    if repeated.any():
        raise ParameterError(f"{path}: site_id {ids[repeated][0]} is repeated")
    return ids, data[:, 1:]


def configuration_from_csv(path) -> Configuration:
    """Read ``site_id,x0,...`` rows, the ids a permutation of 0..N-1 that index
    the points; a malformed table, a bad id or a non-finite position is
    rejected naming the file."""
    ids, coords = read_site_rows(path)
    if coords.size == 0:
        raise ParameterError(f"{path}: expected site_id,x0,... rows with at least "
                             "one coordinate")
    pos = np.empty(coords.shape)
    pos[ids] = coords
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        raise ParameterError(f"{path}: site {np.argmin(finite)} has a non-finite position")
    return Configuration(pos)


def graph_to_csv(graph: GeometricGraph, degrees_path, edges_path) -> None:
    """Write the `site_id,degree,nbar` table and the `a,b` edge list."""
    nbar = graph.nbar_count
    write_csv(degrees_path, "site_id,degree,nbar",
              np.column_stack([np.arange(graph.n_sites), nbar - 1, nbar]), ["%d"] * 3)
    write_csv(edges_path, "a,b", graph.edges(), ["%d"] * 2)
