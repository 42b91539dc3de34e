"""Weighted sequence norms over site-indexed vectors.

A sequence on the window is one dense float64 array with a value for each
site, in site order.  The norm at index ``alpha`` weights site x by
exp(-alpha |x|), so norms are non-increasing in alpha and the spaces form a
nested scale on the interval [alpha_star, alpha_top].
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import GeometricGraph, write_csv


@dataclass(frozen=True)
class ScaleInterval:
    """The index interval [alpha_star, alpha_top] of the scale."""

    alpha_star: float
    alpha_top: float

    def __post_init__(self):
        if not (0 <= self.alpha_star < self.alpha_top < np.inf):
            raise ParameterError(
                f"scale interval requires 0 <= alpha_star < alpha_top < inf, "
                f"got [{self.alpha_star}, {self.alpha_top}]")

    def contains(self, alpha: float) -> bool:
        return self.alpha_star <= alpha <= self.alpha_top

    @property
    def width(self) -> float:
        return self.alpha_top - self.alpha_star


@dataclass(frozen=True)
class WeightedSeq:
    """Site-indexed real vector: ``values`` is a read-only float64 copy with
    one finite value per site of ``graph``."""

    values: np.ndarray
    graph: GeometricGraph

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        n = self.graph.n_sites
        if vals.shape != (n,):
            raise ParameterError(f"values must have shape ({n},), got {vals.shape}")
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ParameterError(f"non-finite value at site {np.argmax(bad)}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def norm_lp(z: WeightedSeq, alpha: float, p: float, scale: ScaleInterval) -> float:
    """(sum_x exp(-alpha |x|) |z_x|^p)^(1/p)."""
    if not scale.contains(alpha):
        raise ParameterError(f"alpha={alpha} outside scale [{scale.alpha_star}, {scale.alpha_top}]")
    if p < 1:
        raise ParameterError(f"p must be >= 1, got {p}")
    w = np.exp(-alpha * z.graph.radii())
    return float(np.sum(w * np.abs(z.values) ** p) ** (1.0 / p))


def embedding_check(z: WeightedSeq, alphas, p: float, scale: ScaleInterval) -> bool:
    """True iff the norm sequence is non-increasing along ascending alphas."""
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ParameterError("alphas must be strictly ascending")
    norms = [norm_lp(z, a, p, scale) for a in alphas]
    return all(nb <= na * (1 + 1e-12) + 1e-300 for na, nb in zip(norms, norms[1:]))


def weighted_seq_to_csv(z: WeightedSeq, path) -> None:
    """Write the nonzero sites of ``z`` as ``site_id,value`` rows, ascending."""
    ids = np.flatnonzero(z.values)
    write_csv(path, "site_id,value", np.column_stack([ids, z.values[ids]]),
              ["%d", "%.17g"])


def weighted_seq_from_csv(path, graph: GeometricGraph) -> WeightedSeq:
    """Read ``site_id,value`` rows; absent sites are zero.  A site id outside
    0..N-1 or given twice is rejected by name."""
    ids, rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=(0, 1)).T
    n = graph.n_sites
    bad = ~((ids >= 0) & (ids < n) & (ids == np.floor(ids)))
    if bad.any():
        raise ParameterError(f"{path}: site_id {ids[bad][0]:g} outside 0..{n - 1}")
    ids = ids.astype(np.int64)
    seen, counts = np.unique(ids, return_counts=True)
    if np.any(counts > 1):
        raise ParameterError(f"{path}: site_id {seen[counts > 1][0]} is repeated")
    vals = np.zeros(n)
    vals[ids] = rows
    return WeightedSeq(vals, graph)
