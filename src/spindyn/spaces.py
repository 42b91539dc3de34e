"""Weighted-l1 norms over site-indexed vectors.

A sequence on the window is one dense float64 array with a value for each
site, in site order.  The norm at index ``alpha`` weights site x by
exp(-alpha |x|), so norms are non-increasing in alpha and the spaces form a
nested scale on the interval [alpha_star, alpha_top].
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .geometry import GeometricGraph, read_site_rows


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


def norm_l1(z: WeightedSeq, alpha: float, scale: ScaleInterval) -> float:
    """sum_x exp(-alpha |x|) |z_x|."""
    if not scale.contains(alpha):
        raise ParameterError(f"alpha={alpha} outside scale [{scale.alpha_star}, {scale.alpha_top}]")
    return float(np.sum(np.exp(-alpha * z.graph.radii()) * np.abs(z.values)))


def weighted_seq_from_csv(path, graph: GeometricGraph) -> WeightedSeq:
    """Read ``site_id,value`` rows, absent sites zero; a malformed table, a bad
    or repeated site id or a non-finite value is rejected naming the file."""
    ids, rows = read_site_rows(path, graph.n_sites, usecols=(0, 1))
    vals = np.zeros(graph.n_sites)
    vals[ids] = rows[:, 0]
    try:
        return WeightedSeq(vals, graph)
    except ParameterError as e:
        raise ParameterError(f"{path}: {e}") from None
