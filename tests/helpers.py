"""Small constructors shared by the test modules."""

import numpy as np

from spindyn import VolumeSequence, WeightedSeq
from spindyn.engine import integrate_replicas


def sparse_seq(graph, entries) -> WeightedSeq:
    """The sequence with the ``{site: value}`` entries and zero elsewhere."""
    values = np.zeros(graph.n_sites)
    for site, value in entries.items():
        values[site] = value
    return WeightedSeq(values, graph)


def volumes_of(n_sites, *site_sets) -> VolumeSequence:
    """The volume sequence whose volumes hold the given site ids."""
    masks = np.zeros((len(site_sets), n_sites), dtype=bool)
    for mask, sites in zip(masks, site_sets):
        mask[list(sites)] = True
    return VolumeSequence(masks)


def one_path(field, mask, init, plan):
    """Replica 0's path under the boolean site ``mask``: (sites, steps+1)."""
    path = np.empty((field.graph.n_sites, plan.n_steps + 1))

    def keep(rows, j, states):
        if rows.start == 0:
            path[:, j] = states[0, 0]

    integrate_replicas(field, [mask], init, plan, plan.n_steps, observer=keep)
    return path


def path_gap(paths, graph, n, m, beta, p):
    """The Cauchy gap sup_t E sum_x e^{-beta|x|} |xi^n - xi^m|^p computed
    from the whole (replicas, volumes, sites, steps+1) path array that
    ``run_nested`` returns: the reference for the gaps that
    ``nested_gap_sums`` reduces step by step."""
    w = np.exp(-beta * graph.radii())
    diff = paths[:, n] - paths[:, m]  # (rep, sites, time)
    per_rep_time = np.tensordot(w, np.abs(diff) ** p, axes=([0], [1]))  # (rep, time)
    return float(np.max(np.mean(per_rep_time, axis=0)))


def pair_covariance(V, J, step=0.01, half_width=7.0):
    """The 2 x 2 covariance of (u, v) under the density proportional to
    exp(-V(u) - V(v) - J u v), by a Riemann sum with ``step`` over
    [-half_width, half_width]^2: the oracle for two coupled sites."""
    u = np.arange(-half_width, half_width + step / 2, step)
    density = np.exp(-V(u)[:, None] - V(u)[None, :] - J * np.outer(u, u))
    density /= density.sum()
    pu, pv = density.sum(axis=1), density.sum(axis=0)  # the two marginals
    mean, uv = np.array([pu @ u, pv @ u]), u @ density @ u
    return np.array([[pu @ u ** 2, uv], [uv, pv @ u ** 2]]) - np.outer(mean, mean)
