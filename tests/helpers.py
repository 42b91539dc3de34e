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
    return integrate_replicas(field, [mask], init, plan, plan.n_steps)[0, 0]
