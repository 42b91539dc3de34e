"""Seeded input generation for the four benchmark workloads.

Every workload is a YAML config (plus, for the Poisson workloads, a point
CSV read through ``graph.source: csv``).  All randomness here comes from
numpy's PCG64 seeded with (workload tag, seed), which is independent of the
program's own Philox streams; the program only reads the files written here.
"""

import zlib
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("converge_chain", "simulate_poisson", "gibbs_reversibility",
             "graph_poisson")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2 ** 31 - 1))


def poisson_points(rng: np.random.Generator, n_sites: int, half_width: float) -> np.ndarray:
    """``n_sites`` points of the Poisson process with intensity
    lambda_0 (1 + log(1 + |x|)) on the square [-half_width, half_width]^2,
    conditioned on their number (which fixes lambda_0).

    Homogeneous candidates at the peak intensity are thinned with
    probability lambda(x) / lambda_max, in draw order, until ``n_sites``
    are kept; fixing the count keeps run sizes equal across seeds, and the
    intensity makes degrees grow with |x|.
    """
    lam_max = 1.0 + np.log1p(half_width * np.sqrt(2.0))
    kept = []
    n_kept = 0
    while n_kept < n_sites:
        cand = rng.uniform(-half_width, half_width, size=(max(1024, n_sites), 2))
        lam = 1.0 + np.log1p(np.hypot(cand[:, 0], cand[:, 1]))
        keep = cand[rng.uniform(size=cand.shape[0]) * lam_max < lam]
        kept.append(keep)
        n_kept += keep.shape[0]
    return np.concatenate(kept)[:n_sites]


def write_points_csv(points: np.ndarray, path: Path) -> None:
    """The ``site_id,x0,x1`` format ``geometry.configuration_from_csv`` reads."""
    rows = np.column_stack([np.arange(points.shape[0]), points])
    np.savetxt(path, rows, fmt=["%d", "%.17g", "%.17g"], delimiter=",",
               header="site_id,x0,x1", comments="")


def _converge_chain(rng, work: Path) -> dict:
    return {
        "graph": {"source": "lattice", "rho": 1.5, "lattice": {"lo": -100, "hi": 100}},
        "scale": {"alpha_star": 0.0, "alpha_top": 1.0},
        "field": {"drift": "cubic", "coupling": "linear_pair", "J": 0.2,
                  "noise": "additive"},
        "plan": {"dt": 0.01, "T": 0.5, "scheme": "tamed_em", "replicas": 32,
                 "master_seed": _program_seed(rng), "p": 4},
        "volumes": {"radii": [20, 40, 60, 80]},
        "init": {"type": "random", "dist": "normal", "a": 0.0, "b": 1.0},
        "converge": {"betas": [0.4, 0.7, 1.0], "alpha": 0.2, "q": 0.5},
    }


SIMULATE_SITES = 700
SIMULATE_HALF_WIDTH = 14.0


def _simulate_poisson(rng, work: Path) -> dict:
    pts = poisson_points(rng, SIMULATE_SITES, SIMULATE_HALF_WIDTH)
    write_points_csv(pts, work / "points.csv")
    return {
        "graph": {"source": "csv", "rho": 1.5, "csv": {"path": str(work / "points.csv")}},
        "field": {"drift": "cubic", "coupling": "linear_pair", "J": 0.1,
                  "noise": "linear_noise"},
        "plan": {"dt": 0.01, "T": 0.3, "scheme": "split_step_implicit",
                 "replicas": 24, "master_seed": _program_seed(rng), "p": 4},
        "volumes": {"radii": [5, 10, 15]},
        "init": {"type": "random", "dist": "normal", "a": 0.2, "b": 0.8},
    }


def _gibbs_reversibility(rng, work: Path) -> dict:
    return {
        "graph": {"source": "lattice", "rho": 1.5, "lattice": {"lo": -10, "hi": 10}},
        "gibbs": {"potential": "quartic", "J": 0.3, "coupling": "constant",
                  "chain": {"steps": 6000, "burn_in": 300, "step_size": 0.5,
                            "seed": _program_seed(rng)},
                  "eta": [9, 10, 11], "outer_samples": 100,
                  "t": 0.5, "observable_sites": [9, 11]},
        "plan": {"dt": 0.01, "T": 0.5, "scheme": "tamed_em", "replicas": 1000,
                 "master_seed": _program_seed(rng)},
    }


GRAPH_SITES = 50_000
GRAPH_HALF_WIDTH = 120.0


def _graph_poisson(rng, work: Path) -> dict:
    pts = poisson_points(rng, GRAPH_SITES, GRAPH_HALF_WIDTH)
    write_points_csv(pts, work / "points.csv")
    return {"graph": {"source": "csv", "rho": 1.5,
                      "csv": {"path": str(work / "points.csv")}}}


_WORKLOAD_INPUTS = {"converge_chain": _converge_chain,
             "simulate_poisson": _simulate_poisson,
             "gibbs_reversibility": _gibbs_reversibility,
             "graph_poisson": _graph_poisson}


def generate(workload: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs under ``work``; returns the config path."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = _WORKLOAD_INPUTS[workload](_rng(workload, seed), work)
    path = work / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path
