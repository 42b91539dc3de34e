"""Byte-for-byte pins of every CLI subcommand's outputs on small configs.

Each case runs ``spindyn.cli.main`` on a config written here and compares
the sha256 of every output file (the manifest aside: it records the
config, whose CSV path is a temporary one) and the manifest's
``ensemble_hash`` with the values recorded when the pins were taken.  A
refactor that is meant to move no number must leave these unchanged; a
change that moves them on purpose re-pins them and says why.

Floating-point results can differ in their last bits between numpy and
scipy releases, so the pins hold only for the versions they were taken with.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy
import yaml

from spindyn.cli import main

PINNED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
_RUNNING = {"numpy": np.__version__, "scipy": scipy.__version__}

pytestmark = pytest.mark.skipif(
    _RUNNING != PINNED_VERSIONS,
    reason=f"output pins were taken with {PINNED_VERSIONS}, running {_RUNNING}")


def _poisson_csv(path):
    pts = np.random.default_rng(7).uniform(-4.0, 4.0, size=(40, 2))
    rows = np.column_stack([np.arange(pts.shape[0]), pts])
    np.savetxt(path, rows, fmt=["%d", "%.17g", "%.17g"], delimiter=",",
               header="site_id,x0,x1", comments="")
    return str(path)


def _chain(lo, hi):
    return {"source": "lattice", "rho": 1.5, "lattice": {"lo": lo, "hi": hi}}


def _configs(tmp_path):
    return {
        "simulate": {
            "graph": {"source": "csv", "rho": 1.5,
                      "csv": {"path": _poisson_csv(tmp_path / "points.csv")}},
            "field": {"drift": "cubic", "coupling": "linear_pair", "J": 0.1,
                      "noise": "linear_noise"},
            "plan": {"dt": 0.01, "T": 0.1, "scheme": "split_step_implicit",
                     "replicas": 4, "master_seed": 11, "p": 4},
            "volumes": {"radii": [1.5, 3.0]},
            "init": {"type": "constant", "value": 0.4}},
        "converge": {
            "graph": _chain(-10, 10),
            "scale": {"alpha_star": 0.0, "alpha_top": 1.0},
            "field": {"drift": "cubic", "coupling": "linear_pair", "J": 0.2,
                      "noise": "additive"},
            "plan": {"dt": 0.01, "T": 0.1, "scheme": "tamed_em", "replicas": 4,
                     "master_seed": 5, "p": 4},
            "volumes": {"radii": [3, 6]},
            "init": {"type": "random", "dist": "normal", "a": 0.0, "b": 1.0},
            "converge": {"betas": [0.4, 1.0], "alpha": 0.2, "q": 0.5}},
        "gibbs": {
            "graph": _chain(-3, 3),
            "gibbs": {"potential": "quartic", "J": 0.3, "coupling": "constant",
                      "chain": {"steps": 300, "burn_in": 100, "step_size": 0.5,
                                "seed": 9},
                      "eta": [2, 3, 4], "outer_samples": 20, "t": 0.1,
                      "observable_sites": [2, 4]},
            "plan": {"dt": 0.01, "T": 0.1, "replicas": 50, "master_seed": 13}},
        # Lengths 1 and sqrt(2) within rho: two distinct tent weights.
        "gibbs_tent": {
            "graph": {"source": "lattice", "rho": 1.5,
                      "lattice": {"lo": -2, "hi": 2, "dim": 2}},
            "gibbs": {"potential": "quartic", "J": 0.3, "coupling": "tent",
                      "chain": {"steps": 200, "burn_in": 100, "step_size": 0.5,
                                "seed": 4},
                      "eta": [6, 7, 12], "outer_samples": 20, "t": 0.05,
                      "observable_sites": [7, 12]},
            "plan": {"dt": 0.01, "T": 0.05, "replicas": 30, "master_seed": 17}},
        "graph": {
            "graph": {"source": "poisson", "rho": 1.0,
                      "poisson": {"intensity": 1.5,
                                  "window": [[-5.0, 5.0], [-5.0, 5.0]],
                                  "seed": 3}}},
        "ovs": {
            "graph": _chain(-5, 5),
            "scale": {"alpha_star": 0.0, "alpha_top": 1.0}},
    }


# Recorded with numpy 2.4.6 and scipy 1.17.1.
PINS = {
    "simulate": {
        "moments.csv":
            "2773d179e1d61d1fcafd3ad2c871f2b2d5e535c8841666aeef181d0fd8c53d88",
        "trajectories.npz":
            "c86a78cb6fa777256a568a111b390723202fa2fbe9eb36e11349ca9867aef291",
        "ensemble_hash":
            "f1e65f9a585770a8525ced45aa0833d978bb65fd37cbde2909c34c05a39b3dcd",
    },
    "converge": {
        "gaps.csv":
            "ed45296c23c1351309f7ded4502b651f4da42b06df92dcf956a38db87343953b",
        "ensemble_hash":
            "c35770904b35af29a595ba1a16e5b761ab9387edd137e0b5cbf111c8026ab44b",
    },
    "gibbs": {
        "gibbs_report.json":
            "3f8deb97e296023a32f1fdd89e9fbab203cfa1a2e0e8237d1a59bf9b58d0b262",
    },
    "gibbs_tent": {
        "gibbs_report.json":
            "626a3164420f3cbaa84d99eae1c11ea4c0ea9b82f4c8e8f6445bdd0533b9c287",
    },
    "graph": {
        "configuration.csv":
            "a372b4bda76c9e311e2d7e64c276557242b5c5c43de25144cfac460b319c825c",
        "degree_report.json":
            "3c880fb13ef34b12a49ec853196f582edfc1f0bd6d0b8aab8f1c373d5b37758f",
        "degrees.csv":
            "d69a43cea2872e74165c3d1c98cdeff69ef51a2ae72a4627dc6965d3ab6c8c44",
        "edges.csv":
            "c3452ab012f1397f6cd4e26ce57fb0bfd78b37f650277e76b79c462075cdf24d",
    },
    "ovs": {
        "kt_table.csv":
            "1b6f89fe9105e2e3652d0f0d46c6f1791701aaa4588cc4fa0995d5e47e0d7a2c",
    },
}


@pytest.mark.parametrize("case", ["simulate", "converge", "gibbs", "gibbs_tent", "graph",
                                  "ovs"])
def test_outputs_match_pins(tmp_path, case):
    command = case.split("_")[0]
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(_configs(tmp_path)[case]))
    out = tmp_path / "out"
    assert main([command, str(cfg_path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == got
    if "ensemble_hash" in manifest:
        got["ensemble_hash"] = manifest["ensemble_hash"]
    assert got == PINS[case]
