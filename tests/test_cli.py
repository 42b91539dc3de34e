import json

import numpy as np
import pytest
import yaml

from spindyn import (RandomInit, ScaleInterval, SimPlan, WeightedSeq,
                     build_graph, estimate_L, gronwall_bound, induced_matrix,
                     k_series, lattice_configuration, make_field, moment_p,
                     radial_volumes, run_nested)
from spindyn import cli
from spindyn.cli import main


def write_cfg(tmp_path, cfg, name="run.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def lattice_graph_cfg(lo=-5, hi=5, rho=1.5):
    return {"graph": {"source": "lattice", "rho": rho,
                      "lattice": {"lo": lo, "hi": hi}}}


class TestGraphCommand:
    def test_lattice_report(self, tmp_path):
        cfg = write_cfg(tmp_path, lattice_graph_cfg())
        out = tmp_path / "out"
        assert main(["graph", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "degree_report.json").read_text())
        assert report["n_sites"] == 11
        assert report["degree_constant"] == 3.0
        for name in ("configuration.csv", "degrees.csv", "edges.csv",
                     "manifest.json"):
            assert (out / name).exists()

    def test_poisson_rerun_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "graph": {"source": "poisson", "rho": 1.0,
                      "poisson": {"intensity": 1.5,
                                  "window": [[-4.0, 4.0], [-4.0, 4.0]],
                                  "seed": 5}}})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["graph", cfg, "--out", str(out1)]) == 0
        assert main(["graph", cfg, "--out", str(out2)]) == 0
        assert (out1 / "configuration.csv").read_bytes() == \
            (out2 / "configuration.csv").read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_malformed_config_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"graph": {"source": "lattice", "rho": 1.5}})
        assert main(["graph", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "graph.lattice.lo" in capsys.readouterr().err

    def test_bad_source_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"graph": {"source": "hexgrid", "rho": 1.0}})
        assert main(["graph", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "graph.source" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["graph", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")]) == 2


def simulate_cfg(**plan):
    cfg = lattice_graph_cfg(0, 0, 1.0)
    cfg["field"] = {"drift": "linear", "coupling": "zero", "noise": "additive"}
    cfg["plan"] = {"dt": 0.001, "T": 1.0, "replicas": 2000,
                   "master_seed": 3, "p": 2} | plan
    cfg["init"] = {"type": "constant", "value": 0.0}
    return cfg


class TestSimulateCommand:
    def test_ou_moments(self, tmp_path):
        cfg = write_cfg(tmp_path, simulate_cfg())
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "moments.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        final = table[np.isclose(table[:, 1], 1.0)]
        mean, se = final[0, 3], final[0, 4]
        target = (1 - np.exp(-2.0)) / 2
        assert abs(mean - target) <= 3 * se + 1e-3

    def test_zero_field_constant(self, tmp_path):
        cfg = simulate_cfg(replicas=4)
        cfg["field"] = {"drift": "linear", "noise": "linear_noise"}
        cfg["init"] = {"type": "constant", "value": 0.0}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        traj = np.load(out / "trajectories.npz")["trajectories"]
        assert np.all(traj == 0.0)

    def test_threads_do_not_change_hash(self, tmp_path):
        cfg = write_cfg(tmp_path, simulate_cfg(replicas=64, dt=0.01))
        hashes = []
        for k, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            assert main(["simulate", cfg, "--out", str(out),
                         "--threads", str(k)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())
                          ["ensemble_hash"])
        assert hashes[0] == hashes[1]

    def test_M_tilde_reaches_linear_noise(self, tmp_path):
        hashes = {}
        for m_tilde in (1.0, 3.0):
            cfg = lattice_graph_cfg(-3, 3, 1.5)
            cfg["field"] = {"drift": "cubic", "coupling": "linear_pair", "J": 0.2,
                            "noise": "linear_noise", "M_tilde": m_tilde}
            cfg["plan"] = {"dt": 0.01, "T": 0.2, "replicas": 4,
                           "master_seed": 5, "p": 4}
            cfg["init"] = {"type": "random", "dist": "normal", "a": 0.0, "b": 1.0}
            out = tmp_path / str(m_tilde)
            assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
            hashes[m_tilde] = json.loads((out / "manifest.json").read_text())[
                "ensemble_hash"]
        assert hashes[3.0] != hashes[1.0]
        # M_tilde = 1 is the default, the weight every run used before the
        # key was read.
        assert hashes[1.0] == ("01b167f175c42ae7fba6c10d47bb53b9"
                               "b5f0d355128286ecc578a48617043af8")

    def test_bad_scheme_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, simulate_cfg(scheme="rk4"))
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_T_off_the_dt_grid_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, simulate_cfg(dt=0.01, T=0.105))
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "plan:" in err and "T=0.105" in err and "dt=0.01" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_exit_3_without_moments(self, tmp_path, capsys):
        (tmp_path / "init.csv").write_text("site_id,value\n4,1e150\n")
        cfg = lattice_graph_cfg(-5, 5, 1.5)
        cfg["field"] = {"drift": "cubic", "coupling": "zero", "noise": "additive"}
        cfg["plan"] = {"dt": 0.01, "T": 0.1, "scheme": "tamed_em", "replicas": 3,
                       "master_seed": 2, "p": 4}
        cfg["init"] = {"type": "csv", "path": str(tmp_path / "init.csv")}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        assert "replica 0, site 4, step 1" in capsys.readouterr().err
        assert not (out / "moments.csv").exists()

    def test_moments_table_matches_moment_p(self):
        graph = build_graph(lattice_configuration(-3, 3), 1.5)
        field_ = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        plan = SimPlan(dt=0.05, T=0.5, replicas=9, master_seed=4, p=3.0)
        ens = run_nested(field_, radial_volumes(graph, [1.0]),
                         RandomInit("normal", 0.3, 1.2), plan)
        times = [0.0, 0.15, 0.5]
        table = cli._moments_table(ens, plan.p, times)
        assert table.shape == (graph.n_sites * len(times), 5)
        for (x, t, p, mean, se), (x_want, t_want) in zip(
                table, [(x, t) for x in range(graph.n_sites) for t in times]):
            want_mean, want_se = moment_p(ens, 1, x_want, t_want, plan.p)
            assert (x, t, p) == (x_want, t_want, plan.p)
            assert mean == pytest.approx(want_mean, rel=1e-12)
            assert se == pytest.approx(want_se, rel=1e-12)


class TestConvergeCommand:
    def base_cfg(self):
        cfg = lattice_graph_cfg(-10, 10, 1.5)
        cfg["field"] = {"drift": "cubic", "coupling": "linear_pair", "J": 0.2}
        cfg["plan"] = {"dt": 0.02, "T": 0.5, "replicas": 32,
                       "master_seed": 1, "p": 4}
        cfg["init"] = {"type": "random", "dist": "normal", "a": 0.0, "b": 1.0}
        cfg["scale"] = {"alpha_star": 0.1, "alpha_top": 1.0}
        cfg["converge"] = {"betas": [0.8], "q": 0.5, "alpha": 0.2}
        return cfg

    def test_single_volume_empty_table(self, tmp_path):
        cfg = self.base_cfg()
        cfg["volumes"] = {"radii": []}
        out = tmp_path / "out"
        assert main(["converge", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        lines = (out / "gaps.csv").read_text().strip().splitlines()
        assert lines == ["n,m,beta,p,gap,bound"]

    def test_gaps_decrease_and_bounded(self, tmp_path):
        cfg = self.base_cfg()
        cfg["volumes"] = {"radii": [2.0, 5.0, 8.0]}
        out = tmp_path / "out"
        assert main(["converge", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "gaps.csv", delimiter=",", skiprows=1, ndmin=2)
        gaps = rows[:, 4]
        bounds = rows[:, 5]
        assert np.all(np.diff(gaps) < 0)
        assert np.all(gaps <= bounds)

    def test_bounds_equal_gronwall_bound(self, tmp_path):
        cfg = self.base_cfg()
        cfg["volumes"] = {"radii": [2.0, 5.0, 8.0]}
        cfg["converge"]["betas"] = [0.5, 0.8]
        out = tmp_path / "out"
        assert main(["converge", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "gaps.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == 6
        graph = build_graph(lattice_configuration(-10, 10), 1.5)
        a_bar = make_field(graph, drift="cubic", coupling="linear_pair",
                           J=0.2).a_bar
        init = RandomInit("normal", 0.0, 1.0)
        init0 = np.stack([init.draw(1, r, graph.n_sites) for r in range(32)])
        moment = np.mean(np.abs(init0) ** 4, axis=0) + 1.0
        volumes = radial_volumes(graph, [2.0, 5.0, 8.0])
        for n, _, beta, _, _, bound in rows:
            b = np.where(volumes.mask(int(n)), 0.0, moment)
            assert bound == gronwall_bound(
                a_bar, 1.0, graph, WeightedSeq.from_dense(b, graph), 0.2, beta,
                0.5, 0.5, ScaleInterval(0.1, 1.0))

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def run_nested(*args, **kwargs):
            raise AssertionError("run_nested must not be called")
        monkeypatch.setattr(cli, "run_nested", run_nested)

    def test_kt_overflow_exits_3_before_simulation(self, tmp_path, capsys,
                                                     no_simulation):
        cfg = self.base_cfg()
        cfg["graph"]["lattice"] = {"lo": -200, "hi": 200}
        cfg["plan"]["T"] = 2.0
        cfg["converge"]["betas"] = [0.4, 0.7, 1.0]
        cfg["volumes"] = {"radii": [40.0, 80.0, 120.0, 160.0]}
        out = tmp_path / "out"
        assert main(["converge", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        assert "K_T" in capsys.readouterr().err
        assert not (out / "gaps.csv").exists()

    @pytest.mark.parametrize("betas", [[0.8, 0.2], [0.15]])
    def test_beta_not_above_alpha_exits_2_before_simulation(
            self, tmp_path, capsys, no_simulation, betas):
        cfg = self.base_cfg()
        cfg["converge"]["betas"] = betas
        assert main(["converge", write_cfg(tmp_path, cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert "converge.alpha" in capsys.readouterr().err


class TestOvsCommand:
    def ovs_cfg(self, lo, hi):
        cfg = lattice_graph_cfg(lo, hi, 1.5)
        cfg["scale"] = {"alpha_star": 0.1, "alpha_top": 1.0}
        cfg["ovs"] = {"B": 0.2, "k": 1, "q": 0.5, "T": 1.0, "widths": [0.3, 0.9]}
        return cfg

    def test_kt_table_records_computed_L(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ovs", write_cfg(tmp_path, self.ovs_cfg(-5, 5)),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["kt_table.csv",
                                                         "manifest.json"]
        table = np.loadtxt(out / "kt_table.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        graph = build_graph(lattice_configuration(-5, 5), 1.5)
        L = estimate_L(induced_matrix(graph, 0.2, 1.0), 0.5, ScaleInterval(0.1, 1.0))
        assert table.shape == (2, 5)
        assert np.all(table[:, 0] == L)
        assert list(table[:, 4]) == [k_series(L, 1.0, 0.5, 0.0, w) for w in (0.3, 0.9)]

    def test_wide_window_exits_0(self, tmp_path):
        out = tmp_path / "out"
        cfg = self.ovs_cfg(-800, 800)
        cfg["ovs"]["B"] = 0.3
        assert main(["ovs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        table = np.loadtxt(out / "kt_table.csv", delimiter=",", skiprows=1,
                           ndmin=2)
        assert np.all(np.isfinite(table))


class TestGibbsCommand:
    def test_gaussian_report(self, tmp_path):
        cfg = lattice_graph_cfg(0, 0, 1.0)
        cfg["gibbs"] = {"potential": "gaussian", "J": 0.0,
                        "chain": {"steps": 3000, "burn_in": 600, "seed": 1}}
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        report = json.loads((out / "gibbs_report.json").read_text())
        assert abs(report["kernel"]["variance"][0] - 1.0) < 0.2
        assert 0.05 < report["kernel"]["acceptance_rate"] < 0.99

    def test_reversibility_section(self, tmp_path):
        cfg = lattice_graph_cfg(0, 7, 1.5)
        cfg["gibbs"] = {"potential": "quartic", "J": 0.1,
                        "chain": {"steps": 1, "burn_in": 400, "seed": 3},
                        "t": 0.2, "observable_sites": [1, 6]}
        cfg["plan"] = {"dt": 0.01, "T": 0.2, "replicas": 500,
                       "master_seed": 2, "p": 3}
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "gibbs_report.json").read_text())
        assert rep["reversibility"]["within_3se"]

    @pytest.mark.parametrize("key, sites", [("eta", [-1, 0]), ("eta", [0, 99]),
                                            ("observable_sites", [0, 50])])
    def test_bad_sites_exit_2_without_report(self, tmp_path, capsys, key, sites):
        cfg = lattice_graph_cfg(-10, 10, 1.5)
        cfg["gibbs"] = {"potential": "quartic", "J": 0.1,
                        "chain": {"steps": 200, "burn_in": 50, "seed": 3},
                        "t": 0.2, key: sites}
        cfg["plan"] = {"dt": 0.01, "T": 0.2, "replicas": 50,
                       "master_seed": 2, "p": 4}
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"gibbs.{key}" in capsys.readouterr().err
        assert not (out / "gibbs_report.json").exists()
