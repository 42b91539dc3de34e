import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import types
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from helpers import normal_init
from spindyn import (ParameterError, RandomInit, ScaleInterval, SimPlan,
                     WeightedSeq, build_graph, estimate_L, gronwall_bound,
                     induced_matrix, k_series, lattice_configuration, make_field,
                     moment_p, radial_volumes, run_nested)
from spindyn import cli, geometry, ovsbound
from spindyn.cli import main


def write_cfg(tmp_path, cfg, name="run.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def lattice_graph_cfg(lo=-5, hi=5, rho=1.5):
    return {"graph": {"source": "lattice", "rho": rho,
                      "lattice": {"lo": lo, "hi": hi}}}


def perfbench_module(name):
    """``perfbench/<name>.py``, executed from its source so that nothing is
    written next to it."""
    src = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(src.read_text(), str(src), "exec"), module.__dict__)
    return module


def small_cfg():
    """A 7-site chain config that every subcommand but graph can run."""
    cfg = lattice_graph_cfg(-3, 3)
    cfg["field"] = {"drift": "cubic", "coupling": "linear_pair", "J": 0.2}
    cfg["plan"] = {"dt": 0.05, "T": 0.1, "replicas": 2, "p": 4}
    cfg["volumes"] = {"radii": [1.0]}
    cfg["gibbs"] = {"chain": {"steps": 10, "burn_in": 10}, "eta": [2, 3]}
    return cfg


def set_key(cfg, key, value):
    """Set the dotted ``key`` of ``cfg`` to ``value``, making sections."""
    *path, name = key.split(".")
    node = cfg
    for part in path:
        node = node.setdefault(part, {})
    node[name] = value
    return cfg


def poisson_cfg():
    return {"graph": {"source": "poisson", "rho": 1.0,
                      "poisson": {"intensity": 1.0, "seed": 1}}}


def run_fresh(code):
    """The last line that ``code`` prints in a fresh interpreter, which must
    exit 0, with this checkout's ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


class TestStartup:
    # scipy costs about 100 ms of start-up.  `graph` needs none of it, so
    # neither the package nor that subcommand loads it; every other
    # subcommand has it loaded before the subcommand itself starts.
    def test_import_loads_no_scipy(self):
        assert run_fresh(f"import sys, spindyn, spindyn.cli; {SCIPY_LOADED}") == "[]"

    def test_graph_loads_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path, lattice_graph_cfg())
        code = ("import sys; from spindyn import cli; "
                f"code = cli.main(['graph', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
                f"assert code == 0; {SCIPY_LOADED}")
        assert run_fresh(code) == "[]"

    def test_scipy_loaded_before_other_subcommands_start(self, tmp_path):
        # The subcommand is wrapped where `main` looks it up, as the
        # benchmark harness times it.
        cfg = write_cfg(tmp_path, simulate_cfg(T=0.01, replicas=2))
        code = ("import sys; from spindyn import cli; "
                "command = cli._COMMANDS['simulate']; seen = []\n"
                "def timed(*args):\n"
                "    seen.extend(m in sys.modules for m in ('scipy.sparse', 'scipy.special'))\n"
                "    return command(*args)\n"
                "cli._COMMANDS['simulate'] = timed\n"
                f"assert cli.main(['simulate', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
                "print(seen)")
        assert run_fresh(code) == "[True, True]"

    def test_traced_cli_names_are_globals_after_import(self):
        # The benchmark tracer wraps these right after `from spindyn import
        # cli`; a name that only a later import binds would go unwrapped.
        from test_perfbench_hooks import TARGETS
        names = sorted({attr for places, _units in TARGETS.values()
                        for module, attr in places if module == "spindyn.cli"})
        assert names
        code = ("from spindyn import cli; "
                f"print([n for n in {names!r} if not callable(vars(cli).get(n))])")
        assert run_fresh(code) == "[]"


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

    def test_runs_without_scipy_spatial(self, tmp_path):
        # The neighbour search needs only numpy; scipy.spatial, with the 75
        # modules it loads, would add about 10 MiB to every run.
        cfg = write_cfg(tmp_path, lattice_graph_cfg())
        code = ("import sys; from spindyn.cli import main; "
                f"code = main(['graph', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial'))); "
                "sys.exit(code)")
        assert run_fresh(code) == "[]"

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

    def test_poisson_csv_tables_match_savetxt(self, tmp_path):
        # More than 4096 sites and edges, so every table spans several of
        # the writer's blocks.
        points = geometry.sample_poisson(2.0, [[-25.0, 25.0], [-25.0, 25.0]], 9)
        assert points.n_sites > 4096
        pts = tmp_path / "points.csv"
        np.savetxt(pts, np.column_stack([np.arange(points.n_sites), points.positions]),
                   fmt=["%d", "%.17g", "%.17g"], delimiter=",",
                   header="site_id,x0,x1", comments="")
        cfg = write_cfg(tmp_path, {"graph": {"source": "csv", "rho": 1.0,
                                             "csv": {"path": str(pts)}}})
        out = tmp_path / "out"
        assert main(["graph", cfg, "--out", str(out)]) == 0
        g = build_graph(geometry.configuration_from_csv(pts), 1.0)
        assert g.edges().shape[0] > 4096
        want = tmp_path / "want"
        want.mkdir()
        np.savetxt(want / "configuration.csv",
                   np.column_stack([np.arange(g.n_sites), g.config.positions]),
                   fmt=["%d", "%.17g", "%.17g"], delimiter=",",
                   header="site_id,x0,x1", comments="")
        np.savetxt(want / "degrees.csv",
                   np.column_stack([np.arange(g.n_sites), g.nbar_count - 1, g.nbar_count]),
                   fmt="%d", delimiter=",", header="site_id,degree,nbar", comments="")
        np.savetxt(want / "edges.csv", g.edges(), fmt="%d", delimiter=",",
                   header="a,b", comments="")
        for name in ("configuration.csv", "degrees.csv", "edges.csv"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("body, named", [
        ("0,0\n5,1\n5,2\n", "site_id 5"),
        ("0,0\n2.5,1\n-1,2\n", "site_id 2.5"),
        ("", "rows"),
        ("0,0\n1,abc\n", "line 3"),
        ("0,0\n1,nan\n", "site 1"),
    ])
    def test_malformed_point_csv_exits_2(self, tmp_path, capsys, body, named):
        pts = tmp_path / "points.csv"
        pts.write_text("site_id,x0\n" + body)
        cfg = write_cfg(tmp_path, {"graph": {"source": "csv", "rho": 1.0,
                                             "csv": {"path": str(pts)}}})
        assert main(["graph", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(pts) in err and named in err
        assert not (tmp_path / "o" / "configuration.csv").exists()


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

    def test_trajectories_stored_and_hashed_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, simulate_cfg(replicas=4, dt=0.01))
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        with zipfile.ZipFile(out / "trajectories.npz") as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        traj = np.load(out / "trajectories.npz")["trajectories"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert hashlib.sha256(traj.tobytes()).hexdigest() == manifest["ensemble_hash"]

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
        assert hashes[1.0] == ("756d4e9a4e5afd0e65d3783beed7e4c5"
                               "97a956a0f2a4aa42ff96d64abe9a87f9")

    def test_csv_init_starts_every_replica_and_volume(self, tmp_path):
        # The CSV's site values start every replica in every volume; the
        # sites it does not name start at 0.
        (tmp_path / "init.csv").write_text("site_id,value\n1,0.25\n4,-1.5\n")
        cfg = lattice_graph_cfg(-3, 3, 1.5)
        cfg["field"] = {"drift": "cubic", "coupling": "linear_pair", "J": 0.2}
        cfg["plan"] = {"dt": 0.05, "T": 0.1, "replicas": 3, "master_seed": 2, "p": 4}
        cfg["volumes"] = {"radii": [1.0]}
        cfg["init"] = {"type": "csv", "path": str(tmp_path / "init.csv")}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        start = np.load(out / "trajectories.npz")["trajectories"][..., 0]
        assert start.shape == (3, 2, 7)
        assert np.all(start == [0.0, 0.25, 0.0, 0.0, -1.5, 0.0, 0.0])

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

    def test_moment_p_matches_per_entry_formula(self):
        # Oracle: the mean and the ddof=1 standard error over replicas of
        # |xi|^p, one (site, time) entry at a time.
        graph = build_graph(lattice_configuration(-3, 3), 1.5)
        field_ = make_field(graph, drift="cubic", coupling="linear_pair", J=0.2)
        plan = SimPlan(dt=0.05, T=0.5, replicas=9, master_seed=4, p=3.0)
        paths = run_nested(field_, radial_volumes(graph, [1.0, 2.0]),
                           normal_init(plan, graph.n_sites, 0.3, 1.2), plan)
        times = [0.0, 0.15, 0.5]
        cols = [plan.time_index(t) for t in times]
        for volume, p in ((1, 3.0), (-1, 4.5)):
            mean, se = moment_p(paths[:, volume][:, :, cols], p)
            assert mean.shape == se.shape == (graph.n_sites, len(times))
            for x in range(graph.n_sites):
                for j, t in enumerate(times):
                    vals = np.abs(paths[:, volume, x, plan.time_index(t)]) ** p
                    assert mean[x, j] == pytest.approx(np.mean(vals), rel=1e-12)
                    assert se[x, j] == pytest.approx(
                        np.std(vals, ddof=1) / np.sqrt(vals.size), rel=1e-12)

    @pytest.mark.parametrize("body, named", [
        ("0,1.0\n1,abc\n", "could not convert string 'abc'"),
        ("0,1.0\n2,nan\n", "non-finite value at site 2"),
        ("0,1.0\n1\n", "line 3"),
        ("1,1.0\n1,2.0\n", "site_id 1 is repeated"),
    ])
    def test_malformed_init_csv_exits_2(self, tmp_path, capsys, body, named):
        init = tmp_path / "init.csv"
        init.write_text("site_id,value\n" + body)
        cfg = simulate_cfg(replicas=2, dt=0.1)
        cfg["graph"]["lattice"] = {"lo": 0, "hi": 2}
        cfg["init"] = {"type": "csv", "path": str(init)}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {init}: " in err and named in err
        assert "usecols" not in err  # numpy's advice on its own argument
        assert list(out.iterdir()) == []


class TestNpzWriter:
    @pytest.mark.parametrize("array", [
        np.random.default_rng(0).standard_normal((3, 4, 5)),
        np.asfortranarray(np.random.default_rng(1).standard_normal((6, 7))),
        np.zeros((0, 3)),
        np.arange(9.0),
    ], ids=["C-order", "F-order", "empty", "1-d"])
    def test_bytes_equal_np_savez(self, tmp_path, array):
        np.savez(tmp_path / "want.npz", trajectories=array, times=np.arange(3.0))
        cli._write_npz(tmp_path / "got.npz", trajectories=array, times=np.arange(3.0))
        assert (hashlib.sha256((tmp_path / "got.npz").read_bytes()).hexdigest()
                == hashlib.sha256((tmp_path / "want.npz").read_bytes()).hexdigest())

    def test_writes_16_mb_without_copying_it(self, tmp_path):
        array = np.random.default_rng(2).standard_normal(2 * 1024 * 1024)
        tracemalloc.start()
        try:
            cli._write_npz(tmp_path / "big.npz", trajectories=array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert np.array_equal(np.load(tmp_path / "big.npz")["trajectories"], array)


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
            b = np.where(volumes.masks[int(n)], 0.0, moment)
            assert bound == gronwall_bound(
                a_bar, 1.0, graph, [WeightedSeq(b, graph)], 0.2, [beta],
                0.5, 0.5, ScaleInterval(0.1, 1.0))[0, 0]

    def test_one_bound_call_and_one_L_per_run(self, tmp_path, monkeypatch):
        # Counted where the benchmark's tracer wraps them: converge computes
        # its whole (beta, n) grid in one gronwall_bound call, from one L,
        # on the 12-row benchmark chain.
        calls = {"gronwall_bound": 0, "estimate_L": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(ovsbound, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(ovsbound, name, counted)
        cfg = perfbench_module("inputs").generate("converge_chain", 1, tmp_path / "in")
        out = tmp_path / "out"
        assert main(["converge", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "gaps.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(rows) == 12
        assert calls == {"gronwall_bound": 1, "estimate_L": 1}

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def nested_gap_sums(*args, **kwargs):
            raise AssertionError("nested_gap_sums must not be called")
        monkeypatch.setattr(cli, "nested_gap_sums", nested_gap_sums)

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

    def test_overflowing_kernel_exits_3_without_warning(self, tmp_path, capsys,
                                                         no_simulation):
        # a_bar = J = 1e308, so the kernel weight a_bar n_0 = 2e308 overflows.
        cfg = self.base_cfg()
        cfg["field"]["J"] = 1.0e308
        cfg["volumes"] = {"radii": [2.0, 5.0]}
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["converge", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numeric error: kernel weight B n_x^k at site 0 exceeds double-precision "
            "range (B=1e+308, k=1.0)\n")
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
        L = estimate_L(induced_matrix(graph, 0.2, 1.0), graph, 0.5,
                       ScaleInterval(0.1, 1.0))
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

    def test_overflowing_kernel_exits_3_without_warning(self, tmp_path, capsys):
        cfg = self.ovs_cfg(-5, 5)
        cfg["ovs"]["B"] = 1.0e308
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["ovs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "numeric error: kernel weight B n_x^k at site 0 exceeds double-precision "
            "range (B=1e+308, k=1.0)\n")
        assert not (out / "kt_table.csv").exists()

    def test_nan_B_exits_2(self, tmp_path, capsys):
        # A NaN kernel constant is a config error, named before any work.
        cfg = self.ovs_cfg(-5, 5)
        cfg["ovs"]["B"] = float("nan")
        out = str(tmp_path / "o")
        assert main(["ovs", write_cfg(tmp_path, cfg), "--out", out]) == 2
        assert "config key 'ovs.B' must hold finite numbers" in capsys.readouterr().err


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

    def test_coupled_gaussian_exits_2(self, tmp_path, capsys):
        # A quadratic V has tau = 2, and a nonzero coupling makes r = 2.
        cfg = set_key(small_cfg(), "gibbs.potential", "gaussian")
        cfg["gibbs"]["J"] = 0.3
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: gibbs: need tau > r, got tau=2, r=2" in err
        assert not (out / "gibbs_report.json").exists()

    def test_default_model_runs(self, tmp_path):
        # No potential or J given: the uncoupled quartic preset, r = 0.
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, small_cfg()), "--out", str(out)]) == 0
        assert (out / "gibbs_report.json").exists()

    def test_coupling_alone_takes_the_quartic_default(self, tmp_path):
        # Only J given on the 7-site chain: the default potential is quartic,
        # as make_model's, so the coupled model is certified (tau 4 > r 2).
        cfg = set_key(small_cfg(), "gibbs.J", 0.3)
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "gibbs_report.json").exists()

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
                                            ("observable_sites", [0, 50]),
                                            ("eta", [2, 2]),
                                            # the reversibility check compares
                                            # two distinct sites, and only two
                                            ("observable_sites", [1]),
                                            ("observable_sites", [1, 1]),
                                            ("observable_sites", [1, 2, 3])])
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

    def test_default_sites_on_one_site_graph_exit_2(self, tmp_path, capsys):
        # The default [0, n - 1] names one site twice when n = 1.
        cfg = lattice_graph_cfg(0, 0, 1.0)
        cfg["gibbs"] = {"potential": "quartic", "chain": {"steps": 20, "burn_in": 5},
                        "t": 0.2}
        cfg["plan"] = {"dt": 0.01, "T": 0.2, "replicas": 5, "master_seed": 2, "p": 4}
        out = tmp_path / "out"
        assert main(["gibbs", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert "gibbs.observable_sites" in capsys.readouterr().err
        assert not (out / "gibbs_report.json").exists()


class TestConfigKeys:
    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_1_exit_2_before_output(self, tmp_path, capsys, threads):
        cfg = write_cfg(tmp_path, small_cfg())
        for command in cli._COMMANDS:
            out = tmp_path / command
            assert main([command, cfg, "--out", str(out), "--threads", str(threads)]) == 2
            assert "--threads" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("converge", "scale", {"alpha_star": 1.0, "alpha_top": 0.5}),
        ("ovs", "scale", {"alpha_star": 1.0, "alpha_top": 0.5}),
        ("converge", "converge.q", 1.5),
        ("ovs", "ovs.q", 1.5),
        ("gibbs", "gibbs.chain", {"steps": 0}),
        ("graph", "graph.lattice.dim", 0),
        ("graph", "graph.lattice", {"lo": 3, "hi": -3}),
        ("gibbs", "gibbs.outer_samples", 0),
        ("gibbs", "gibbs.t", 0.123),  # beyond T
        ("gibbs", "gibbs.t", 0.07),  # between grid points
        ("gibbs", "gibbs.t", -0.1),
        ("ovs", "ovs.T", 0.0),
        # (alpha, beta) and widths outside the scale that L covers
        ("converge", "converge.alpha", -0.5),
        ("ovs", "ovs.widths", [0.5, 2.0]),
        # numpy's generators take no negative seed
        ("gibbs", "gibbs.chain", {"steps": 10, "burn_in": 10, "seed": -1}),
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, command,
                                              key, value):
        cfg = set_key(small_cfg(), key, value)
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, cfg, key", [
        ("ovs", lattice_graph_cfg() | {"ovs": {"B": 0.2}}, "ovs.trials"),
        ("simulate", simulate_cfg(replicas=2, dt=0.1), "field.M_tilda"),
    ])
    def test_unknown_key_exits_2_before_output(self, tmp_path, capsys, command,
                                               cfg, key):
        section, name = key.split(".")
        cfg[section][name] = 500
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "field.J", float("nan")),
        ("simulate", "plan.dt", float("inf")),
        ("simulate", "volumes.radii", [float("nan")]),
        ("simulate", "init.value", -float("inf")),
        ("ovs", "ovs.widths", [0.5, float("nan")]),
        ("graph", "graph.poisson.window", [[-4.0, 4.0], [-4.0, float("inf")]]),
    ])
    def test_non_finite_value_exits_2_naming_key(self, tmp_path, capsys, command,
                                                 key, value):
        base = poisson_cfg() if command == "graph" else simulate_cfg(replicas=2, dt=0.1)
        cfg = set_key(base, key, value)
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config key '{key}' must hold finite numbers" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # YAML's yes/no load as bools, which isinstance counts as ints; a nested
    # or ragged list where a flat or (d, 2) one is read must not reach
    # float() or numpy.
    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "plan.replicas", True),
        ("simulate", "plan.dt", True),
        ("converge", "converge.betas", [True]),
        ("converge", "converge.betas", [[0.5]]),
        ("ovs", "ovs.widths", [[0.5]]),
        ("graph", "graph.poisson.window", [[0, 1], [0]]),
        ("simulate", "volumes.radii", [[1.0], [2.0, 3.0]]),
        ("simulate", "volumes.radii", [[1.0], [2.0]]),
    ])
    def test_wrong_kind_or_shape_exits_2_naming_key(self, tmp_path, capsys, command,
                                                    key, value):
        cfg = set_key(poisson_cfg() if command == "graph" else small_cfg(), key, value)
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: config key '{key}' " in err and "<class" not in err
        assert list(out.iterdir()) == []

    # Range errors raised below the CLI, prefixed with the key they concern.
    @pytest.mark.parametrize("command, key, value, message", [
        ("simulate", "volumes.radii", [2.0, 1.0],
         "volumes.radii: volumes must be strictly nested"),
        ("simulate", "plan.p", 2, "plan.p: moment order p=2.0 must be >= max(2, R=3.0)"),
        ("converge", "plan.p", 2, "plan.p: moment order p=2.0 must be >= max(2, R=3.0)"),
        ("graph", "graph.poisson.window", [0, 1],
         "config key 'graph.poisson.window' must be a rectangular 2-d list of numbers"),
        ("graph", "graph.poisson.window", [[1.0, 0.0]],
         "graph.poisson: window must have shape (d, 2) with lo < hi"),
        # a mean above numpy's largest Poisson mean
        ("graph", "graph.poisson", {"intensity": 1.0e30, "window": [[0, 1]], "seed": 1},
         "graph.poisson: intensity 1e+30 on a window of volume 1.0 gives a mean "
         "point count numpy cannot sample"),
    ])
    def test_range_error_names_key(self, tmp_path, capsys, command, key, value,
                                   message):
        cfg = set_key(poisson_cfg() if command == "graph" else small_cfg(), key, value)
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    # A request with nothing to compare or tabulate would otherwise run and
    # write a header-only table.  Nothing is simulated or written.
    @pytest.mark.parametrize("command, key, value, named", [
        ("converge", "volumes", {}, "volumes.radii"),
        ("converge", "volumes.radii", [], "volumes.radii"),
        ("converge", "volumes.radii", [100.0], "volumes.radii"),  # the window
        ("converge", "converge.betas", [], "converge.betas"),
        ("ovs", "ovs.widths", [], "ovs.widths"),
    ], ids=["converge-no-volumes", "converge-no-radii", "converge-window-radius",
            "converge-no-betas", "ovs-no-widths"])
    def test_empty_request_exits_2_naming_key(self, tmp_path, capsys, monkeypatch,
                                              command, key, value, named):
        def nested_gap_sums(*args, **kwargs):
            raise AssertionError("nested_gap_sums must not be called")
        monkeypatch.setattr(cli, "nested_gap_sums", nested_gap_sums)
        cfg = set_key(small_cfg(), key, value)
        out = tmp_path / "out"
        assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: {named}: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unknown_init_dist_names_key(self, tmp_path, capsys):
        cfg = simulate_cfg(replicas=2, dt=0.1)
        cfg["init"] = {"type": "random", "dist": "gaussian"}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert "init.dist: unknown initial distribution 'gaussian'" \
            in capsys.readouterr().err
        with pytest.raises(ParameterError, match="gaussian"):
            RandomInit("gaussian")

    @pytest.mark.parametrize("dist, a, b", [("uniform", 1.0, 0.0), ("normal", 0.0, -2.0)])
    def test_bad_init_b_names_key(self, tmp_path, capsys, dist, a, b):
        cfg = simulate_cfg(replicas=2, dt=0.1)
        cfg["init"] = {"type": "random", "dist": dist, "a": a, "b": b}
        out = tmp_path / "out"
        assert main(["simulate", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: init.b: b={b} must be >= " in capsys.readouterr().err

    def test_key_set_is_exactly_the_keys_read(self):
        # A key in the set that no subcommand reads would be accepted and
        # ignored, the fault the set exists to stop.
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r'(?:_get|_site_list)\(cfg, "([\w.]+)"', source))
        assert read == cli._CONFIG_KEYS

    def test_benchmark_configs_load(self, tmp_path):
        inputs = perfbench_module("inputs")
        for workload in inputs.WORKLOADS:
            cli._load_config(str(inputs.generate(workload, 1, tmp_path / workload)))

    def test_benchmark_outputs_pass_benchmark_checks(self, tmp_path):
        # The benchmark's own output checks, on its seed-1 inputs and at its
        # thread counts (perfbench/run.py's THREADS).
        inputs, checks = perfbench_module("inputs"), perfbench_module("checks")
        for workload in inputs.WORKLOADS:
            cfg = inputs.generate(workload, 1, tmp_path / workload / "inputs")
            out = tmp_path / workload / "out"
            command = workload.split("_")[0]
            threads = 2 if workload == "simulate_poisson" else 1
            assert main([command, str(cfg), "--out", str(out),
                         "--threads", str(threads)]) == 0
            assert checks.check(command, cfg, out) == [], workload
            assert checks.manifest(out) == [], workload
