"""Tests of the benchmark itself: corrupt copies of real outputs and show
that each output check fails; show that inputs depend on the seed alone.

    python3 perfbench/selftest.py

Runs each subcommand once (about 20 s in all) under
``.perfbench_work/selftest``.  Every corrupted copy gets a rewritten
manifest, so that the check under test, not the manifest check, must catch
the fault.  Prints one PASS/FAIL line per case; exits 1 on any FAIL.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SEED = 0
failures = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def rehash(out: Path) -> None:
    path = out / "manifest.json"
    m = json.loads(path.read_text())
    m["outputs"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    path.write_text(json.dumps(m, indent=2, sort_keys=True) + "\n")


def read_csv(path: Path):
    header = path.read_text().splitlines()[0]
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def write_csv(path: Path, header: str, data: np.ndarray) -> None:
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


def corrupt(sub, config, real: Path, name: str, mutate, expect: str) -> None:
    """Apply ``mutate`` to a copy of ``real``; the check must report
    a problem containing ``expect``."""
    copy = real.parent / f"{real.name}-{name.replace(' ', '_')}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(real, copy)
    mutate(copy)
    rehash(copy)
    problems = checks.check(sub, config, copy)
    report(f"{sub}: {name} is caught", any(expect in p for p in problems),
           f"problems were {problems}")
    shutil.rmtree(copy)


def edit_csv(file: str, change):
    def mutate(out: Path):
        header, data = read_csv(out / file)
        write_csv(out / file, header, change(data))
    return mutate


def edit_json(file: str, change):
    def mutate(out: Path):
        doc = json.loads((out / file).read_text())
        change(doc)
        (out / file).write_text(json.dumps(doc))
    return mutate


def edit_npz(change):
    def mutate(out: Path):
        with np.load(out / "trajectories.npz") as z:
            traj, times = z["trajectories"].copy(), z["times"]
        change(traj, out)
        np.savez_compressed(out / "trajectories.npz", trajectories=traj, times=times)
    return mutate


def drop_row(i):
    return lambda d: np.delete(d, i, axis=0)


def set_cell(i, j, value_of):
    def change(d):
        d[i, j] = value_of(d)
        return d
    return change


def swap_cells(a, b, col):
    def change(d):
        d[[a, b], col] = d[[b, a], col]
        return d
    return change


def graph_cases(config, real):
    far = edit_csv("edges.csv", lambda d: np.vstack([d, [[0, d[:, 1].max()]]]))
    corrupt("graph", config, real, "one edge dropped", edit_csv("edges.csv", drop_row(7)),
            "misses")
    corrupt("graph", config, real, "one far pair added", far, "beyond rho")
    corrupt("graph", config, real, "one degree changed",
            edit_csv("degrees.csv", set_cell(3, 1, lambda d: d[3, 1] + 1)), "degrees.csv")
    corrupt("graph", config, real, "max_nbar off by one",
            edit_json("degree_report.json", lambda r: r.update(max_nbar=r["max_nbar"] + 1)),
            "max_nbar")
    corrupt("graph", config, real, "degree constant perturbed",
            edit_json("degree_report.json",
                      lambda r: r.update(degree_constant=r["degree_constant"] * (1 + 1e-6))),
            "degree_constant")
    corrupt("graph", config, real, "one point moved",
            edit_csv("configuration.csv", set_cell(5, 1, lambda d: d[5, 1] + 1e-9)),
            "configuration.csv")


def simulate_cases(config, real):
    cfg = yaml.safe_load(Path(config).read_text())
    pts = np.loadtxt(cfg["graph"]["csv"]["path"], delimiter=",", skiprows=1)[:, 1:]
    far_site = int(np.argmax(np.hypot(pts[:, 0], pts[:, 1])))

    def rescale(traj, out):
        # Consistent outputs of a wrong initial law: only the closed form
        # can tell.
        traj *= 1.1
        header, table = read_csv(out / "moments.csv")
        sites = table[:, 0].astype(int)
        j = np.rint(table[:, 1] / float(cfg["plan"]["dt"])).astype(int)
        vals = np.abs(traj[:, -1, sites, j]) ** float(cfg["plan"]["p"])
        table[:, 3] = vals.mean(axis=0)
        table[:, 4] = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        write_csv(out / "moments.csv", header, table)

    def freeze_broken(traj, out):
        traj[0, 0, far_site, -1] += 1e-3

    def t0_broken(traj, out):
        traj[0, 1, 0, 0] += 1e-3
        traj[0, 1, 0, 1:] = traj[0, 1, 0, 0]  # keep site 0 frozen where it was

    def nan(traj, out):
        traj[0, -1, 0, 3] = np.nan

    corrupt("simulate", config, real, "one moment perturbed",
            edit_csv("moments.csv", set_cell(10, 3, lambda d: d[10, 3] * (1 + 1e-6))),
            "differs from the moments")
    corrupt("simulate", config, real, "a frozen site moved", edit_npz(freeze_broken),
            "outside radius")
    corrupt("simulate", config, real, "one volume's t = 0 state changed",
            edit_npz(t0_broken), "t = 0 state")
    corrupt("simulate", config, real, "a NaN in the trajectories", edit_npz(nan),
            "not all finite")
    corrupt("simulate", config, real, "initial law rescaled", edit_npz(rescale),
            "E|N(a, b^2)|^p")
    copy = real.parent / "manifest-tampered"
    shutil.copytree(real, copy)
    doc = json.loads((copy / "manifest.json").read_text())
    doc["outputs"]["moments.csv"] = "0" * 64
    (copy / "manifest.json").write_text(json.dumps(doc))
    problems = checks.check("simulate", config, copy)
    report("simulate: tampered manifest hash is caught",
           any("manifest hash" in p for p in problems), f"problems were {problems}")
    shutil.rmtree(copy)


def converge_cases(config, real):
    corrupt("converge", config, real, "two gap rows swapped",
            edit_csv("gaps.csv", swap_cells(0, 1, 4)), "fall strictly")
    corrupt("converge", config, real, "gaps swapped across betas",
            edit_csv("gaps.csv", swap_cells(0, 4, 4)), "increase in beta")
    corrupt("converge", config, real, "a bound below its gap",
            edit_csv("gaps.csv", set_cell(2, 5, lambda d: d[2, 4] / 2)), "(0, bound]")
    corrupt("converge", config, real, "a row dropped", edit_csv("gaps.csv", drop_row(5)),
            "rows (n, m, beta, p)")


def gibbs_cases(config, real):
    doc = json.loads((real / "gibbs_report.json").read_text())
    ess = doc["kernel"]["ess"]

    def shift_var(r):
        r["kernel"]["variance"][4] += 10 * np.sqrt(2.0 / ess) * r["kernel"]["variance"][4]

    def shift_mean(r):
        r["kernel"]["mean"][6] += 10 / np.sqrt(ess)

    def unbalance(r):
        r["reversibility"]["rhs"] = r["reversibility"]["lhs"] + 10 * r["reversibility"]["se_diff"]

    corrupt("gibbs", config, real, "one kernel variance shifted",
            edit_json("gibbs_report.json", shift_var), "kernel variance")
    corrupt("gibbs", config, real, "one kernel mean shifted",
            edit_json("gibbs_report.json", shift_mean), "kernel mean")
    corrupt("gibbs", config, real, "lhs and rhs apart",
            edit_json("gibbs_report.json", unbalance), "reversibility")
    corrupt("gibbs", config, real, "DLR p-value below the floor",
            edit_json("gibbs_report.json", lambda r: r["dlr"].update(p_value=1e-4)), "DLR")
    corrupt("gibbs", config, real, "a sampler warning",
            edit_json("gibbs_report.json",
                      lambda r: r["kernel"]["warnings"].append("acceptance rate 0.01")),
            "warnings")


CASES = {"graph_poisson": graph_cases, "simulate_poisson": simulate_cases,
         "converge_chain": converge_cases, "gibbs_reversibility": gibbs_cases}


def input_cases():
    for workload in inputs.WORKLOADS:
        where = WORK / "inputs" / workload

        def files(seed):
            shutil.rmtree(where, ignore_errors=True)
            inputs.generate(workload, seed, where)
            return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

        first, again, other = files(SEED), files(SEED), files(SEED + 1)
        report(f"{workload}: inputs identical for the same seed", first == again)
        report(f"{workload}: inputs differ for another seed", first != other)


def trace_cases():
    spans = [[0, "cli.cmd", 0.0, 10.0, None, 1, None],
             [1, "engine.integrate_ensemble", 1.0, 5.0, 0, 1, 800],
             [2, "coeffs.drift_all", 1.5, 2.5, 1, 1, 100],
             [3, "coeffs.drift_all", 3.0, 3.5, 1, 1, 100],
             [4, "engine.moment_p", 6.0, 7.0, 0, 1, None]]
    m = tracing.layer_metrics(spans)
    report("trace: totals, self times and rates from spans",
           m["engine.integrate_ensemble.s"] == 4.0 and m["engine.integrate_ensemble.self_s"] == 2.5
           and m["coeffs.drift_all.site_evals_per_s"] == 200 / 1.5
           and m["cli.cmd.self_s"] == 5.0 and m["engine.moment_p.calls"] == 1
           and m["engine.integrate_ensemble.rep_site_steps_per_s"] == 200.0, str(m))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        input_cases()
        trace_cases()
        for workload, cases in CASES.items():
            sub = workload.split("_")[0]
            config = inputs.generate(workload, SEED, WORK / workload / "inputs")
            real = WORK / workload / "out"
            subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                            "from spindyn.cli import main; sys.exit(main(sys.argv[1:]))",
                            sub, str(config), "--out", str(real)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=150)
            problems = checks.check(sub, config, real)
            report(f"{sub}: real output passes", not problems, str(problems))
            cases(config, real)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{'FAILED' if failures else 'all passed'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
