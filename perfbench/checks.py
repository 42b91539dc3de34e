"""Output checks, each computed independently of spindyn.

Every check returns a list of problems (empty when the output is correct).
Statistical checks hold on any seed: their tolerances are ``Z`` standard
errors, which a correct program exceeds with probability below 1e-6 per
test.  Geometric comparisons treat a distance within ``_TIE`` (relative) of
a cut-off as undecided, since the program and this module round distances
differently.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import yaml
from scipy.spatial import cKDTree
from scipy.special import gamma, hyp1f1

Z = 5.0
DLR_P_FLOOR = 1e-3
MIN_KERNEL_ESS = 20.0
_TIE = 1e-9
_REL = 1e-12


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def manifest(out: Path) -> list:
    """The manifest lists every output file with its SHA-256."""
    m = json.loads((out / "manifest.json").read_text())
    files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    problems = []
    if sorted(m.get("outputs", {})) != files:
        problems.append(f"manifest lists {sorted(m.get('outputs', {}))}, directory has {files}")
    for name, digest in m.get("outputs", {}).items():
        path = out / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest hash of {name} does not match the file")
    return problems


def _close(a, b, rel=_REL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------------------
# graph


def _pair_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    return np.sort(pairs[:, 0].astype(np.int64) * n + pairs[:, 1].astype(np.int64))


def graph(cfg: dict, out: Path) -> list:
    pts = _load_csv(Path(cfg["graph"]["csv"]["path"]))[:, 1:]
    rho = float(cfg["graph"]["rho"])
    n = pts.shape[0]
    problems = []

    conf = _load_csv(out / "configuration.csv")
    if not (np.array_equal(conf[:, 0], np.arange(n)) and np.array_equal(conf[:, 1:], pts)):
        problems.append("configuration.csv does not reproduce the input points")

    edges = _load_csv(out / "edges.csv").astype(np.int64).reshape(-1, 2)
    if np.any(edges[:, 0] >= edges[:, 1]) or edges.min(initial=0) < 0 or edges.max(initial=0) >= n:
        problems.append("edges.csv has a pair that is not (a, b) with 0 <= a < b < n")
        return problems
    got = _pair_codes(edges, n)
    if np.any(np.diff(got) == 0):
        problems.append("edges.csv lists an edge twice")
    tree = cKDTree(pts)
    inner = _pair_codes(tree.query_pairs(rho * (1 - _TIE), output_type="ndarray"), n)
    outer = _pair_codes(tree.query_pairs(rho * (1 + _TIE), output_type="ndarray"), n)
    missing = np.setdiff1d(inner, got, assume_unique=True)
    extra = np.setdiff1d(got, outer)
    if missing.size:
        a, b = divmod(int(missing[0]), n)
        problems.append(f"edges.csv misses {missing.size} pairs within rho, e.g. ({a}, {b})")
    if extra.size:
        a, b = divmod(int(extra[0]), n)
        problems.append(f"edges.csv has {extra.size} pairs beyond rho, e.g. ({a}, {b})")

    deg = np.bincount(edges.ravel(), minlength=n)
    degrees = _load_csv(out / "degrees.csv").astype(np.int64)
    if not np.array_equal(degrees, np.column_stack([np.arange(n), deg, deg + 1])):
        problems.append("degrees.csv does not match the neighbour count")

    report = json.loads((out / "degree_report.json").read_text())
    radius = np.hypot(pts[:, 0], pts[:, 1])
    if report.get("n_sites") != n:
        problems.append(f"degree_report n_sites {report.get('n_sites')} != {n}")
    if report.get("max_nbar") != int(deg.max()) + 1:
        problems.append(f"degree_report max_nbar {report.get('max_nbar')} != {int(deg.max()) + 1}")
    constant = float(np.max((deg + 1) / (1.0 + np.log1p(radius))))
    if not _close(report.get("degree_constant", np.nan), constant, 1e-9):
        problems.append(f"degree_report degree_constant {report.get('degree_constant')} != {constant}")
    if report.get("rho") != rho:
        problems.append("degree_report rho differs from the config")
    return problems + manifest(out)


# ---------------------------------------------------------------------------
# simulate


def abs_normal_moment(a: float, b: float, p: float) -> float:
    """E|X|^p for X ~ N(a, b^2) (Winkelbauer 2012, eq. 17)."""
    return float(b ** p * 2 ** (p / 2) * gamma((p + 1) / 2) / np.sqrt(np.pi)
                 * hyp1f1(-p / 2, 0.5, -a * a / (2 * b * b)))


def simulate(cfg: dict, out: Path) -> list:
    pts = _load_csv(Path(cfg["graph"]["csv"]["path"]))[:, 1:]
    plan, init = cfg["plan"], cfg["init"]
    dt, p = float(plan["dt"]), float(plan["p"])
    n_steps = int(round(float(plan["T"]) / dt))
    with np.load(out / "trajectories.npz") as z:
        traj = z["trajectories"]
        times = z["times"]
    n = pts.shape[0]
    problems = []
    radii = [float(r) for r in cfg["volumes"]["radii"]]
    shape = (int(plan["replicas"]), len(radii) + 1, n, n_steps + 1)
    if traj.shape != shape:
        return [f"trajectories have shape {traj.shape}, expected {shape}"]
    if not np.allclose(times, dt * np.arange(n_steps + 1), rtol=0, atol=1e-12):
        problems.append("times are not the simulation grid")
    if not np.all(np.isfinite(traj)):
        problems.append("trajectories are not all finite")

    radius = np.hypot(pts[:, 0], pts[:, 1])
    for v, r in enumerate(radii):
        outside = radius > r * (1 + _TIE)
        block = traj[:, v][:, outside]
        if not np.array_equal(block, np.broadcast_to(block[..., :1], block.shape)):
            problems.append(f"volume {v}: a site outside radius {r} moved")
    t0 = traj[..., 0]
    if not np.array_equal(t0, np.broadcast_to(t0[:, :1], t0.shape)):
        problems.append("volumes do not share their t = 0 state")

    table = _load_csv(out / "moments.csv")
    sites = table[:, 0].astype(np.int64)
    j = np.rint(table[:, 1] / dt).astype(np.int64)
    grid_t = sorted(set(j.tolist()))
    expect_rows = {(x, t) for x in range(n) for t in grid_t}
    if {(int(x), int(t)) for x, t in zip(sites, j)} != expect_rows or len(table) != len(expect_rows):
        problems.append("moments.csv does not hold one row per (site, time)")
    elif grid_t[0] != 0 or grid_t[-1] != n_steps or not np.allclose(table[:, 1], j * dt, atol=1e-12):
        problems.append("moments.csv times are off the grid or miss t = 0 / t = T")
    else:
        vals = np.abs(traj[:, -1, sites, j]) ** p  # (replicas, rows)
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        if not (_close(table[:, 2], np.full(len(table), p)) and _close(table[:, 3], mean, 1e-10)
                and _close(table[:, 4], se, 1e-8)):
            problems.append("moments.csv differs from the moments of trajectories.npz")
        at0 = table[j == 0, 3].mean()
        a, b = float(init["a"]), float(init["b"])
        exact = abs_normal_moment(a, b, p)
        se0 = np.sqrt((abs_normal_moment(a, b, 2 * p) - exact ** 2) / (n * shape[0]))
        if abs(at0 - exact) > Z * se0:
            problems.append(f"site-averaged t = 0 moment {at0:.6g} is not E|N(a, b^2)|^p "
                            f"= {exact:.6g} within {Z} se ({se0:.3g})")
    return problems + manifest(out)


# ---------------------------------------------------------------------------
# converge


def converge(cfg: dict, out: Path) -> list:
    rows = _load_csv(out / "gaps.csv")
    betas = [float(b) for b in cfg["converge"]["betas"]]
    m = len(cfg["volumes"]["radii"])
    problems = []
    expect = [(n, m, beta) for beta in betas for n in range(m)]
    got = [(int(r[0]), int(r[1]), float(r[2])) for r in rows]
    if got != expect or not np.all(rows[:, 3] == float(cfg["plan"]["p"])):
        return [f"gaps.csv rows (n, m, beta, p) are not {expect}"] + manifest(out)
    gap = rows[:, 4].reshape(len(betas), m)
    bound = rows[:, 5].reshape(len(betas), m)
    if not (np.all(gap > 0) and np.all(np.isfinite(bound)) and np.all(gap <= bound)):
        problems.append("a gap is not in (0, bound]")
    if not np.all(np.diff(gap, axis=1) < 0):
        problems.append("gaps do not fall strictly in n at some beta")
    if not np.all(np.diff(gap, axis=0) <= 0):
        problems.append("gaps increase in beta at some n")
    return problems + manifest(out)


# ---------------------------------------------------------------------------
# gibbs


def chain_marginal_moments(n: int, J: float, V, half_width: float = 6.0,
                           points: int = 1201):
    """E s^2 and E s^4 at each site of the chain measure
    prod_i exp(-V(s_i)) prod_i exp(-J s_i s_{i+1}), by transfer matrices on
    a trapezoid grid."""
    s = np.linspace(-half_width, half_width, points)
    h = s[1] - s[0]
    w = np.full(points, h)
    w[[0, -1]] *= 0.5
    f = np.exp(-V(s)) * w
    K = np.exp(-J * np.outer(s, s))
    fwd = [f / f.sum()]
    for _ in range(n - 1):
        a = f * (fwd[-1] @ K)
        fwd.append(a / a.sum())
    bwd = [np.ones(points)]
    for _ in range(n - 1):
        b = K @ (f * bwd[-1])
        bwd.append(b / b.sum())
    bwd.reverse()
    m2, m4 = np.empty(n), np.empty(n)
    for i in range(n):
        marg = fwd[i] * bwd[i]
        marg /= marg.sum()
        m2[i] = marg @ s ** 2
        m4[i] = marg @ s ** 4
    return m2, m4


def gibbs(cfg: dict, out: Path) -> list:
    g = cfg["gibbs"]
    lat = cfg["graph"]["lattice"]
    n = int(lat["hi"]) - int(lat["lo"]) + 1
    if not (1.0 <= float(cfg["graph"]["rho"]) < 2.0 and g["potential"] == "quartic"
            and g["coupling"] == "constant"):
        return ["the gibbs check covers nearest-neighbour quartic chains only"]
    report = json.loads((out / "gibbs_report.json").read_text())
    problems = []
    kernel = report["kernel"]
    ess = float(kernel["ess"])
    if ess < MIN_KERNEL_ESS:
        problems.append(f"kernel ESS {ess:.1f} below {MIN_KERNEL_ESS}")
    var = np.asarray(kernel["variance"])
    mean = np.asarray(kernel["mean"])
    if var.shape != (n,) or mean.shape != (n,):
        return problems + [f"kernel mean and variance do not have one entry per site ({n})"]
    m2, m4 = chain_marginal_moments(n, float(g["J"]), lambda u: u ** 4 / 4.0)
    se_var = np.sqrt((m4 - m2 ** 2) / ess)
    se_mean = np.sqrt(m2 / ess)
    worst = int(np.argmax(np.abs(var - m2) / se_var))
    if abs(var[worst] - m2[worst]) > Z * se_var[worst]:
        problems.append(f"kernel variance at site {worst} is {var[worst]:.4f}, "
                        f"transfer matrix gives {m2[worst]:.4f} (se {se_var[worst]:.4f})")
    worst = int(np.argmax(np.abs(mean) / se_mean))
    if abs(mean[worst]) > Z * se_mean[worst]:
        problems.append(f"kernel mean at site {worst} is {mean[worst]:.4f}, not 0 "
                        f"within {Z} se ({se_mean[worst]:.4f})")
    rev = report["reversibility"]
    if not abs(rev["lhs"] - rev["rhs"]) <= Z * rev["se_diff"]:
        problems.append(f"reversibility |lhs - rhs| = {abs(rev['lhs'] - rev['rhs']):.4g} "
                        f"exceeds {Z} se_diff ({rev['se_diff']:.4g})")
    if not report["dlr"]["p_value"] >= DLR_P_FLOOR:
        problems.append(f"DLR p-value {report['dlr']['p_value']:.4g} below {DLR_P_FLOOR}")
    warnings = kernel["warnings"] + report["dlr"]["warnings"]
    if warnings:
        problems.append(f"sampler warnings: {warnings}")
    return problems + manifest(out)


BY_SUBCOMMAND = {"graph": graph, "simulate": simulate, "converge": converge, "gibbs": gibbs}


def check(subcommand: str, config_path: Path, out: Path) -> list:
    cfg = yaml.safe_load(Path(config_path).read_text())
    return BY_SUBCOMMAND[subcommand](cfg, out)
