"""Config-driven experiment runner.

Subcommands: graph, simulate, converge, gibbs, ovs.  Each takes a YAML
config file plus `--out` / `--threads`; all science parameters live in the
config so a run is reproducible byte-for-byte from its manifest.

Exit codes: 0 success, 2 config error, 3 numeric error.
"""

import argparse
import hashlib
import json
import math
import sys
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from . import geometry, gibbs, ovsbound
from .coeffs import make_field
from .engine import (RandomInit, SimPlan, cauchy_gap, moment_p, nested_gap_sums,
                     radial_volumes, run_nested)
from .errors import ConfigError, NumericError, ParameterError
from .gibbs import ChainParams, make_model
from .spaces import ScaleInterval, WeightedSeq, weighted_seq_from_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Every dotted config key the subcommands read.  A config may set only these,
# so a misspelt or retired key fails instead of being silently ignored.
_CONFIG_KEYS = frozenset("""
    graph.source graph.rho graph.lattice.lo graph.lattice.hi graph.lattice.dim
    graph.poisson.intensity graph.poisson.window graph.poisson.seed graph.csv.path
    plan.dt plan.T plan.scheme plan.replicas plan.master_seed plan.p field.drift
    field.coupling field.noise field.J field.M_tilde init.type init.value init.dist
    init.a init.b init.path volumes.radii scale.alpha_star scale.alpha_top
    converge.betas converge.q converge.alpha ovs.B ovs.k ovs.q ovs.T ovs.widths
    gibbs.potential gibbs.J gibbs.coupling gibbs.chain.steps gibbs.chain.burn_in
    gibbs.chain.step_size gibbs.chain.seed gibbs.eta gibbs.observable_sites
    gibbs.outer_samples gibbs.t
""".split())


@contextmanager
def _named(key: str):
    """Re-raise a ``ParameterError`` as a ``ConfigError`` naming ``key``."""
    try:
        yield
    except ParameterError as e:
        raise ConfigError(f"{key}: {e}")


def _leaf_keys(node: dict, prefix: str = ""):
    """The dotted path of every non-mapping value in a nested mapping."""
    for name, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}"


def _get(cfg: dict, key: str, expect=None, default=KeyError, ndim=None):
    """Fetch cfg[key] with a dotted path, naming the offending key on error;
    with ``ndim``, a rectangular list nested that deep, as a float array."""
    if key not in _CONFIG_KEYS:
        raise KeyError(f"config key '{key}' is read but not in _CONFIG_KEYS")
    node = cfg
    for part in key.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not KeyError:
                return default
            raise ConfigError(f"missing config key '{key}'")
        node = node[part]
    # YAML's yes/no are bools, which isinstance counts as ints.
    if expect is not None and (isinstance(node, bool) or not isinstance(node, expect)):
        kinds = expect if isinstance(expect, tuple) else (expect,)
        raise ConfigError(f"config key '{key}' has wrong type (expected "
                          f"{' or '.join(kind.__name__ for kind in kinds)})")
    if isinstance(node, (float, list)) and not _finite_numbers(node):
        raise ConfigError(f"config key '{key}' must hold finite numbers, got {node}")
    if ndim is not None:
        try:
            node = np.array(node, dtype=float)
        except ValueError:  # ragged
            node = None
        if node is None or node.ndim != ndim:
            raise ConfigError(f"config key '{key}' must be a rectangular "
                              f"{ndim}-d list of numbers")
    return node


def _finite_numbers(node) -> bool:
    """True for a finite number, or a (nested) list of finite numbers."""
    if isinstance(node, list):
        return all(map(_finite_numbers, node))
    return (isinstance(node, (int, float)) and not isinstance(node, bool)
            and math.isfinite(node))


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    unknown = [key for key in _leaf_keys(cfg) if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(f"'{k}'" for k in unknown))
    return cfg


def _build_graph(cfg: dict) -> geometry.GeometricGraph:
    source = _get(cfg, "graph.source", str)
    rho = float(_get(cfg, "graph.rho", (int, float)))
    if source == "lattice":
        lo = int(_get(cfg, "graph.lattice.lo", int))
        hi = int(_get(cfg, "graph.lattice.hi", int))
        dim = int(_get(cfg, "graph.lattice.dim", int, default=1))
        if dim < 1:
            raise ConfigError(f"graph.lattice.dim: need dim >= 1, got {dim}")
        if lo > hi:
            raise ConfigError(f"graph.lattice: need lo <= hi, got lo={lo}, hi={hi}")
        config = geometry.lattice_configuration(lo, hi, dim=dim)
    elif source == "poisson":
        intensity = float(_get(cfg, "graph.poisson.intensity", (int, float)))
        window = _get(cfg, "graph.poisson.window", list, ndim=2)
        seed = int(_get(cfg, "graph.poisson.seed", int))
        with _named("graph.poisson"):
            config = geometry.sample_poisson(intensity, window, seed)
    elif source == "csv":
        config = geometry.configuration_from_csv(_get(cfg, "graph.csv.path", str))
    else:
        raise ConfigError(f"config key 'graph.source' must be lattice|poisson|csv, got '{source}'")
    with _named("graph.rho"):
        return geometry.build_graph(config, rho)


def _build_plan(cfg: dict) -> SimPlan:
    with _named("plan"):
        return SimPlan(dt=float(_get(cfg, "plan.dt", (int, float))),
                       T=float(_get(cfg, "plan.T", (int, float))),
                       scheme=_get(cfg, "plan.scheme", str, default="tamed_em"),
                       replicas=int(_get(cfg, "plan.replicas", int, default=1)),
                       master_seed=int(_get(cfg, "plan.master_seed", int, default=0)),
                       p=float(_get(cfg, "plan.p", (int, float), default=2.0)))


def _build_scale(cfg: dict) -> ScaleInterval:
    with _named("scale"):
        return ScaleInterval(
            float(_get(cfg, "scale.alpha_star", (int, float), default=0.0)),
            float(_get(cfg, "scale.alpha_top", (int, float), default=1.0)))


def _build_field(cfg: dict, graph):
    with _named("field"):
        return make_field(graph,
                          drift=_get(cfg, "field.drift", str, default="cubic"),
                          coupling=_get(cfg, "field.coupling", str, default="zero"),
                          noise=_get(cfg, "field.noise", str, default="additive"),
                          J=float(_get(cfg, "field.J", (int, float), default=0.0)),
                          M_tilde=float(_get(cfg, "field.M_tilde", (int, float),
                                             default=1.0)))


def _build_init(cfg: dict, graph, plan: SimPlan) -> np.ndarray:
    """The run's initial states, one (replicas, sites) array that every
    volume starts from: a constant, the ``RandomInit`` law's draws keyed by
    (replica, site), or the CSV's site values (absent sites 0) in every row."""
    kind = _get(cfg, "init.type", str, default="constant")
    shape = (plan.replicas, graph.n_sites)
    if kind == "constant":
        return np.full(shape, float(_get(cfg, "init.value", (int, float), default=0.0)))
    if kind == "random":
        dist = _get(cfg, "init.dist", str, default="normal")
        with _named("init.dist"):
            RandomInit(dist)  # the law alone, so that its b is named apart
        with _named("init.b"):
            law = RandomInit(dist, float(_get(cfg, "init.a", (int, float), default=0.0)),
                             float(_get(cfg, "init.b", (int, float), default=1.0)))
        return law.draw(plan.master_seed, np.arange(plan.replicas), graph.n_sites)
    if kind == "csv":
        values = weighted_seq_from_csv(_get(cfg, "init.path", str), graph).values
        return np.tile(values, (plan.replicas, 1))
    raise ConfigError(f"config key 'init.type' must be constant|random|csv, got '{kind}'")


def _build_volumes(cfg: dict, graph):
    with _named("volumes.radii"):
        return radial_volumes(graph, _get(cfg, "volumes.radii", list, default=[],
                                          ndim=1))


def _array_hash(a: np.ndarray) -> str:
    """The sha256 of an array's C-order bytes."""
    return hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def _sha256(path: Path) -> str:
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _write_npz(path: Path, **arrays) -> None:
    """Write what ``np.savez`` writes, streaming each contiguous array's buffer."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, a in arrays.items():
            header = np.lib.format.header_data_from_array_1_0(a)
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(a.ravel("F" if header["fortran_order"] else "C").view(np.uint8))


def _graph_hash(graph) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(graph.config.positions).tobytes())
    h.update(np.float64(graph.rho).tobytes())
    return h.hexdigest()


def _write_manifest(out: Path, cfg: dict, graph, extra=None) -> None:
    outputs = {p.name: _sha256(p) for p in sorted(out.iterdir())
               if p.name != "manifest.json"}
    manifest = {"config": cfg,
                "graph_hash": _graph_hash(graph),
                "outputs": outputs}
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_graph(cfg: dict, out: Path, threads: int) -> int:
    graph = _build_graph(cfg)
    geometry.configuration_to_csv(graph.config, out / "configuration.csv")
    geometry.graph_to_csv(graph, out / "degrees.csv", out / "edges.csv")
    report = {"n_sites": graph.n_sites,
              "rho": graph.rho,
              "degree_constant": geometry.fit_degree_constant(graph),
              "max_nbar": int(np.max(graph.nbar_count))}
    (out / "degree_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, cfg, graph)
    print(f"graph: {graph.n_sites} sites, degree constant "
          f"{report['degree_constant']:.6g}")
    return EXIT_OK


def cmd_simulate(cfg: dict, out: Path, threads: int) -> int:
    graph = _build_graph(cfg)
    plan = _build_plan(cfg)
    field_ = _build_field(cfg, graph)
    volumes = _build_volumes(cfg, graph)
    init = _build_init(cfg, graph, plan)
    with _named("plan.p"):
        paths = run_nested(field_, volumes, init, plan, n_threads=threads)
    n_times = min(11, plan.n_steps + 1)
    cols = np.linspace(0, plan.n_steps, n_times).astype(int)
    times = plan.dt * cols
    mean, se = moment_p(paths[:, -1][:, :, cols], plan.p)
    table = np.column_stack([np.repeat(np.arange(graph.n_sites), n_times),
                             np.tile(times, graph.n_sites), np.full(mean.size, plan.p),
                             mean.ravel(), se.ravel()])
    geometry.write_csv(out / "moments.csv", "site_id,t,p,mean,stderr", table,
                       ["%d"] + ["%.17g"] * 4)
    # Stored, not deflated: float mantissas hardly compress, and deflate
    # would cost more than the integration.
    _write_npz(out / "trajectories.npz", trajectories=paths, times=plan.times())
    ensemble_hash = _array_hash(paths)
    _write_manifest(out, cfg, graph, extra={"ensemble_hash": ensemble_hash})
    print(f"simulate: {plan.replicas} replicas x {len(volumes)} volumes, "
          f"ensemble hash {ensemble_hash[:16]}")
    return EXIT_OK


def cmd_converge(cfg: dict, out: Path, threads: int) -> int:
    graph = _build_graph(cfg)
    plan = _build_plan(cfg)
    field_ = _build_field(cfg, graph)
    volumes = _build_volumes(cfg, graph)
    init = _build_init(cfg, graph, plan)
    scale = _build_scale(cfg)
    betas = [float(b) for b in _get(cfg, "converge.betas", list,
                                    default=[scale.alpha_top], ndim=1)]
    if not betas:
        raise ConfigError("converge.betas: need at least one beta")
    q = float(_get(cfg, "converge.q", (int, float), default=0.5))
    alpha = float(_get(cfg, "converge.alpha", (int, float),
                       default=scale.alpha_star))
    if not scale.contains(alpha):
        raise ConfigError(f"converge.alpha: alpha={alpha} outside the scale "
                          f"[{scale.alpha_star}, {scale.alpha_top}] that L covers")
    for beta in betas:
        if not scale.contains(beta):
            raise ConfigError(f"converge.betas: beta={beta} outside the scale")
        if beta <= alpha:
            raise ConfigError(f"converge.betas: beta={beta} must exceed "
                              f"converge.alpha={alpha}")
    if len(volumes) < 2:
        raise ConfigError("volumes.radii: converge needs a volume smaller than "
                          "the window, to compare with it")
    # Certified before the run, from the states it starts with, so that an
    # overflow costs no simulation.  Tail n: 1 + E|xi_0|^p outside volume n.
    moment = np.mean(np.abs(init) ** plan.p, axis=0) + 1.0
    m = len(volumes) - 1
    tails = [WeightedSeq(np.where(volumes.masks[n], 0.0, moment), graph)
             for n in range(m)]
    with _named("converge.q"):
        bounds = ovsbound.gronwall_bound(field_.a_bar, 1.0, graph, tails, alpha,
                                         betas, plan.T, q, scale)
    with _named("plan.p"):
        sums, final = nested_gap_sums(field_, volumes, init, plan, betas,
                                      n_threads=threads)
    rows = [[n, m, beta, plan.p, cauchy_gap(sums[n, b]), bounds[b, n]]
            for b, beta in enumerate(betas) for n in range(m)]
    geometry.write_csv(out / "gaps.csv", "n,m,beta,p,gap,bound", np.asarray(rows),
                       ["%d", "%d"] + ["%.17g"] * 4)
    _write_manifest(out, cfg, graph,
                    extra={"final_states_hash": _array_hash(final)})
    print(f"converge: {len(rows)} gap rows over {m} volume pairs")
    return EXIT_OK


def cmd_ovs(cfg: dict, out: Path, threads: int) -> int:
    graph = _build_graph(cfg)
    scale = _build_scale(cfg)
    B = float(_get(cfg, "ovs.B", (int, float), default=0.2))
    k = float(_get(cfg, "ovs.k", (int, float), default=1.0))
    q = float(_get(cfg, "ovs.q", (int, float), default=0.5))
    T = float(_get(cfg, "ovs.T", (int, float), default=1.0))
    if not T > 0:
        raise ConfigError(f"ovs.T: need T > 0, got {T}")
    Q = ovsbound.induced_matrix(graph, B, k)
    with _named("ovs.q"):
        L = ovsbound.estimate_L(Q, graph, q, scale)
    widths = [float(w) for w in _get(cfg, "ovs.widths", list,
                                     default=[scale.width / 2, scale.width], ndim=1)]
    if not widths:
        raise ConfigError("ovs.widths: need at least one width")
    for w in widths:
        if not 0 < w <= scale.width:
            raise ConfigError(f"ovs.widths: width={w} outside (0, {scale.width}], "
                              f"the scale width that L covers")
    rows = [[L, T, q, w, ovsbound.k_series(L, T, q, 0.0, w)] for w in widths]
    geometry.write_csv(out / "kt_table.csv", "L,T,q,width,K_T",
                       np.asarray(rows), ["%.17g"] * 5)
    _write_manifest(out, cfg, graph)
    print(f"ovs: L={L:.6g}, K_T at {len(widths)} widths")
    return EXIT_OK


def _site_list(cfg: dict, key: str, n_sites: int, default, distinct=False):
    """A non-empty list of site ids in [0, n_sites), with no repeats if
    ``distinct``, or ``default`` if absent."""
    sites = _get(cfg, key, list, default=default)
    if sites is not None and not (sites and all(
            type(s) is int and 0 <= s < n_sites for s in sites)):
        raise ConfigError(f"config key '{key}' must be a non-empty list of "
                          f"site ids in [0, {n_sites}), got {sites}")
    if distinct and sites is not None and len(set(sites)) < len(sites):
        raise ConfigError(f"config key '{key}' lists a site twice: {sites}")
    return sites


def cmd_gibbs(cfg: dict, out: Path, threads: int) -> int:
    graph = _build_graph(cfg)
    with _named("gibbs"):
        model = make_model(graph,
                           potential=_get(cfg, "gibbs.potential", str, default="quartic"),
                           J=float(_get(cfg, "gibbs.J", (int, float), default=0.0)),
                           coupling_type=_get(cfg, "gibbs.coupling", str,
                                              default="constant"))
    with _named("gibbs.chain"):
        chain = ChainParams(steps=int(_get(cfg, "gibbs.chain.steps", int, default=2000)),
                            burn_in=int(_get(cfg, "gibbs.chain.burn_in", int, default=500)),
                            step_size=float(_get(cfg, "gibbs.chain.step_size",
                                                 (int, float), default=0.5)),
                            seed=int(_get(cfg, "gibbs.chain.seed", int, default=0)))
    eta = _site_list(cfg, "gibbs.eta", graph.n_sites, default=None, distinct=True)
    sites = _site_list(cfg, "gibbs.observable_sites", graph.n_sites,
                       default=[0, graph.n_sites - 1])
    outer = int(_get(cfg, "gibbs.outer_samples", int, default=50))
    if outer < 1:
        raise ConfigError(f"gibbs.outer_samples: need at least 1, got {outer}")
    t = float(_get(cfg, "gibbs.t", (int, float), default=0.0))
    if t != 0:
        plan = _build_plan(cfg)
        with _named("gibbs.t"):
            plan.time_index(t)
    if t > 0 and (len(sites) != 2 or sites[0] == sites[1]):
        raise ConfigError("config key 'gibbs.observable_sites' must list two "
                          f"distinct site ids when gibbs.t > 0, got {sites}")
    report = {}
    zero = WeightedSeq(np.zeros(graph.n_sites), graph)
    sample = gibbs.kernel_sample(model, range(graph.n_sites), zero, chain)
    report["kernel"] = {
        "acceptance_rate": sample.acceptance_rate,
        "ess": sample.ess,
        "step_size": sample.step_size,
        "mean": sample.samples.mean(axis=0).tolist(),
        "variance": sample.samples.var(
            axis=0, ddof=1 if sample.samples.shape[0] > 1 else 0).tolist(),
        "warnings": list(sample.warnings)}

    if eta is not None:
        dlr = gibbs.dlr_residual(model, eta, chain, outer)
        report["dlr"] = {"statistic": dlr.statistic, "p_value": dlr.p_value,
                         "acceptance_rate": dlr.acceptance_rate,
                         "warnings": list(dlr.warnings)}

    if t > 0:
        x1, x2 = sites
        f = lambda z: np.tanh(z[x1])
        g_ = lambda z: np.tanh(z[x2])
        lhs, rhs, se = gibbs.reversibility_test(model, f, g_, t, plan, chain)
        report["reversibility"] = {"t": t, "lhs": lhs, "rhs": rhs,
                                   "se_diff": se,
                                   "within_3se": bool(abs(lhs - rhs) <= 3 * se)}

    (out / "gibbs_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(out, cfg, graph)
    print("gibbs: report written")
    return EXIT_OK


_COMMANDS = {"graph": cmd_graph, "simulate": cmd_simulate,
             "converge": cmd_converge, "gibbs": cmd_gibbs, "ovs": cmd_ovs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spindyn",
        description="Spin-system simulation on quenched geometric graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.command != "graph":
        # Every other subcommand builds sparse operators and draws normals.
        # scipy loads here, with the rest of start-up, rather than inside
        # the first call that needs it; `graph` never loads it.
        import scipy.sparse  # noqa: F401
        import scipy.special  # noqa: F401
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads: need at least 1, got {args.threads}")
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ParameterError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
