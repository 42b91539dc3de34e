"""Small constructors shared by the test modules."""

import numpy as np

from spindyn import VolumeSequence, WeightedSeq
from spindyn.engine import integrate_replicas
from spindyn.rng import noise_matrix


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


def tagged_path(field, x, env, init_x, plan, replica) -> np.ndarray:
    """The path of site x alone, from ``init_x``, with every other site y at
    ``env[y, j]`` in step j: the scalar reference for the engine's steps,
    (steps+1,).  ``env`` is (sites, steps+1); its row x is not read.

    Each step walks the graph's CSR row x: the pair sums add a_xy z_y and
    s_xy z_y in CSR order from 0.0, skipping zero weights, which the
    engine's operators drop.  The increment is the (replica, x) stream of
    ``noise_matrix``.  Tamed Euler adds dt b / (1 + dt |b|), b = phi(z_x) +
    sum a_xy z_y; the split step solves theta = z_x + dt phi(theta) by scalar
    Newton iteration, then adds dt sum a_xy z_y."""
    graph, dt = field.graph, plan.dt
    phi, dphi = field.drift.phi, field.drift.dphi
    row = slice(graph.indptr[x], graph.indptr[x + 1])
    entries = list(zip(graph.indices[row].tolist(), field.drift_weights[row].tolist(),
                       field.diff_weights[row].tolist()))
    dW = (noise_matrix(plan.master_seed, replica, [x], plan.n_steps)[0]
          * np.sqrt(dt)).tolist()
    eta = [float(init_x)]
    for j in range(plan.n_steps):
        z = env[:, j].tolist()
        z[x] = own = eta[-1]
        pair = diff = 0.0
        for y, a, s in entries:
            if a:
                pair += a * z[y]
            if s:
                diff += s * z[y]
        diff += field.diff_const
        if plan.scheme == "tamed_em":
            b = phi(own) + pair
            eta.append(own + b * dt / (1.0 + dt * abs(b)) + diff * dW[j])
            continue
        theta = own
        for _ in range(50):
            resid = theta - dt * phi(theta) - own
            if abs(resid) < 1e-12:
                break
            theta = theta - resid / (1.0 - dt * dphi(theta))
        else:
            raise AssertionError(f"Newton solve at site {x}, step {j} did not converge")
        eta.append(theta + dt * pair + diff * dW[j])
    return np.array(eta)


def gap_sums_reference(paths, graph, betas, p):
    """The Cauchy-gap sums[n, b, r, j] = sum_x e^{-beta_b |x|} |xi^n -
    xi^m|^p of ``nested_gap_sums``, m the last volume, from the whole
    (replicas, volumes, sites, steps+1) path array that ``run_nested``
    returns: the slow reference, which contracts every (replica, step) row
    alone, for the sums the engine reduces a replica chunk at a time."""
    n_rep, n_vol, _, n_time = paths.shape
    weights = np.array([np.exp(-beta * graph.radii()) for beta in betas])
    sums = np.empty((n_vol - 1, len(betas), n_rep, n_time))
    for n in range(n_vol - 1):
        for r in range(n_rep):
            for j in range(n_time):
                row = np.abs(paths[r, n, :, j] - paths[r, -1, :, j]) ** p
                sums[n, :, r, j] = np.einsum("rs,bs->br", row[None], weights)[:, 0]
    return sums


def path_gap(paths, graph, n, m, beta, p):
    """The Cauchy gap sup_t E sum_x e^{-beta|x|} |xi^n - xi^m|^p, m the last
    volume, computed from the whole path array by ``gap_sums_reference``:
    the reference for the gaps that ``nested_gap_sums`` reduces step by
    step."""
    assert m == paths.shape[1] - 1
    sums = gap_sums_reference(paths, graph, [beta], p)[n, 0]
    return float(np.max(np.mean(sums, axis=0)))


def philox4x32(counter, key, rounds=10):
    """Philox4x32-``rounds`` of four 32-bit counter words and two 32-bit key
    words in exact Python integers (Salmon et al., SC'11): the reference for
    ``spindyn.rng._philox``."""
    c, (k0, k1) = [int(w) for w in counter], (int(w) for w in key)
    for i in range(rounds):
        if i:
            k0, k1 = (k0 + 0x9E3779B9) % 2 ** 32, (k1 + 0xBB67AE85) % 2 ** 32
        p0, p1 = 0xD2511F53 * c[0], 0xCD9E8D57 * c[2]
        c = [(p1 >> 32) ^ c[1] ^ k0, p1 % 2 ** 32, (p0 >> 32) ^ c[3] ^ k1, p0 % 2 ** 32]
    return c


def closed_neighborhood(graph, x) -> list:
    """gamma-bar of site x, the site itself and then its neighbours, as the
    graph's CSR row x lists them."""
    return graph.indices[graph.indptr[x]:graph.indptr[x + 1]].tolist()


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
