"""Finite-volume truncations converging under common random numbers.

Every volume freezes the spins outside it at their initial values and all
volumes share identical Wiener increments per (replica, site, step), so the
pathwise differences between truncations measure convergence directly.
The weighted Cauchy gap shrinks as the volume grows.
"""

from spindyn import (RandomInit, SimPlan, build_graph, cauchy_gap,
                     lattice_configuration, make_field, nested_gap_sums,
                     radial_volumes)


def main():
    g = build_graph(lattice_configuration(-24, 25), 1.5)
    field = make_field(g, drift="cubic", coupling="linear_pair", J=0.2)
    plan = SimPlan(dt=0.01, T=1.0, replicas=48, master_seed=7, p=4.0)
    vols = radial_volumes(g, [5.0, 10.0, 15.0, 20.0])
    # One (replicas, sites) array of initial states, shared by every volume.
    init = RandomInit(dist="normal", a=0.0, b=1.0).draw(
        plan.master_seed, range(plan.replicas), g.n_sites)

    print(f"{g.n_sites}-site chain, cubic drift, pair coupling J=0.2")
    sizes = vols.masks.sum(axis=1)
    print(f"volumes: {sizes.tolist()} sites")

    # The gaps are reduced step by step; no path is kept.
    sums, _ = nested_gap_sums(field, vols, init, plan, [0.8], n_threads=2)
    m = len(vols) - 1
    print("\nweighted Cauchy gaps against the largest volume (beta = 0.8):")
    for n in range(m):
        gap = cauchy_gap(sums[n, 0])
        print(f"  volume {n} ({sizes[n]:2d} sites): "
              f"gap = {gap:.6e}")


if __name__ == "__main__":
    main()
