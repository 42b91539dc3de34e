"""Gibbs kernels, their consistency, and reversibility of the dynamics.

The conditional kernel on a finite site set is sampled by MALA; resampling
a sub-volume from the kernel should leave the law of local observables
unchanged (the consistency residual), and the induced gradient dynamics
should be reversible under the Gibbs measure (detailed balance).
"""

import numpy as np

from spindyn import (ChainParams, SimPlan, WeightedSeq, build_graph,
                     dlr_residual, kernel_sample, lattice_configuration,
                     make_model, reversibility_test)


def main():
    g = build_graph(lattice_configuration(0, 11), 1.5)
    chain = ChainParams(steps=4000, burn_in=800, step_size=0.5, seed=0)

    print("== kernel sampling (quartic model) ==")
    model = make_model(g, potential="quartic", J=0.2)
    s = kernel_sample(model, {4, 5, 6}, WeightedSeq(np.zeros(g.n_sites), g), chain)
    print(f"acceptance {s.acceptance_rate:.3f}, tuned step {s.step_size:.3f}, "
          f"ESS {s.ess:.0f}")
    print(f"per-site means: {np.round(s.samples.mean(axis=0), 3)}")

    print("\n== consistency residual ==")
    rep = dlr_residual(model, {4, 5, 6},
                       ChainParams(steps=150, burn_in=400, seed=1),
                       outer_samples=50)
    print(f"energy-distance statistic {rep.statistic:.4f}, "
          f"permutation p-value {rep.p_value:.3f}")

    print("\n== reversibility of the gradient dynamics (quartic model) ==")
    g8 = build_graph(lattice_configuration(0, 7), 1.5)
    quartic = make_model(g8, potential="quartic", J=0.1)
    plan = SimPlan(dt=0.005, T=0.5, replicas=4000, master_seed=2, p=3.0)
    f = lambda z: np.tanh(z[1])
    h = lambda z: np.tanh(z[6])
    lhs, rhs, se = reversibility_test(quartic, f, h, 0.5, plan,
                                      ChainParams(steps=1, burn_in=600, seed=3))
    print(f"E[f(start) g(end)] = {lhs:+.5f}")
    print(f"E[f(end) g(start)] = {rhs:+.5f}")
    print(f"|difference| = {abs(lhs - rhs):.5f} <= 3 SE = {3 * se:.5f}: "
          f"{abs(lhs - rhs) <= 3 * se}")


if __name__ == "__main__":
    main()
