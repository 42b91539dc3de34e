"""Operator bounds on the weighted-norm scale and the growth series K_T.

A finite-range matrix Q maps the alpha-weighted l1 space into the
beta-weighted one with norm at most L (beta - alpha)^-q.  L is computed as
an upper bound by a deterministic sweep over beta - alpha, and compared with
the largest norm ratio seen on random vectors; K_T(alpha, beta) turns L into
an a-priori bound on the solution of f = z + int Q f, which we verify against
the actual series solution.
"""

import numpy as np

from spindyn import (ScaleInterval, WeightedSeq, build_graph, estimate_L,
                     gronwall_bound, induced_matrix, k_series,
                     lattice_configuration, norm_lp, series_solve)


def main():
    g = build_graph(lattice_configuration(-10, 10), 1.5)
    scale = ScaleInterval(0.1, 1.0)
    q = 0.5

    print("== operator bound ==")
    Q = induced_matrix(g, B=0.15, k=1.0)
    L = estimate_L(Q, q, scale)
    print(f"computed L = {L:.4f}")
    rng = np.random.default_rng(1)
    radii, csr = g.radii(), Q.csr()
    max_ratio = 0.0
    for _ in range(5000):
        a, b = np.sort(rng.uniform(scale.alpha_star, scale.alpha_top, 2))
        z = rng.standard_normal(g.n_sites)
        max_ratio = max(max_ratio, (b - a) ** q
                        * np.sum(np.exp(-b * radii) * np.abs(csr @ z))
                        / np.sum(np.exp(-a * radii) * np.abs(z)))
    print(f"max ratio on 5000 random (alpha, beta, z) = {max_ratio:.4f} "
          f"-> below L: {max_ratio <= L}")

    print("\n== growth series ==")
    for width in (0.2, 0.5, 0.8):
        print(f"K_T(width={width:.1f}) = {k_series(L, 1.0, q, 0.0, width):.6f}")
    print(f"q = 0 sanity: K_T = {k_series(1.0, 1.0, 0.0, 0.0, 0.5):.12f} "
          f"(= e = {np.e:.12f})")

    print("\n== a-priori bound vs actual solution ==")
    alpha, beta, T = 0.3, 0.9, 1.0
    z = WeightedSeq.from_dense(np.abs(np.sin(np.arange(g.n_sites))), g)
    bound = gronwall_bound(0.15, 1.0, g, z, alpha, beta, T, q, scale)
    sup_norm = max(norm_lp(series_solve(Q, z, t), beta, 1.0, scale)
                   for t in np.linspace(0, T, 21))
    print(f"sup_t ||f(t)||_beta = {sup_norm:.6f}")
    print(f"K_T * ||z||_alpha   = {bound:.6f}")
    print(f"bound holds: {sup_norm <= bound}")


if __name__ == "__main__":
    main()
