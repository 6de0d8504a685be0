"""End-to-end anchor example with every quantity known in closed form.

Seed: the trivial relation {{0, 0}} in C, with boundary maps
Gamma0{f, f'} = f and Gamma1{f, f'} = f', so the Weyl function is
M(lam) = lam.  Parameter: tau(lam) = -1/lam, realized by a one-pole
rational Nevanlinna family.  Then:

  * Krein's formula gives the generalized resolvent
    R(lam) = -(tau(lam) + M(lam))^-1 = -lam/(lam^2 - 1), so R(2i) = 0.4i,
  * the exit space is one-dimensional and the coupled self-adjoint
    relation A~ is the graph of the 2x2 swap matrix [[0,1],[1,0]],
  * the compression of A~ back to C is the graph of the zero operator.
"""
import numpy as np

from relcomp import (
    BoundaryTriplet,
    RationalNevanlinna,
    SymmetricSeed,
    build_exit_space,
    classify_compression,
    direct_compression,
    generalized_resolvent_direct,
    graph_of,
    krein_resolvent,
    minimality,
    relations_equal,
    zero_relation,
)


def main():
    seed = SymmetricSeed.from_relation(zero_relation(1))
    tri = BoundaryTriplet.from_ambient_maps(
        seed, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    tau = RationalNevanlinna.build(1, poles=[(0.0, [[1.0]])])  # tau = -1/lam

    r = krein_resolvent(tri, tau, 2j)
    print(f"Krein resolvent at 2i: {r[0, 0]:.12f}  (exact: 0.4i)")

    model = build_exit_space(tri, tau)
    print("exit-space dimension:", model.dim_r)
    eq, resid = relations_equal(model.a_tilde,
                                graph_of(np.array([[0.0, 1.0], [1.0, 0.0]])))
    print(f"A~ equals the graph of the swap matrix: {eq} (residual {resid:.1e})")
    print("model is minimal:", minimality(model))

    r_direct = generalized_resolvent_direct(model, 2j)
    print(f"compressed resolvent of A~ at 2i: {r_direct[0, 0]:.12f}")

    C, S, T = direct_compression(model)
    eq, resid = relations_equal(C, graph_of(np.zeros((1, 1))))
    print(f"compression C(A~) is the zero operator: {eq} (residual {resid:.1e})")
    print("chain dims  A <= S <= C <= T <= A*:",
          seed.A.dim, S.dim, C.dim, T.dim, seed.A_star.dim)

    rep = classify_compression(tri, tau)
    print("classification flags:", rep.flags)
    eq, resid = relations_equal(rep.compression, C)
    print(f"formula route agrees with exit-space oracle: {eq} "
          f"(residual {resid:.1e})")


if __name__ == "__main__":
    main()
