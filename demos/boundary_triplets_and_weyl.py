"""Boundary triplets on a symmetric relation: Green identity, extensions, Weyl.

Starting from a symmetric relation A with equal deficiency indices we
build a boundary triplet (C^d, Gamma0, Gamma1) on A*, parametrize the
closed extensions A <= A_theta <= A* by relations theta in C^d, and
evaluate the gamma field and Weyl function.
"""
import numpy as np

from relcomp import (
    SymmetricSeed,
    boundary_param_of,
    check_green,
    check_weyl_identities,
    classify_symmetry,
    defect,
    extension_of,
    gamma_and_weyl,
    graph_of,
    make_relation,
    relations_equal,
    vertical_relation,
    von_neumann_triplet,
    zero_relation,
)


def main():
    # Symmetric seed: the identity operator on C^3 restricted to span{e1}.
    span = np.zeros((6, 1))
    span[0, 0] = 1.0
    span[3, 0] = 1.0
    seed = SymmetricSeed.from_relation(make_relation(span, 3))
    _, idx = defect(seed, 1j)
    print("deficiency indices:", idx)

    # Von Neumann construction gives a boundary triplet with M(i) = i I.
    tri = von_neumann_triplet(seed)
    print(f"Green identity residual: {check_green(tri):.2e}")
    d = tri.boundary_dim
    eq, _ = relations_equal(extension_of(tri, zero_relation(d)), seed.A)
    print("kernel recovers A:", eq)

    m_i = gamma_and_weyl(tri, 1j).weyl
    print("M(i) =\n", np.round(m_i, 12))

    # Extensions.  theta = {0} gives the kernel of Gamma0 ... a.k.a. A0,
    # theta = C^d (+) C^d gives A*, Hermitian graphs give self-adjoint
    # canonical extensions, and the parametrization round-trips.
    a0 = tri.a0
    print("A0 symmetry:", classify_symmetry(a0))
    eq, _ = relations_equal(boundary_param_of(tri, a0), vertical_relation(d))
    print("boundary parameter of A0 is the vertical relation:", eq)

    h = np.array([[0.5, 1.0], [1.0, -2.0]])[:d, :d]
    a_theta = extension_of(tri, graph_of(h))
    print("A_theta symmetry for Hermitian theta:", classify_symmetry(a_theta))
    eq, resid = relations_equal(
        extension_of(tri, boundary_param_of(tri, a_theta)), a_theta)
    print(f"extension <-> parameter round-trip: {eq} (residual {resid:.1e})")

    # The Weyl function satisfies M(z)* = M(z-bar) and the standard
    # difference identity tying it to the gamma field.
    r1, r2 = check_weyl_identities(tri, 0.4 + 1.3j, -1.0 + 0.7j)
    print(f"Weyl identity residuals at two points: {r1:.2e}, {r2:.2e}")
    for lam in (1j, 2j, 0.5 + 1j):
        im = np.linalg.eigvalsh((lambda m: (m - m.conj().T) / 2j)(
            gamma_and_weyl(tri, lam).weyl))
        print(f"  eigenvalues of Im M({lam}): {np.round(im, 6)} (all >= 0)")


if __name__ == "__main__":
    main()
