"""How the shape of the rational parameter controls the compression.

For a rational Nevanlinna parameter

    tau(lam) = K  (multivalued part)  +  A + lam B + sum_j A_j / (alpha_j - lam)

the compression C of the coupled exit-space extension back to the base
space depends only on gross features of the coefficients:

  * B injective        ->  C = A0 (the kernel of Gamma0),
  * K = {0} and B = 0  ->  C is transversal with A0; it is the canonical
                           extension with operator parameter -N_tau where
                           N_tau is the constant coefficient A,
  * in between         ->  C is a self-adjoint extension strictly between,
                           described by a limit parameter tau_c.

This script builds one parameter of each kind on the same random base
problem and prints the classification, cross-checked against the
brute-force exit-space construction.
"""
import numpy as np

from relcomp import (
    RationalNevanlinna,
    build_exit_space,
    classify_compression,
    direct_compression,
    relations_equal,
    von_neumann_triplet,
)
from relcomp.triplet import SymmetricSeed
from relcomp.linrel import make_relation


def base_problem(rng, n=4, d=2):
    """Random symmetric seed in C^n with deficiency indices (d, d)."""
    q = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + h.conj().T) / 2
    dom = q[:, :n - d]
    span = np.vstack([dom, h @ dom])
    seed = SymmetricSeed.from_relation(make_relation(span, n, n))
    return von_neumann_triplet(seed)


def describe(name, tri, tau):
    rep = classify_compression(tri, tau)
    model = build_exit_space(tri, tau)
    C, _, _ = direct_compression(model)
    eq, resid = relations_equal(rep.compression, C)
    flags = ", ".join(k for k, v in sorted(rep.flags.items()) if v)
    print(f"{name}:")
    print(f"  exit dimension n_r = {rep.n_r}, flags set: {flags}")
    print(f"  flags on which the coefficient route differs: {rep.disputed}")
    print(f"  oracle agreement: {eq} (residual {resid:.1e})")


def main():
    rng = np.random.default_rng(2024)
    tri = base_problem(rng)
    d = tri.boundary_dim
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    herm = (h + h.conj().T) / 2

    describe("B positive definite (C = A0)", tri,
             RationalNevanlinna.build(d, a=herm, b=np.eye(d)))

    describe("B = 0, two poles (C transversal with A0)", tri,
             RationalNevanlinna.build(
                 d, a=herm,
                 poles=[(0.0, np.eye(d)), (1.5, 2.0 * np.eye(d))]))

    describe("B singular but nonzero (strictly intermediate C)", tri,
             RationalNevanlinna.build(
                 d, a=herm, b=np.diag([1.0] + [0.0] * (d - 1)),
                 poles=[(0.5, np.eye(d))]))


if __name__ == "__main__":
    main()
