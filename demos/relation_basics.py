"""Walk through the linear-relation layer: parts, adjoints, resolvents.

A linear relation is just a subspace of C^n (+) C^n; operators are the
special case of graphs.  This script builds a few small relations and
prints the quantities the rest of the library is made of.
"""
import numpy as np

from relcomp import (
    adjoint,
    classify_symmetry,
    graph_of,
    make_relation,
    parts,
    relations_equal,
    resolvent,
    vertical_relation,
)


def show(title, rel):
    p = parts(rel)
    print(f"{title}: dim {rel.dim}, dom {p.dom.shape[1]}, ran {p.ran.shape[1]}, "
          f"ker {p.ker.shape[1]}, mul {p.mul.shape[1]}, "
          f"symmetry = {classify_symmetry(rel)}")


def main():
    # The graph of a Hermitian matrix is the prototypical self-adjoint relation.
    h = np.array([[1.0, 2.0], [2.0, -1.0]])
    show("graph of a 2x2 Hermitian matrix", graph_of(h))

    # The purely multivalued relation {0} (+) C is self-adjoint too, with
    # resolvent identically zero: multivaluedness is where operators end.
    vert = vertical_relation(1)
    show("vertical relation {0} (+) C", vert)
    print("  resolvent at 2i:", resolvent(vert, 2j))

    # A nontrivial symmetric (not self-adjoint) relation: restrict the
    # identity operator on C^2 to a one-dimensional domain.
    span = np.array([[1.0], [0.0], [1.0], [0.0]])
    sym = make_relation(span, 2)
    show("restricted identity", sym)
    sym_star = adjoint(sym)
    print("  its adjoint has dim", sym_star.dim,
          "(deficiency indices (1,1): room for extensions)")

    # Mixed relation: operator part plus multivalued part.
    span = np.array([
        [1.0, 0.0],
        [0.0, 0.0],
        [-3.0, 0.0],
        [0.0, 1.0],
    ])
    mixed = make_relation(span, 2)
    show("operator (-3) on span e1 plus mul span e2", mixed)
    # parts returns frames, each fixed only up to a unit factor
    p = parts(mixed)
    print("  dom frame:", np.abs(p.dom.ravel()), " mul frame:", np.abs(p.mul.ravel()))

    # Equality compares subspaces, so frames may differ by any unitary.
    u = np.exp(0.7j)
    eq, resid = relations_equal(mixed, make_relation(mixed.frame * u, 2))
    print("gauge invariance of equality:", eq, f"(residual {resid:.1e})")


if __name__ == "__main__":
    main()
