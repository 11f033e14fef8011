"""Test-only references: small linear-algebra helpers and the exhaustive
minimality route that the corner decision in steinberg.socle replaced.

Nothing here is part of the library; tests compare the engine against these
slow, assumption-free versions.
"""

from __future__ import annotations

from steinberg.fields import PrimeField
from steinberg.limits import check_enum_size
from steinberg.linalg import EchelonBasis, rref
from steinberg.socle import LeftIdeal, MinimalityReport, _decide, _nonzero_combos, _spans


def span_dim(field, rows, width: int) -> int:
    return rref(field, rows, width).dim


def same_subspace(field, rows_a, rows_b, width: int) -> bool:
    return rref(field, rows_a, width).canonical() == rref(field, rows_b, width).canonical()


def intersection_is_zero(field, basis_a: EchelonBasis, basis_b: EchelonBasis) -> bool:
    """dim(U + V) = dim U + dim V exactly when U and V meet only in zero."""
    joint = rref(field, basis_a.rows, basis_a.width)
    return joint.extend(basis_b.rows) == basis_b.dim


def exhaustive_minimality(ideal: LeftIdeal, max_enum: int | None = None) -> MinimalityReport:
    """Minimal iff every one of the q^dim - 1 nonzero vectors of the ideal
    generates the whole ideal under all |G| left translates; the first vector
    (coefficients in lexicographic order over the echelon basis) that does
    not is the witness.  GF(p) only, subject to the enumeration cap."""
    algebra = ideal.algebra
    field, n, dim = algebra.field, algebra.dim, ideal.dimension
    if not isinstance(field, PrimeField):
        raise ValueError("the exhaustive reference runs over prime fields only")
    check_enum_size(field.p, dim, max_enum)

    def generates(vec: list) -> bool:
        return _spans(field, n, (algebra.left_action(g, vec) for g in range(n)), dim)

    vectors = _nonzero_combos(field, ideal.basis_vectors())
    return _decide(algebra, vectors, generates, f"exhaustive over GF({field.p})", dim)


def generated_dimension(f) -> int:
    """dim A f, from the convolution products 1_g * f rather than the
    engine's action tables."""
    algebra = f.algebra
    products = [(algebra.basis_element(g) * f).to_vector() for g in algebra.groupoid.elements]
    return span_dim(algebra.field, products, algebra.dim)
