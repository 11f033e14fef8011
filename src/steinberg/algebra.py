"""The convolution algebra of a finite discrete groupoid over an exact field.

A_K(G) is the K-span of indicator functions of groupoid elements with the
convolution product

    (f * g)(x) = sum over all factorisations x = a b of f(a) g(b),

the involution f*(x) = f(inverse(x)) (coefficients untouched over these
fields), and local units given by indicators of unit subsets.  For bisections
B and D (subsets on which source and range are injective) the product of
indicators is again an indicator: 1_B * 1_D = 1_{BD}.

Elements store only their nonzero coefficients; the empty map is the zero
element and canonical form is unique.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

from .groupoid import FiniteGroupoid


class SteinbergAlgebra:
    """Context object tying a validated groupoid to a ground field."""

    def __init__(self, groupoid: FiniteGroupoid, field):
        self.groupoid = groupoid
        self.field = field
        self.dim = len(groupoid.elements)

    def __repr__(self):
        return f"SteinbergAlgebra({self.groupoid!r}, {self.field!r})"

    # -- construction of elements -------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def element(self, coeffs: Mapping[str, object]) -> "AlgebraElement":
        f = self.field
        clean = {}
        for g, c in coeffs.items():
            if g not in self.groupoid.index:
                raise KeyError(f"not a groupoid element: {g!r}")
            c = f.coerce(c)
            if not f.is_zero(c):
                clean[g] = c
        return AlgebraElement(self, clean)

    def basis_element(self, g: str) -> "AlgebraElement":
        return self.element({g: self.field.one})

    def is_bisection(self, members: Iterable[str]) -> bool:
        members = list(dict.fromkeys(members))
        sources = {self.groupoid.s(g) for g in members}
        ranges = {self.groupoid.r(g) for g in members}
        return len(sources) == len(members) and len(ranges) == len(members)

    def indicator(self, members: Iterable[str]) -> "AlgebraElement":
        """1_B for a bisection B; rejects subsets that are not bisections."""
        members = list(dict.fromkeys(members))
        if not self.is_bisection(members):
            raise ValueError(f"not a bisection: {sorted(members)}")
        return self.element({g: self.field.one for g in members})

    def corner(self, f: "AlgebraElement", x: str) -> "AlgebraElement":
        """1_x * f * 1_x, the restriction of f to the isotropy at the unit x.

        The corner is isomorphic to the group algebra K[xGx], basis
        indicators multiplying by the isotropy group's table.
        """
        if not self.groupoid.is_unit(x):
            raise ValueError(f"corner is taken at a unit, got {x!r}")
        s, r = self.groupoid.s, self.groupoid.r
        return AlgebraElement(
            self, {g: c for g, c in f.coeffs.items() if s(g) == x and r(g) == x}
        )

    # -- vector view ----------------------------------------------------------

    def from_vector(self, vec) -> "AlgebraElement":
        f = self.field
        return AlgebraElement(
            self,
            {g: c for g, c in zip(self.groupoid.elements, vec) if not f.is_zero(c)},
        )

    @cached_property
    def _gather_tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Both action tables, built in one pass over the composable pairs:
        a b = c puts b at left[a][c] and a at right[b][c]."""
        n, index = self.dim, self.groupoid.index
        left = [[n] * n for _ in range(n)]
        right = [[n] * n for _ in range(n)]
        rows = self.groupoid.rows
        for i, a in enumerate(self.groupoid.elements):
            row = rows[a]
            at_i = left[i]
            for j, k in zip(map(index.__getitem__, row), map(index.__getitem__, row.values())):
                at_i[k] = j
                right[j][k] = i
        return left, right

    @cached_property
    def left_action_table(self) -> list[list[int]]:
        """left_action_table[g][k] = the j with g * element_j = element_k,
        or n (the dimension) where no such j exists."""
        return self._gather_tables[0]

    @cached_property
    def right_action_table(self) -> list[list[int]]:
        """right_action_table[g][k] = the j with element_j * g = element_k,
        or n (the dimension) where no such j exists."""
        return self._gather_tables[1]

    def _translate(self, row: list[int], vec: list) -> list:
        """Translation by a fixed g is injective where defined, so each
        coordinate k of the product is coordinate row[k] of vec, or zero
        where row[k] is n and points past vec into one appended zero."""
        padded = [*vec, self.field.zero]
        return [padded[j] for j in row]

    def left_action(self, g_index: int, vec: list) -> list:
        """The vector of 1_g * f."""
        return self._translate(self.left_action_table[g_index], vec)

    def right_action(self, g_index: int, vec: list) -> list:
        """The vector of f * 1_g."""
        return self._translate(self.right_action_table[g_index], vec)


class AlgebraElement:
    """A finitely supported K-valued function on the groupoid."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: SteinbergAlgebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs

    # coefficient lookup reads like function application
    def __call__(self, g: str):
        if g not in self.algebra.groupoid.index:
            raise KeyError(f"not a groupoid element: {g!r}")
        return self.coeffs.get(g, self.algebra.field.zero)

    def support(self) -> tuple[str, ...]:
        order = self.algebra.groupoid.index
        return tuple(sorted(self.coeffs, key=order.__getitem__))

    def is_zero(self) -> bool:
        return not self.coeffs

    def to_vector(self) -> list:
        f = self.algebra.field
        return [self.coeffs.get(g, f.zero) for g in self.algebra.groupoid.elements]

    def _check_compatible(self, other: "AlgebraElement"):
        if self.algebra.field != other.algebra.field:
            raise ValueError("elements live over different fields")
        if self.algebra.groupoid.elements != other.algebra.groupoid.elements:
            raise ValueError("elements live over different groupoids")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        f = self.algebra.field
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc = f.add(out.get(g, f.zero), c)
            if f.is_zero(acc):
                out.pop(g, None)
            else:
                out[g] = acc
        return AlgebraElement(self.algebra, out)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, scalar) -> "AlgebraElement":
        f = self.algebra.field
        scalar = f.coerce(scalar)
        if f.is_zero(scalar):
            return self.algebra.zero()
        return AlgebraElement(self.algebra, {g: f.mul(scalar, c) for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self._convolve(other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def _convolve(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        f = self.algebra.field
        rows = self.algebra.groupoid.rows
        out: dict[str, object] = {}
        for a, ca in self.coeffs.items():
            row = rows[a]
            for b, cb in other.coeffs.items():
                x = row.get(b)
                if x is None:
                    continue
                acc = f.add(out.get(x, f.zero), f.mul(ca, cb))
                if f.is_zero(acc):
                    out.pop(x, None)
                else:
                    out[x] = acc
        return AlgebraElement(self.algebra, out)

    def star(self) -> "AlgebraElement":
        """The involution: re-index by inverses, coefficients unchanged."""
        inv = self.algebra.groupoid.inv
        return AlgebraElement(self.algebra, {inv(g): c for g, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.field == other.algebra.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        f = self.algebra.field
        terms = [f"{f.format_scalar(c)}*1_{{{g}}}" for g, c in sorted(
            self.coeffs.items(), key=lambda kv: self.algebra.groupoid.index[kv[0]]
        )]
        return " + ".join(terms)


# -- bisection calculus -------------------------------------------------------


def bisection_product(g: FiniteGroupoid, bs: Iterable[str], ds: Iterable[str]) -> list[str]:
    """BD = {b d : b in B, d in D composable}; a bisection whenever B, D are."""
    out = {
        g.rows[b][d]
        for b in bs
        for d in ds
        if g.composable(b, d)
    }
    return sorted(out, key=g.index.__getitem__)


# -- textual element syntax ---------------------------------------------------
#
# An element serialises as [[coefficient, element-id], ...] in canonical
# element order, coefficients as "num/den" or "k mod p".


def element_to_obj(f: AlgebraElement) -> list[list[str]]:
    field = f.algebra.field
    order = f.algebra.groupoid.index
    return [
        [field.format_scalar(c), g]
        for g, c in sorted(f.coeffs.items(), key=lambda kv: order[kv[0]])
    ]
