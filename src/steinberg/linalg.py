"""Exact row reduction over the ground fields.

Vectors are plain lists of scalars.  EchelonBasis keeps a reduced
row-echelon basis at all times: rows sorted by pivot column, pivots equal to
one, pivot columns eliminated from every other row.  The reduced form of a
subspace is unique, so two spans are equal exactly when their canonical()
matrices are equal.

Pivot selection is deterministic (leftmost column, then smallest row index)
and all arithmetic is exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class EchelonBasis:
    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list] = []  # sorted by pivot column
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> list:
        """Eliminate every known pivot from a copy of vec and return it."""
        f = self.field
        v = list(vec)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if not f.is_zero(c):
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def insert(self, vec: Sequence) -> bool:
        """Add vec to the span; returns True if the dimension grew."""
        f = self.field
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if not f.is_zero(c)), None)
        if pivot is None:
            return False
        inv = f.invert(v[pivot])
        v = [f.mul(inv, c) for c in v]
        for i, row in enumerate(self.rows):
            c = row[pivot]
            if not f.is_zero(c):
                self.rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True

    def extend(self, vecs: Iterable[Sequence]) -> int:
        return sum(1 for v in vecs if self.insert(v))

    def contains(self, vec: Sequence) -> bool:
        f = self.field
        return all(f.is_zero(c) for c in self.reduce(vec))

    def canonical(self) -> tuple[tuple, ...]:
        return tuple(tuple(row) for row in self.rows)
