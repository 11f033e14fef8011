"""Constructions of finite groupoids: groups, bundles, unions, random samples.

Every finite groupoid is a disjoint union of transitive pieces, and every
transitive piece is a pair groupoid over an orbit crossed with an isotropy
group.  transitive_groupoid() realises exactly that shape, so together with
the complete list of groups of order <= 8 the zoo below enumerates all
isomorphism classes of groupoids up to a given element count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

from .groupoid import FiniteGroupoid, validate


@dataclass(frozen=True)
class GroupTable:
    """A finite group by its multiplication table; identity listed first."""

    name: str
    elements: tuple[str, ...]
    mult: dict[tuple[str, str], str]

    @property
    def identity(self) -> str:
        return self.elements[0]

    def inverse(self, a: str) -> str:
        e = self.identity
        for b in self.elements:
            if self.mult[(a, b)] == e:
                return b
        raise ValueError(f"no inverse for {a!r}")

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("order must be positive")
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    mult = {
        (names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)
    }
    return GroupTable(name=f"Z{n}", elements=tuple(names), mult=mult)


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    names = {}
    order = []
    for x in a.elements:
        for y in b.elements:
            names[(x, y)] = f"{x}.{y}"
            order.append((x, y))
    mult = {
        (names[(x1, y1)], names[(x2, y2)]): names[(a.mult[(x1, x2)], b.mult[(y1, y2)])]
        for (x1, y1) in order
        for (x2, y2) in order
    }
    return GroupTable(
        name=f"{a.name}x{b.name}",
        elements=tuple(names[p] for p in order),
        mult=mult,
    )


def _permutation_group(name: str, perms: list[tuple[int, ...]]) -> GroupTable:
    degree = len(perms[0])
    identity = tuple(range(degree))
    ordered = [identity] + sorted(p for p in perms if p != identity)
    names = {p: ("e" if p == identity else "p" + "".join(map(str, p))) for p in ordered}
    mult = {}
    for p in ordered:
        for q in ordered:
            pq = tuple(p[q[i]] for i in range(degree))  # apply q first, then p
            mult[(names[p], names[q])] = names[pq]
    return GroupTable(name=name, elements=tuple(names[p] for p in ordered), mult=mult)


def symmetric_group_3() -> GroupTable:
    return _permutation_group("S3", [tuple(p) for p in permutations(range(3))])


def dihedral_group_4() -> GroupTable:
    r = (1, 2, 3, 0)
    f = (0, 3, 2, 1)
    elems = {tuple(range(4))}
    frontier = [tuple(range(4)), r, f]
    while frontier:
        p = frontier.pop()
        if p in elems and p != tuple(range(4)):
            continue
        elems.add(p)
        for q in (r, f):
            pq = tuple(p[q[i]] for i in range(4))
            if pq not in elems:
                frontier.append(pq)
    return _permutation_group("D4", sorted(elems))


def quaternion_group() -> GroupTable:
    # Elements +-1, +-i, +-j, +-k encoded as (sign, axis).
    axis_mult = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }
    order = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]

    def name(sign, axis):
        base = "e" if axis == "1" else axis
        return base if sign == 1 else f"m{'' if axis == '1' else axis}"

    names = {p: name(*p) for p in order}
    mult = {}
    for s1, a1 in order:
        for s2, a2 in order:
            s3, a3 = axis_mult[(a1, a2)]
            mult[(names[(s1, a1)], names[(s2, a2)])] = names[(s1 * s2 * s3, a3)]
    return GroupTable(name="Q8", elements=tuple(names[p] for p in order), mult=mult)


def groups_of_order(n: int) -> list[GroupTable]:
    """All groups of order n up to isomorphism, complete for n <= 8."""
    if n > 8:
        raise ValueError("group catalogue stops at order 8")
    z2 = cyclic_group(2)
    if n in (1, 2, 3, 5, 7):
        return [cyclic_group(n)]
    if n == 4:
        return [cyclic_group(4), direct_product(z2, z2)]
    if n == 6:
        return [cyclic_group(6), symmetric_group_3()]
    return [
        cyclic_group(8),
        direct_product(cyclic_group(4), z2),
        direct_product(direct_product(z2, z2), z2),
        dihedral_group_4(),
        quaternion_group(),
    ]


# -- groupoid constructions -------------------------------------------------


def one_object_groupoid(group: GroupTable) -> FiniteGroupoid:
    """A group viewed as a groupoid with a single unit (the identity)."""
    e = group.identity
    elems = list(group.elements)
    return validate(
        elems,
        {g: e for g in elems},
        {g: e for g in elems},
        {g: group.inverse(g) for g in elems},
        dict(group.mult),
    )


def transitive_groupoid(points: list[str], group: GroupTable) -> FiniteGroupoid:
    """Pair groupoid on the points crossed with a constant isotropy group.

    An element (y, m, x) is an arrow from x to y decorated by m in the group;
    (z, m, y) * (y, m', x) = (z, m m', x).  Units are named by their points.
    """
    if not points:
        raise ValueError("need at least one point")
    e = group.identity

    def name(y: str, m: str, x: str) -> str:
        if y == x and m == e:
            return y
        if group.order == 1:
            return f"{y}<{x}"
        if y == x:
            return f"{x}|{m}"
        return f"{y}<{x}|{m}"

    # Units first, in point order, then the rest in (y, x, m) order.
    triples = [(x, e, x) for x in points]
    triples += [
        (y, m, x)
        for y in points
        for x in points
        for m in group.elements
        if y != x or m != e
    ]
    ids = {t: name(*t) for t in triples}
    inverse_in_group = {m: group.inverse(m) for m in group.elements}
    source = {ids[(y, m, x)]: x for (y, m, x) in triples}
    range_ = {ids[(y, m, x)]: y for (y, m, x) in triples}
    inverse = {ids[(y, m, x)]: ids[(x, inverse_in_group[m], y)] for (y, m, x) in triples}
    into: dict[str, list[tuple[str, str, str]]] = {}  # range -> arrows, in order
    for t in triples:
        into.setdefault(t[0], []).append(t)
    compose = {}
    for (z, m, y) in triples:
        a = ids[(z, m, y)]
        for (_, m2, x) in into[y]:
            compose[(a, ids[(y, m2, x)])] = ids[(z, group.mult[(m, m2)], x)]
    return validate([ids[t] for t in triples], source, range_, inverse, compose)


def pair_groupoid(points: list[str]) -> FiniteGroupoid:
    """The full equivalence relation on the given points."""
    return transitive_groupoid(points, cyclic_group(1))


def trivial_groupoid(unit: str = "u") -> FiniteGroupoid:
    return pair_groupoid([unit])


def disjoint_union(*parts: FiniteGroupoid) -> FiniteGroupoid:
    elements: list[str] = []
    source: dict[str, str] = {}
    range_: dict[str, str] = {}
    inverse: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    for part in parts:
        for g in part.elements:
            if g in source:
                raise ValueError(f"element id {g!r} appears in two components")
        elements.extend(part.elements)
        source.update(part.source_of)
        range_.update(part.range_of)
        inverse.update(part.inverse_of)
        compose.update(part.compose)
    return validate(elements, source, range_, inverse, compose)


# -- enumeration and sampling ------------------------------------------------


def _component_catalogue(max_elements: int, principal_only: bool):
    catalogue = []
    k = 1
    while k * k <= max_elements:
        max_group = max_elements // (k * k)
        for order in range(1, min(max_group, 8) + 1):
            if principal_only and order > 1:
                continue
            for group in groups_of_order(order):
                catalogue.append((k, group))
        k += 1
    catalogue.sort(key=lambda c: (c[0] * c[0] * c[1].order, c[0], c[1].name))
    return catalogue


def all_groupoids_up_to(max_elements: int, principal_only: bool = False) -> list[FiniteGroupoid]:
    """Every isomorphism class of groupoids with at most max_elements elements.

    Complete because the component catalogue covers all groups of order <= 8
    and a component with k >= 2 points already needs k*k*|group| elements.
    """
    catalogue = _component_catalogue(max_elements, principal_only)
    results: list[FiniteGroupoid] = []

    def build(multiset: list[tuple[int, GroupTable]]) -> FiniteGroupoid:
        parts = []
        next_unit = 0
        for k, group in multiset:
            points = [f"u{next_unit + i}" for i in range(k)]
            next_unit += k
            parts.append(transitive_groupoid(points, group))
        return disjoint_union(*parts)

    def extend(start: int, budget: int, chosen: list[tuple[int, GroupTable]]):
        if chosen:
            results.append(build(chosen))
        for i in range(start, len(catalogue)):
            k, group = catalogue[i]
            size = k * k * group.order
            if size <= budget:
                extend(i, budget - size, chosen + [(k, group)])

    extend(0, max_elements, [])
    return results


def random_groupoid(
    rng: random.Random,
    max_elements: int,
    principal: bool = False,
    max_isotropy: int = 4,
) -> FiniteGroupoid:
    """A random disjoint union of transitive components within the size budget."""
    parts: list[FiniteGroupoid] = []
    budget = max_elements
    next_unit = 0
    while True:
        options = []
        for k in range(1, budget + 1):
            for m in range(1, (1 if principal else max_isotropy) + 1):
                if k * k * m <= budget:
                    options.append((k, m))
        if not options:
            break
        if parts and rng.random() < 0.3:
            break
        k, m = rng.choice(options)
        points = [f"u{next_unit + i}" for i in range(k)]
        next_unit += k
        parts.append(transitive_groupoid(points, cyclic_group(m)))
        budget -= k * k * m
    return disjoint_union(*parts)


def random_bisection(rng: random.Random, g: FiniteGroupoid, max_size: int = 6) -> list[str]:
    """A random subset with injective source and range, greedily grown."""
    picked: list[str] = []
    sources: set[str] = set()
    ranges: set[str] = set()
    order = list(g.elements)
    rng.shuffle(order)
    for cand in order:
        if len(picked) >= max_size:
            break
        if g.s(cand) in sources or g.r(cand) in ranges:
            continue
        picked.append(cand)
        sources.add(g.s(cand))
        ranges.add(g.r(cand))
    return sorted(picked, key=g.index.__getitem__)
