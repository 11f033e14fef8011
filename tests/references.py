"""Test-only references: small linear-algebra helpers (among them rref, the
one-call reduced echelon basis of a list of rows), the exhaustive
minimality routes that the corner decision and the corner lemma in
steinberg.socle replaced, the whole-algebra minimal ideal walk and the
full-order absolute zero divisor search that the oracle's per-block
scalar-line walks replaced, and the per-vertex reachability
that steinberg.graphs' flood and peel replaced, the groupoid
validation that checked associativity on every composable triple before
steinberg.groupoid checked it by Light's test, the isotropy and
transporter scans and the union-find orbits that FiniteGroupoid's
(range, source) index replaced, the dense elimination over all |G|
columns that the per-unit ideal spans replaced, and the transitive
groupoid built by a sort and a scan of every pair of arrows.

Nothing here is part of the library; tests compare the engine against these
slow, assumption-free versions.
"""

from __future__ import annotations

from itertools import product

from steinberg.builders import GroupTable
from steinberg.fields import PrimeField
from steinberg.graphs import INFINITE, DirectedGraph, GraphSocleReport, SocleBlock, VertexStatus
from steinberg.groupoid import (
    FiniteGroupoid,
    GroupoidValidationError,
    IsotropyGroup,
    OrbitClass,
    validate,
)
from steinberg.limits import ENUM_CAP, MAX_GROUPOID_ELEMENTS, SizeCapExceeded
from steinberg.linalg import EchelonBasis
from steinberg.socle import LeftIdeal, MinimalityReport


def rref(field, rows, width: int) -> EchelonBasis:
    basis = EchelonBasis(field, width)
    basis.extend(rows)
    return basis


def span_dim(field, rows, width: int) -> int:
    return rref(field, rows, width).dim


def same_subspace(field, rows_a, rows_b, width: int) -> bool:
    return rref(field, rows_a, width).canonical() == rref(field, rows_b, width).canonical()


def intersection_is_zero(field, basis_a: EchelonBasis, basis_b: EchelonBasis) -> bool:
    """dim(U + V) = dim U + dim V exactly when U and V meet only in zero."""
    joint = rref(field, basis_a.rows, basis_a.width)
    return joint.extend(basis_b.rows) == basis_b.dim


def _check_cap(q: int, dimension: int, cap: int) -> None:
    if q**dimension > cap:
        raise SizeCapExceeded(f"reference enumeration of {q}^{dimension} vectors exceeds {cap}")


def _nonzero_combinations(field: PrimeField, rows: list[list]):
    """Every combination of the rows with not all coefficients zero, the
    coefficient tuples in lexicographic order, first row most significant."""
    for coeffs in product(range(field.p), repeat=len(rows)):
        if any(coeffs):
            yield [sum(c * x for c, x in zip(coeffs, col)) % field.p for col in zip(*rows)]


def _first_non_generator(algebra, vectors, images, dim: int, method: str) -> MinimalityReport:
    """Minimal iff the images of every vector span dim dimensions; the first
    vector whose images do not is the witness."""
    for vec in vectors:
        if span_dim(algebra.field, images(vec), algebra.dim) != dim:
            return MinimalityReport(False, method, dim, algebra.from_vector(vec))
    return MinimalityReport(True, method, dim)


def exhaustive_minimality(ideal: LeftIdeal, cap: int = ENUM_CAP) -> MinimalityReport:
    """Minimal iff every one of the q^dim - 1 nonzero vectors of the ideal
    generates the whole ideal under all |G| left translates; the first vector
    (coefficients in lexicographic order over the echelon basis) that does
    not is the witness.  GF(p) only, refused past q^dim = cap."""
    algebra = ideal.algebra
    field, n, dim = algebra.field, algebra.dim, ideal.dimension
    if not isinstance(field, PrimeField):
        raise ValueError("the exhaustive reference runs over prime fields only")
    _check_cap(field.p, dim, cap)
    return _first_non_generator(
        algebra,
        _nonzero_combinations(field, ideal.basis_vectors()),
        lambda vec: [algebra.left_action(g, vec) for g in range(n)],
        dim,
        f"exhaustive over GF({field.p})",
    )


def exhaustive_corner_transfer(e, a, cap: int = ENUM_CAP) -> MinimalityReport:
    """Whether e A a is a minimal left ideal of the corner e A e, by brute
    force: every nonzero vector of e A a must generate it under the corner
    elements e 1_g e.  GF(p) only, refused past q^dim = cap; it checks
    none of the preconditions that settle the answer in the library."""
    algebra = e.algebra
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise ValueError("the exhaustive reference runs over prime fields only")
    basis = [algebra.basis_element(g) for g in algebra.groupoid.elements]
    corner_ops = [e * b * e for b in basis]
    span = rref(field, [(e * b * a).to_vector() for b in basis], algebra.dim)
    _check_cap(field.p, span.dim, cap)
    return _first_non_generator(
        algebra,
        _nonzero_combinations(field, span.rows),
        lambda vec: [(op * algebra.from_vector(vec)).to_vector() for op in corner_ops],
        span.dim,
        f"corner exhaustive over GF({field.p})",
    )


def unsplit_minimal_ideals(algebra, side: str) -> list[tuple[list[list], list]]:
    """Every minimal left ideal A a (side "left") or right ideal a A (side
    "right"), by the walk over all p^n - 1 nonzero vectors of the whole
    algebra in lexicographic order (first coordinate most significant),
    with no split into blocks and no scalar-line shortcut.

    Returns (reduced echelon rows, first generator) pairs sorted by
    dimension and then by the rows, which for p < 257 is the order of the
    oracle's canonical bytes.  GF(p) only, refused past p^n = ENUM_CAP.
    """
    field, n = algebra.field, algebra.dim
    _check_cap(field.p, n, ENUM_CAP)
    action = algebra.left_action if side == "left" else algebra.right_action
    spans: dict[tuple, tuple[EchelonBasis, list]] = {}
    for coeffs in product(range(field.p), repeat=n):
        if any(coeffs):
            a = list(coeffs)
            span = rref(field, [action(g, a) for g in range(n)], n)
            spans.setdefault(span.canonical(), (span, a))
    minimal = [
        (key, a)
        for key, (span, a) in spans.items()
        if not any(len(other) < len(key) and all(map(span.contains, other)) for other in spans)
    ]
    minimal.sort(key=lambda t: (len(t[0]), t[0]))
    return [([list(row) for row in key], a) for key, a in minimal]


def first_absolute_zero_divisor(algebra):
    """The first nonzero a with a * 1_g * a = 0 for every g, walking all
    p^n - 1 coefficient vectors in lexicographic order (first coordinate
    most significant) and multiplying by convolution, or None."""
    p = algebra.field.p
    units = [algebra.basis_element(g) for g in algebra.groupoid.elements]
    for coeffs in product(range(p), repeat=algebra.dim):
        if any(coeffs):
            a = algebra.from_vector(list(coeffs))
            if all((a * u * a).is_zero() for u in units):
                return a
    return None


def generated_dimension(f) -> int:
    """dim A f, from the convolution products 1_g * f rather than the
    engine's action tables."""
    algebra = f.algebra
    products = [(algebra.basis_element(g) * f).to_vector() for g in algebra.groupoid.elements]
    return span_dim(algebra.field, products, algebra.dim)


def _translates(field, n: int, action, rows) -> EchelonBasis:
    """The span of action(g, row) over every basis index g and every row."""
    basis = EchelonBasis(field, n)
    for row in rows:
        for g in range(n):
            basis.insert(action(g, row))
    return basis


def dense_ideal_rows(algebra, generators, two_sided: bool) -> tuple[tuple, ...]:
    """The canonical rows of A f, or of A f A, with every translate inserted
    into one basis over all |G| columns: the left translates 1_g * f, taken
    of the right translates f * 1_h for a two-sided ideal."""
    field, n = algebra.field, algebra.dim
    rows = [f.to_vector() for f in generators]
    if two_sided:
        rows = _translates(field, n, algebra.right_action, rows).rows
    return _translates(field, n, algebra.left_action, rows).canonical()


def reachable_from(g: DirectedGraph, v: str) -> set[str]:
    """Every vertex a path from v ends at, v included."""
    seen = {v}
    frontier = [v]
    while frontier:
        for t in g.successors(frontier.pop()):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def vertices_on_cycles(g: DirectedGraph) -> set[str]:
    return {v for v in g.vertices if any(v in reachable_from(g, t) for t in g.successors(v))}


def count_paths_into(g: DirectedGraph, sink: str):
    """Finite paths ending at the sink, trivial path included, summed one
    in-edge at a time; INFINITE when a cycle reaches the sink."""
    if any(sink in reachable_from(g, c) for c in vertices_on_cycles(g)):
        return INFINITE

    def count(w: str) -> int:
        return 1 + sum(count(src) for _, src, rng in g.edges if rng == w)

    return count(sink)


def line_point_statuses(g: DirectedGraph) -> GraphSocleReport:
    """Each vertex's status from its own reachable set: the least branching
    vertex it reaches, else the least cycle vertex, else its walk to a sink."""
    cycles = vertices_on_cycles(g)
    statuses, points, sizes = {}, [], {}
    for v in g.vertices:
        reachable = reachable_from(g, v)
        branching = sorted(w for w in reachable if len(g.successors(w)) > 1)
        cyclic = sorted(reachable & cycles)
        if branching:
            reason = f"more than one edge leaves {branching[0]!r}"
        elif cyclic:
            reason = f"the boundary path is eventually periodic (cycle through {cyclic[0]!r})"
        else:
            edge_ids, w = [], v
            while g.successors(w):
                eid, _, w = next(e for e in g.edges if e[1] == w)
                edge_ids.append(eid)
            sizes.setdefault(w, count_paths_into(g, w))
            points.append(v)
            statuses[v] = VertexStatus(v, True, ".".join(edge_ids) or w, None, sizes[w])
            continue
        statuses[v] = VertexStatus(v, False, None, reason, None)
    blocks = tuple(SocleBlock(w, sizes[w]) for w in g.vertices if w in sizes)
    return GraphSocleReport(line_points=tuple(points), blocks=blocks, per_vertex=statuses)


def associativity_fails(compose, a: str, b: str, c: str) -> bool:
    """Whether (ab)c and a(bc) differ or are undefined, for composable
    pairs (a, b) and (b, c) of the table."""
    left = compose.get((compose[(a, b)], c))
    return left is None or left != compose.get((a, compose[(b, c)]))


def validate_by_sweep(elements, source_of, range_of, inverse_of, compose) -> FiniteGroupoid:
    """steinberg.groupoid.validate as it was before Light's test: the same
    axioms in the same order, and associativity checked on every composable
    triple, (a, b) in the table's order and c in canonical order."""
    elements = list(elements)
    violations: list[str] = []

    if not elements:
        raise GroupoidValidationError(["the element list is empty"])
    if len(elements) > MAX_GROUPOID_ELEMENTS:
        raise SizeCapExceeded(
            f"{len(elements)} elements exceeds the cap of {MAX_GROUPOID_ELEMENTS}"
        )
    seen = set()
    for g in elements:
        if g in seen:
            violations.append(f"duplicate element id {g!r}")
        seen.add(g)

    for name, mapping in (("source", source_of), ("range", range_of), ("inverse", inverse_of)):
        for g in elements:
            if g not in mapping:
                violations.append(f"{name} map is missing element {g!r}")
        for g, v in mapping.items():
            if g not in seen:
                violations.append(f"{name} map mentions undeclared element {g!r}")
            elif v not in seen:
                violations.append(f"{name}({g!r}) = {v!r} is not a declared element")
    for (a, b), c in compose.items():
        for g in (a, b, c):
            if g not in seen:
                violations.append(f"composition entry ({a!r}, {b!r}) -> {c!r} mentions undeclared {g!r}")
                break
    if violations:
        raise GroupoidValidationError(violations)

    s, r, inv = dict(source_of), dict(range_of), dict(inverse_of)
    comp = dict(compose)

    by_range: dict[str, list[str]] = {}
    for c in elements:
        by_range.setdefault(r[c], []).append(c)
    for (a, b) in comp:
        if s[a] != r[b]:
            violations.append(f"composition declared on the non-composable pair ({a!r}, {b!r})")
    for a in elements:
        for b in by_range.get(s[a], ()):
            if (a, b) not in comp:
                violations.append(f"missing composition for the composable pair ({a!r}, {b!r})")
    if violations:
        raise GroupoidValidationError(violations)

    units_s = {g for g in elements if s[g] == g}
    units_r = {g for g in elements if r[g] == g}
    if units_s != units_r:
        for g in sorted(units_s ^ units_r, key=elements.index):
            violations.append(f"{g!r} is fixed by exactly one of source and range")
    idempotents = {g for g in elements if comp.get((g, g)) == g}
    if idempotents != units_s:
        for g in sorted(idempotents ^ units_s, key=elements.index):
            violations.append(f"{g!r} is an idempotent or a unit but not both")
    for u in elements:
        if u in units_s and u in units_r and inv[u] != u:
            violations.append(f"unit {u!r} is not its own inverse")

    for g in elements:
        gi = inv[g]
        if inv[gi] != g:
            violations.append(f"inverse is not involutive at {g!r}")
        if comp.get((g, gi)) != r[g]:
            violations.append(f"{g!r} * inverse({g!r}) is not range({g!r})")
        if comp.get((gi, g)) != s[g]:
            violations.append(f"inverse({g!r}) * {g!r} is not source({g!r})")
        if comp.get((r[g], g)) != g:
            violations.append(f"range({g!r}) * {g!r} is not {g!r}")
        if comp.get((g, s[g])) != g:
            violations.append(f"{g!r} * source({g!r}) is not {g!r}")

    for (a, b), c in comp.items():
        if s[c] != s[b] or r[c] != r[a]:
            violations.append(f"source/range of the product ({a!r}, {b!r}) -> {c!r} are wrong")

    for (a, b) in comp:
        for c in by_range.get(s[b], ()):
            if associativity_fails(comp, a, b, c):
                violations.append(f"associativity fails on the triple ({a!r}, {b!r}, {c!r})")

    if violations:
        raise GroupoidValidationError(violations)
    return FiniteGroupoid(elements, s, r, inv, comp)


def scanned_units(g: FiniteGroupoid) -> tuple[str, ...]:
    return tuple(e for e in g.elements if g.range_of[e] == e)


def scanned_isotropy(g: FiniteGroupoid, x: str) -> IsotropyGroup:
    """The isotropy group at a unit x, by a scan of every element."""
    if not g.is_unit(x):
        raise ValueError(f"isotropy is defined at units only, got {x!r}")
    members = tuple(e for e in g.elements if g.source_of[e] == x and g.range_of[e] == x)
    return IsotropyGroup(base_unit=x, members=members)


def scanned_transporter(g: FiniteGroupoid, y: str, x: str) -> tuple[str, ...]:
    """All arrows from x to y, by a scan of every element."""
    if not g.is_unit(y) or not g.is_unit(x):
        raise ValueError("transporter expects two units")
    return tuple(e for e in g.elements if g.range_of[e] == y and g.source_of[e] == x)


def union_find_orbit_classes(g: FiniteGroupoid) -> tuple[OrbitClass, ...]:
    """The orbit classes by union-find over every arrow's ends: members in
    canonical order, classes ordered by their least member."""
    units = scanned_units(g)
    parent = {u: u for u in units}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for e in g.elements:
        a, b = find(g.range_of[e]), find(g.source_of[e])
        if a != b:
            parent[a] = b
    groups: dict[str, list[str]] = {}
    for u in units:  # canonical order
        groups.setdefault(find(u), []).append(u)
    classes = [
        OrbitClass(representative=members[0], members=tuple(members))
        for members in groups.values()
    ]
    classes.sort(key=lambda c: g.index[c.representative])
    return tuple(classes)


def sorted_transitive_groupoid(points: list[str], group: GroupTable) -> FiniteGroupoid:
    """steinberg.builders.transitive_groupoid as it was built before: the
    arrows sorted by point and group positions found with list.index, and
    every pair of arrows scanned for composability."""
    e = group.identity

    def name(y: str, m: str, x: str) -> str:
        if y == x and m == e:
            return y
        if group.order == 1:
            return f"{y}<{x}"
        if y == x:
            return f"{x}|{m}"
        return f"{y}<{x}|{m}"

    triples = [(y, m, x) for y in points for x in points for m in group.elements]
    triples.sort(
        key=lambda t: (
            0 if (t[0] == t[2] and t[1] == e) else 1,
            points.index(t[0]),
            points.index(t[2]),
            group.elements.index(t[1]),
        )
    )
    ids = {t: name(*t) for t in triples}
    source = {ids[(y, m, x)]: x for (y, m, x) in triples}
    range_ = {ids[(y, m, x)]: y for (y, m, x) in triples}
    inverse = {ids[(y, m, x)]: ids[(x, group.inverse(m), y)] for (y, m, x) in triples}
    compose = {}
    for (z, m, y) in triples:
        for (y2, m2, x) in triples:
            if y == y2:
                compose[(ids[(z, m, y)], ids[(y2, m2, x)])] = ids[(z, group.mult[(m, m2)], x)]
    return validate([ids[t] for t in triples], source, range_, inverse, compose)
