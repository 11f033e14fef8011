"""Finite discrete groupoids presented by explicit composition tables.

A groupoid here is a finite set of elements with source, range and inverse
maps and a partial composition, defined for (a, b) exactly when
source(a) = range(b).  Units are the elements fixed by source and range;
every subset of a finite discrete groupoid is compact open, so no topology
is carried around.

A table comes in one form, the JSON document's list of [a, b, ab] triples
over the composable pairs, and validate() reads it into the one form a
groupoid keeps: per-element rows, rows[a] = {b: a * b} over the b
composable with a.  That is the shape every consumer reads: right
translations, the action tables, the convolution and the axiom checks.

The canonical order on elements is their declaration order.  All operations
that return lists of elements follow it, which makes every downstream
computation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .limits import (
    MAX_ASSOCIATIVITY_TRIPLES,
    MAX_GROUPOID_ELEMENTS,
    MAX_REPORTED_VIOLATIONS,
    SizeCapExceeded,
)


class GroupoidValidationError(ValueError):
    """Raised with the list of violated axioms, cut at MAX_REPORTED_VIOLATIONS."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid groupoid: {preview}{more}")


@dataclass(frozen=True)
class IsotropyGroup:
    """The group xGx of arrows with source and range both x."""

    base_unit: str
    members: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1


@dataclass(frozen=True)
class OrbitClass:
    """A class of the orbit relation: x ~ y iff some arrow runs from x to y."""

    representative: str  # least member in canonical order
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


class FiniteGroupoid:
    """A validated finite groupoid.  Treat instances as immutable.

    Construct through validate() or from_json_obj(); the constructor itself
    performs no axiom checking.  It takes the table as rows, {a: {b: ab}}
    with a row for every element, and keeps them without copying.  Isotropy
    groups, transporter sets and orbits are all read off one index from
    (range, source) to the arrows between them, built on first use in one
    pass over the elements.
    """

    def __init__(
        self,
        elements: Iterable[str],
        source_of: Mapping[str, str],
        range_of: Mapping[str, str],
        inverse_of: Mapping[str, str],
        rows: dict[str, dict[str, str]],
    ):
        self.elements: tuple[str, ...] = tuple(elements)
        self.index: dict[str, int] = {g: i for i, g in enumerate(self.elements)}
        self.source_of = dict(source_of)
        self.range_of = dict(range_of)
        self.inverse_of = dict(inverse_of)
        self.rows = rows
        self._units: tuple[str, ...] | None = None
        self._orbits: tuple[OrbitClass, ...] | None = None

    # -- basic maps ---------------------------------------------------------

    def s(self, g: str) -> str:
        return self.source_of[g]

    def r(self, g: str) -> str:
        return self.range_of[g]

    def inv(self, g: str) -> str:
        return self.inverse_of[g]

    def composable(self, a: str, b: str) -> bool:
        return self.source_of[a] == self.range_of[b]

    def mul(self, a: str, b: str) -> str:
        try:
            return self.rows[a][b]
        except KeyError:
            raise ValueError(f"elements are not composable: {a!r} * {b!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"FiniteGroupoid({len(self.elements)} elements, {len(self.units())} units)"

    # -- derived structure --------------------------------------------------

    def units(self) -> tuple[str, ...]:
        """The unit space, exactly the elements with g * inverse(g) = g."""
        if self._units is None:
            self._units = tuple(g for g in self.elements if self.range_of[g] == g)
        return self._units

    def is_unit(self, x: str) -> bool:
        if x not in self.index:
            raise KeyError(f"not an element: {x!r}")
        return self.range_of[x] == x

    @cached_property
    def _arrows(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(range, source) -> the arrows between them, in canonical order."""
        arrows: dict[tuple[str, str], list[str]] = {}
        for g in self.elements:
            arrows.setdefault((self.range_of[g], self.source_of[g]), []).append(g)
        return {ends: tuple(found) for ends, found in arrows.items()}

    def isotropy(self, x: str) -> IsotropyGroup:
        """The isotropy group at a unit x."""
        if not self.is_unit(x):
            raise ValueError(f"isotropy is defined at units only, got {x!r}")
        return IsotropyGroup(base_unit=x, members=self._arrows.get((x, x), ()))

    def transporter(self, y: str, x: str) -> tuple[str, ...]:
        """All arrows from x to y, i.e. {g : range(g) = y and source(g) = x}.

        Either empty or of the same size as the isotropy group at x: any
        member b identifies it with xGx via g -> b * g.
        """
        if not self.is_unit(y) or not self.is_unit(x):
            raise ValueError("transporter expects two units")
        return self._arrows.get((y, x), ())

    def orbit_classes(self) -> tuple[OrbitClass, ...]:
        """The partition of the unit space by the orbit relation.

        Each class is the least unit not yet placed together with every unit
        its arrows reach, members in canonical order.
        """
        if self._orbits is None:
            reach: dict[str, list[str]] = {}
            for y, x in self._arrows:
                reach.setdefault(x, []).append(y)
            placed: set[str] = set()
            classes = []
            for x in self.units():
                if x not in placed:
                    members = tuple(sorted(reach[x], key=self.index.__getitem__))
                    placed.update(members)
                    classes.append(OrbitClass(representative=x, members=members))
            self._orbits = tuple(classes)
        return self._orbits

    def orbit_of(self, x: str) -> OrbitClass:
        for cls in self.orbit_classes():
            if x in cls.members:
                return cls
        raise ValueError(f"not a unit: {x!r}")


_EMPTY: frozenset[str] = frozenset()


def validate(
    elements: Iterable[str],
    source_of: Mapping[str, str],
    range_of: Mapping[str, str],
    inverse_of: Mapping[str, str],
    compose: list[list[str]],
) -> FiniteGroupoid:
    """Check every groupoid axiom and return the validated groupoid.

    compose is the table as the JSON document gives it: a list of [a, b, ab]
    lists, one for each composable pair.  It is read into rows {a: {b: ab}}
    first, and the first malformed or repeated triple in it raises
    ValueError before any axiom is checked.  The validated groupoid keeps
    the rows.

    Collects all violations (with witnesses) into a single
    GroupoidValidationError rather than stopping at the first, up to
    MAX_REPORTED_VIOLATIONS of them: a list that would run past the cap
    stops there and ends with a line saying it is partial.  Each check runs
    on whole rows and columns at once (set comparisons, map over the rows);
    only a check that fails runs the loop that words its violations, so
    they come in the table's order or in canonical order.

    Associativity is checked by Light's test: only the triples whose middle
    element t lies in a generating set, |G_r(t)| * |G^s(t)| of them for each
    t, where G_u holds the arrows with source u and G^u those with range u.
    On a group of order n that is at most log2(n) * n^2 triples.  When it
    fails, or an earlier axiom already failed, the sweep over all composable
    triples lists the failing ones, (a, b) in the table's order and c in
    canonical order.  Above MAX_ASSOCIATIVITY_TRIPLES composable triples the
    sweep does not run: the list then holds the failing triples Light's test
    found and ends with a line saying it is partial.  Light's test is held
    to the same cap; if it would pass the cap before finding a failure,
    SizeCapExceeded is raised, which no valid groupoid under the element
    cap can cause.
    """
    elements = list(elements)
    rows = _read_rows(elements, compose)
    violations: list[str] = []

    def report(violation: str) -> None:
        """Add a violation to the list; one past the cap ends the list with
        a line saying it is partial, and validation with it."""
        if len(violations) == MAX_REPORTED_VIOLATIONS:
            violations.append(
                f"the list is partial: it stops at the cap of {MAX_REPORTED_VIOLATIONS} "
                "violations"
            )
            raise GroupoidValidationError(violations)
        violations.append(violation)

    if not elements:
        raise GroupoidValidationError(["the element list is empty"])
    if len(elements) > MAX_GROUPOID_ELEMENTS:
        raise SizeCapExceeded(
            f"{len(elements)} elements exceeds the cap of {MAX_GROUPOID_ELEMENTS}"
        )
    seen = set(elements)
    if len(seen) < len(elements):
        once = set()
        for g in elements:
            if g in once:
                report(f"duplicate element id {g!r}")
            once.add(g)

    # Structural totality first; the algebraic checks assume complete maps.
    for name, mapping in (("source", source_of), ("range", range_of), ("inverse", inverse_of)):
        if mapping.keys() == seen and seen.issuperset(mapping.values()):
            continue
        for g in elements:
            if g not in mapping:
                report(f"{name} map is missing element {g!r}")
        for g, v in mapping.items():
            if g not in seen:
                report(f"{name} map mentions undeclared element {g!r}")
            elif v not in seen:
                report(f"{name}({g!r}) = {v!r} is not a declared element")

    if not (seen.issuperset(rows) and all(
        seen.issuperset(row) and seen.issuperset(row.values()) for row in rows.values()
    )):
        for a, b, c in compose:
            if a in seen and b in seen and c in seen:
                continue
            g = next(g for g in (a, b, c) if g not in seen)
            report(f"composition entry ({a!r}, {b!r}) -> {c!r} mentions undeclared {g!r}")
    if violations:
        raise GroupoidValidationError(violations)

    # Read in place: the validated groupoid's constructor takes the copies.
    s, r, inv = source_of, range_of, inverse_of

    # Composition is defined exactly on the composable pairs: the row of a
    # holds the b with range s(a), and no others.
    by_range: dict[str, list[str]] = {}
    by_source: dict[str, list[str]] = {}
    for c in elements:
        by_range.setdefault(r[c], []).append(c)
        by_source.setdefault(s[c], []).append(c)
    after = {u: set(bs) for u, bs in by_range.items()}
    if not all(rows[a].keys() == after.get(s[a], _EMPTY) for a in elements):
        for a, b, _ in compose:
            if s[a] != r[b]:
                report(f"composition declared on the non-composable pair ({a!r}, {b!r})")
        for a in elements:
            row = rows[a]
            for b in by_range.get(s[a], ()):
                if b not in row:
                    report(f"missing composition for the composable pair ({a!r}, {b!r})")
        raise GroupoidValidationError(violations)

    units_s = {g for g in elements if s[g] == g}
    for g in elements:
        if (s[g] == g) != (r[g] == g):
            report(f"{g!r} is fixed by exactly one of source and range")
    for g in elements:
        if (rows[g].get(g) == g) != (s[g] == g):
            report(f"{g!r} is an idempotent or a unit but not both")
    for g in elements:
        if s[g] == g == r[g] and inv[g] != g:
            report(f"unit {g!r} is not its own inverse")

    for g in elements:
        gi = inv[g]
        if inv[gi] != g:
            report(f"inverse is not involutive at {g!r}")
        if rows[g].get(gi) != r[g]:
            report(f"{g!r} * inverse({g!r}) is not range({g!r})")
        if rows[gi].get(g) != s[g]:
            report(f"inverse({g!r}) * {g!r} is not source({g!r})")
        if rows[r[g]].get(g) != g:
            report(f"range({g!r}) * {g!r} is not {g!r}")
        if rows[g].get(s[g]) != g:
            report(f"{g!r} * source({g!r}) is not {g!r}")

    # Each product ab runs from s(b) to r(a).  Read down the rows: the
    # products' ranges against r(a) repeated along a's row, and their
    # sources against those of the b.
    products = list(chain.from_iterable(map(dict.values, rows.values())))
    along = chain.from_iterable(map(repeat, map(r.__getitem__, rows), map(len, rows.values())))
    if not (
        list(map(r.__getitem__, products)) == list(along)
        and list(map(s.__getitem__, products))
        == list(map(s.__getitem__, chain.from_iterable(rows.values())))
    ):
        for a, b, c in compose:
            if s[c] != s[b] or r[c] != r[a]:
                report(f"source/range of the product ({a!r}, {b!r}) -> {c!r} are wrong")

    def through(b: str) -> int:
        """The number of composable triples with middle element b."""
        return len(by_source.get(r[b], ())) * len(by_range.get(s[b], ()))

    def associates(t: str) -> bool:
        """Whether (xt)c = x(tc) on every composable triple with middle t.
        For each x, the row of xt read at the c's must equal the row of x
        read at the tc's; both getters are built once for t."""
        cs = by_range.get(s[t], ())
        at_c = row_getter(cs)
        at_tc = row_getter(list(map(rows[t].__getitem__, cs)))
        xrows = list(map(rows.__getitem__, by_source.get(r[t], ())))
        xt_rows = map(rows.__getitem__, map(itemgetter(t), xrows))
        try:
            return all(map(eq, map(at_c, xt_rows), map(at_tc, xrows)))
        except KeyError:  # a product (xt)c or x(tc) is undefined
            return False

    def failing(pairs) -> Iterator[str]:
        """The triples (a, b, c), for each pair (a, b) and each c composable
        with b in canonical order, on which (ab)c and a(bc) differ or are
        undefined, as they are found."""
        for a, b in pairs:
            cs = by_range.get(s[b], ())
            left = list(map(rows[rows[a][b]].get, cs))
            right = list(map(rows[a].get, map(rows[b].__getitem__, cs)))
            if left != right or None in left:
                for c, x, y in zip(cs, left, right):
                    if x is None or x != y:
                        yield f"associativity fails on the triple ({a!r}, {b!r}, {c!r})"

    # Associativity by Light's test, which proves it only when every other
    # axiom holds (see _light_generators); after an earlier violation it
    # still finds real failing triples for the partial list.
    checked, budget = [], MAX_ASSOCIATIVITY_TRIPLES
    for t in _light_generators(elements, s, r, inv, rows, units_s):
        budget -= through(t)
        if budget < 0:
            break
        checked.append(t)
    light_holds = all(map(associates, checked))
    if not violations and light_holds and budget >= 0:
        return FiniteGroupoid(elements, source_of, range_of, inverse_of, rows)

    total = sum(map(through, elements))
    if total <= MAX_ASSOCIATIVITY_TRIPLES:
        for violation in failing((a, b) for a, b, _ in compose):
            report(violation)
    elif violations or not light_holds:
        for violation in failing((x, t) for t in checked for x in by_source.get(r[t], ())):
            report(violation)
        violations.append(
            f"the list is partial: the {total} composable triples exceed the cap of "
            f"{MAX_ASSOCIATIVITY_TRIPLES}, so associativity failures are listed only "
            "for middle elements in Light's generating set"
        )
    else:
        raise SizeCapExceeded(
            f"Light's associativity test needs more than {MAX_ASSOCIATIVITY_TRIPLES} "
            "triples on this table"
        )
    raise GroupoidValidationError(violations)


def row_getter(keys: Sequence[str]) -> Callable[[Mapping[str, str]], tuple[str, ...]]:
    """The function reading a row at keys, in order, as a tuple; it raises
    KeyError where the row has no entry.  itemgetter(*keys), except that
    itemgetter returns a bare value for one key and takes no fewer."""
    if len(keys) == 1:
        key = keys[0]
        return lambda row: (row[key],)
    return itemgetter(*keys) if keys else lambda row: ()


def _light_generators(elements, s, r, inv, rows, units) -> list[str]:
    """A generating set for Light's associativity test.

    The y with (xy)z = x(yz) for all composable x, z are closed under
    composition, and the units are among them once the identity axioms hold.
    So if every generator is among them, so is every element: each is a
    unit, a generator, or a reached element times a generator.  The walk
    takes, in canonical order, each element not yet reached, then its
    inverse if that is still unreached, and closes the reached set under
    right multiplication by the generators.  It reads only the table, never
    assuming associativity.
    """
    reached = set(units)
    reached_from: dict[str, list[str]] = {}  # source -> reached elements
    for u in units:
        reached_from.setdefault(s[u], []).append(u)
    into: dict[str, list[str]] = {}  # range -> generators
    generators: list[str] = []

    def close(stack: list[str]):
        while stack:
            d = stack.pop()
            if d not in reached:
                reached.add(d)
                reached_from.setdefault(s[d], []).append(d)
                stack += [rows[d][t] for t in into.get(s[d], ())]

    for t in elements:
        if t in reached:
            continue
        for g in (t, inv[t]):
            if g not in reached:
                generators.append(g)
                into.setdefault(r[g], []).append(g)
                close([g] + [rows[c][g] for c in reached_from.get(r[g], ())])
    return generators


# -- JSON interchange -------------------------------------------------------
#
# {"elements": [...], "source": {...}, "range": {...}, "inverse": {...},
#  "compose": [[a, b, ab], ...]}
#
# Dumping a loaded groupoid reproduces the canonical document byte for byte.


def from_json_obj(obj) -> FiniteGroupoid:
    if not isinstance(obj, dict):
        raise ValueError("groupoid document must be a JSON object")
    missing = {"elements", "source", "range", "inverse", "compose"} - obj.keys()
    if missing:
        raise ValueError(f"groupoid document is missing keys: {sorted(missing)}")
    elements = obj["elements"]
    if not isinstance(elements, list) or not all(map(isinstance, elements, repeat(str))):
        raise ValueError("'elements' must be a list of strings")
    for key in ("source", "range", "inverse"):
        m = obj[key]
        if not isinstance(m, dict) or not all(map(isinstance, chain(m, m.values()), repeat(str))):
            raise ValueError(f"'{key}' must be an object mapping ids to ids")
    return validate(elements, obj["source"], obj["range"], obj["inverse"], obj["compose"])


def _read_rows(elements: list[str], triples: list) -> dict[str, dict[str, str]]:
    """The [a, b, ab] triples as rows {a: {b: ab}}, one for every element and
    one for every other a they list.

    The triples are checked a column at a time: all lists, all of length 3,
    all entries strings (which str.join accepts and nothing else), and no
    pair twice (the rows then hold every triple).  If a check fails, the
    loop below raises the ValueError of the first malformed or repeated
    triple in document order.
    """
    if not isinstance(triples, list):
        raise ValueError("'compose' must be a list of [a, b, ab] triples")
    rows: dict[str, dict[str, str]] = {g: {} for g in elements}
    if (
        all(map(isinstance, triples, repeat(list)))
        and set(map(len, triples)) <= {3}
        and _all_strings(chain.from_iterable(triples))
    ):
        try:
            for a, b, c in triples:
                rows[a][b] = c
        except KeyError:  # an undeclared a: read again below
            pass
        else:
            if sum(map(len, rows.values())) == len(triples):
                return rows
        rows = {g: {} for g in elements}
    for triple in triples:
        if not (
            isinstance(triple, list) and len(triple) == 3
            and isinstance(triple[0], str) and isinstance(triple[1], str)
            and isinstance(triple[2], str)
        ):
            raise ValueError(f"bad composition triple: {triple!r}")
        a, b, c = triple
        row = rows.setdefault(a, {})
        if b in row:
            raise ValueError(f"duplicate composition entry for ({a!r}, {b!r})")
        row[b] = c
    return rows


def _all_strings(items: Iterable) -> bool:
    """Whether every item is a str, in one str.join, which refuses anything else."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def to_json_obj(g: FiniteGroupoid) -> dict:
    order = g.index
    return {
        "elements": list(g.elements),
        "source": {x: g.source_of[x] for x in g.elements},
        "range": {x: g.range_of[x] for x in g.elements},
        "inverse": {x: g.inverse_of[x] for x in g.elements},
        "compose": [
            [a, b, row[b]]
            for a, row in zip(g.elements, map(g.rows.__getitem__, g.elements))
            for b in sorted(row, key=order.__getitem__)
        ],
    }
