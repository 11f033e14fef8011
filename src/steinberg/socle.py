"""Minimal left ideals and the socle of a finite groupoid convolution algebra.

The engine is built on one dichotomy.  Fix a unit x with isotropy group
xGx = {a_1, ..., a_n}.  The left ideal generated by t = 1_{a_1} + ... + 1_{a_n}
is minimal, and the character of the generator splits by the field:

* char(K) does not divide n: e = (1/n) t is an idempotent and the corner
  e A e is a division algebra ("division_idempotent" flavour);
* char(K) divides n: t * t = n t = 0, t is an absolute zero divisor
  (t A t = 0) and the ideal squares to zero ("absolute_zero_divisor" flavour).

Minimality is decided in the corner 1_x A 1_x = K[xGx].  An orbit of k units
spans a block with central indicator, a minimal left ideal I lies in one
block, and I is minimal iff 1_x I is a simple K[xGx]-module; dim I is
k * dim 1_x I.  The blocks I meets and the rows of 1_x I are read off the
canonical rows of I, each of which lies in 1_y I for y its pivot's range.
A one-dimensional 1_x I, or trivial isotropy, decides the question by rank
alone over any field; only nontrivial isotropy without a certificate
enumerates, over GF(p), the p^(dim I / k) vectors of 1_x I.

The certificate ideal A t is built in closed form: its canonical rows are
the indicators of the transporter sets yGx, one per unit y of x's orbit.
Ideals of arbitrary generators are eliminated one unit at a time.  1_g f
lies on the columns G^{r(g)} of the arrows with range r(g), and f 1_h on
the columns G_{s(h)} of those with source s(h), so A f is reduced per range
unit in width |G^y|, and A f A = A (f A) by reducing f A per source unit,
then A (f A) per range unit.  Each unit's elimination stops once it fills
its columns, and the per-unit bases, sorted by pivot, are the canonical
rows.

Socle assembly only sees the semisimple part.  A unit x contributes 1_x to
the socle exactly when its isotropy is trivial.  The engine refuses to
assemble a socle unless every unit has trivial isotropy (condition (LP)
specialised to finite groupoids); one violator is enough to make the refusal
explicit rather than silent.  Under (LP) the transporter set yGx of arrows
from x to y, for two units of an orbit, holds exactly one arrow e_yx, and
these transporter sets are the matrix units of a full matrix algebra M_k(K)
for an orbit of k units.  The socle is then the whole algebra:
socle() certifies the matrix-unit relations straight from the composition
table and emits the standard basis, without any row reduction.
homogeneous_component() computes the same blocks by spanning translates of
the unit indicators and is the reference the closed form is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from typing import Iterable, Iterator

from .algebra import AlgebraElement, SteinbergAlgebra, element_to_obj
from .fields import PrimeField
from .groupoid import FiniteGroupoid, OrbitClass, row_getter
from .limits import check_enum_size
from .linalg import EchelonBasis

DIVISION_IDEMPOTENT = "division_idempotent"
ABSOLUTE_ZERO_DIVISOR = "absolute_zero_divisor"


@dataclass
class LeftIdeal:
    """A subspace of the algebra closed under left multiplication.

    `rows` is the canonical reduced echelon basis of the subspace, as
    coefficient tuples in element order, so two ideals are equal as
    subspaces iff their rows coincide.  `basis` is derived from it: the
    same rows as algebra elements.
    """

    algebra: SteinbergAlgebra
    generators: tuple[AlgebraElement, ...]
    rows: tuple[tuple, ...]
    two_sided: bool = False

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple[AlgebraElement, ...]:
        return tuple(map(self.algebra.from_vector, self.rows))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Each canonical row's pivot: the index of its first nonzero entry."""
        is_zero = self.algebra.field.is_zero
        return tuple(
            next(i for i, c in enumerate(row) if not is_zero(c)) for row in self.rows
        )

    @cached_property
    def _membership(self) -> EchelonBasis:
        # The canonical rows are already reduced echelon: seed them as they are.
        basis = EchelonBasis(self.algebra.field, self.algebra.dim)
        basis.rows = list(self.rows)
        basis.pivots = list(self.pivots)
        return basis

    def contains(self, f: AlgebraElement) -> bool:
        """Whether f lies in the ideal; ValueError if f is an element of
        another algebra (another field or groupoid)."""
        self.algebra.zero()._check_compatible(f)
        return self._membership.contains(f.to_vector())

    def __repr__(self):
        kind = "TwoSidedIdeal" if self.two_sided else "LeftIdeal"
        return f"{kind}(dim {self.dimension} of {self.algebra.dim})"


def _filled(field, width: int, images: Iterable[list], target: int) -> EchelonBasis:
    """The span of the images, inserted until it reaches dimension target.
    Callers pass images that lie in a space of that dimension, so the
    remaining images could add nothing."""
    basis = EchelonBasis(field, width)
    for image in images:
        if basis.insert(image) and basis.dim == target:
            break
    return basis


def _unit_spans(algebra: SteinbergAlgebra, rows: list[list], side: str) -> list[tuple]:
    """The canonical rows of the span of the translates 1_g * row (side
    "left") or row * 1_g (side "right") over every basis index g.

    1_g * f lies on the columns G^{r(g)}, the arrows with range r(g), and
    f * 1_g on the columns G_{s(g)}, those with source s(g).  So the span is
    the direct sum, over the units u, of the spans of the translates by the
    arrows at u, each reduced in the width of the columns at u and stopped
    once it fills them.  The column sets are disjoint, so the union of the
    per-unit reduced echelon bases, sorted by pivot, is the canonical basis
    of the whole span.
    """
    field, gpd = algebra.field, algebra.groupoid
    if side == "left":
        end, table = gpd.range_of, algebra.left_action_table
    else:
        end, table = gpd.source_of, algebra.right_action_table
    columns: dict[str, list[int]] = {}
    for k, g in enumerate(gpd.elements):
        columns.setdefault(end[g], []).append(k)
    padded = [[*row, field.zero] for row in rows]  # index n reads a zero
    found: list[tuple[int, tuple]] = []
    for cols in columns.values():
        gathers = ([table[g][k] for k in cols] for g in cols)
        images = ([row[j] for j in at] for at in gathers for row in padded)
        basis = _filled(field, len(cols), images, len(cols))
        for pivot, local in zip(basis.pivots, basis.rows):
            full = [field.zero] * algebra.dim
            for k, c in zip(cols, local):
                full[k] = c
            found.append((cols[pivot], tuple(full)))
    found.sort(key=lambda entry: entry[0])
    return [row for _, row in found]


def _generated_ideal(
    algebra: SteinbergAlgebra, generators: list[AlgebraElement], two_sided: bool
) -> LeftIdeal:
    """A f is spanned by the left translates 1_g * f; A f A = A (f A) by the
    left translates of an echelon basis of the right translates f * 1_h."""
    if not generators:
        raise ValueError("empty generator list")
    if all(f.is_zero() for f in generators):
        raise ValueError("all generators are zero")
    rows = [f.to_vector() for f in generators]
    if two_sided:
        rows = _unit_spans(algebra, rows, "right")
    return LeftIdeal(
        algebra, tuple(generators), tuple(_unit_spans(algebra, rows, "left")), two_sided=two_sided
    )


def left_ideal(algebra: SteinbergAlgebra, generators: list[AlgebraElement]) -> LeftIdeal:
    """The left ideal generated by the given elements.

    Local units put every generator inside A * generator, so the span of the
    products 1_g * generator already contains the generators themselves.
    """
    return _generated_ideal(algebra, generators, two_sided=False)


def two_sided_ideal(algebra: SteinbergAlgebra, generators: list[AlgebraElement]) -> LeftIdeal:
    return _generated_ideal(algebra, generators, two_sided=True)


# -- minimal ideal certificates ------------------------------------------------


@dataclass
class MinimalIdealCertificate:
    """A generator of a minimal left ideal attached to a unit.

    The generator is the isotropy sum t (scaled to an idempotent when the
    characteristic allows), and `flavour` records which side of the
    dichotomy applies.  Verification reads the isotropy table: when left
    multiplication by each a in xGx permutes xGx, t * t = |xGx| t over the
    integers, which makes t / |xGx| idempotent or t square to zero.
    """

    unit: str
    isotropy_order: int
    flavour: str
    generator: AlgebraElement

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "unit": self.unit,
            "isotropy_order": self.isotropy_order,
            "flavour": self.flavour,
            "generator": element_to_obj(self.generator),
        }


def minimal_ideal_generator(algebra: SteinbergAlgebra, x: str) -> MinimalIdealCertificate:
    gpd = algebra.groupoid
    if not gpd.is_unit(x):
        raise ValueError(f"minimal ideal generators are attached to units, got {x!r}")
    field = algebra.field
    members = gpd.isotropy(x).members
    n = len(members)
    group = set(members)
    for a in members:
        if set(map(gpd.rows[a].get, members)) != group:
            raise RuntimeError(
                f"left multiplication by {a!r} does not permute the isotropy group at unit {x!r}"
            )
    isotropy_sum = algebra.element({g: field.one for g in members})
    n_in_field = field.from_integer(n)
    if not field.is_zero(n_in_field):
        generator = isotropy_sum.scale(field.invert(n_in_field))
        flavour = DIVISION_IDEMPOTENT
    else:
        generator = isotropy_sum
        flavour = ABSOLUTE_ZERO_DIVISOR
    return MinimalIdealCertificate(
        unit=x, isotropy_order=n, flavour=flavour, generator=generator
    )


def certificate_ideal(certificate: MinimalIdealCertificate) -> LeftIdeal:
    """The minimal left ideal A t of a certificate generator t at x, in
    closed form.

    A t is spanned by the 1_g * t over the arrows g with source x, and 1_g * t
    is a multiple of the indicator of the coset g xGx, the transporter set
    r(g)Gx.  These sets are disjoint, one for each unit y of x's orbit, so
    their indicators, sorted by first element, are the canonical rows.
    """
    algebra = certificate.generator.algebra
    gpd, field = algebra.groupoid, algebra.field
    x = certificate.unit
    sets = sorted(
        (gpd.transporter(y, x) for y in gpd.orbit_of(x).members),
        key=lambda arrows: gpd.index[arrows[0]],
    )
    rows = []
    for arrows in sets:
        row = [field.zero] * algebra.dim
        for g in arrows:
            row[gpd.index[g]] = field.one
        rows.append(tuple(row))
    return LeftIdeal(algebra, (certificate.generator,), tuple(rows))


# -- minimality tests -----------------------------------------------------------


@dataclass
class MinimalityReport:
    minimal: bool
    method: str
    dimension: int
    witness: AlgebraElement | None = None


def _nonzero_combos(field: PrimeField, rows: list[list]) -> Iterator[list]:
    """Every nonzero combination of the rows over GF(p), coefficient tuples
    in lexicographic order with the first row most significant."""
    zero = [field.zero] * len(rows[0])
    for coeffs in islice(product(range(field.p), repeat=len(rows)), 1, None):
        out = zero
        for c, row in zip(coeffs, rows):
            if c:
                scalar = field.from_integer(c)
                out = [field.add(a, field.mul(scalar, b)) for a, b in zip(out, row)]
        yield out


def is_minimal_left_ideal(
    ideal: LeftIdeal,
    certificate: MinimalIdealCertificate | None = None,
) -> MinimalityReport:
    """Decide whether a left ideal I is minimal, inside a corner 1_x A 1_x.

    The unit indicators are orthogonal idempotents summing to 1, so I is the
    direct sum of the 1_y I, on the disjoint columns of the arrows with
    range y: each canonical row of I lies in the 1_y I of its pivot's range
    y, its unit.  For an orbit O of k units, 1_O = sum of the 1_y over y in
    O is central, and a minimal I lies in one block.  Inside the block of O,
    with x in O, L -> 1_x L maps the submodules of I isomorphically onto the
    R_x-submodules of 1_x I, where R_x = 1_x A 1_x = K[xGx], and
    dim I = k * dim 1_x I.  So I is minimal iff 1_x I is a simple
    R_x-module, and any v in 1_x I that spans a proper R_x-submodule is a
    witness.  x is the certificate's unit if one is given, else the orbit
    representative, and the canonical rows whose unit is x are the reduced
    echelon basis of 1_x I.  The route that decided is recorded in the
    report:

    * "orbit blocks": I meets two blocks, and the first row in the first
      block met is a witness (it is the first nonzero 1_O b);
    * "corner rank": dim 1_x I = 1 makes I minimal over any field; with
      trivial isotropy R_x = K, so for dim 1_x I > 1 a nonzero row of 1_x I
      is a witness;
    * "certified construction": dim 1_x I > 1 and the certificate generator
      is a witness, because R_x t = K t for the isotropy sum t;
    * "corner exhaustive over GF(p)": nontrivial isotropy, dim 1_x I > 1 and
      no certificate.  Every one of the p^(dim I / k) - 1 nonzero vectors of
      1_x I (subject to the enumeration cap) is spun by the |xGx| isotropy
      translates.  Over the rationals this case raises ValueError: it needs
      a certificate.

    A certificate over another field or groupoid raises ValueError, as does
    one whose generator lies outside I.
    """
    algebra = ideal.algebra
    field, gpd, n = algebra.field, algebra.groupoid, algebra.dim
    dim = ideal.dimension
    if dim == 0:
        raise ValueError("the zero ideal is not eligible for the minimality test")
    if certificate is not None:
        # A foreign generator's coefficients would pass the membership test.
        algebra.zero()._check_compatible(certificate.generator)
        if not ideal.contains(certificate.generator):
            raise ValueError("the certificate generator does not lie in the ideal")

    def answer(minimal: bool, method: str, witness: list | None = None) -> MinimalityReport:
        return MinimalityReport(
            minimal=minimal,
            method=method,
            dimension=dim,
            witness=None if witness is None else algebra.from_vector(witness),
        )

    units = [gpd.r(gpd.elements[p]) for p in ideal.pivots]
    orbits = gpd.orbit_classes()
    block_of = {y: i for i, orbit in enumerate(orbits) for y in orbit.members}
    blocks = [block_of[y] for y in units]
    first = min(blocks)
    if any(b != first for b in blocks):
        return answer(False, "orbit blocks", ideal.rows[blocks.index(first)])

    orbit = orbits[first]
    x = orbit.representative if certificate is None else certificate.unit
    corner = [row for row, y in zip(ideal.rows, units) if y == x]
    d = len(corner)
    if d * len(orbit) != dim:
        raise RuntimeError(
            f"dim 1_x I = {d} at {x!r} times the orbit size {len(orbit)} "
            f"is not dim I = {dim}"
        )
    if d == 1:
        return answer(True, "corner rank")
    if certificate is not None:
        return answer(False, "certified construction", certificate.generator.to_vector())
    isotropy = [gpd.index[h] for h in gpd.isotropy(x).members]
    if len(isotropy) == 1:
        return answer(False, "corner rank", corner[0])
    if not isinstance(field, PrimeField):
        raise ValueError(
            "over the rationals minimality with nontrivial isotropy is decided only "
            "for certificate-generated ideals"
        )
    check_enum_size(field.p, d)

    def generates(vec: list) -> bool:
        images = (algebra.left_action(h, vec) for h in isotropy)
        return _filled(field, n, images, d).dim == d

    witness = next((v for v in _nonzero_combos(field, corner) if not generates(v)), None)
    return answer(witness is None, f"corner exhaustive over GF({field.p})", witness)


# -- condition (LP) and the socle ------------------------------------------------


@dataclass
class LPReport:
    holds: bool
    violators: tuple[str, ...]
    explanation: str


class LPViolationError(RuntimeError):
    """The socle construction refuses groupoids with nontrivial isotropy."""

    def __init__(self, report: LPReport):
        self.report = report
        super().__init__(report.explanation)


def check_condition_LP(gpd: FiniteGroupoid) -> LPReport:
    """For finite discrete groupoids condition (LP) is exactly principality:
    every unit must have trivial isotropy.  Violators are listed in canonical
    order with their isotropy sizes."""
    violators = tuple(u for u in gpd.units() if gpd.isotropy(u).order > 1)
    if violators:
        sizes = ", ".join(f"{u!r} (isotropy order {gpd.isotropy(u).order})" for u in violators)
        explanation = (
            "condition (LP) fails: units with nontrivial isotropy contribute no "
            f"minimal singleton ideals: {sizes}"
        )
    else:
        explanation = "every unit has trivial isotropy"
    return LPReport(holds=not violators, violators=violators, explanation=explanation)


@dataclass
class ComponentDecomposition:
    """The two-sided ideal (1_x) together with its split into left ideals."""

    orbit: OrbitClass
    ideal: LeftIdeal
    summands: tuple[LeftIdeal, ...]


def homogeneous_component(algebra: SteinbergAlgebra, x: str) -> ComponentDecomposition:
    """(1_x) = direct sum of A 1_y over the orbit of x, for trivial isotropy x.

    Verifies the direct sum: the summand dimensions add up across the join
    and the join equals the two-sided ideal generated by 1_x.  This is the
    linear-algebra reference, built by spanning translates, for the blocks
    that socle() emits in closed form.
    """
    gpd = algebra.groupoid
    if not gpd.is_unit(x):
        raise ValueError(f"expected a unit, got {x!r}")
    if gpd.isotropy(x).order != 1:
        raise ValueError(f"unit {x!r} has nontrivial isotropy")
    orbit = gpd.orbit_of(x)
    summands = tuple(left_ideal(algebra, [algebra.basis_element(y)]) for y in orbit.members)

    joint = EchelonBasis(algebra.field, algebra.dim)
    for summand in summands:
        added = joint.extend(summand.rows)
        if added != summand.dimension:
            raise RuntimeError(f"summands of the component at {x!r} are not independent")
    ideal = two_sided_ideal(algebra, [algebra.basis_element(x)])
    if joint.canonical() != ideal.rows:
        raise RuntimeError(f"component at {x!r} does not exhaust the two-sided ideal")
    return ComponentDecomposition(orbit=orbit, ideal=ideal, summands=summands)


@dataclass
class SocleComponent:
    orbit: OrbitClass
    dimension: int
    matrix_size: int


@dataclass
class SocleReport:
    """The socle with its decomposition into matrix-algebra components."""

    algebra: SteinbergAlgebra
    lp_holds: bool
    generating_units: tuple[str, ...]
    components: tuple[SocleComponent, ...]
    socle_basis: tuple[AlgebraElement, ...]
    socle_dimension: int

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "lp_holds": self.lp_holds,
            "field": self.algebra.field.designator,
            "generating_units": list(self.generating_units),
            "components": [
                {
                    "representative": c.orbit.representative,
                    "orbit": list(c.orbit.members),
                    "dimension": c.dimension,
                    "matrix_size": c.matrix_size,
                }
                for c in self.components
            ],
            "socle_dimension": self.socle_dimension,
            "basis": [element_to_obj(b) for b in self.socle_basis],
        }


def _certify_matrix_units(gpd: FiniteGroupoid, orbit: OrbitClass) -> None:
    """e_yx * e_xz = e_yz for all units y, x, z of the orbit, by table lookup.

    e_yx is the one arrow of the transporter set yGx, unique under (LP).
    Products of non-composable arrows vanish by the definition of the
    convolution, so these relations make the arrows of an orbit of k units a
    full system of k x k matrix units.
    """
    members = orbit.members
    e: dict[tuple[str, str], str] = {}
    for y, x in product(members, repeat=2):
        arrows = gpd.transporter(y, x)
        if not arrows:
            raise RuntimeError(
                f"the orbit of {orbit.representative!r} has no arrow for "
                f"(range, source) = {(y, x)!r}"
            )
        if len(arrows) > 1:
            raise RuntimeError(
                f"arrows {arrows[0]!r} and {arrows[1]!r} both run from {x!r} to {y!r}"
            )
        e[y, x] = arrows[0]
    # into[y] = (e_yz for z in members); for each x, the row of e_yx read at
    # the e_xz must be into[y], which one getter per x reads off in one call.
    into = [tuple(e[y, z] for z in members) for y in members]
    try:
        if all(
            times_x(gpd.rows[into_y[i]]) == into_y
            for i, times_x in enumerate(map(row_getter, into))
            for into_y in into
        ):
            return
    except KeyError:  # some e_yx * e_xz is undefined; the loop below names it
        pass
    for x, z, y in product(members, repeat=3):
        e_yx, e_xz = e[y, x], e[x, z]
        if gpd.rows[e_yx].get(e_xz) != e[y, z]:
            raise RuntimeError(
                f"matrix units fail at ({y!r}, {x!r}, {z!r}): "
                f"{e_yx!r} * {e_xz!r} is not {e[y, z]!r}"
            )


def socle(algebra: SteinbergAlgebra) -> SocleReport:
    """The socle, refused with an explanation unless condition (LP) holds.

    Under (LP) every orbit of k units spans a block M_k(K), so the socle is
    the whole algebra.  The matrix units of each block are certified from the
    composition table, the block dimensions must add up to |G|, and the basis
    is the standard one in element order.
    """
    report = check_condition_LP(algebra.groupoid)
    if not report.holds:
        raise LPViolationError(report)
    gpd, one = algebra.groupoid, algebra.field.one
    components = []
    for orbit in gpd.orbit_classes():
        _certify_matrix_units(gpd, orbit)
        k = len(orbit)
        components.append(SocleComponent(orbit=orbit, dimension=k * k, matrix_size=k))
    if sum(c.dimension for c in components) != algebra.dim:
        raise RuntimeError("the matrix blocks do not exhaust the algebra")
    return SocleReport(
        algebra=algebra,
        lp_holds=True,
        generating_units=tuple(c.orbit.representative for c in components),
        components=tuple(components),
        # The elements come from the groupoid itself: no membership check.
        socle_basis=tuple(AlgebraElement(algebra, {g: one}) for g in gpd.elements),
        socle_dimension=algebra.dim,
    )


# -- corner transfer --------------------------------------------------------------


def corner_minimality_transfer(
    e: AlgebraElement,
    a: AlgebraElement,
    certificate: MinimalIdealCertificate | None = None,
) -> MinimalityReport:
    """Check that e A a is minimal as a left ideal of the corner e A e.

    Preconditions, each checked: e is an idempotent, a = e a e, and A a is a
    minimal left ideal, as decided by is_minimal_left_ideal (which needs the
    certificate over the rationals when A a has a nontrivial isotropy corner
    of dimension > 1).  They settle the answer.  Let J != 0 be a left ideal
    of e A e inside e A a.  Then A J is a nonzero left ideal inside A a, so
    A J = A a by minimality, and since J = e J,
    e A a = e A J = (e A e) J, which lies in J.  So J = e A a.  The
    dimension is the rank of e b over a basis b of A a, which spans e A a.
    """
    algebra = e.algebra
    if e * e != e:
        raise ValueError("e is not idempotent")
    if e * a * e != a:
        raise ValueError("a does not lie in the corner e A e")
    ambient = left_ideal(algebra, [a])
    if not is_minimal_left_ideal(ambient, certificate).minimal:
        raise ValueError("A a is not a minimal left ideal")
    corner = EchelonBasis(algebra.field, algebra.dim)
    corner.extend((e * b).to_vector() for b in ambient.basis)
    return MinimalityReport(minimal=True, method="corner of a minimal ideal", dimension=corner.dim)
