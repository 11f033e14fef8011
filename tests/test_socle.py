import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg.algebra import SteinbergAlgebra, element_to_obj
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    disjoint_union,
    one_object_groupoid,
    pair_groupoid,
    quaternion_group,
    random_groupoid,
    symmetric_group_3,
    transitive_groupoid,
    trivial_groupoid,
)
from steinberg.fields import PrimeField, Rationals, field_from_designator
from steinberg.groupoid import FiniteGroupoid
from steinberg.limits import SizeCapExceeded
from steinberg.linalg import EchelonBasis
from steinberg.oracle import oracle_minimal_ideals
from steinberg.socle import (
    ABSOLUTE_ZERO_DIVISOR,
    DIVISION_IDEMPOTENT,
    LeftIdeal,
    LPViolationError,
    SocleComponent,
    SocleReport,
    certificate_ideal,
    check_condition_LP,
    corner_minimality_transfer,
    homogeneous_component,
    is_minimal_left_ideal,
    left_ideal,
    minimal_ideal_generator,
    socle,
    two_sided_ideal,
)

from references import (
    dense_ideal_rows,
    exhaustive_corner_transfer,
    exhaustive_minimality,
    generated_dimension,
    intersection_is_zero,
    rref,
)
from test_groupoid import renamed

Q = Rationals()
FIELDS = (Q, PrimeField(2), PrimeField(3))


def test_left_ideal_of_unit_indicator_has_arrow_count_dimension():
    rng = random.Random(13)
    for _ in range(20):
        g = random_groupoid(rng, 12, principal=True)
        algebra = SteinbergAlgebra(g, Q)
        for x in g.units():
            ideal = left_ideal(algebra, [algebra.basis_element(x)])
            arrows_into_x = sum(1 for e in g.elements if g.s(e) == x)
            assert ideal.dimension == arrows_into_x
            assert ideal.dimension == len(g.orbit_of(x))


def test_left_ideal_is_closed_under_left_multiplication():
    g = transitive_groupoid(["p", "q"], cyclic_group(2))
    algebra = SteinbergAlgebra(g, PrimeField(3))
    f = algebra.element({"p": 1, "q|g": 2})
    ideal = left_ideal(algebra, [f])
    for gamma in g.elements:
        for b in ideal.basis:
            assert ideal.contains(algebra.basis_element(gamma) * b)
    assert ideal.contains(f)


def test_left_ideal_rejects_empty_and_zero():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), Q)
    with pytest.raises(ValueError):
        left_ideal(algebra, [])
    with pytest.raises(ValueError):
        left_ideal(algebra, [algebra.zero()])


def test_two_sided_ideal_of_component():
    g = disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z"))
    algebra = SteinbergAlgebra(g, Q)
    whole_component = two_sided_ideal(algebra, [algebra.basis_element("a")])
    assert whole_component.dimension == 4
    point = two_sided_ideal(algebra, [algebra.basis_element("z")])
    assert point.dimension == 1
    # right closure distinguishes it from the left ideal, which is smaller
    assert left_ideal(algebra, [algebra.basis_element("a")]).dimension == 2


def _random_generators(rng, algebra, count):
    field = algebra.field
    generators = []
    while len(generators) < count:
        coeffs = {g: rng.randint(-3, 3) for g in algebra.groupoid.elements if rng.random() < 0.4}
        f = algebra.element({g: field.from_integer(c) for g, c in coeffs.items()})
        if not f.is_zero():
            generators.append(f)
    return generators


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    principal=st.booleans(),
    designator=st.sampled_from(["q", "f2", "f3"]),
    count=st.integers(1, 3),
)
def test_generated_ideals_are_spans_of_products(seed, size, principal, designator, count):
    # Local units make A f the span of the products 1_g * f and A f A that of
    # 1_g * f * 1_h; the products here go through the convolution, not the
    # action tables the engine uses.
    rng = random.Random(seed)
    algebra = SteinbergAlgebra(
        random_groupoid(rng, size, principal=principal), field_from_designator(designator)
    )
    field, n = algebra.field, algebra.dim
    units = [algebra.basis_element(g) for g in algebra.groupoid.elements]
    generators = _random_generators(rng, algebra, count)

    left = left_ideal(algebra, generators)
    assert all(left.contains(f) for f in generators)
    assert all(left.contains(u * b) for u in units for b in left.basis)
    products = [(u * f).to_vector() for f in generators for u in units]
    assert left.rows == rref(field, products, n).canonical()

    both = two_sided_ideal(algebra, generators)
    assert all(both.contains(f) for f in generators)
    assert all(both.contains(u * b) and both.contains(b * u) for u in units for b in both.basis)
    products = [(u * f * w).to_vector() for f in generators for u in units for w in units]
    assert both.rows == rref(field, products, n).canonical()


def _reference_generators(rng, algebra):
    """Each unit indicator, the certificate generator at each unit, the
    indicator of one random arrow, and one element with a random nonzero
    coefficient on every arrow."""
    gpd, field = algebra.groupoid, algebra.field
    units = gpd.units()
    dense = algebra.element(
        {h: field.from_integer(rng.randrange(1, field.p if field.characteristic else 7))
         for h in gpd.elements}
    )
    return (
        [algebra.basis_element(x) for x in units]
        + [minimal_ideal_generator(algebra, x).generator for x in units]
        + [algebra.basis_element(rng.choice(gpd.elements)), dense]
    )


def _assert_ideals_match_the_dense_reference(g, field, rng):
    algebra = SteinbergAlgebra(g, field)
    for f in _reference_generators(rng, algebra):
        assert left_ideal(algebra, [f]).rows == dense_ideal_rows(algebra, [f], False), f
        assert two_sided_ideal(algebra, [f]).rows == dense_ideal_rows(algebra, [f], True), f


def test_ideals_match_the_dense_reference_on_small_groupoids():
    rng = random.Random(24)
    for g in all_groupoids_up_to(6):
        for field in FIELDS:
            _assert_ideals_match_the_dense_reference(g, field, rng)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
    max_isotropy=st.integers(1, 4),
    field=st.sampled_from(FIELDS),
)
def test_ideals_match_the_dense_reference_on_random_groupoids(seed, size, max_isotropy, field):
    rng = random.Random(seed)
    g = renamed(random_groupoid(rng, size, max_isotropy=max_isotropy), rng)
    _assert_ideals_match_the_dense_reference(g, field, rng)


def _dense_element(algebra, seed):
    # Random coefficients in 1..6 on every arrow.
    rng = random.Random(seed)
    return algebra.element({h: rng.randint(1, 6) for h in algebra.groupoid.elements})


def test_dense_left_ideal_on_pair22_answers_promptly(time_limit):
    # One unit at a time, in width 22, each stopping once full; the dense
    # elimination over all 484 columns took ~24 s.
    algebra = SteinbergAlgebra(pair_groupoid([f"p{i}" for i in range(22)]), Q)
    f = _dense_element(algebra, 0)
    with time_limit(10):
        ideal = left_ideal(algebra, [f])
    assert ideal.dimension == 484


def test_dense_two_sided_ideal_on_eight_points_by_z8_answers_promptly(time_limit):
    # The dense elimination over all 512 columns took ~44 s.
    g = transitive_groupoid([f"u{i}" for i in range(8)], cyclic_group(8))
    algebra = SteinbergAlgebra(g, PrimeField(2))
    f = _dense_element(algebra, 0)
    with time_limit(6):
        ideal = two_sided_ideal(algebra, [f])
    assert ideal.dimension == 512


def test_two_sided_ideal_of_a_large_isotropy_sum_answers_promptly(time_limit):
    # n = 392: closing under both sides row by row takes ~25 s over q, while
    # two passes of translates (right, then left) take ~1.5 s.
    g = transitive_groupoid([f"u{i}" for i in range(7)], cyclic_group(8))
    algebra = SteinbergAlgebra(g, Q)
    t = algebra.element({h: 1 for h in g.isotropy("u0").members})
    with time_limit(6):
        ideal = two_sided_ideal(algebra, [t])
    assert ideal.dimension == 49
    assert ideal.contains(t)


def test_certificate_division_flavour():
    g = one_object_groupoid(cyclic_group(3))
    for field in (Q, PrimeField(2), PrimeField(5)):
        algebra = SteinbergAlgebra(g, field)
        cert = minimal_ideal_generator(algebra, "e")
        assert cert.flavour == DIVISION_IDEMPOTENT
        assert cert.isotropy_order == 3
        e = cert.generator
        assert e * e == e
        assert not e.is_zero()


def test_certificate_zero_divisor_flavour():
    for n, p in ((2, 2), (3, 3), (4, 2), (6, 3)):
        g = one_object_groupoid(cyclic_group(n))
        algebra = SteinbergAlgebra(g, PrimeField(p))
        cert = minimal_ideal_generator(algebra, "e")
        assert cert.flavour == ABSOLUTE_ZERO_DIVISOR
        t = cert.generator
        assert (t * t).is_zero()
        # absolute zero divisor: t A t = 0
        for gamma in g.elements:
            assert (t * algebra.basis_element(gamma) * t).is_zero()


def test_certificate_json_shape():
    g = one_object_groupoid(cyclic_group(2))
    cert = minimal_ideal_generator(SteinbergAlgebra(g, PrimeField(2)), "e")
    obj = cert.to_json_obj()
    assert obj["schema"] == 1
    assert obj["unit"] == "e"
    assert obj["isotropy_order"] == 2
    assert obj["flavour"] == "absolute_zero_divisor"
    assert obj["generator"] == [["1 mod 2", "e"], ["1 mod 2", "g"]]


def test_certificate_requires_unit():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), Q)
    with pytest.raises(ValueError):
        minimal_ideal_generator(algebra, "a<b")


def test_certificate_checks_the_isotropy_table():
    # g * g = g breaks t * t = 2 t, which both flavours rest on
    g = one_object_groupoid(cyclic_group(2))
    assert g.compose[("g", "g")] == "e"
    compose = {**g.compose, ("g", "g"): "g"}
    corrupted = FiniteGroupoid(g.elements, g.source_of, g.range_of, g.inverse_of, compose)
    for field in (Q, PrimeField(2)):
        with pytest.raises(RuntimeError, match="isotropy group at unit 'e'"):
            minimal_ideal_generator(SteinbergAlgebra(corrupted, field), "e")


def _assert_certificate_ideal_is_the_transporter_indicators(g, field):
    # A t is spanned by the 1_g * t over the arrows g from x, and 1_g * t is
    # the indicator of the coset g xGx, the transporter set r(g)Gx.  These
    # sets are disjoint, so their indicators are the reduced echelon rows.
    algebra = SteinbergAlgebra(g, field)
    for x in g.units():
        t = minimal_ideal_generator(algebra, x).generator
        sets = sorted(
            (g.transporter(y, x) for y in g.orbit_of(x).members),
            key=lambda arrows: g.index[arrows[0]],
        )
        expected = tuple(
            tuple(field.one if e in arrows else field.zero for e in g.elements)
            for arrows in sets
        )
        assert left_ideal(algebra, [t]).rows == expected, (x, field)
        ideal = certificate_ideal(minimal_ideal_generator(algebra, x))
        assert (ideal.rows, ideal.generators, ideal.two_sided) == (expected, (t,), False)


def test_certificate_ideal_is_the_transporter_indicators():
    for g in all_groupoids_up_to(6) + [transitive_groupoid(["p", "q", "r"], symmetric_group_3())]:
        for field in FIELDS:
            _assert_certificate_ideal_is_the_transporter_indicators(g, field)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    max_isotropy=st.integers(1, 4),
    field=st.sampled_from(FIELDS),
)
def test_certificate_ideal_is_the_transporter_indicators_on_random_groupoids(
    seed, size, max_isotropy, field
):
    rng = random.Random(seed)
    g = renamed(random_groupoid(rng, size, max_isotropy=max_isotropy), rng)
    _assert_certificate_ideal_is_the_transporter_indicators(g, field)


def _rows_lie_at_their_pivot_unit(ideal):
    gpd = ideal.algebra.groupoid
    for b in ideal.basis:
        support = b.support()
        assert {gpd.r(g) for g in support} == {gpd.r(support[0])}


def test_minimality_reads_the_corner_off_the_canonical_rows():
    # each canonical row of a left ideal lies in 1_y I for y its pivot's
    # range, so the corner rows the decision reads are the basis of 1_x I
    rng = random.Random(16)
    checked = 0
    for g in all_groupoids_up_to(6):
        for designator in ("f2", "f3"):
            algebra = SteinbergAlgebra(g, field_from_designator(designator))
            field = algebra.field
            for ideal in oracle_minimal_ideals(algebra):
                _rows_lie_at_their_pivot_unit(ideal)
            for x in g.units():
                cert = minimal_ideal_generator(algebra, x)
                noise = {h: field.from_integer(rng.randrange(field.p)) for h in g.elements}
                noisy = algebra.basis_element(x) + algebra.element(noise)
                for f in (algebra.basis_element(x), cert.generator, noisy):
                    if f.is_zero():  # the noise was -1_x
                        continue
                    ideal = left_ideal(algebra, [f])
                    _rows_lie_at_their_pivot_unit(ideal)
                    reference = exhaustive_minimality(ideal)
                    certificates = [None, cert] if ideal.contains(cert.generator) else [None]
                    for c in certificates:
                        report = is_minimal_left_ideal(ideal, c)
                        assert (report.minimal, report.dimension) == (
                            reference.minimal,
                            reference.dimension,
                        )
                        checked += 1
    # 98 units over two fields, three ideals each, most with a certificate
    assert checked > 98 * 2 * 3


def test_minimality_exhaustive_over_prime_field():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, PrimeField(2))
    ideal = left_ideal(algebra, [algebra.basis_element("a")])
    report = is_minimal_left_ideal(ideal)
    assert report.minimal
    assert report.method == "corner rank"
    assert report.dimension == 2
    assert exhaustive_minimality(ideal).minimal

    # trivial isotropy: the first row of 1_a A, 1_a itself, is the witness
    full = left_ideal(algebra, [algebra.indicator(g.units())])
    report = is_minimal_left_ideal(full)
    assert not report.minimal
    assert report.method == "corner rank"
    assert report.dimension == 4
    assert element_to_obj(report.witness) == [["1 mod 2", "a"]]
    assert full.contains(report.witness)
    assert 0 < generated_dimension(report.witness) == 2 < full.dimension
    assert not exhaustive_minimality(full).minimal


def test_minimality_certified_construction_finds_a_smaller_ideal():
    g = pair_groupoid(["a", "b", "c"])
    algebra = SteinbergAlgebra(g, Q)
    cert = minimal_ideal_generator(algebra, "a")
    full = left_ideal(algebra, [algebra.indicator(g.units())])
    report = is_minimal_left_ideal(full, cert)
    assert not report.minimal
    assert report.method == "certified construction"
    assert report.dimension == 9
    assert element_to_obj(report.witness) == [["1/1", "a"]]
    assert generated_dimension(report.witness) == 3


def test_minimality_certificate_route_over_rationals():
    g = pair_groupoid(["a", "b", "c"])
    algebra = SteinbergAlgebra(g, Q)
    cert = minimal_ideal_generator(algebra, "a")
    ideal = left_ideal(algebra, [cert.generator])
    assert ideal.dimension == 3
    report = is_minimal_left_ideal(ideal, cert)
    assert report.minimal
    assert report.method == "corner rank"
    assert report.dimension == 3
    assert report.witness is None


def test_minimality_char0_requires_certificate():
    # Z2 isotropy and dim 1_a A = 4 > 1: over q nothing decides without a
    # certificate, while trivial isotropy decides by rank alone
    algebra = SteinbergAlgebra(transitive_groupoid(["a", "b"], cyclic_group(2)), Q)
    full = left_ideal(algebra, [algebra.indicator(algebra.groupoid.units())])
    with pytest.raises(ValueError, match="certificate"):
        is_minimal_left_ideal(full)
    cert = minimal_ideal_generator(algebra, "a")
    report = is_minimal_left_ideal(full, cert)
    assert not report.minimal
    assert report.method == "certified construction"
    assert report.witness == cert.generator
    assert 0 < generated_dimension(report.witness) == 2 < full.dimension == 8

    principal = SteinbergAlgebra(pair_groupoid(["a", "b"]), Q)
    ideal = left_ideal(principal, [principal.basis_element("a")])
    assert is_minimal_left_ideal(ideal).method == "corner rank"


def test_minimality_rejects_foreign_certificate():
    algebra = SteinbergAlgebra(
        disjoint_union(trivial_groupoid("x"), trivial_groupoid("y")), Q
    )
    cert = minimal_ideal_generator(algebra, "x")
    other = left_ideal(algebra, [algebra.basis_element("y")])
    with pytest.raises(ValueError):
        is_minimal_left_ideal(other, cert)


@pytest.mark.parametrize(
    "field, group",
    [(Q, cyclic_group(3)), (PrimeField(2), cyclic_group(3)), (PrimeField(3), cyclic_group(4))],
    ids=["q", "f2", "z4"],
)
def test_minimality_rejects_a_certificate_from_another_algebra(field, group):
    # The membership test reads coefficients only: over GF(3) the rational
    # certificate's 1/3 would pass, and print as '1/3 mod 3'.
    cert = minimal_ideal_generator(SteinbergAlgebra(one_object_groupoid(group), field), "e")
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(3)), PrimeField(3))
    e = algebra.basis_element("e")
    with pytest.raises(ValueError, match="different"):
        is_minimal_left_ideal(left_ideal(algebra, [e]), cert)
    with pytest.raises(ValueError, match="different"):
        corner_minimality_transfer(e, e, cert)


def test_minimality_splits_orbit_blocks():
    g = disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z"))
    algebra = SteinbergAlgebra(g, Q)
    ideal = left_ideal(algebra, [algebra.element({"a": 1, "b<a": 2, "z": 3})])
    assert ideal.dimension == 3
    report = is_minimal_left_ideal(ideal)
    assert not report.minimal
    assert report.method == "orbit blocks"
    # 1_a + 1_b, the indicator of the first block, times the first basis row
    assert element_to_obj(report.witness) == [["1/1", "a"]]
    assert generated_dimension(report.witness) == 2


def test_minimality_checks_the_corner_dimension():
    # a subspace that is not a left ideal: dim 1_a I = 1 but the orbit has 2 units
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(2))
    a = algebra.basis_element("a")
    not_an_ideal = LeftIdeal(algebra, generators=(a,), rows=(tuple(a.to_vector()),))
    with pytest.raises(RuntimeError, match="orbit size 2"):
        is_minimal_left_ideal(not_an_ideal)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    max_isotropy=st.integers(1, 6),
    designator=st.sampled_from(["q", "f2", "f3"]),
    count=st.integers(1, 2),
    certified=st.booleans(),
)
def test_corner_minimality_matches_the_exhaustive_route(
    seed, size, max_isotropy, designator, count, certified
):
    rng = random.Random(seed)
    g = random_groupoid(rng, size, principal=False, max_isotropy=max_isotropy)
    algebra = SteinbergAlgebra(g, field_from_designator(designator))
    generators = _random_generators(rng, algebra, count)
    cert = None
    if certified:
        cert = minimal_ideal_generator(algebra, rng.choice(g.units()))
        generators[0] = cert.generator
    ideal = left_ideal(algebra, generators)
    # the library needs no lower cap: an orbit of k units with isotropy of
    # order m has k^2 m <= 12 arrows, so when the corner route enumerates
    # (2 <= m <= 6) the corner 1_x I has dimension at most k m <= 6, at most
    # 3^6 vectors; the reference walks the whole ideal and has its own cap
    cap = 3**7
    try:
        report = is_minimal_left_ideal(ideal, cert)
    except ValueError:
        # only an isotropy corner over q without a certificate is undecided
        assert designator == "q" and cert is None and not check_condition_LP(g).holds
        return
    assert report.dimension == ideal.dimension
    if report.minimal:
        assert report.witness is None
    else:
        assert ideal.contains(report.witness)
        assert 0 < generated_dimension(report.witness) < ideal.dimension
    if designator != "q" and algebra.field.p ** ideal.dimension <= cap:
        reference = exhaustive_minimality(ideal, cap)
        assert (report.minimal, report.dimension) == (reference.minimal, reference.dimension)


def test_ideal_membership_reuses_one_echelon_basis(time_limit):
    # 4096 membership tests against a 64-dimensional ideal over q took ~56 s
    # when each call rebuilt the echelon basis
    rng = random.Random(5)
    g = transitive_groupoid([f"u{i}" for i in range(4)], cyclic_group(4))
    algebra = SteinbergAlgebra(g, Q)
    ideal = two_sided_ideal(algebra, _random_generators(rng, algebra, 1))
    assert ideal.dimension == 64
    units = [algebra.basis_element(h) for h in g.elements]
    with time_limit(5):
        assert all(ideal.contains(u * b) for u in units for b in ideal.basis)


@pytest.mark.parametrize("field", [Q, PrimeField(3)], ids=["q", "f3"])
def test_ideal_membership_inserts_no_rows(field, monkeypatch):
    # the canonical basis is already reduced echelon; re-inserting its rows
    # made the first contains on a 256-dimensional ideal of pair(16) over q
    # take ~0.3 s
    rng = random.Random(11)
    g = transitive_groupoid([f"u{i}" for i in range(3)], cyclic_group(2))
    algebra = SteinbergAlgebra(g, field)
    # A f = A (1_u0 - 1_u0|g): its canonical rows carry 1 and -1, and it
    # holds no single arrow
    r = algebra.element({e: rng.randint(1, 4) for e in g.elements if g.s(e) == "u0"})
    f = r * (algebra.basis_element("u0") - algebra.basis_element("u0|g"))
    ideal = left_ideal(algebra, [f])
    assert ideal.dimension == 3
    outside = [e for e in g.elements if g.s(e) in ("u0", "u1")]
    inserts = []
    original = EchelonBasis.insert
    monkeypatch.setattr(
        EchelonBasis, "insert", lambda self, vec: inserts.append(vec) or original(self, vec)
    )
    for h in g.elements:
        product = algebra.basis_element(h) * f
        assert ideal.contains(product)
        for e in outside:
            assert not ideal.contains(product + algebra.basis_element(e))
    assert inserts == []


def test_minimality_dimension_cap_over_rationals(time_limit):
    # pair(13) over q lies past the former 12-dimension cap for char 0, which
    # raised SizeCapExceeded; dim 1_p0 I = 1 now decides it without enumeration,
    # with or without a certificate
    algebra = SteinbergAlgebra(pair_groupoid([f"p{i}" for i in range(13)]), Q)
    cert = minimal_ideal_generator(algebra, "p0")
    ideal = left_ideal(algebra, [cert.generator])
    assert ideal.dimension == 13
    for certificate in (cert, None):
        with time_limit(2):
            report = is_minimal_left_ideal(ideal, certificate)
        assert report.minimal
        assert report.method == "corner rank"
        assert report.dimension == 13


def test_minimality_shadow_prime_scan_stops_at_the_cap(time_limit):
    # |G| = 144 for pair(12): the former scan for a coprime shadow prime ran
    # until the enumeration cap refused it; the corner decision needs no
    # shadow prime, so pair(12) and pair(22) over q answer promptly
    for k in (12, 22):
        algebra = SteinbergAlgebra(pair_groupoid([f"p{i}" for i in range(k)]), Q)
        cert = minimal_ideal_generator(algebra, "p0")
        ideal = left_ideal(algebra, [cert.generator])
        with time_limit(2):
            report = is_minimal_left_ideal(ideal, cert)
        assert report.minimal
        assert report.method == "corner rank"
        assert report.dimension == k


def test_minimality_over_prime_field_answers_without_enumeration(time_limit):
    # 2^12 vectors spun by 144 translates each took ~26 s
    algebra = SteinbergAlgebra(pair_groupoid([f"p{i}" for i in range(12)]), PrimeField(2))
    ideal = left_ideal(algebra, [minimal_ideal_generator(algebra, "p0").generator])
    with time_limit(0.5):
        report = is_minimal_left_ideal(ideal)
    assert report.minimal
    assert report.method == "corner rank"
    assert report.dimension == 12


def test_minimality_enumerates_only_the_isotropy_corner(time_limit):
    # GF(2)[Z3] = GF(2) + GF(4): the augmentation ideal at u0 is the simple
    # GF(4), so 1_u0 I is 2-dimensional and simple; the cap applies to the
    # 2^(dim I / k) = 4 corner vectors, not to the 2^(dim I) of the ideal
    g = transitive_groupoid(["u0", "u1"], cyclic_group(3))
    algebra = SteinbergAlgebra(g, PrimeField(2))
    ideal = left_ideal(algebra, [algebra.element({"u0": 1, "u0|g": 1})])
    assert ideal.dimension == 4
    report = is_minimal_left_ideal(ideal)
    assert report.minimal
    assert report.method == "corner exhaustive over GF(2)"
    assert exhaustive_minimality(ideal).minimal

    # on 11 points the whole ideal has 2^22 vectors, over the cap; the
    # corner still has 2^2
    g = transitive_groupoid([f"u{i}" for i in range(11)], cyclic_group(3))
    algebra = SteinbergAlgebra(g, PrimeField(2))
    ideal = left_ideal(algebra, [algebra.element({"u0": 1, "u0|g": 1})])
    assert ideal.dimension == 22
    with time_limit(2):
        report = is_minimal_left_ideal(ideal)
    assert report.minimal
    assert report.method == "corner exhaustive over GF(2)"
    with pytest.raises(SizeCapExceeded, match="2\\^22"):
        exhaustive_minimality(ideal)


def test_minimality_enumeration_cap_over_prime_field(time_limit):
    # Q8 isotropy without a certificate would enumerate 1_u0 I: 3^16 vectors
    # are over the cap, and the refusal comes before any spin
    g = transitive_groupoid(["u0", "u1"], quaternion_group())
    algebra = SteinbergAlgebra(g, PrimeField(3))
    ideal = left_ideal(algebra, [algebra.indicator(g.units())])
    assert ideal.dimension == 32
    with time_limit(1), pytest.raises(SizeCapExceeded, match="3\\^16"):
        is_minimal_left_ideal(ideal)

    # Z4 isotropy without a certificate still enumerates 1_u0 I: 3^12 vectors
    g = transitive_groupoid(["u0", "u1", "u2"], cyclic_group(4))
    algebra = SteinbergAlgebra(g, PrimeField(3))
    ideal = left_ideal(algebra, [algebra.indicator(g.units())])
    assert ideal.dimension == 36
    report = is_minimal_left_ideal(ideal)
    assert not report.minimal
    assert report.method == "corner exhaustive over GF(3)"
    assert 0 < generated_dimension(report.witness) < ideal.dimension


def test_modular_ideal_squares_to_zero():
    # the ideal generated by the isotropy sum satisfies I * I = 0 when char | n
    g = one_object_groupoid(cyclic_group(2))
    algebra = SteinbergAlgebra(g, PrimeField(2))
    cert = minimal_ideal_generator(algebra, "e")
    ideal = left_ideal(algebra, [cert.generator])
    assert ideal.dimension == 1
    for u in ideal.basis:
        for v in ideal.basis:
            assert (u * v).is_zero()
    assert is_minimal_left_ideal(ideal).minimal


def test_division_corner_in_coprime_characteristic():
    # e A e = K e for the scaled idempotent when char does not divide n
    g = one_object_groupoid(cyclic_group(2))
    algebra = SteinbergAlgebra(g, PrimeField(3))
    cert = minimal_ideal_generator(algebra, "e")
    e = cert.generator
    assert e * e == e
    corner_span = left_ideal(algebra, [e])
    for gamma in g.elements:
        compressed = e * algebra.basis_element(gamma) * e
        if not compressed.is_zero():
            assert corner_span.contains(compressed)
    assert corner_span.dimension == 1


def test_condition_lp():
    assert check_condition_LP(pair_groupoid(["a", "b"])).holds
    report = check_condition_LP(one_object_groupoid(cyclic_group(2)))
    assert not report.holds
    assert report.violators == ("e",)
    assert "isotropy" in report.explanation

    mixed = disjoint_union(
        pair_groupoid(["a", "b"]), one_object_groupoid(cyclic_group(3))
    )
    report = check_condition_LP(mixed)
    assert not report.holds
    assert report.violators == ("e",)


def test_socle_refuses_without_lp():
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(2)), Q)
    with pytest.raises(LPViolationError) as exc_info:
        socle(algebra)
    assert exc_info.value.report.violators == ("e",)


def test_socle_of_pair_groupoid():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b", "c"]), Q)
    report = socle(algebra)
    assert report.lp_holds
    assert report.socle_dimension == 9
    assert report.generating_units == ("a",)
    assert len(report.components) == 1
    component = report.components[0]
    assert component.matrix_size == 3
    assert component.dimension == 9
    obj = report.to_json_obj()
    assert obj["schema"] == 1
    assert obj["field"] == "q"
    assert obj["components"][0]["orbit"] == ["a", "b", "c"]


def test_socle_of_disjoint_union():
    g = disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z"))
    algebra = SteinbergAlgebra(g, PrimeField(5))
    report = socle(algebra)
    assert [c.matrix_size for c in report.components] == [2, 1]
    assert [c.dimension for c in report.components] == [4, 1]
    assert report.socle_dimension == 5


def test_socle_exhausts_principal_algebras():
    # for principal finite groupoids the socle is the whole algebra
    rng = random.Random(3)
    for _ in range(15):
        g = random_groupoid(rng, 12, principal=True)
        algebra = SteinbergAlgebra(g, Q)
        report = socle(algebra)
        assert report.socle_dimension == algebra.dim
        assert sum(c.matrix_size**2 for c in report.components) == algebra.dim


def closure_socle(algebra: SteinbergAlgebra) -> SocleReport:
    """The socle assembled from homogeneous components by linear algebra: the
    reference for the closed form."""
    components = []
    basis = EchelonBasis(algebra.field, algebra.dim)
    for orbit in algebra.groupoid.orbit_classes():
        decomposition = homogeneous_component(algebra, orbit.representative)
        components.append(
            SocleComponent(
                orbit=orbit,
                dimension=decomposition.ideal.dimension,
                matrix_size=len(orbit),
            )
        )
        basis.extend(decomposition.ideal.rows)
    return SocleReport(
        algebra=algebra,
        lp_holds=True,
        generating_units=tuple(c.orbit.representative for c in components),
        components=tuple(components),
        socle_basis=tuple(algebra.from_vector(row) for row in basis.rows),
        socle_dimension=basis.dim,
    )


def _closed_form_cases():
    cases = [pair_groupoid([f"p{i}" for i in range(k)]) for k in range(2, 6)]
    cases.append(disjoint_union(pair_groupoid(["a", "b"]), pair_groupoid(["c", "d", "e"])))
    cases.append(
        disjoint_union(
            pair_groupoid(["a", "b", "c"]), pair_groupoid(["d", "e"]), pair_groupoid(["f", "g", "h"])
        )
    )
    rng = random.Random(11)
    cases.extend(random_groupoid(rng, 14, principal=True) for _ in range(6))
    return cases


@pytest.mark.parametrize("designator", ["q", "f2", "f3"])
def test_socle_closed_form_matches_closure(designator):
    for g in _closed_form_cases():
        algebra = SteinbergAlgebra(g, field_from_designator(designator))
        assert socle(algebra).to_json_obj() == closure_socle(algebra).to_json_obj()


def test_socle_checks_matrix_units_against_the_table():
    g = pair_groupoid(["a", "b", "c"])
    assert g.compose[("a<b", "b<c")] == "a<c"
    compose = {**g.compose, ("a<b", "b<c"): "a<b"}
    corrupted = FiniteGroupoid(g.elements, g.source_of, g.range_of, g.inverse_of, compose)
    algebra = SteinbergAlgebra(corrupted, Q)
    with pytest.raises(RuntimeError, match="matrix units fail") as exc_info:
        socle(algebra)
    assert not isinstance(exc_info.value, LPViolationError)


def test_socle_rejects_two_arrows_between_the_same_units():
    g = pair_groupoid(["a", "b"])
    twin = FiniteGroupoid(
        g.elements + ("a<b'",),
        {**g.source_of, "a<b'": "b"},
        {**g.range_of, "a<b'": "a"},
        {**g.inverse_of, "a<b'": "b<a"},
        g.compose,
    )
    assert check_condition_LP(twin).holds
    with pytest.raises(RuntimeError, match="both run from"):
        socle(SteinbergAlgebra(twin, Q))


def test_socle_rejects_an_orbit_with_a_missing_arrow():
    # a star: arrows a <-> b and a <-> c, but none between b and c, so a, b
    # and c form one orbit whose transporter set from c to b is empty
    g = pair_groupoid(["a", "b", "c"])
    gone = {"b<c", "c<b"}
    kept = [e for e in g.elements if e not in gone]
    star = FiniteGroupoid(
        kept,
        *({e: m[e] for e in kept} for m in (g.source_of, g.range_of, g.inverse_of)),
        {ab: c for ab, c in g.compose.items() if gone.isdisjoint((*ab, c))},
    )
    assert check_condition_LP(star).holds
    assert [c.members for c in star.orbit_classes()] == [("a", "b", "c")]
    with pytest.raises(RuntimeError, match="has no arrow") as exc_info:
        socle(SteinbergAlgebra(star, Q))
    assert not isinstance(exc_info.value, LPViolationError)


def test_homogeneous_component_direct_sum():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b", "c"]), Q)
    decomposition = homogeneous_component(algebra, "a")
    assert decomposition.ideal.dimension == 9
    assert len(decomposition.summands) == 3
    assert all(s.dimension == 3 for s in decomposition.summands)
    for i, u in enumerate(decomposition.summands):
        for v in decomposition.summands[i + 1 :]:
            assert intersection_is_zero(
                algebra.field,
                rref(algebra.field, u.rows, algebra.dim),
                rref(algebra.field, v.rows, algebra.dim),
            )


def test_homogeneous_component_rejects_nontrivial_isotropy():
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(2)), Q)
    with pytest.raises(ValueError):
        homogeneous_component(algebra, "e")


def test_corner_transfer_prime_field():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, PrimeField(2))
    e = algebra.basis_element("a")
    a = algebra.basis_element("a")
    report = corner_minimality_transfer(e, a)
    assert report.minimal
    assert report.method == "corner of a minimal ideal"
    assert report.dimension == 1


def test_corner_transfer_rationals():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, Q)
    cert = minimal_ideal_generator(algebra, "a")
    e = algebra.basis_element("a")
    report = corner_minimality_transfer(e, cert.generator, cert)
    assert report.minimal
    assert report.method == "corner of a minimal ideal"
    assert report.dimension == 1


def test_corner_transfer_rejects_bad_inputs():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, PrimeField(3))
    e = algebra.basis_element("a")
    with pytest.raises(ValueError):
        corner_minimality_transfer(e + e, e)  # not idempotent
    with pytest.raises(ValueError):
        corner_minimality_transfer(e, algebra.basis_element("b"))  # outside the corner


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 16),
    max_isotropy=st.integers(1, 6),
    designator=st.sampled_from(["f2", "f3"]),
    idempotent=st.booleans(),
)
def test_corner_transfer_matches_the_exhaustive_route(
    seed, size, max_isotropy, designator, idempotent
):
    # e is the certificate idempotent, or 1_U for a set U of units holding x
    rng = random.Random(seed)
    g = random_groupoid(rng, size, principal=False, max_isotropy=max_isotropy)
    algebra = SteinbergAlgebra(g, field_from_designator(designator))
    x = rng.choice(g.units())
    cert = minimal_ideal_generator(algebra, x)
    a = cert.generator
    if idempotent and cert.flavour == DIVISION_IDEMPOTENT:
        e = a
    else:
        units = [x] + [u for u in g.units() if u != x and rng.random() < 0.5]
        e = algebra.element({u: algebra.field.one for u in units})
    report = corner_minimality_transfer(e, a, cert)
    reference = exhaustive_corner_transfer(e, a)
    assert (report.minimal, report.dimension) == (reference.minimal, reference.dimension)
