"""Acceptance checklist.

One test per criterion, every comparison exact.  Run with -v to read the
checklist as pass/fail lines; each test also prints a one-line summary.
"""

import random

import pytest

from steinberg.algebra import SteinbergAlgebra, element_to_obj
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    one_object_groupoid,
    random_bisection,
    random_groupoid,
)
from steinberg.fields import PrimeField, Rationals
from steinberg.graphs import (
    INFINITE,
    lpa_socle,
    make_graph,
    materialize_boundary_groupoid,
)
from steinberg.limits import SizeCapExceeded, check_enum_size
from steinberg.oracle import (
    oracle_is_semiprime,
    oracle_minimal_ideals,
    oracle_right_socle,
    oracle_socle,
)
from steinberg.socle import (
    ABSOLUTE_ZERO_DIVISOR,
    DIVISION_IDEMPOTENT,
    LPViolationError,
    check_condition_LP,
    homogeneous_component,
    left_ideal,
    minimal_ideal_generator,
    socle,
)
from steinberg.algebra import bisection_product

from references import rref, same_subspace

Q = Rationals()
FIELDS = (Q, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7))


def random_element(rng, algebra, bound=5):
    coeffs = {}
    for g in algebra.groupoid.elements:
        if rng.random() < 0.5:
            coeffs[g] = algebra.field.from_integer(rng.randint(-bound, bound))
    return algebra.element(coeffs)


def spans_match(field, rows_a, rows_b, width):
    return rref(field, rows_a, width).canonical() == rref(field, rows_b, width).canonical()


# -- shared suite for criteria 3 through 6 -------------------------------------


@pytest.fixture(scope="module")
def suite():
    """All principal groupoids with up to 6 elements plus 25 random principal
    groupoids with up to 10 elements."""
    zoo = [g for g in all_groupoids_up_to(6) if check_condition_LP(g).holds]
    rng = random.Random(101)
    randoms = [random_groupoid(rng, 10, principal=True) for _ in range(25)]
    return zoo + randoms


@pytest.fixture(scope="module")
def suite_computations(suite):
    """Engine and oracle socles for every suite member over GF(2) and GF(3),
    computed once and reused across the criteria."""
    out = []
    for g in suite:
        per_field = {}
        for p in (2, 3):
            algebra = SteinbergAlgebra(g, PrimeField(p))
            engine = socle(algebra)
            minimal = oracle_minimal_ideals(algebra)
            oracle_ideal = oracle_socle(algebra, minimal=minimal)
            per_field[p] = (algebra, engine, minimal, oracle_ideal)
        out.append((g, per_field))
    return out


def test_criterion_01_dichotomy_for_cyclic_group_algebras():
    checked = 0
    for n in range(1, 13):
        g = one_object_groupoid(cyclic_group(n))
        for field in FIELDS:
            algebra = SteinbergAlgebra(g, field)
            cert = minimal_ideal_generator(algebra, "e")
            modular = field.characteristic != 0 and n % field.characteristic == 0
            if modular:
                assert cert.flavour == ABSOLUTE_ZERO_DIVISOR
                f = cert.generator
                assert (f * f).is_zero()
                for gamma in g.elements:
                    assert (f * algebra.basis_element(gamma) * f).is_zero()
            else:
                assert cert.flavour == DIVISION_IDEMPOTENT
                e = cert.generator
                assert e * e == e
                assert not e.is_zero()
            checked += 1
    print(f"[criterion 1] PASS: dichotomy exact on {checked} (group, field) pairs")


def test_criterion_02_corner_law_on_random_principal_groupoids():
    rng = random.Random(202)
    checked = 0
    for i in range(50):
        g = random_groupoid(rng, 20, principal=True)
        field = FIELDS[i % len(FIELDS)]
        algebra = SteinbergAlgebra(g, field)
        samples = [random_element(rng, algebra) for _ in range(20)]
        for x in g.units():
            for f in samples:
                expected = algebra.basis_element(x).scale(f(x))
                assert algebra.corner(f, x) == expected
                checked += 1
    print(f"[criterion 2] PASS: corner(f, x) = f(x) 1_x on {checked} corners")


def test_criterion_03_engine_socle_equals_oracle_socle(suite_computations):
    compared = 0
    for g, per_field in suite_computations:
        for p, (algebra, engine, _minimal, oracle_ideal) in per_field.items():
            assert engine.socle_dimension == oracle_ideal.dimension
            assert spans_match(
                algebra.field,
                [b.to_vector() for b in engine.socle_basis],
                [b.to_vector() for b in oracle_ideal.basis],
                algebra.dim,
            )
            compared += 1
    print(
        f"[criterion 3] PASS: engine socle = oracle socle on {compared} "
        "(groupoid, prime field) pairs"
    )


def test_criterion_04_matrix_block_dimensions(suite_computations):
    checked_components = 0
    checked_units = 0
    for g, per_field in suite_computations:
        arrows_by_source = {}
        for e in g.elements:
            arrows_by_source[g.s(e)] = arrows_by_source.get(g.s(e), 0) + 1
        for _p, (algebra, engine, _minimal, _oracle_ideal) in per_field.items():
            for component in engine.components:
                orbit = component.orbit
                assert component.dimension == len(orbit) ** 2
                assert component.matrix_size == len(orbit)
                checked_components += 1
            for x in g.units():
                ideal = left_ideal(algebra, [algebra.basis_element(x)])
                assert ideal.dimension == arrows_by_source[x]
                assert ideal.dimension == len(g.orbit_of(x))
                checked_units += 1
    print(
        f"[criterion 4] PASS: |[x]|^2 component dimensions on {checked_components} "
        f"components, dim A 1_x = |s^-1(x)| = |[x]| on {checked_units} units"
    )


def test_criterion_05_components_are_direct_sums(suite):
    checked = 0
    for g in suite:
        for field in (Q, PrimeField(2)):
            algebra = SteinbergAlgebra(g, field)
            for orbit in g.orbit_classes():
                decomposition = homogeneous_component(algebra, orbit.representative)
                summands = decomposition.summands
                total = rref(
                    field,
                    [v for s in summands for v in s.rows],
                    algebra.dim,
                )
                # pairwise zero intersections, by dimension additivity
                assert total.dim == sum(s.dimension for s in summands)
                for i, u in enumerate(summands):
                    for v in summands[i + 1 :]:
                        pair = rref(
                            field,
                            u.rows + v.rows,
                            algebra.dim,
                        )
                        assert pair.dim == u.dimension + v.dimension
                # and the sum is the whole two-sided ideal (1_x)
                assert total.canonical() == decomposition.ideal.rows
                checked += 1
    print(f"[criterion 5] PASS: direct sum decomposition on {checked} components")


def test_criterion_06_involution_symmetry(suite_computations):
    socle_checks = 0
    right_checks = 0
    for g, per_field in suite_computations:
        for p, (algebra, engine, _minimal, oracle_ideal) in per_field.items():
            starred = [b.star().to_vector() for b in engine.socle_basis]
            assert spans_match(
                algebra.field,
                starred,
                [b.to_vector() for b in engine.socle_basis],
                algebra.dim,
            )
            socle_checks += 1
            if oracle_is_semiprime(algebra).semiprime:
                right = oracle_right_socle(algebra)
                assert spans_match(
                    algebra.field,
                    [b.to_vector() for b in oracle_ideal.basis],
                    [b.to_vector() for b in right.basis],
                    algebra.dim,
                )
                right_checks += 1
    assert right_checks > 0
    print(
        f"[criterion 6] PASS: socle* = socle {socle_checks} times, left socle = "
        f"right socle on {right_checks} semiprime cases"
    )


def test_criterion_07_transporter_size_dichotomy():
    rng = random.Random(707)
    checked = 0
    for _ in range(100):
        g = random_groupoid(rng, 20)
        for x in g.units():
            n = g.isotropy(x).order
            for y in g.units():
                assert len(g.transporter(y, x)) in (0, n)
                checked += 1
    print(f"[criterion 7] PASS: |yGx| in {{0, |xGx|}} on {checked} unit pairs")


def test_criterion_08_non_lp_behaviour():
    g = one_object_groupoid(cyclic_group(2))
    algebra = SteinbergAlgebra(g, PrimeField(2))

    with pytest.raises(LPViolationError) as exc_info:
        socle(algebra)
    assert exc_info.value.report.violators == ("e",)

    radical = oracle_socle(algebra)
    assert radical.dimension == 1
    assert element_to_obj(radical.basis[0]) == [["1 mod 2", "e"], ["1 mod 2", "g"]]

    report = oracle_is_semiprime(algebra)
    assert not report.semiprime
    assert element_to_obj(report.witness) == [["1 mod 2", "e"], ["1 mod 2", "g"]]
    print(
        "[criterion 8] PASS: engine refuses GF(2)[Z/2] with an (LP) explanation; "
        "oracle finds the square-zero line 1_e + 1_g"
    )


def materialized_criteria_3_to_5(gpd, n):
    """Engine socle structure, direct sums, and oracle agreement (within the
    enumeration cap) on a materialised boundary-path groupoid."""
    for field in (Q, PrimeField(2), PrimeField(3)):
        algebra = SteinbergAlgebra(gpd, field)
        engine = socle(algebra)
        assert [c.matrix_size for c in engine.components] == [n]
        assert engine.socle_dimension == n * n == algebra.dim

        # criterion 4 shape on the materialised groupoid
        for x in gpd.units():
            ideal = left_ideal(algebra, [algebra.basis_element(x)])
            assert ideal.dimension == n

        # criterion 5 direct sum
        decomposition = homogeneous_component(algebra, gpd.units()[0])
        total = rref(
            field,
            [v for s in decomposition.summands for v in s.rows],
            algebra.dim,
        )
        assert total.dim == sum(s.dimension for s in decomposition.summands)

        # criterion 3 against the oracle where the enumeration fits the cap
        if isinstance(field, PrimeField):
            try:
                check_enum_size(field.p, algebra.dim)
            except SizeCapExceeded:
                continue
            oracle_ideal = oracle_socle(algebra)
            assert spans_match(
                field,
                [b.to_vector() for b in engine.socle_basis],
                [b.to_vector() for b in oracle_ideal.basis],
                algebra.dim,
            )


def test_criterion_09_graph_frontend():
    loop = make_graph(["v"], [("e", "v", "v")])
    report = lpa_socle(loop)
    assert report.socle_is_zero
    assert report.blocks == ()

    oracle_checked = 0
    for n in range(1, 7):
        vertices = [f"v{i}" for i in range(1, n + 1)]
        edges = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
        line = make_graph(vertices, edges)
        report = lpa_socle(line)
        assert [b.size for b in report.blocks] == [n]
        assert report.blocks[0].class_representative == f"v{n}"

        gpd = materialize_boundary_groupoid(line)
        assert len(gpd) == n * n
        assert all(gpd.isotropy(u).is_trivial for u in gpd.units())
        materialized_criteria_3_to_5(gpd, n)
        for p in (2, 3):
            if p**(n * n) <= 2**20:
                oracle_checked += 1

    exit_graph = make_graph(["c", "w"], [("l", "c", "c"), ("x", "c", "w")])
    report = lpa_socle(exit_graph)
    assert report.blocks[0].size is INFINITE

    print(
        "[criterion 9] PASS: loop socle 0, line graphs give M_n with "
        f"materialised cross-checks ({oracle_checked} within the oracle cap), "
        "loop-with-exit INFINITE"
    )


def test_criterion_10_algebra_laws():
    zoo = all_groupoids_up_to(8)
    field = PrimeField(2)
    triples = 0
    for g in zoo:
        algebra = SteinbergAlgebra(g, field)
        basis = [algebra.basis_element(gamma) for gamma in g.elements]
        for a in basis:
            for b in basis:
                ab = a * b
                for c in basis:
                    assert (ab * c) == (a * (b * c))
                    triples += 1

    rng = random.Random(1010)
    pairs = 0
    while pairs < 200:
        g = random_groupoid(rng, 12)
        algebra = SteinbergAlgebra(g, Q)
        bs = random_bisection(rng, g)
        ds = random_bisection(rng, g)
        if not bs or not ds:
            continue
        assert algebra.indicator(bs) * algebra.indicator(ds) == algebra.indicator(
            bisection_product(g, bs, ds)
        )
        pairs += 1
    print(
        f"[criterion 10] PASS: associativity on {triples} basis triples over "
        f"{len(zoo)} groupoids, 1_B 1_D = 1_BD on {pairs} bisection pairs"
    )
