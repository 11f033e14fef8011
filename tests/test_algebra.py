import random
from fractions import Fraction

import pytest

from steinberg.algebra import (
    SteinbergAlgebra,
    bisection_product,
    element_to_obj,
)
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    one_object_groupoid,
    pair_groupoid,
    random_bisection,
    random_groupoid,
    symmetric_group_3,
    transitive_groupoid,
)
from steinberg.fields import PrimeField, Rationals
from steinberg.groupoid import validate

from references import pairs

Q = Rationals()


def random_element(rng, algebra, bound=5):
    coeffs = {}
    for g in algebra.groupoid.elements:
        if rng.random() < 0.5:
            coeffs[g] = algebra.field.from_integer(rng.randint(-bound, bound))
    return algebra.element(coeffs)


def test_convolution_matches_definition():
    # fg(x) = sum of f(a) g(b) over all factorizations ab = x
    rng = random.Random(11)
    for _ in range(20):
        g = random_groupoid(rng, 10)
        algebra = SteinbergAlgebra(g, Q)
        f = random_element(rng, algebra)
        h = random_element(rng, algebra)
        product = f * h
        for x in g.elements:
            total = Fraction(0)
            for (a, b), ab in pairs(g).items():
                if ab == x:
                    total += f(a) * h(b)
            assert product(x) == total


def test_basis_products_follow_compose_table():
    g = transitive_groupoid(["p", "q"], cyclic_group(2))
    algebra = SteinbergAlgebra(g, Q)
    for a in g.elements:
        for b in g.elements:
            product = algebra.basis_element(a) * algebra.basis_element(b)
            if g.composable(a, b):
                assert product == algebra.basis_element(g.mul(a, b))
            else:
                assert product.is_zero()


def test_square_of_group_unit_sum():
    # (1_e + 1_g)^2 = 2(1_e + 1_g) in the rational algebra of Z/2
    g = one_object_groupoid(cyclic_group(2))
    algebra = SteinbergAlgebra(g, Q)
    f = algebra.element({"e": 1, "g": 1})
    assert f * f == f.scale(2)
    assert f * f == 2 * f


def test_indicator_multiplication_is_bisection_product():
    rng = random.Random(23)
    for _ in range(60):
        g = random_groupoid(rng, 12)
        algebra = SteinbergAlgebra(g, Q)
        bs = random_bisection(rng, g)
        ds = random_bisection(rng, g)
        product = algebra.indicator(bs) * algebra.indicator(ds)
        expected = bisection_product(g, bs, ds)
        assert algebra.is_bisection(expected)
        assert product == algebra.indicator(expected)


def test_bisection_product_contents():
    g = pair_groupoid(["a", "b"])
    # {a<b} * {b<a} = {a}: compose where source of the first meets range of the second
    assert bisection_product(g, ["a<b"], ["b<a"]) == ["a"]
    assert bisection_product(g, ["a<b"], ["a<b"]) == []


def test_indicator_rejects_non_bisection():
    g = pair_groupoid(["a", "b"])
    # the unit a and the arrow b<a share the source a
    with pytest.raises(ValueError):
        SteinbergAlgebra(g, Q).indicator(["a", "b<a"])


def test_involution_is_an_anti_automorphism():
    rng = random.Random(5)
    for field in (Q, PrimeField(3)):
        for _ in range(15):
            g = random_groupoid(rng, 10)
            algebra = SteinbergAlgebra(g, field)
            f = random_element(rng, algebra)
            h = random_element(rng, algebra)
            assert (f * h).star() == h.star() * f.star()
            assert f.star().star() == f
            assert (f + h).star() == f.star() + h.star()


def test_involution_on_a_frozen_example():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, Q)
    f = algebra.element({"a<b": 2, "a": 3})
    starred = f.star()
    assert starred == algebra.element({"b<a": 2, "a": 3})
    product = algebra.basis_element("a<b") * algebra.basis_element("b<a")
    assert product.star() == algebra.basis_element("a")


def test_global_unit_is_identity():
    g = pair_groupoid(["a", "b", "c"])
    algebra = SteinbergAlgebra(g, Q)
    one = algebra.indicator(g.units())
    rng = random.Random(2)
    f = random_element(rng, algebra)
    assert one * f == f
    assert f * one == f


def test_corner_restricts_to_isotropy():
    g = transitive_groupoid(["p", "q"], symmetric_group_3())
    algebra = SteinbergAlgebra(g, Q)
    iso = g.isotropy("p").members
    rng = random.Random(31)
    f = random_element(rng, algebra)
    corner = algebra.corner(f, "p")
    assert set(corner.support()) <= set(iso)
    for gamma in iso:
        assert corner(gamma) == f(gamma)


def test_corner_multiplication_is_the_group_algebra():
    # products of corner basis elements reproduce the isotropy group table
    g = transitive_groupoid(["p", "q"], symmetric_group_3())
    algebra = SteinbergAlgebra(g, Q)
    iso = g.isotropy("p").members
    for a in iso:
        for b in iso:
            product = algebra.basis_element(a) * algebra.basis_element(b)
            assert product == algebra.basis_element(g.mul(a, b))


def test_corner_requires_unit():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, Q)
    with pytest.raises(ValueError):
        algebra.corner(algebra.indicator(g.units()), "a<b")


def test_action_tables_match_basis_multiplication():
    # random_groupoid draws unions of abelian groups, where a table filled
    # from the wrong side still passes; nonabelian isotropy tells the sides
    # apart.
    rng = random.Random(41)
    nonabelian = transitive_groupoid(["p", "q"], symmetric_group_3())
    for field in (Q, PrimeField(2)):
        for g in (random_groupoid(rng, 10), nonabelian):
            algebra = SteinbergAlgebra(g, field)
            f = random_element(rng, algebra)
            vec = f.to_vector()
            for i, gamma in enumerate(g.elements):
                left = algebra.basis_element(gamma) * f
                right = f * algebra.basis_element(gamma)
                assert algebra.left_action(i, vec) == left.to_vector()
                assert algebra.right_action(i, vec) == right.to_vector()


def _renamed_and_shuffled(g, rng):
    """g with fresh element ids listed in a shuffled order, its composition
    table inserted in a shuffled order."""
    names = {x: f"x{i}" for i, x in enumerate(rng.sample(g.elements, len(g.elements)))}
    order = [names[x] for x in g.elements]
    rng.shuffle(order)
    entries = [[names[a], names[b], names[c]] for (a, b), c in pairs(g).items()]
    rng.shuffle(entries)
    maps = ({names[x]: names[m[x]] for x in g.elements} for m in (g.source_of, g.range_of, g.inverse_of))
    return validate(order, *maps, entries)


def test_action_tables_are_gather_tables():
    # Entry [g][k] is the j that 1_g * 1_j (left) or 1_j * 1_g (right)
    # sends to 1_k, and n where nothing lands on k.
    rng = random.Random(53)
    renamed = [_renamed_and_shuffled(random_groupoid(rng, 24), rng) for _ in range(30)]
    for g in all_groupoids_up_to(6) + renamed:
        algebra = SteinbergAlgebra(g, Q)
        n, i = algebra.dim, g.index
        left = {(i[a], i[c]): i[b] for (a, b), c in pairs(g).items()}
        right = {(i[b], i[c]): i[a] for (a, b), c in pairs(g).items()}
        for table, expected in ((algebra.left_action_table, left), (algebra.right_action_table, right)):
            assert table == [[expected.get((row, k), n) for k in range(n)] for row in range(n)]


def test_vector_round_trip():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, PrimeField(5))
    f = algebra.element({"a": 3, "b<a": 4})
    assert algebra.from_vector(f.to_vector()) == f


def test_element_json_round_trip():
    g = pair_groupoid(["a", "b"])
    for field, expected in (
        (Q, [["2/1", "a"], ["-3/1", "a<b"]]),
        (PrimeField(7), [["2 mod 7", "a"], ["4 mod 7", "a<b"]]),
    ):
        algebra = SteinbergAlgebra(g, field)
        f = algebra.element({"a": field.from_integer(2), "a<b": field.from_integer(-3)})
        assert element_to_obj(f) == expected
    assert element_to_obj(SteinbergAlgebra(g, Q).element({"a": Fraction(-1, 3)})) == [["-1/3", "a"]]
    # support is listed in canonical element order
    algebra = SteinbergAlgebra(g, Q)
    f = algebra.element({"b<a": 1, "a": 1})
    assert [pair[1] for pair in element_to_obj(f)] == ["a", "b<a"]


def test_zero_coefficients_are_dropped():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, Q)
    f = algebra.element({"a": 0, "b": 1})
    assert f.support() == ("b",)
    assert (f - f).is_zero()


def test_mixed_algebra_arithmetic_rejected():
    g = pair_groupoid(["a", "b"])
    f2 = SteinbergAlgebra(g, PrimeField(2)).indicator(g.units())
    fq = SteinbergAlgebra(g, Q).indicator(g.units())
    with pytest.raises(ValueError):
        f2 + fq
