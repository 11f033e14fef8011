import itertools
import random
from fractions import Fraction

from steinberg.fields import PrimeField, Rationals
from steinberg.linalg import EchelonBasis

from references import intersection_is_zero, rref, same_subspace, span_dim

Q = Rationals()
F2 = PrimeField(2)
F5 = PrimeField(5)


def frac(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_insert_reports_novelty():
    basis = EchelonBasis(Q, 3)
    assert basis.insert(frac([[1, 0, 0]])[0])
    assert basis.insert(frac([[0, 1, 0]])[0])
    assert not basis.insert(frac([[1, 1, 0]])[0])
    assert basis.dim == 2


def test_reduce_is_remainder():
    basis = EchelonBasis(Q, 3)
    basis.extend(frac([[1, 0, 2], [0, 1, 1]]))
    assert basis.reduce(frac([[3, 5, 11]])[0]) == [0, 0, 0]
    assert basis.reduce(frac([[0, 0, 1]])[0]) == [0, 0, 1]


def test_canonical_rref_rationals():
    echelon = rref(Q, frac([[2, 4, 6], [1, 2, 4]]), 3)
    assert echelon.canonical() == ((1, 2, 0), (0, 0, 1))


def test_canonical_rref_prime_field():
    assert rref(F5, [[2, 4], [1, 3]], 2).canonical() == ((1, 0), (0, 1))
    assert rref(F5, [[2, 4], [3, 6]], 2).canonical() == ((1, 2),)


def test_rref_is_unique_for_a_subspace():
    # every pair of distinct nonzero vectors of this 2-dim GF(2) subspace
    # spans it, and all generating pairs reach one echelon form
    v1 = [1, 1, 0, 1]
    v2 = [0, 1, 1, 0]
    v3 = [a ^ b for a, b in zip(v1, v2)]
    target = rref(F2, [v1, v2], 4).canonical()
    for pick in itertools.permutations([v1, v2, v3], 2):
        assert rref(F2, list(pick), 4).canonical() == target


def test_same_subspace_and_span_dim():
    a = frac([[1, 0, 1], [0, 1, 0]])
    b = frac([[1, 1, 1], [1, -1, 1]])
    assert same_subspace(Q, a, b, 3)
    assert span_dim(Q, a, 3) == 2
    assert not same_subspace(Q, a, frac([[1, 0, 0]]), 3)


def test_intersection_is_zero():
    a = rref(Q, frac([[1, 0, 0, 0], [0, 1, 0, 0]]), 4)
    b = rref(Q, frac([[0, 0, 1, 0], [0, 0, 0, 1]]), 4)
    assert intersection_is_zero(Q, a, b)
    c = rref(Q, frac([[1, 1, 0, 0]]), 4)
    assert not intersection_is_zero(Q, a, c)


def test_contains_all():
    basis = EchelonBasis(F2, 3)
    basis.extend([[1, 0, 1], [0, 1, 1]])
    assert basis.contains([1, 1, 0])
    assert not basis.contains([0, 0, 1])
    assert all(basis.contains(v) for v in [[1, 0, 1], [1, 1, 0]])


def test_fractions_stay_exact_under_elimination():
    rows = frac([["1/3", "1/7"], ["1/2", "1/5"]])
    echelon = rref(Q, rows, 2)
    assert echelon.canonical() == ((1, 0), (0, 1))
    thin = rref(Q, frac([["1/3", "1/7"], ["2/3", "2/7"]]), 2)
    assert thin.canonical() == ((1, Fraction(3, 7)),)


def test_random_consistency_with_exhaustive_span():
    # dimension computed incrementally matches the size of the full span over GF(2)
    rng = random.Random(3)
    for _ in range(25):
        width = rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        dim = span_dim(F2, rows, width)
        spanned = set()
        for coeffs in itertools.product([0, 1], repeat=len(rows)):
            vec = tuple(
                sum(c * r[j] for c, r in zip(coeffs, rows)) % 2 for j in range(width)
            )
            spanned.add(vec)
        assert len(spanned) == 2**dim
