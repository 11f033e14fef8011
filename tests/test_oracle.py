import ast
import gc
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import oracle
from steinberg.algebra import SteinbergAlgebra, element_to_obj
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    disjoint_union,
    one_object_groupoid,
    pair_groupoid,
    random_groupoid,
    symmetric_group_3,
    transitive_groupoid,
    trivial_groupoid,
)
from steinberg.fields import PrimeField, Rationals
from steinberg.groupoid import from_json_obj, to_json_obj
from steinberg.limits import ENUM_CAP, SizeCapExceeded
from steinberg.oracle import (
    _WORD_BITS,
    _accumulator_dtype,
    _batched_rref,
    _digits,
    _gather_tables,
    _members,
    _packed_products,
    _products,
    _tables,
    _unpack_words,
    _word_dtype,
    _word_tables,
    _xor_rref,
    oracle_is_semiprime,
    oracle_minimal_ideals,
    oracle_minimal_right_ideals,
    oracle_right_socle,
    oracle_socle,
)
from steinberg.socle import DIVISION_IDEMPOTENT, LeftIdeal, minimal_ideal_generator, socle

from references import (
    first_absolute_zero_divisor,
    rref,
    same_subspace,
    unsplit_minimal_ideals,
)


def ideal_rows(ideal):
    return [b.to_vector() for b in ideal.basis]


def test_pair_groupoid_minimal_ideals_over_gf2():
    # M_2(GF(2)) has one minimal left ideal per point of the projective line
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(2))
    ideals = oracle_minimal_ideals(algebra)
    assert [i.dimension for i in ideals] == [2, 2, 2]
    soc = oracle_socle(algebra, minimal=ideals)
    assert soc.dimension == 4
    assert soc.two_sided


def test_group_algebra_radical_is_the_socle_over_gf2():
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(2)), PrimeField(2))
    ideals = oracle_minimal_ideals(algebra)
    assert len(ideals) == 1
    assert ideals[0].dimension == 1
    soc = oracle_socle(algebra, minimal=ideals)
    assert soc.dimension == 1
    assert element_to_obj(soc.basis[0]) == [["1 mod 2", "e"], ["1 mod 2", "g"]]


def test_split_group_algebra_over_gf3():
    # GF(3)[Z/2] = GF(3) x GF(3); the two projections are the minimal ideals
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(2)), PrimeField(3))
    ideals = oracle_minimal_ideals(algebra)
    assert len(ideals) == 2
    canon = sorted(i.rows for i in ideals)
    assert canon == [((1, 1),), ((1, 2),)]
    soc = oracle_socle(algebra, minimal=ideals)
    assert soc.dimension == 2


def test_first_generator_is_deterministic():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(3))
    first = oracle_minimal_ideals(algebra)
    second = oracle_minimal_ideals(algebra)
    assert [element_to_obj(i.generators[0]) for i in first] == [
        element_to_obj(i.generators[0]) for i in second
    ]
    for ideal in first:
        gen = ideal.generators[0]
        # the earliest vector generating the ideal has leading coefficient 1
        lead = gen(gen.support()[0])
        assert lead == 1
        assert ideal.contains(gen)


def test_semiprime_detects_the_modular_radical():
    algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(2)), PrimeField(2))
    report = oracle_is_semiprime(algebra)
    assert not report.semiprime
    assert element_to_obj(report.witness) == [["1 mod 2", "e"], ["1 mod 2", "g"]]
    # the witness squares to zero through every basis element
    t = report.witness
    for gamma in algebra.groupoid.elements:
        assert (t * algebra.basis_element(gamma) * t).is_zero()


def test_semiprime_principal_cases():
    rng = random.Random(29)
    for _ in range(10):
        g = random_groupoid(rng, 8, principal=True)
        algebra = SteinbergAlgebra(g, PrimeField(2))
        report = oracle_is_semiprime(algebra)
        assert report.semiprime
        assert report.witness is None


def test_semiprime_matches_the_dichotomy():
    # Maschke with the paper's dichotomy: A is semiprime iff p divides no
    # isotropy order, i.e. iff every unit's certificate is a division
    # idempotent.  Small cases also pin the witness of the scalar-line walk
    # to the first absolute zero divisor of the full enumeration.
    compared = 0
    for g in all_groupoids_up_to(6):
        for p in (2, 3, 5):
            algebra = SteinbergAlgebra(g, PrimeField(p))
            report = oracle_is_semiprime(algebra)
            flavours = {minimal_ideal_generator(algebra, u).flavour for u in g.units()}
            assert report.semiprime == (flavours == {DIVISION_IDEMPOTENT})
            assert (report.witness is None) == report.semiprime
            if report.witness is not None:
                w = report.witness
                for gamma in g.elements:
                    assert (w * algebra.basis_element(gamma) * w).is_zero()
            if p**algebra.dim <= 3**6:
                assert report.witness == first_absolute_zero_divisor(algebra)
                compared += 1
    assert compared > 0


def test_right_socle_is_the_involution_image():
    for p in (2, 3):
        g = disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z"))
        algebra = SteinbergAlgebra(g, PrimeField(p))
        left = oracle_socle(algebra)
        right = oracle_right_socle(algebra)
        starred = [b.star().to_vector() for b in left.basis]
        assert same_subspace(algebra.field, starred, ideal_rows(right), algebra.dim)


def test_left_and_right_socle_agree_on_semiprime_cases():
    g = pair_groupoid(["a", "b"])
    algebra = SteinbergAlgebra(g, PrimeField(3))
    assert oracle_is_semiprime(algebra).semiprime
    left = oracle_socle(algebra)
    right = oracle_right_socle(algebra)
    assert same_subspace(algebra.field, ideal_rows(left), ideal_rows(right), algebra.dim)


@pytest.mark.parametrize("socle_of", [oracle_socle, oracle_right_socle])
def test_socles_are_closure_checked(socle_of):
    # the span of one arrow is neither a left nor a right ideal
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(2))
    arrow = algebra.basis_element("b<a")
    fake = LeftIdeal(algebra=algebra, generators=(arrow,), rows=(tuple(arrow.to_vector()),))
    with pytest.raises(RuntimeError):
        socle_of(algebra, minimal=[fake])


def canonical_span(algebra, rows):
    return rref(algebra.field, rows, algebra.dim).canonical()


def test_right_ideals_mirror_left_ideals_through_star():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(2))
    lefts = oracle_minimal_ideals(algebra)
    rights = oracle_minimal_right_ideals(algebra)
    left_spans = sorted(left.rows for left in lefts)
    mirrored = sorted(
        canonical_span(algebra, [b.star().to_vector() for b in right.basis])
        for right in rights
    )
    assert left_spans == mirrored


def reordered(g, order):
    """g with its elements listed in the given order of their indices, so
    that the blocks of a disjoint union interleave in canonical order."""
    obj = to_json_obj(g)
    obj["elements"] = [obj["elements"][i] for i in order]
    return from_json_obj(obj)


@st.composite
def principal_groupoids(draw):
    """Disjoint unions of pair groupoids with at most 9 elements in all,
    connected or not, with their elements in a drawn order."""
    sizes, budget = [], 9
    while budget and (not sizes or draw(st.booleans())):
        k = draw(st.integers(1, isqrt(budget)))
        sizes.append(k)
        budget -= k * k
    g = disjoint_union(
        *(pair_groupoid([f"c{i}u{j}" for j in range(k)]) for i, k in enumerate(sizes))
    )
    return reordered(g, draw(st.permutations(range(len(g.elements)))))


@settings(max_examples=30, deadline=None)
@given(principal_groupoids())
def test_engine_oracle_agreement_on_random_principal_groupoids(g):
    for p in (2, 3):
        algebra = SteinbergAlgebra(g, PrimeField(p))
        engine = socle(algebra)
        oracle_ideal = oracle_socle(algebra)
        assert engine.socle_dimension == oracle_ideal.dimension
        assert same_subspace(
            algebra.field,
            [b.to_vector() for b in engine.socle_basis],
            ideal_rows(oracle_ideal),
            algebra.dim,
        )


def _split_cases():
    z2, z3 = transitive_groupoid(["y"], cyclic_group(2)), transitive_groupoid(["z"], cyclic_group(3))
    unions = [
        disjoint_union(pair_groupoid(["a", "b"]), z2, trivial_groupoid("pt")),
        disjoint_union(z2, z3, trivial_groupoid("pt")),
    ]
    # the same unions with their blocks interleaved in canonical order
    unions += [reordered(g, list(range(len(g.elements)))[::-1]) for g in unions]
    unions.append(reordered(unions[0], [0, 4, 1, 6, 2, 5, 3]))
    for g in all_groupoids_up_to(6) + unions:
        for p in (2, 3):
            yield SteinbergAlgebra(g, PrimeField(p))
    # Larger primes widen the square-zero test's accumulator: uint16 for
    # p = 17.  Z5 over GF(5) is not semiprime.
    for g in all_groupoids_up_to(3):
        for p in (5, 17):
            yield SteinbergAlgebra(g, PrimeField(p))
    yield SteinbergAlgebra(one_object_groupoid(cyclic_group(5)), PrimeField(5))


def test_split_walks_match_the_unsplit_walks():
    # The per-block walks against the walk over all of GF(p)^|G|: bases,
    # first generators and list order of the minimal ideals on both sides,
    # both socles, and the semiprime report with its witness.
    for algebra in _split_cases():
        for minimal_of, socle_of, side in (
            (oracle_minimal_ideals, oracle_socle, "left"),
            (oracle_minimal_right_ideals, oracle_right_socle, "right"),
        ):
            minimal = minimal_of(algebra)
            expected = unsplit_minimal_ideals(algebra, side)
            assert [(ideal_rows(i), i.generators[0].to_vector()) for i in minimal] == expected
            soc = socle_of(algebra, minimal=minimal)
            reference = rref(algebra.field, [row for rows, _ in expected for row in rows], algebra.dim)
            assert ideal_rows(soc) == [list(row) for row in reference.canonical()]
            assert [gen.to_vector() for gen in soc.generators] == [gen for _, gen in expected]
        report = oracle_is_semiprime(algebra)
        witness = first_absolute_zero_divisor(algebra)
        assert report.semiprime == (witness is None)
        assert report.witness == witness


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 16),
    max_isotropy=st.integers(1, 4),
)
def test_blocks_are_the_orbit_classes(seed, size, max_isotropy):
    rng = random.Random(seed)
    g = random_groupoid(rng, size, max_isotropy=max_isotropy)
    order = list(range(len(g.elements)))
    rng.shuffle(order)
    g = reordered(g, order)
    algebra = SteinbergAlgebra(g, PrimeField(2))
    blocks = [[g.elements[i] for i in block.index] for block in _tables(algebra).blocks]
    orbits = [
        [x for x in g.elements if g.r(x) in cls.members] for cls in g.orbit_classes()
    ]
    assert sorted(blocks) == sorted(orbits)
    for block in _tables(algebra).blocks:
        assert block.index.tolist() == sorted(block.index.tolist())
    for i, first in enumerate(blocks):
        for second in blocks[i + 1 :]:
            for x in first:
                for y in second:
                    assert (algebra.basis_element(x) * algebra.basis_element(y)).is_zero()
                    assert (algebra.basis_element(y) * algebra.basis_element(x)).is_zero()


def test_block_split_keeps_the_whole_algebra_cap():
    # pair(3) + pair(2) + pt has 14 elements: 3^9 + 3^4 + 3 vectors would
    # fit in the cap, but the cap still counts 3^14 of the whole algebra.
    g = disjoint_union(
        pair_groupoid(["a", "b", "c"]), pair_groupoid(["x", "y"]), trivial_groupoid("pt")
    )
    algebra = SteinbergAlgebra(g, PrimeField(3))
    assert len(_tables(algebra).blocks) == 3
    for walk in (oracle_minimal_ideals, oracle_minimal_right_ideals, oracle_is_semiprime):
        with pytest.raises(SizeCapExceeded, match="3\\^14"):
            walk(algebra)


def test_the_table_cache_keeps_no_algebra_alive():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(2))
    oracle_socle(algebra)
    oracle_is_semiprime(algebra)
    assert algebra in oracle._TABLES
    dropped = weakref.ref(algebra)
    del algebra
    gc.collect()
    assert dropped() is None


@pytest.mark.parametrize(
    "objects, k, p",
    [
        pytest.param(["x", "y"], 5, 2, id="2 points x Z5 over f2 (2^20 vectors)"),
        pytest.param(["x", "y"], 3, 3, id="2 points x Z3 over f3 (3^12 vectors)"),
    ],
)
def test_connected_inputs_at_the_cap_answer_promptly(time_limit, objects, k, p):
    algebra = SteinbergAlgebra(transitive_groupoid(objects, cyclic_group(k)), PrimeField(p))
    with time_limit(10):
        minimal = oracle_minimal_ideals(algebra)
        soc = oracle_socle(algebra, minimal=minimal)
        report = oracle_is_semiprime(algebra)
    # F2[Z5] = F2 x F16 is semisimple; F3[Z3] is local with a 1-dimensional socle.
    assert report.semiprime == (p == 2)
    assert soc.dimension == (2 * 2 * k if p == 2 else 4)
    # Semiprimeness alone on a fresh algebra pays for the whole ideal walk.
    fresh = SteinbergAlgebra(transitive_groupoid(objects, cyclic_group(k)), PrimeField(p))
    with time_limit(10):
        assert oracle_is_semiprime(fresh) == report


def test_oracle_rejects_rationals():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), Rationals())
    with pytest.raises(ValueError):
        oracle_minimal_ideals(algebra)
    with pytest.raises(ValueError):
        oracle_is_semiprime(algebra)


def test_oracle_respects_enumeration_cap():
    # 2^25 vectors exceed the fixed 2^20 cap, for the ideals and for semiprimeness
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b", "c", "d", "e"]), PrimeField(2))
    with pytest.raises(SizeCapExceeded, match="2\\^25"):
        oracle_minimal_ideals(algebra)
    with pytest.raises(SizeCapExceeded, match="2\\^25"):
        oracle_is_semiprime(algebra)


def test_socle_generators_regenerate_their_ideals():
    algebra = SteinbergAlgebra(pair_groupoid(["a", "b"]), PrimeField(5))
    ideals = oracle_minimal_ideals(algebra)
    from steinberg.socle import left_ideal

    for ideal in ideals:
        rebuilt = left_ideal(algebra, [ideal.generators[0]])
        assert rebuilt.rows == ideal.rows


def _rank_deficient(gen, p, rows, cols):
    inner = max(1, min(rows, cols) // 2)
    return gen.integers(0, p, size=(rows, inner)) @ gen.integers(0, p, size=(inner, cols))


def _echelon_on_top(pivots):
    """A stack of reduced echelon forms indexed by pivot column, as (ranks,
    reduced) with the echelon rows on top and zero rows below, after
    checking the layout: row c is zero or has its pivot at c."""
    cols = pivots.shape[2]
    nonzero = pivots.any(axis=2)
    assert (pivots[:, np.arange(cols), np.arange(cols)] == nonzero).all()
    assert not np.tril(pivots, -1).any()
    order = np.argsort(~nonzero, axis=1, kind="stable")
    return nonzero.sum(axis=1), np.take_along_axis(pivots, order[:, :, None], axis=1)


def _delayed_kernel(mats, p, dtype):
    """_batched_rref on the matrices reduced mod p, in its stack-last layout."""
    assert _accumulator_dtype(p, mats.shape[2]) is dtype
    pivots = _batched_rref((mats % p).transpose(1, 2, 0), p)
    assert pivots.dtype == np.min_scalar_type(p - 1)
    assert pivots.shape == (mats.shape[0], mats.shape[2], mats.shape[2])
    return _echelon_on_top(pivots)


def _pack(bits, dtype):
    """Rows of 0/1 entries as words of the given type, coordinate k at bit
    bits - 1 - k."""
    width = np.iinfo(dtype).bits
    shifts = (width - 1 - np.arange(bits.shape[-1])).astype(np.uint64)
    return (bits.astype(np.uint64) @ (np.uint64(1) << shifts)).astype(dtype)


def _word_kernel(mats, p, dtype):
    """_xor_rref on the rows mod 2 packed into the narrowest words, as
    (ranks, reduced)."""
    assert p == 2
    cols = mats.shape[2]
    assert _word_dtype(cols) is dtype
    pivots = _xor_rref(_pack(mats % 2, dtype), cols)
    assert pivots.dtype == dtype and pivots.shape == (mats.shape[0], cols)
    return _echelon_on_top(_unpack_words(pivots, cols))


@pytest.mark.parametrize(
    "kernel, p, rows, cols, dtype",
    [
        pytest.param(
            _delayed_kernel, p, rows, cols, dtype, id=f"{p}-{rows}-{cols}-{dtype.__name__}"
        )
        for p, rows, cols, dtype in [
            (2, 9, 16, np.uint8),
            (2, 3, 300, np.uint16),
            (3, 8, 8, np.uint8),
            (3, 4, 70, np.uint16),
            (5, 6, 9, np.uint8),
            (7, 9, 8, np.uint16),
            (17, 6, 6, np.uint16),
            (251, 5, 4, np.uint32),
            (257, 5, 4, np.uint32),
            (65521, 4, 4, np.uint64),
        ]
    ]
    + [
        # Each word type at its narrowest and widest width; 20 is the widest
        # GF(2) block ENUM_CAP admits, 32 the widest word.
        pytest.param(_word_kernel, 2, rows, cols, dtype, id=f"words-{rows}-{cols}")
        for rows, cols, dtype in [
            (4, 1, np.uint8),
            (5, 7, np.uint8),
            (8, 8, np.uint8),
            (12, 9, np.uint16),
            (9, 16, np.uint16),
            (17, 17, np.uint32),
            (20, 20, np.uint32),
            (40, 32, np.uint32),
        ]
    ],
)
def test_batched_rref_matches_the_reference_echelon_form(kernel, p, rows, cols, dtype):
    gen = np.random.default_rng(p * 1000 + cols)
    mats = gen.integers(-2 * p, 2 * p, size=(12, rows, cols))
    mats[0] = 0
    mats[1] = _rank_deficient(gen, p, rows, cols)
    mats[2, :, : cols // 2] = 0
    mats[3, rows // 2 :] = mats[3, : rows - rows // 2] * 3
    ranks, reduced = kernel(mats, p, dtype)
    field = PrimeField(p)
    for i, mat in enumerate(mats):
        expected = rref(field, mat.tolist(), cols).canonical()
        assert ranks[i] == len(expected)
        assert reduced[i, : ranks[i]].tolist() == [list(row) for row in expected]
        assert not reduced[i, ranks[i] :].any()


def test_the_widest_gf2_block_fits_the_packed_word():
    # The cap admits GF(2) blocks up to this width; a wider cap must widen
    # the word, and the word tables refuse what does not fit.  Each width
    # packs into the narrowest word: widths 8 and 16 fill one, 9 and 17
    # spill into the next.
    widest = ENUM_CAP.bit_length() - 1
    assert widest <= _WORD_BITS
    widths = [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32), (widest, np.uint32)]
    for n, dtype in widths:
        algebra = SteinbergAlgebra(one_object_groupoid(cyclic_group(n)), PrimeField(2))
        (block,) = _tables(algebra).blocks
        indices = np.array(
            [1, 2**n - 1, 2 ** (n - 1) + 5, 0b1011 << (n // 2 - 1), 2**n - 2], dtype=np.int64
        )
        for table in (block.left, block.right):
            tables = _word_tables(table)
            assert tables.dtype == dtype
            words = _packed_products(indices, tables)
            assert words.dtype == dtype
            stack = _products(_digits(indices, 2, n), table, 2)
            assert (_unpack_words(words, n) == stack.transpose(2, 0, 1)).all()
    too_wide = np.full((_WORD_BITS + 1, _WORD_BITS + 1), _WORD_BITS + 1)
    with pytest.raises(OverflowError):
        _word_tables(too_wide)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_batched_rref_stays_exact_at_the_widest_narrow_type(p):
    # The widest stack that still reduces in uint8, and a matrix whose last
    # row gains (p - 1)**2 at column m + 1 on every one of m steps before it
    # becomes the pivot row of column m.
    cols = (255 - (p - 1)) // (p - 1) ** 2
    assert _accumulator_dtype(p, cols) is np.uint8
    m = cols - 2
    mat = np.zeros((m + 1, cols), dtype=np.int64)
    mat[np.arange(m), np.arange(m)] = 1
    mat[:m, m + 1] = p - 1
    mat[m, : m + 1] = 1
    mat[m, m] = p - 1
    pivots = _batched_rref(mat[:, :, None], p)[0]
    expected = rref(PrimeField(p), mat.tolist(), cols).canonical()
    assert pivots[pivots.any(axis=1)].tolist() == [list(row) for row in expected]


@pytest.mark.parametrize("p", [2, 3, 257, 65537])
@pytest.mark.parametrize("kind", ["zero", "full rank", "rank deficient"])
def test_in_span_matches_reference_membership(p, kind):
    cols = 7
    gen = np.random.default_rng(p)
    if kind == "zero":
        mat = np.zeros((3, cols), dtype=np.int64)
    elif kind == "full rank":
        mat = np.eye(cols, dtype=np.int64) + np.triu(gen.integers(0, p, (cols, cols)), 1)
    else:
        mat = _rank_deficient(gen, p, 5, cols)
    field = PrimeField(p)
    basis = rref(field, mat.tolist(), cols)
    rows = np.array(basis.rows, dtype=np.int64).reshape(-1, cols)
    members = gen.integers(0, p, (10, rows.shape[0])) @ rows % p
    # entries in [0, 2p) check that the vectors are reduced first
    vectors = np.vstack(
        [members + p * gen.integers(0, 2, members.shape), gen.integers(0, 2 * p, (20, cols))]
    )
    inside = [basis.contains(v.tolist()) for v in vectors]
    assert inside[:10] == [True] * 10
    assert all(inside) == (kind == "full rank")

    def in_span(vectors) -> bool:
        """The socle's closure check: whether every vector lies in the span."""
        return bool(_members(vectors, rows[None], p).all())

    assert [in_span(v[None]) for v in vectors] == inside
    assert in_span(vectors[inside])
    assert in_span(vectors) == all(inside)
    assert in_span(vectors[:0])


def test_large_primes_cost_no_table_of_inverses(time_limit):
    algebra = SteinbergAlgebra(trivial_groupoid("x"), PrimeField(1048573))
    with time_limit(2):
        assert oracle_socle(algebra).dimension == 1


def test_products_match_the_action_tables():
    rng = random.Random(43)
    gen = np.random.default_rng(43)
    for _ in range(6):
        g = random_groupoid(rng, 10)
        for p in (2, 5):
            algebra = SteinbergAlgebra(g, PrimeField(p))
            chunk = gen.integers(0, p, size=(7, algebra.dim))
            left, right = _gather_tables(algebra)
            for table, action in ((left, algebra.left_action), (right, algebra.right_action)):
                # the stack-last layout of _batched_rref
                stack = _products(chunk.T, table, p)
                assert stack.flags.c_contiguous
                assert stack.shape == (algebra.dim, algebra.dim, 7)
                for i, vec in enumerate(chunk.tolist()):
                    for g_index in range(algebra.dim):
                        assert stack[g_index, :, i].tolist() == action(g_index, vec)
                if p == 2:
                    # the packed words of the GF(2) walks, from each
                    # vector's index (see _lines)
                    indices = chunk @ (1 << np.arange(algebra.dim - 1, -1, -1))
                    words = _packed_products(indices, _word_tables(table))
                    assert (_unpack_words(words, algebra.dim) == stack.transpose(2, 0, 1)).all()


def _interleaved_union():
    """pair(a, b) + Z2 + pt with its blocks interleaved in canonical order:
    every two consecutive coordinates lie in different blocks."""
    g = disjoint_union(
        pair_groupoid(["a", "b"]), transitive_groupoid(["y"], cyclic_group(2)), trivial_groupoid("pt")
    )
    return reordered(g, [0, 4, 1, 6, 2, 5, 3])


def _walk_summary(algebra):
    """The minimal left ideals with their first generators, and the
    semiprime witness, as JSON objects."""
    witness = oracle_is_semiprime(algebra).witness
    return (
        [
            ([element_to_obj(b) for b in ideal.basis], element_to_obj(ideal.generators[0]))
            for ideal in oracle_minimal_ideals(algebra)
        ],
        None if witness is None else element_to_obj(witness),
    )


def _walk_algebras():
    """Fresh algebras over GF(2) and GF(3) whose walks cross chunk and lead
    borders; each block keeps the ideals it walked, so each pass needs new
    ones."""
    return [
        SteinbergAlgebra(pair_groupoid(["a", "b", "c"]), PrimeField(2)),
        SteinbergAlgebra(
            disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z")), PrimeField(3)
        ),
        SteinbergAlgebra(one_object_groupoid(cyclic_group(3)), PrimeField(3)),
        # Not semiprime over GF(2).  The witness is the 32nd line led by
        # its coordinate in the S3 block, so the GF(2) walk reaches it
        # across ten chunk borders.
        SteinbergAlgebra(
            disjoint_union(pair_groupoid(["a", "b"]), one_object_groupoid(symmetric_group_3())),
            PrimeField(2),
        ),
        # One block per coordinate: semiprime over GF(3); over GF(2) the
        # Z2 block has a witness.
        SteinbergAlgebra(_interleaved_union(), PrimeField(3)),
        SteinbergAlgebra(_interleaved_union(), PrimeField(2)),
    ]


# Chunks of 1, 3 and 7 lines end inside a lead; 7 and 64 span several leads.
@pytest.mark.parametrize("chunk_rows", [1, 3, 7, 64])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, chunk_rows):
    first = _walk_algebras()
    owner = {int(i): b for b, block in enumerate(_tables(first[-1]).blocks) for i in block.index}
    assert all(owner[i] != owner[i + 1] for i in range(len(owner) - 1))
    whole = [_walk_summary(algebra) for algebra in first]
    assert [w is None for _, w in whole] == [True, True, False, False, True, False]
    monkeypatch.setattr(oracle, "_chunk_rows_for", lambda q, n: chunk_rows)
    assert [_walk_summary(algebra) for algebra in _walk_algebras()] == whole


def test_colliding_fingerprints_fall_back_to_exact_keys(monkeypatch):
    # With every multiplier zero all forms of a chunk share one
    # fingerprint, so every chunk with two distinct forms runs on the exact
    # void keys; a chunk that kept one form per fingerprint would lose
    # ideals.
    whole = [_walk_summary(algebra) for algebra in _walk_algebras()]
    monkeypatch.setattr(oracle, "_fingerprint_multipliers", lambda words: np.zeros(words, np.uint64))
    assert [_walk_summary(algebra) for algebra in _walk_algebras()] == whole


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
@pytest.mark.parametrize("width", [1, 3, 8, 9, 20])
@pytest.mark.parametrize("colliding", [False, True])
def test_first_occurrences_match_a_reference(monkeypatch, dtype, width, colliding):
    if colliding:
        monkeypatch.setattr(oracle, "_fingerprint_multipliers", lambda words: np.zeros(words, np.uint64))
    gen = np.random.default_rng(width)
    # Few distinct rows, many repeats, and rows that differ only in their
    # last entry or only in a high bit.
    distinct = gen.integers(0, 3, size=(7, width)).astype(dtype)
    distinct[1] = distinct[0]
    distinct[1, -1] ^= 1
    distinct[2] = distinct[0]
    distinct[2, 0] ^= dtype(1) << dtype(np.iinfo(dtype).bits - 1)
    flat = distinct[gen.integers(0, 7, size=300)]
    first = {}
    for i, row in enumerate(flat):
        first.setdefault(row.tobytes(), i)
    assert oracle._first_occurrences(flat).tolist() == sorted(first.values())


def test_the_walk_stays_within_its_memory_budget():
    # The transient peak of minimal ideals, socle and semiprime test, from
    # a fresh algebra, after a first walk has loaded what numpy loads on
    # first use.  Each chunk budgets about 2 MiB of working arrays
    # (_chunk_rows_for).
    def walk(g, p):
        algebra = SteinbergAlgebra(g, PrimeField(p))
        oracle_socle(algebra, minimal=oracle_minimal_ideals(algebra))
        oracle_is_semiprime(algebra)

    walk(pair_groupoid(["a", "b"]), 3)
    for g, p in ((pair_groupoid(list("abcd")), 2), (pair_groupoid(list("abc")), 3)):
        tracemalloc.start()
        try:
            walk(g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, (len(g.elements), p, peak / 2**20)


def test_the_oracle_does_not_load_numpy_random():
    # numpy.random costs several MiB of resident memory, and nothing in the
    # oracle needs it: the fingerprint multipliers come from Python ints.
    # Nor does it need numpy.ma (about 1 MiB), which np.unique imports.
    src = str(Path(oracle.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from steinberg.algebra import SteinbergAlgebra\n"
        "from steinberg.builders import pair_groupoid\n"
        "from steinberg.fields import PrimeField\n"
        "import steinberg.oracle as oracle\n"
        "assert 'numpy.random' not in sys.modules\n"
        "for p in (2, 3):\n"
        "    algebra = SteinbergAlgebra(pair_groupoid(['a', 'b']), PrimeField(p))\n"
        "    oracle.oracle_socle(algebra)\n"
        "    oracle.oracle_is_semiprime(algebra)\n"
        "    oracle.oracle_right_socle(algebra)\n"
        "for name in ('numpy.random', 'numpy.ma'):\n"
        "    assert name not in sys.modules, name\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr


def test_oracle_stays_independent_of_the_engine():
    # Engine-vs-oracle agreement is the correctness argument, so the oracle
    # shares no linear algebra with the engine, reasons about no orbit or
    # isotropy, and sees multiplication only through the action tables.
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
    for module, names in imported.items():
        for name in (module, *names):
            assert not {"groupoid", "linalg"} & set(name.split(".")), (module, name)
    assert {m: n for m, n in imported.items() if m.split(".")[-1] == "socle"} == {".socle": {"LeftIdeal"}}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"left_action_table", "right_action_table"} <= attributes
    assert not {a for a in attributes if a in ("compose", "isotropy") or a.startswith("orbit")}
