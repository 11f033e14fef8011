"""Assumption-free brute force over prime fields, used to validate the engine.

The oracle never reasons about isotropy or orbits.  It enumerates one
nonzero element a per scalar line of the algebra (subject to the fixed
q^dim cap), computes the left ideal A a as the row space of all products
1_g * a (local units put a itself in that span), keeps the ideals that are
minimal under inclusion and sums them into the socle.  Right ideals a A run
through the same enumeration with the products a * 1_g.  Either socle is
verified to be closed under multiplication on both sides.  Semiprimeness
is decided by the same walk (see _lines for why it suffices), searching
for an absolute zero divisor: a nonzero a with a * 1_g * a = 0 for all g.

Everything runs on numpy arrays, processed in enumeration order in bounded
chunks; chunking does not affect any result.  The products 1_g * a of a
chunk come from one gather through the algebra's left action table, which
is built as a gather table: entry [g, k] names the coordinate of a that
lands on coordinate k of 1_g * a, or n for an appended zero column.  Row
reduction delays reduction mod p: entries live in the narrowest unsigned
type that holds every sum a reduction accumulates between its reductions
mod p, and only pivot columns and pivot rows are reduced along the way.
Reduced echelon forms are canonical: a chunk's ideals are deduplicated by
their bytes, and membership in an echelon span is one matrix product,
because a member's entries at the pivot columns are its coefficients.
The engine (socle module) deliberately shares no linear algebra with this
module.

Both walks run once per connected block of the composition table.  A
union-find over the entries below n of the left gather table, connectivity
only and no orbit or isotropy reasoning, splits the basis into blocks: an
entry [g, k] = j < n says 1_g * 1_j = 1_k, so every composable pair is one
entry.  An element, its units and every product it takes part in share a
block, so A is the direct product A_1 x ... x A_m with zero products across
blocks, and a block of m_i elements is walked as GF(q)^(m_i) on its
restricted gather tables.  The outputs are those of the walk over all of
GF(q)^|G|, which admits the same inputs: the enumeration cap still counts
q^|G|.  A minimal ideal lies in one block, and so does every generator of
it (local units put a generator in the ideal it generates).  Embedding
block coordinates into the full ones keeps their order, so an embedded
reduced echelon matrix is still reduced echelon and canonical, and the
first generator of each ideal and the sort by dimension and canonical bytes
are unchanged.  For the absolute zero divisor, see oracle_is_semiprime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, SteinbergAlgebra
from .fields import PrimeField
from .limits import check_enum_size
from .socle import LeftIdeal


def _require_prime_field(algebra: SteinbergAlgebra) -> int:
    if not isinstance(algebra.field, PrimeField):
        raise ValueError("the oracle works over prime fields only")
    return algebra.field.p


def _gather_tables(algebra: SteinbergAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables of the left products 1_g * a and the right products a * 1_g:
    the algebra's action tables as they are, in arrays.

    Entry [g, k] is the coordinate j of a that lands on coordinate k, or n
    (a zero column) when nothing lands on k.
    """
    return (
        np.array(algebra.left_action_table, dtype=np.intp),
        np.array(algebra.right_action_table, dtype=np.intp),
    )


@dataclass(frozen=True)
class _Block:
    """One connected block of the composition table.

    index holds the full coordinates of the block's basis, increasing;
    left and right (the _gather_tables) are in block coordinates.
    """

    index: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def size(self) -> int:
        return int(self.index.size)

    def embed(self, vectors: np.ndarray, n: int) -> np.ndarray:
        """Block-coordinate vectors (last axis) in the n full coordinates."""
        full = np.zeros(vectors.shape[:-1] + (n,), dtype=vectors.dtype)
        full[..., self.index] = vectors
        return full


def _blocks(algebra: SteinbergAlgebra) -> list[_Block]:
    """The connected blocks, by union-find over the entries below n of the
    left gather table, ordered by their least coordinate.

    An entry [g, k] = j < n puts g, j and k in one block, so 1_a * 1_b is
    zero whenever a and b lie in different blocks, and a gather table entry
    [g, k] inside a block names a coordinate of that block or the zero
    column.
    """
    n = algebra.dim
    left, right = _gather_tables(algebra)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    g, k = np.nonzero(left < n)
    for i, j, k in zip(g.tolist(), left[g, k].tolist(), k.tolist()):
        for other in (j, k):
            a, b = find(i), find(other)
            parent[max(a, b)] = min(a, b)
    roots = np.array([find(i) for i in range(n)], dtype=np.intp)
    local = np.empty(n + 1, dtype=np.intp)
    blocks = []
    for root in np.unique(roots):
        index = np.flatnonzero(roots == root)
        local[index] = np.arange(index.size)
        local[n] = index.size
        sub = np.ix_(index, index)
        blocks.append(_Block(index=index, left=local[left[sub]], right=local[right[sub]]))
    return blocks


def _lines(q: int, n: int, lead: int):
    """One coefficient vector per scalar line of GF(q)^n whose leading
    nonzero coordinate is lead, in increasing order of the integers whose
    base-q digits they are (first coordinate, in canonical basis order,
    most significant), in chunks of at most _chunk_rows_for(n) rows.

    The representative of a line is its vector with leading nonzero digit
    1, so the representatives led by coordinate lead are the integers in
    [q**m, 2*q**m) for m = n - 1 - lead.  Scaling a by c != 0 changes
    neither the cyclic ideal a generates nor whether a * A * a = 0.  And
    the first vector of a line in the full order [1, q**n) is its
    representative: if a had leading digit c != 1, then c^-1 * a would lie
    on the same line with a smaller integer value.  So the first generator
    recorded per ideal, and the first absolute zero divisor, are those of
    the full enumeration.
    """
    chunk_rows = _chunk_rows_for(n)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    m = n - 1 - lead
    start, stop = q**m, 2 * q**m
    while start < stop:
        upper = min(start + chunk_rows, stop)
        indices = np.arange(start, upper, dtype=np.int64)
        yield (indices[:, None] // powers[None, :]) % q
        start = upper


def _chunk_rows_for(n: int) -> int:
    return max(256, (1 << 21) // max(n * n, 1))


def _accumulator_dtype(p: int, cols: int) -> type:
    """The narrowest unsigned type holding (p - 1) + cols * (p - 1)**2.

    An entry starts reduced and gains at most one product of two reduced
    values per column step, so that bound is never passed between the
    reductions _batched_rref does make.
    """
    bound = (p - 1) + cols * (p - 1) ** 2
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"GF({p}) row reduction of width {cols} overflows 64 bits")


def _inverses_mod(values: np.ndarray, p: int) -> np.ndarray:
    """values ** (p - 2) mod p elementwise, the inverses of nonzero reduced
    values, by square and multiply in their own type, which must hold
    (p - 1)**2.  A table of all p inverses would cost O(p) per call."""
    result = np.ones_like(values)
    base = values.copy()
    exponent = p - 2
    while exponent:
        if exponent & 1:
            result = result * base % p
        base = base * base % p
        exponent >>= 1
    return result


def _batched_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of a stack of matrices over GF(p).

    Returns (ranks, reduced) where reduced[i] holds the canonical echelon
    rows of mats[i] on top and zero rows below, in the narrowest unsigned
    type that holds p - 1.  The echelon form is unique, so it does not
    depend on which eligible row becomes a pivot.

    Reduction mod p is delayed.  Each column step reduces only the pivot
    column and the pivot row, then adds (p - factor) * pivot_row to every
    other row without reducing; one np.mod at the end finishes the job.
    Pivot rows stay where they are and are gathered into echelon order at
    the end.  A matrix with no pivot in a column eliminates with a zero
    pivot row, which changes nothing.
    """
    count, rows, cols = mats.shape
    dtype = _accumulator_dtype(p, cols)
    # work[r, c, i] is entry (r, c) of matrix i: the stack index varies
    # fastest, so every step runs long vector loops across the stack.
    work = np.empty((rows, cols, count), dtype=dtype)
    np.remainder(mats.transpose(1, 2, 0), p, out=work, casting="unsafe")
    free = np.ones((rows, count), dtype=bool)
    pivot_col = np.full((rows, count), cols, dtype=np.intp)
    row_index = np.arange(rows)[:, None]
    stack = np.arange(count)
    lanes = np.arange(cols)[:, None] * count
    for col in range(cols):
        column = work[:, col]
        np.remainder(column, p, out=column)
        nonzero = column != 0
        first = np.where(nonzero & free, row_index, rows).min(axis=0, initial=rows)
        found = first < rows
        if not found.any():
            continue
        src = np.where(found, first, 0)
        pivot = work.ravel()[(src * (cols * count) + stack) + lanes[col:]]
        np.remainder(pivot, p, out=pivot)
        pivot *= _inverses_mod(pivot[0], p) * found
        np.remainder(pivot, p, out=pivot)
        # The pivot row holds pivot_value * pivot, so its factor is
        # (1 - pivot_value) rather than -pivot_value.
        factors = (p - column) * nonzero
        factors[src, stack] = (factors[src, stack] + 1) % p
        # Columns left of col are zero in the reduced pivot row.
        work[:, col:] += factors[:, None, :] * pivot[None, :, :]
        free[src[found], stack[found]] = False
        pivot_col[src[found], stack[found]] = col
    np.remainder(work, p, out=work)
    # Pivot rows by pivot column on top; the rows left free are zero mod p.
    order = np.argsort(pivot_col, axis=0, kind="stable")
    reduced = work.transpose(2, 0, 1)[stack[:, None], order.T]
    return rows - free.sum(axis=0), reduced.astype(np.min_scalar_type(p - 1), copy=False)


def _products(chunk: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """stack[i, g, :] is the coefficient vector of 1_g * a_i, or of a_i * 1_g
    when table is the right one of the _gather_tables.

    table[g, k] is the coordinate of a_i that lands on coordinate k, or n
    for the zero column appended to the chunk.  Entries are reduced mod p,
    in the narrowest unsigned type that holds p - 1, and the stack is
    C-contiguous.
    """
    count, n = chunk.shape
    padded = np.zeros((count, n + 1), dtype=np.min_scalar_type(p - 1))
    np.remainder(chunk, p, out=padded[:, :n], casting="unsafe")
    return np.take(padded, table, axis=1)


def _in_span(vectors: np.ndarray, rows: np.ndarray, p: int) -> bool:
    """Whether every vector lies in the row space of rows, which are reduced
    echelon rows over GF(p) with no zero row.

    The coordinates of a member at the pivot columns are its coefficients,
    so it equals that combination of the rows.  The products run in uint64:
    each sum has at most n terms below p**2, within the bound that
    _accumulator_dtype(p, n) enforces on every reduction of width n.
    """
    pivots = (rows != 0).argmax(axis=1)
    vectors = vectors.astype(np.uint64) % p
    combos = vectors[:, pivots] @ rows.astype(np.uint64) % p
    return bool((combos == vectors).all())


def _enumerate_ideals(
    p: int, n: int, products
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All distinct cyclic ideal subspaces of GF(p)^n, in first-generator
    order, as pairs (echelon rows, first generator vector)."""
    seen: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    # The full order of GF(p)^n: the integers grow as the lead moves left.
    chunks = (chunk for lead in reversed(range(n)) for chunk in _lines(p, n, lead))
    for chunk in chunks:
        stacks = products(chunk)
        ranks, reduced = _batched_rref(stacks, p)
        # Zero rows pad every reduced matrix, so its bytes in the narrowest
        # type holding p - 1 are a canonical key; np.unique keeps the first
        # occurrence of each.
        flat = reduced.reshape(chunk.shape[0], -1)
        keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))[:, 0]
        _, first_indices = np.unique(keys, return_index=True)
        for i in np.sort(first_indices):
            key = keys[i].tobytes()
            if key not in seen:
                seen[key] = (reduced[i, : ranks[i]].copy(), chunk[i].copy())
    return list(seen.values())


def _minimal_among(
    ideals: list[tuple[np.ndarray, np.ndarray]], p: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (rows, gen)
        for rows, gen in ideals
        if not any(
            other.shape[0] < rows.shape[0] and _in_span(other, rows, p)
            for other, _ in ideals
        )
    ]


def _element(algebra: SteinbergAlgebra, vec: np.ndarray) -> AlgebraElement:
    return algebra.from_vector([int(c) for c in vec])


def _ideal_from_rows(
    algebra: SteinbergAlgebra,
    rows: np.ndarray,
    generators: tuple[AlgebraElement, ...],
    two_sided: bool,
) -> LeftIdeal:
    return LeftIdeal(
        algebra=algebra,
        generators=generators,
        basis=tuple(_element(algebra, row) for row in rows),
        dimension=int(rows.shape[0]),
        two_sided=two_sided,
    )


def _minimal_ideals(algebra: SteinbergAlgebra, side: str) -> list[LeftIdeal]:
    """Every minimal left ideal A a (side "left", rows 1_g * a) or right
    ideal a A (side "right", rows a * 1_g), by full enumeration of the
    cyclic ones in each block.

    Each returned ideal records the first enumerated generator; the list is
    sorted by dimension and then by the canonical key of the n x n reduced
    echelon matrix, so it is deterministic and independent of chunk sizes
    and of the split into blocks.
    """
    p = _require_prime_field(algebra)
    n = algebra.dim
    check_enum_size(p, n)
    found = []
    for block in _blocks(algebra):
        table = block.left if side == "left" else block.right
        ideals = _enumerate_ideals(p, block.size, lambda c: _products(c, table, p))
        for rows, gen in _minimal_among(ideals, p):
            # Ideals of equal rank pad to the n x n matrix the unsplit walk
            # reduced with the same zero rows, so these bytes order them alike.
            full = block.embed(rows, n)
            found.append((rows.shape[0], full.tobytes(), full, block.embed(gen, n)))
    found.sort(key=lambda t: t[:2])
    return [
        _ideal_from_rows(algebra, rows, (_element(algebra, gen),), two_sided=False)
        for _, _, rows, gen in found
    ]


def _socle(algebra: SteinbergAlgebra, minimal: list[LeftIdeal]) -> LeftIdeal:
    """The sum of the given minimal ideals, verified to be closed under
    multiplication on both sides: a socle of either side is two-sided."""
    p = _require_prime_field(algebra)
    rows = np.zeros((0, algebra.dim), dtype=np.int64)
    if minimal:
        stacked = np.array(
            [[int(c) for c in b.to_vector()] for ideal in minimal for b in ideal.basis],
            dtype=np.int64,
        )
        ranks, reduced = _batched_rref(stacked[None, :, :], p)
        rows = reduced[0, : ranks[0]]
    for table in _gather_tables(algebra):
        if not _in_span(_products(rows, table, p).reshape(-1, algebra.dim), rows, p):
            raise RuntimeError("socle failed the two-sided closure check")
    generators = tuple(i.generators[0] for i in minimal)
    return _ideal_from_rows(algebra, rows, generators, two_sided=True)


def oracle_minimal_ideals(algebra: SteinbergAlgebra) -> list[LeftIdeal]:
    """Every minimal left ideal, by full enumeration of cyclic left ideals."""
    return _minimal_ideals(algebra, "left")


def oracle_minimal_right_ideals(algebra: SteinbergAlgebra) -> list[LeftIdeal]:
    """Every minimal right ideal, the mirror enumeration of a A."""
    return _minimal_ideals(algebra, "right")


def oracle_socle(
    algebra: SteinbergAlgebra, minimal: list[LeftIdeal] | None = None
) -> LeftIdeal:
    """The sum of all minimal left ideals, verified two-sided.

    Pass minimal= to reuse an oracle_minimal_ideals result instead of
    enumerating a second time.
    """
    if minimal is None:
        minimal = oracle_minimal_ideals(algebra)
    return _socle(algebra, minimal)


def oracle_right_socle(
    algebra: SteinbergAlgebra, minimal: list[LeftIdeal] | None = None
) -> LeftIdeal:
    """The sum of all minimal right ideals, verified two-sided."""
    if minimal is None:
        minimal = oracle_minimal_right_ideals(algebra)
    return _socle(algebra, minimal)


@dataclass
class SemiprimeReport:
    semiprime: bool
    witness: AlgebraElement | None

    def __bool__(self) -> bool:
        return self.semiprime


def oracle_is_semiprime(algebra: SteinbergAlgebra) -> SemiprimeReport:
    """Search one nonzero a per scalar line for the absolute zero divisor
    property a * A * a = 0; the witness is the first such a in the order of
    the full enumeration (see _lines).

    Products across blocks vanish, so for g in block i, a * 1_g * a =
    a_i * 1_g * a_i where a_i is the component of a in block i: a is an
    absolute zero divisor exactly when each of its components is one or
    zero.  Dropping every component but the one holding a's leading
    coordinate lowers a's integer value, so the first absolute zero divisor
    lies in one block.  The walk therefore visits only vectors supported in
    one block, led by each coordinate in turn from the last to the first,
    which is their order in the full enumeration.
    """
    p = _require_prime_field(algebra)
    n = algebra.dim
    check_enum_size(p, n)
    owner = {
        int(full): (block, lead)
        for block in _blocks(algebra)
        for lead, full in enumerate(block.index)
    }
    for full in reversed(range(n)):
        block, lead = owner[full]
        dtype = _accumulator_dtype(p, block.size)
        for chunk in _lines(p, block.size, lead):
            # left[i, h] is 1_h * a_i, so (a_i * 1_g) * a_i sums its
            # coefficient of 1_h times left[i, h]: block.size products of
            # reduced values, within the bound of dtype.
            left = _products(chunk, block.left, p).astype(dtype, copy=False)
            # A line drops out at the first g with a * 1_g * a != 0; the
            # rest keep their order, so chunk[0] is the first witness.
            for g in range(block.size):
                if not chunk.shape[0]:
                    break
                shifted = _products(chunk, block.right[g : g + 1], p)[:, 0]  # a * 1_g
                conv = np.einsum("ih,ihk->ik", shifted.astype(dtype, copy=False), left) % p
                keep = ~conv.any(axis=1)
                chunk, left = chunk[keep], left[keep]
            if chunk.shape[0]:
                witness = block.embed(chunk[0], n)
                return SemiprimeReport(semiprime=False, witness=_element(algebra, witness))
    return SemiprimeReport(semiprime=True, witness=None)
