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
chunks; chunking does not affect any result.  The algebra's left action
table is built as a gather table: entry [g, k] names the coordinate of a
that lands on coordinate k of 1_g * a, or n for an appended zero column.
For p >= 3 the products 1_g * a of a chunk come from one gather through
it, and row reduction delays reduction mod p: entries live in the
narrowest unsigned type that holds every sum a reduction accumulates
between its reductions mod p, and only pivot columns and pivot rows are
reduced along the way.  Reduced echelon forms are canonical: a chunk's
ideals are deduplicated by their bytes, and membership in an echelon span
is one matrix product, because a member's entries at the pivot columns are
its coefficients.  The engine (socle module) deliberately shares no linear
algebra with this module.

Over GF(2) both walks keep every product row as one packed uint32 word,
coordinate k at bit 31 - k; the widest block the cap admits has 20
coordinates.  A chunk's packed rows are the integer product of its 0/1
vectors with a weight table built once per block from the gather table,
looked up eight coordinates at a time (Four Russians), so no n x n stack
is built and no float is used (see _word_tables).  Row reduction is XOR
elimination across the stack (_xor_rref).  Its reduced words, indexed by
pivot column, are the canonical key: the nonzero ones are the rank, and
read in order they descend, which is echelon order.  Only the distinct
ideals are unpacked to the uint8 rows the other fields give.  The
semiprime walk gets each (a * 1_g) * a as one XOR-reduce of the packed
words 1_h * a over the bits h of a * 1_g.

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
    nonzero coordinate is lead, as the increasing integers whose base-q
    digits they are (first coordinate, in canonical basis order, most
    significant; see _digits), in chunks of at most _chunk_rows_for(n).

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
    m = n - 1 - lead
    start, stop = q**m, 2 * q**m
    while start < stop:
        upper = min(start + chunk_rows, stop)
        yield np.arange(start, upper, dtype=np.int64)
        start = upper


def _digits(indices: np.ndarray, q: int, n: int) -> np.ndarray:
    """The coefficient vectors whose base-q digits the indices are (see
    _lines), in int64."""
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (indices[:, None] // powers[None, :]) % q


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


# Width of the packed GF(2) rows: coordinate k of a row is bit 31 - k.
_WORD_BITS = 32


def _word_tables(table: np.ndarray) -> np.ndarray:
    """Four Russians tables of the packed GF(2) products through a gather
    table (see _products): words[i, g] packs 1_g * a_i (or a_i * 1_g), and
    coordinate k of a row is bit 31 - k.

    The weight table W[j, g] = 2**(31 - k) wherever table[g, k] = j < n,
    else 0, packs the products: words = a @ W for 0/1 vectors a.  Each j
    lands on at most one k for a given g, so the integer sum adds distinct
    powers of two, carries nothing and is exact in uint32.  The product is
    evaluated eight coordinates at a time: tables[t, v] is the sum of the
    rows of W at the coordinates that byte t of a's index (see _lines)
    holds, selected by the bits of v, so _packed_products takes one lookup
    per byte in place of n multiply-adds per word.
    """
    n = table.shape[0]
    if n > _WORD_BITS:
        raise OverflowError(f"GF(2) rows of width {n} do not fit {_WORD_BITS}-bit words")
    weights = np.zeros((n + 1, n), dtype=np.uint32)
    g, k = np.indices(table.shape)
    # Row n gathers the zero column's entries and is dropped.
    weights[table, g] = np.uint32(1) << (_WORD_BITS - 1 - k).astype(np.uint32)
    # Bit i of an index is coordinate n - 1 - i: reverse W's rows, pad them
    # to whole bytes with zero rows.
    byte_count = -(-n // 8)
    by_bit = np.zeros((8 * byte_count, n), dtype=np.uint32)
    by_bit[:n] = weights[n - 1 :: -1]
    bits = (np.arange(256, dtype=np.uint32)[:, None] >> np.arange(8, dtype=np.uint32)) & 1
    return np.stack([bits @ by_bit[8 * t : 8 * t + 8] for t in range(byte_count)])


def _packed_products(indices: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """words[i, g]: the packed product of g with the vector whose binary
    digits indices[i] is, by one lookup per byte in the _word_tables
    (words[i] alone for the tables[:, :, g] of one g)."""
    words = np.take(tables[0], indices & 255, axis=0)
    for t in range(1, tables.shape[0]):
        words |= np.take(tables[t], (indices >> (8 * t)) & 255, axis=0)
    return words


def _bit_shifts(n: int) -> np.ndarray:
    """The right shifts that bring coordinates 0..n-1 of a packed word to
    bit 0."""
    return np.arange(_WORD_BITS - 1, _WORD_BITS - 1 - n, -1, dtype=np.uint32)


def _unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 coordinates of packed GF(2) rows, in uint8 (last axis n)."""
    return ((words[..., None] >> _bit_shifts(n)) & 1).astype(np.uint8)


def _xor_rref(words: np.ndarray, cols: int) -> np.ndarray:
    """Reduced row echelon form of a stack of GF(2) matrices whose rows are
    packed words with cols coordinates (see _word_tables).

    Returns pivots of shape (count, cols): pivots[i, c] is the word of the
    reduced echelon row of words[i] whose pivot is column c, or 0 when c is
    not a pivot column.  This layout is canonical, its nonzero words are
    the rank, and read in order they are the echelon rows: a row's pivot is
    its leading bit, so they descend.

    Column c eliminates by XOR.  Rows that have not become pivots only ever
    take XORs of earlier pivots, which were such rows, so before step c
    they are zero left of c: as integers they are below 2**(32 - c), and
    those with bit c set are the largest.  The step takes their maximum as
    the pivot when it has bit c, and a zero pivot when no row has it.  The
    pivot's leading bit is c, so row ^ pivot first differs from row at bit
    c, and min(row, row ^ pivot) XORs the pivot into exactly the rows with
    bit c: the other rows, the chosen one (which becomes zero) and the
    earlier pivots, so the result is reduced.
    """
    count, rows = words.shape
    # Row r of matrix i sits at [r, i]: every step runs across the stack.
    work = np.zeros((cols + rows, count), dtype=np.uint32)
    pivots, free = work[:cols], work[cols:]
    free[...] = words.T
    for col in range(cols):
        top = free.max(axis=0)
        pivot = top * (top >> np.uint32(_WORD_BITS - 1 - col))
        for part in (pivots[:col], free):
            np.minimum(part, part ^ pivot, out=part)
        pivots[col] = pivot
    return np.ascontiguousarray(pivots.T)


def _enumerate_ideals(
    p: int, n: int, table: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All distinct cyclic ideal subspaces of GF(p)^n whose rows are the
    products through the gather table (see _products), in first-generator
    order, as pairs (echelon rows, first generator vector)."""
    seen: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    tables = _word_tables(table) if p == 2 else None
    # The full order of GF(p)^n: the integers grow as the lead moves left.
    chunks = (chunk for lead in reversed(range(n)) for chunk in _lines(p, n, lead))
    for indices in chunks:
        if tables is None:
            # Zero rows pad every reduced matrix, so its bytes in the
            # narrowest type holding p - 1 are a canonical key.
            ranks, reduced = _batched_rref(_products(_digits(indices, p, n), table, p), p)
        else:
            # So are the pivot-indexed words (see _xor_rref).
            reduced = _xor_rref(_packed_products(indices, tables), n)
        # np.unique keeps the first occurrence of each key.
        flat = reduced.reshape(indices.shape[0], -1)
        keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize)))[:, 0]
        _, first_indices = np.unique(keys, return_index=True)
        for i in np.sort(first_indices):
            key = keys[i].tobytes()
            if key not in seen:
                if tables is None:
                    rows = reduced[i, : ranks[i]].copy()
                else:
                    rows = _unpack_words(reduced[i][reduced[i] != 0], n)
                seen[key] = (rows, _digits(indices[i : i + 1], p, n)[0])
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
        ideals = _enumerate_ideals(p, block.size, table)
        for rows, gen in _minimal_among(ideals, p):
            # Ideals of equal rank pad to the n x n matrix the unsplit walk
            # reduced with the same zero rows, so these bytes order them alike.
            full = block.embed(rows, n)
            found.append((rows.shape[0], full.tobytes(), full, block.embed(gen, n)))
    found.sort(key=lambda t: t[:2])
    return [
        LeftIdeal(algebra, (_element(algebra, gen),), tuple(map(tuple, rows.tolist())))
        for _, _, rows, gen in found
    ]


def _socle(algebra: SteinbergAlgebra, minimal: list[LeftIdeal]) -> LeftIdeal:
    """The sum of the given minimal ideals, verified to be closed under
    multiplication on both sides: a socle of either side is two-sided."""
    p = _require_prime_field(algebra)
    rows = np.zeros((0, algebra.dim), dtype=np.int64)
    if minimal:
        stacked = np.array([row for ideal in minimal for row in ideal.rows], dtype=np.int64)
        ranks, reduced = _batched_rref(stacked[None, :, :], p)
        rows = reduced[0, : ranks[0]]
    for table in _gather_tables(algebra):
        if not _in_span(_products(rows, table, p).reshape(-1, algebra.dim), rows, p):
            raise RuntimeError("socle failed the two-sided closure check")
    generators = tuple(i.generators[0] for i in minimal)
    return LeftIdeal(algebra, generators, tuple(map(tuple, rows.tolist())), two_sided=True)


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


def _zero_divisors(indices: np.ndarray, block: _Block, p: int) -> np.ndarray:
    """The indices (see _lines) of the vectors a with a * 1_g * a = 0 for
    every g of block, in order: a vector drops out at the first g with
    a * 1_g * a != 0."""
    chunk = _digits(indices, p, block.size)
    dtype = _accumulator_dtype(p, block.size)
    # left[i, h] is 1_h * a_i, so (a_i * 1_g) * a_i sums its coefficient of
    # 1_h times left[i, h]: block.size products of reduced values, within
    # the bound of dtype.
    left = _products(chunk, block.left, p).astype(dtype, copy=False)
    for g in range(block.size):
        if not chunk.shape[0]:
            break
        shifted = _products(chunk, block.right[g : g + 1], p)[:, 0]  # a * 1_g
        conv = np.einsum("ih,ihk->ik", shifted.astype(dtype, copy=False), left) % p
        keep = ~conv.any(axis=1)
        indices, chunk, left = indices[keep], chunk[keep], left[keep]
    return indices


def _xor_zero_divisors(
    indices: np.ndarray, left_tables: np.ndarray, right_tables: np.ndarray
) -> np.ndarray:
    """_zero_divisors over GF(2), on packed words (see _word_tables)."""
    n = left_tables.shape[2]
    shifts = _bit_shifts(n)[:, None]
    # left[h, i] is the word of 1_h * a_i, so (a_i * 1_g) * a_i is the XOR
    # of left[h, i] over the bits h of the word of a_i * 1_g, which is
    # packed only for the vectors still in the walk.
    left = np.ascontiguousarray(_packed_products(indices, left_tables).T)
    for g in range(n):
        if not indices.shape[0]:
            break
        bits = (_packed_products(indices, right_tables[:, :, g]) >> shifts) & 1
        keep = np.bitwise_xor.reduce(left * bits, axis=0) == 0
        indices, left = indices[keep], left[:, keep]
    return indices


@dataclass
class SemiprimeReport:
    semiprime: bool
    witness: AlgebraElement | None


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
    owner = {}
    for block in _blocks(algebra):
        tables = (_word_tables(block.left), _word_tables(block.right)) if p == 2 else None
        for lead, full in enumerate(block.index):
            owner[int(full)] = (block, lead, tables)
    for full in reversed(range(n)):
        block, lead, tables = owner[full]
        for indices in _lines(p, block.size, lead):
            if tables is None:
                indices = _zero_divisors(indices, block, p)
            else:
                indices = _xor_zero_divisors(indices, *tables)
            # The survivors keep their order, so the first is the witness.
            if indices.shape[0]:
                witness = block.embed(_digits(indices[:1], p, block.size)[0], n)
                return SemiprimeReport(semiprime=False, witness=_element(algebra, witness))
    return SemiprimeReport(semiprime=True, witness=None)
