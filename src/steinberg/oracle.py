"""Assumption-free brute force over prime fields, used to validate the engine.

The oracle never reasons about isotropy or orbits.  It enumerates one
nonzero element a per scalar line of the algebra (subject to the fixed
q^dim cap), computes the left ideal A a as the row space of all products
1_g * a (local units put a itself in that span), keeps the ideals that are
minimal under inclusion and sums them into the socle.  Right ideals a A run
through the same enumeration with the products a * 1_g.  Either socle is
verified to be closed under multiplication on both sides.  Semiprimeness
is read off the same cyclic left ideals: an absolute zero divisor, a
nonzero a with a * 1_g * a = 0 for all g, is a generator that annihilates
the rows of its ideal (see oracle_is_semiprime).

Everything runs on numpy arrays, processed in enumeration order in bounded
chunks that run on across the borders between leading coordinates (see
_lines); chunking does not affect any result.  The algebra's left action
table is built as a gather table: entry [g, k] names the coordinate of a
that lands on coordinate k of 1_g * a, or n for an appended zero column.
For p >= 3 the products 1_g * a of a chunk come from one gather through it,
straight into the layout row reduction works in: entry (g, k) of the
matrix of a_i sits at [g, k, i], so every elimination step runs one long
vector loop across the chunk.  Row reduction delays reduction mod p:
entries live in the narrowest unsigned type that holds every sum a
reduction accumulates between its reductions mod p, and only pivot columns
and pivot rows are reduced along the way.  Each pivot row moves into a slot
indexed by its pivot column, so a reduced echelon form comes out indexed by
pivot column with no final sort.  That form is canonical: a chunk's ideals
are deduplicated by its bytes, folded into one 64-bit fingerprint per form
and checked exactly against the first form of each fingerprint (see
_first_occurrences), and membership in an echelon span is one matrix
product, because a member's entries at the pivot columns are its
coefficients.  An ideal is minimal when none of the minimal ideals of
smaller dimension lies in it, and one product tests all the ideals of a
dimension at once.  The engine (socle module) deliberately shares no
linear algebra with this module.

Over GF(2) the walk keeps every product row as one packed word, the
narrowest of uint8, uint16 and uint32 that holds the block's coordinates,
coordinate k at bit bits - 1 - k of a word of bits bits (see _word_dtype);
the widest block the cap admits has 20 coordinates and takes uint32.  A
chunk's packed rows are the integer product of its 0/1 vectors with a
weight table built once per block from the gather table, looked up eight
coordinates at a time (Four Russians), so no n x n stack is built and no
float is used (see _word_tables).  Row reduction is XOR elimination across
the stack (_xor_rref), and a narrower word halves or quarters the bytes
each step touches.  Its reduced words, indexed by pivot column, are the
canonical key: the nonzero ones are the rank, and read in order they
descend, which is echelon order.  Only the distinct ideals are unpacked to
the uint8 rows the other fields give.

The walk runs once per connected block of the composition table.  A
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
are unchanged.

The full gather tables and the blocks with their restricted tables are
built once per algebra (see _tables) and shared by the minimal ideals and
the socle's closure check.  Each block keeps the cyclic ideals of each side
once walked, so a side's GF(2) word tables are built once, and the
semiprime test reads the left ones the minimal ideals listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from weakref import WeakKeyDictionary

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


@dataclass
class _Block:
    """One connected block of the composition table.

    index holds the full coordinates of the block's basis, increasing;
    left and right (the _gather_tables) are in block coordinates.
    """

    index: np.ndarray
    left: np.ndarray
    right: np.ndarray
    # The _enumerate_ideals of each side, walked on first use.
    ideals: dict[str, list[tuple[np.ndarray, np.ndarray]]] = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return int(self.index.size)

    def gather(self, side: str) -> np.ndarray:
        return self.left if side == "left" else self.right

    def embed(self, vectors: np.ndarray, n: int) -> np.ndarray:
        """Block-coordinate vectors (last axis) in the n full coordinates."""
        full = np.zeros(vectors.shape[:-1] + (n,), dtype=vectors.dtype)
        full[..., self.index] = vectors
        return full


def _blocks(left: np.ndarray, right: np.ndarray) -> tuple[_Block, ...]:
    """The connected blocks of the full gather tables, by union-find over the
    entries below n of the left one, ordered by their least coordinate.

    An entry [g, k] = j < n puts g, j and k in one block, so 1_a * 1_b is
    zero whenever a and b lie in different blocks, and a gather table entry
    [g, k] inside a block names a coordinate of that block or the zero
    column.
    """
    n = left.shape[0]
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
    found = [find(i) for i in range(n)]
    roots = np.array(found, dtype=np.intp)
    local = np.empty(n + 1, dtype=np.intp)
    blocks = []
    for root in sorted(set(found)):
        index = np.flatnonzero(roots == root)
        local[index] = np.arange(index.size)
        local[n] = index.size
        sub = np.ix_(index, index)
        blocks.append(_Block(index=index, left=local[left[sub]], right=local[right[sub]]))
    return tuple(blocks)


@dataclass(frozen=True)
class _Tables:
    """An algebra's full _gather_tables (left, right) and its _blocks."""

    gather: tuple[np.ndarray, np.ndarray]
    blocks: tuple[_Block, ...]


# Keyed weakly, and no entry refers to its algebra, so the cache keeps no
# algebra alive.
_TABLES: WeakKeyDictionary[SteinbergAlgebra, _Tables] = WeakKeyDictionary()


def _tables(algebra: SteinbergAlgebra) -> _Tables:
    """The algebra's gather tables and blocks, built on the first call."""
    tables = _TABLES.get(algebra)
    if tables is None:
        gather = _gather_tables(algebra)
        tables = _TABLES[algebra] = _Tables(gather, _blocks(*gather))
    return tables


def _lines(q: int, n: int):
    """One coefficient vector per scalar line of GF(q)^n, in increasing
    order, as the integers whose base-q digits they are (first coordinate,
    in canonical basis order, most significant; see _digits), in chunks of
    at most _chunk_rows_for(q, n) that run on from one leading coordinate
    into the next.

    The representative of a line is its vector with leading nonzero digit
    1, so the representatives led by coordinate n - 1 - m are the integers
    in [q**m, 2*q**m).  Scaling a by c != 0 does not change the cyclic
    ideal a generates.  And the first vector of a line in the full order
    [1, q**n) is its representative: if a had leading digit c != 1, then
    c^-1 * a would lie on the same line with a smaller integer value.  So
    the first generator recorded per ideal is that of the full enumeration.
    """
    chunk_rows = _chunk_rows_for(q, n)
    parts, size = [], 0
    for m in range(n):
        start, stop = q**m, 2 * q**m
        while start < stop:
            upper = min(start + chunk_rows - size, stop)
            parts.append(np.arange(start, upper, dtype=np.int64))
            size += upper - start
            start = upper
            if size == chunk_rows:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _digits(indices: np.ndarray, q: int, n: int) -> np.ndarray:
    """The coefficient vectors whose base-q digits the indices are (see
    _lines), in int64, one per column: column i holds indices[i]'s.

    Digit k is the quotient by q**(n - 1 - k) less q times the quotient by
    q**(n - k), the one above it."""
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = indices[None, :] // powers[:, None]
    digits[1:] -= q * digits[:-1]
    return digits


def _chunk_rows_for(q: int, n: int) -> int:
    """Lines per chunk, for at most about 2 MiB of working arrays: a GF(2)
    line takes about 5 n bytes per byte of its word (its n packed words,
    the elimination's work array and temporaries), so at most 20 n bytes
    with uint32 words, and a GF(p) line about 5 n**2 (its n x n stack and a
    work array twice that size).  Narrower GF(2) words keep the uint32
    figure: larger chunks were measured to walk slower, not faster."""
    line_bytes = 20 * n if q == 2 else 5 * n * n
    return max(256, (1 << 21) // line_bytes)


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
    values, by square and multiply and _reduce in their own unsigned type,
    which must hold (p - 1)**2.  Zero maps to zero, or to one for p = 2."""
    result = np.ones_like(values)
    base = values.copy()
    exponent = p - 2
    while exponent:
        if exponent & 1:
            result = _reduce(result * base, p)
        base = _reduce(base * base, p)
        exponent >>= 1
    return result


def _reduce(values: np.ndarray, p: int) -> np.ndarray:
    """Unsigned values mod p, in place.  numpy divides integers by a scalar
    through a precomputed multiplier, but np.remainder has no such path and
    is an order of magnitude slower."""
    multiples = values // p
    multiples *= p
    values -= multiples
    return values


def _batched_rref(stack: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon forms over GF(p) of a stack of matrices with
    entries reduced mod p, laid out with the stack index last: stack[r, c,
    i] is entry (r, c) of matrix i.

    Returns pivots of shape (count, cols, cols), the layout of _xor_rref:
    pivots[i, c] is the reduced echelon row of matrix i whose pivot is
    column c, or a zero row when c is not a pivot column, in the narrowest
    unsigned type that holds p - 1.  This layout is canonical, its nonzero
    rows are the rank, and read in order they are the echelon rows.  The
    echelon form is unique, so it does not depend on which eligible row
    becomes a pivot.

    The pivot row of column c moves to slot cols - 1 - c above the
    matrix's rows, and the row it came from is eliminated to zero, so the
    rows a step touches, the pivots found so far and the rows below them,
    are one slice, and the slots read backwards are the pivots by column.
    A step takes the first row with a nonzero entry in its column, found by
    a max-reduce across the rows; a matrix with none takes the zero row
    below its rows, and eliminating with a zero pivot changes nothing (it
    stays zero whatever _inverses_mod gives its zero lead, one for p = 2).
    Reduction mod p is delayed: each column step reduces only its column
    and the pivot row, then adds (p - entry) * pivot_row to every row it
    touches without reducing; the slots are reduced once at the end, and
    the other rows are then zero mod p.
    """
    rows, cols, count = stack.shape
    work = np.zeros((cols + rows + 1, cols, count), dtype=_accumulator_dtype(p, cols))
    work[cols : cols + rows] = stack
    # The walk passes a stack nothing else refers to: release it before the
    # elimination's temporaries are allocated.
    del stack
    flat = work.reshape(-1)
    # Flat offsets of entry (cols, c) of matrix 0: row cols is the first row
    # below the slots.
    offsets = cols * cols * count + np.arange(cols)[:, None] * count
    matrices = np.arange(count)
    # The largest weight of a row with a nonzero entry names the first one;
    # weight 0 names the zero row.
    weights = np.arange(rows, -1, -1, dtype=np.min_scalar_type(rows))[:, None]
    for col in range(cols):
        live = work[cols - col :, col:]
        column = _reduce(live[:, 0], p)
        nonzero = column != 0
        first = rows - (nonzero[col:] * weights).max(axis=0).astype(np.intp)
        pivot = _reduce(flat[(first * (cols * count) + matrices) + offsets[col:]], p)
        lead = pivot[0]
        pivot *= _inverses_mod(lead, p)
        _reduce(pivot, p)
        # Columns left of col are zero in the pivot row.
        live += ((p - column) * nonzero)[:, None, :] * pivot[None, :, :]
        work[cols - 1 - col, col:] = pivot
    slots = _reduce(work[:cols], p)
    return np.ascontiguousarray(slots[::-1].transpose(2, 0, 1), dtype=np.min_scalar_type(p - 1))


def _products(vectors: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """stack[g, k, i] is coordinate k of 1_g * a_i, or of a_i * 1_g when
    table is the right one of the _gather_tables, where a_i is column i of
    vectors, whose entries are reduced mod p: the layout _batched_rref
    takes.

    table[g, k] is the coordinate of a_i that lands on coordinate k, or n
    for the zero row appended to the vectors.  Entries are in the narrowest
    unsigned type that holds p - 1.
    """
    n, count = vectors.shape
    padded = np.zeros((n + 1, count), dtype=np.min_scalar_type(p - 1))
    padded[:n] = vectors
    return padded[table]


def _members(vectors: np.ndarray, spans: np.ndarray, p: int) -> np.ndarray:
    """inside[s, v]: whether vectors[v] lies in the row space of spans[s],
    for a stack of spans of reduced echelon rows over GF(p) with no zero
    row, all of one rank.

    The coordinates of a member at the pivot columns are its coefficients,
    so it equals that combination of the rows.  The products run in uint64:
    each sum has at most n terms below p**2, within the bound that
    _accumulator_dtype(p, n) enforces on every reduction of width n.
    """
    pivots = (spans != 0).argmax(axis=2)
    vectors = _reduce(vectors.astype(np.uint64), p)
    combos = _reduce(np.matmul(vectors[:, pivots].transpose(1, 0, 2), spans.astype(np.uint64)), p)
    return (combos == vectors).all(axis=2)


# The widest packed GF(2) word; see _word_dtype.
_WORD_BITS = 32


def _word_dtype(n: int) -> type:
    """The narrowest unsigned word holding a GF(2) row of n coordinates:
    uint8 up to 8, uint16 up to 16, uint32 up to _WORD_BITS.  Coordinate k
    of a row is bit bits - 1 - k of its word (bits the word's width)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n <= np.iinfo(dtype).bits:
            return dtype
    raise OverflowError(f"GF(2) rows of width {n} do not fit {_WORD_BITS}-bit words")


def _word_tables(table: np.ndarray) -> np.ndarray:
    """Four Russians tables of the packed GF(2) products through a gather
    table (see _products): words[i, g] packs 1_g * a_i (or a_i * 1_g) in
    the _word_dtype of the table's n coordinates, coordinate k at bit
    bits - 1 - k.

    The weight table W[j, g] = 2**(bits - 1 - k) wherever table[g, k] = j <
    n, else 0, packs the products: words = a @ W for 0/1 vectors a.  Each j
    lands on at most one k for a given g, so the integer sum adds distinct
    powers of two, carries nothing and is exact in the word.  The product is
    evaluated eight coordinates at a time: tables[t, v] is the sum of the
    rows of W at the coordinates that byte t of a's index (see _lines)
    holds, selected by the bits of v, so _packed_products takes one lookup
    per byte in place of n multiply-adds per word.
    """
    n = table.shape[0]
    dtype = _word_dtype(n)
    bits = np.iinfo(dtype).bits
    weights = np.zeros((n + 1, n), dtype=dtype)
    g, k = np.indices(table.shape)
    # Row n gathers the zero column's entries and is dropped.
    weights[table, g] = dtype(1) << (bits - 1 - k).astype(dtype)
    # Bit i of an index is coordinate n - 1 - i: reverse W's rows, pad them
    # to whole bytes with zero rows.
    byte_count = -(-n // 8)
    by_bit = np.zeros((8 * byte_count, n), dtype=dtype)
    by_bit[:n] = weights[n - 1 :: -1]
    selected = (np.arange(256, dtype=dtype)[:, None] >> np.arange(8, dtype=dtype)) & dtype(1)
    return np.stack([selected @ by_bit[8 * t : 8 * t + 8] for t in range(byte_count)])


def _packed_products(indices: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """words[i, g]: the packed product of g with the vector whose binary
    digits indices[i] is, by one lookup per byte in the _word_tables, in
    their word type."""
    words = np.take(tables[0], indices & 255, axis=0)
    for t in range(1, tables.shape[0]):
        words |= np.take(tables[t], (indices >> (8 * t)) & 255, axis=0)
    return words


def _unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 coordinates of packed GF(2) rows, in uint8 (last axis n);
    coordinate k is bit bits - 1 - k of the words' type."""
    bits = np.iinfo(words.dtype).bits
    shifts = np.arange(bits - 1, bits - 1 - n, -1).astype(words.dtype)
    return ((words[..., None] >> shifts) & words.dtype.type(1)).astype(np.uint8)


def _xor_rref(words: np.ndarray, cols: int) -> np.ndarray:
    """Reduced row echelon form of a stack of GF(2) matrices whose rows are
    packed words with cols coordinates (see _word_tables).

    Returns pivots of shape (count, cols) in the words' type: pivots[i, c]
    is the word of the reduced echelon row of words[i] whose pivot is
    column c, or 0 when c is not a pivot column.  This layout is canonical,
    its nonzero words are the rank, and read in order they are the echelon
    rows: a row's pivot is its leading bit, so they descend.

    Column c, bit bits - 1 - c of a word of bits bits, eliminates by XOR.
    Rows that have not become pivots only ever take XORs of earlier pivots,
    which were such rows, so before step c they are zero left of c: as
    integers they are below 2**(bits - c), and those with bit c set are the
    largest.  The step takes their maximum as the pivot when it has bit c,
    and a zero pivot when no row has it.  The pivot's leading bit is c, so
    row ^ pivot first differs from row at bit c, and min(row, row ^ pivot)
    XORs the pivot into exactly the rows with bit c: the other rows, the
    chosen one (which becomes zero) and the earlier pivots, so the result is
    reduced.
    """
    count, rows = words.shape
    word = words.dtype.type
    bits = np.iinfo(words.dtype).bits
    # Row r of matrix i sits at [r, i]: every step runs across the stack.
    work = np.zeros((cols + rows, count), dtype=words.dtype)
    pivots, free = work[:cols], work[cols:]
    free[...] = words.T
    for col in range(cols):
        top = free.max(axis=0)
        pivot = top * (top >> word(bits - 1 - col))
        for part in (pivots[:col], free):
            np.minimum(part, part ^ pivot, out=part)
        pivots[col] = pivot
    return np.ascontiguousarray(pivots.T)


# SplitMix64's increment and output mix (Steele, Lea and Flood, 2014).
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=None)
def _fingerprint_multipliers(words: int) -> np.ndarray:
    """Odd 64-bit multipliers, one per uint64 word of a dedupe key (see
    _first_occurrences): the outputs of SplitMix64 from seed 0, made odd.

    They come from Python integers: numpy.random is not otherwise loaded
    and importing it costs several MiB.  A plain Weyl sequence gamma * (2i
    + 1) would not do: its fingerprint is gamma times sum (2i + 1) w_i, so
    keys whose words differ by (3, -1) would all collide.
    """
    values = []
    z = 0
    for _ in range(words):
        z = (z + _GOLDEN_GAMMA) & _MASK64
        x = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
        values.append(x ^ (x >> 31) | 1)
    multipliers = np.array(values, dtype=np.uint64)
    # Every caller shares it.
    multipliers.flags.writeable = False
    return multipliers


def _first_occurrences(flat: np.ndarray) -> np.ndarray:
    """The index of the first occurrence of each distinct row of flat, a
    C-contiguous unsigned 2-d array, in increasing order.

    Each row's bytes, padded with zeros to whole uint64 words, fold into
    one uint64 fingerprint by one product with the _fingerprint_multipliers
    (mod 2**64).  A stable argsort groups equal fingerprints with their
    least index first, and the grouping is exact when every row equals the
    first row of its fingerprint; if two distinct rows share one, the chunk
    falls back to a stable lexsort of the rows' words themselves.  Either
    way the first occurrences are those of the distinct rows.  (np.unique
    would import numpy.ma, about 1 MiB, on its first call.)
    """
    count, width = flat.shape[0], flat.shape[1] * flat.itemsize
    raw = flat.view(np.uint8)
    if width % 8:
        raw = np.zeros((count, width + -width % 8), dtype=np.uint8)
        raw[:, :width] = flat.view(np.uint8)
    words = raw.view(np.uint64)
    fingerprints = words @ _fingerprint_multipliers(words.shape[1])
    order = np.argsort(fingerprints, kind="stable")
    starts = _run_starts(fingerprints[order])
    first = order[starts]
    # Each row in sorted order against the first row of its fingerprint.
    if not np.array_equal(words[order], words[first[np.cumsum(starts) - 1]]):
        order = np.lexsort(words.T[::-1])
        first = order[_run_starts(words[order])]
    return np.sort(first)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """The mask of the rows of a sorted array (entries, if it is 1-d) that
    differ from the row before them, the first one included."""
    starts = np.ones(ordered.shape[0], dtype=bool)
    differ = ordered[1:] != ordered[:-1]
    starts[1:] = differ if differ.ndim == 1 else differ.any(axis=1)
    return starts


def _enumerate_ideals(p: int, block: _Block, side: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """All distinct cyclic ideal subspaces of the block, with rows the
    products through its gather table of the side (see _products), in
    first-generator order, as pairs (echelon rows, first generator vector)
    in block coordinates.  The walk runs once per block and side; later
    calls return the list it kept."""
    if side in block.ideals:
        return block.ideals[side]
    n = block.size
    table = block.gather(side)
    words = _word_tables(table) if p == 2 else None
    seen: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
    for indices in _lines(p, n):
        # Reduced echelon forms indexed by pivot column are canonical keys.
        if words is None:
            reduced = _batched_rref(_products(_digits(indices, p, n), table, p), p)
        else:
            reduced = _xor_rref(_packed_products(indices, words), n)
        flat = reduced.reshape(indices.shape[0], -1)
        for i in _first_occurrences(flat):
            key = flat[i].tobytes()
            if key not in seen:
                if words is None:
                    rows = reduced[i][reduced[i].any(axis=1)]
                else:
                    rows = _unpack_words(reduced[i][reduced[i] != 0], n)
                seen[key] = (rows, _digits(indices[i : i + 1], p, n)[:, 0])
    ideals = block.ideals[side] = list(seen.values())
    return ideals


def _minimal_among(
    ideals: list[tuple[np.ndarray, np.ndarray]], p: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ideals of the list that contain no smaller ideal of it, in list
    order, for a list that holds every cyclic ideal of its block.

    Dimensions are taken in increasing order, and the ideals of each are
    tested against the minimal ideals of smaller dimension only, all of
    them by one membership product: an ideal that is not minimal holds a
    smaller nonzero ideal, hence a minimal one, which is cyclic and so in
    the list.
    """
    dims = np.array([rows.shape[0] for rows, _ in ideals])
    minimal: list[int] = []
    for dim in sorted(set(dims.tolist())):
        candidates = np.flatnonzero(dims == dim)
        if minimal:
            vectors = np.concatenate([ideals[j][0] for j in minimal])
            starts = np.cumsum([0] + [dims[j] for j in minimal[:-1]])
            spans = np.stack([ideals[i][0] for i in candidates])
            outside = ~_members(vectors, spans, p)
            # A minimal ideal lies in a candidate when none of its rows is outside.
            holds_one = ~np.logical_or.reduceat(outside, starts, axis=1)
            candidates = candidates[~holds_one.any(axis=1)]
        minimal += candidates.tolist()
    return [ideals[i] for i in sorted(minimal)]


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
    for block in _tables(algebra).blocks:
        for rows, gen in _minimal_among(_enumerate_ideals(p, block, side), p):
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
    n = algebra.dim
    rows = np.zeros((0, n), dtype=np.int64)
    if minimal:
        stacked = np.array([row for ideal in minimal for row in ideal.rows], dtype=np.int64)
        reduced = _batched_rref(stacked[:, :, None], p)[0]
        rows = reduced[reduced.any(axis=1)]
    for table in _tables(algebra).gather:
        # Every product 1_g * r (or r * 1_g) of every row r, one per row.
        products = _products(rows.T, table, p).transpose(0, 2, 1).reshape(-1, n)
        if not _members(products, rows[None], p).all():
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


@dataclass
class SemiprimeReport:
    semiprime: bool
    witness: AlgebraElement | None


def _first_zero_divisor(p: int, block: _Block) -> np.ndarray | None:
    """The block's first absolute zero divisor in the order of its walk, in
    block coordinates, or None: the first generator of the first cyclic
    left ideal, in first-generator order, whose rows it annihilates.

    One gather stacks 1_h * r for every row r of every ideal, and a * r sums
    a's coefficient of 1_h times those: block.size products of reduced
    values, within the bound of _accumulator_dtype(p, block.size).
    """
    ideals = _enumerate_ideals(p, block, "left")
    rows, gens = zip(*ideals)
    dims = [r.shape[0] for r in rows]
    dtype = _accumulator_dtype(p, block.size)
    stack = _products(np.concatenate(rows).T, block.left, p).astype(dtype, copy=False)
    gens = np.repeat(np.array(gens, dtype=dtype), dims, axis=0)
    products = _reduce(np.einsum("jh,hkj->jk", gens, stack), p)
    starts = np.cumsum([0] + dims[:-1])
    annihilated = ~np.logical_or.reduceat(products.any(axis=1), starts)
    return ideals[int(annihilated.argmax())][1] if annihilated.any() else None


def oracle_is_semiprime(algebra: SteinbergAlgebra) -> SemiprimeReport:
    """Whether some nonzero a has the absolute zero divisor property
    a * A * a = 0; the witness is the first such a in the order of the full
    enumeration (see _lines).

    The rows of the left ideal A a span the products 1_g * a, so a * A * a
    = 0 exactly when a annihilates them.  That depends on the ideal only:
    a * A * a = 0 if and only if (A a)(A a) = A (a * A * a) = 0, as local
    units put a in A a.  So the first absolute zero divisor is the first
    generator of its ideal, and the cyclic ideals the minimal ideals walk
    lists (see _enumerate_ideals) hold every candidate.

    Products across blocks vanish, so for g in block i, a * 1_g * a =
    a_i * 1_g * a_i where a_i is the component of a in block i: a is an
    absolute zero divisor exactly when each of its components is one or
    zero.  Dropping every component but the one holding a's leading
    coordinate lowers a's integer value, so the first absolute zero divisor
    lies in one block, and it is the first of the blocks' first ones in the
    full order, which compares coefficient vectors lexicographically.
    """
    p = _require_prime_field(algebra)
    n = algebra.dim
    check_enum_size(p, n)
    candidates = []
    for block in _tables(algebra).blocks:
        gen = _first_zero_divisor(p, block)
        if gen is not None:
            candidates.append(block.embed(gen, n).tolist())
    if not candidates:
        return SemiprimeReport(semiprime=True, witness=None)
    return SemiprimeReport(semiprime=False, witness=_element(algebra, min(candidates)))
