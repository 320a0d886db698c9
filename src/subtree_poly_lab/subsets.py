"""The counting kernel: connected-subset levels and their exact determinants.

`counting.subtree_counts` calls into this module for hosts of more than
`counting.SMALL_HOST_VERTICES` vertices, and `counting.enumerate_connected_subsets`
for every host; only they load it, so that numpy is imported only where
this enumeration runs. Smaller hosts are counted in `counting` on Python
integers, faster than importing numpy. s_k(G) is the sum of t(G[W]) over
the connected k-subsets W, computed one subset size at a time:

1. Levels. The connected k-subsets are held as one sorted int64 array of
   bitmasks. Level k+1 is every level-k subset grown by one vertex of its
   neighbourhood bitmask, sorted and deduplicated. `_mask_vertices` cuts
   each level into chunks of (k, B) ascending vertex arrays, the last step
   that reads a mask: `_chunk_total` reads them and the adjacency matrix.
2. Elimination. t(G[W]) is a reduced-Laplacian cofactor. The (k-1)x(k-1)
   minors of a chunk are stacked in int8 with the batch axis last and
   eliminated together without row swaps, updating only the upper
   triangle of each symmetric trailing block, by one of two routes:
   - Float. Where H^2 < 2^53, H the chunk's largest product of the k-2
     largest degrees of a minor (Hadamard's bound on every minor of a
     positive definite matrix, taken exactly in float64), Bareiss'
     elimination runs in float64 and every intermediate is an integer
     below 2^53, so each determinant is exact (`_determinants_float`).
     On dense hosts of 16 vertices this takes about nine subsets in ten.
   - Modular. Otherwise the chunk is eliminated modulo one 31-bit prime
     at a time, division-free; one product-tree inverse per chunk and
     prime clears the pivot products. A pivot that vanishes mod p (p
     divides a leading principal minor of a positive definite matrix)
     flags its subset; a subset flagged under any of its chunk's primes
     adds its exact Bareiss count instead (`counting._bareiss_determinant`).
3. Exact counts on the modular route. By the matrix-tree theorem t(G[W])
   is the product of the k-1 nonzero Laplacian eigenvalues over k, and
   they sum to 2m_W, so AM-GM gives Grimmett's bound
   t(G[W]) <= (2m_W/(k-1))^(k-1) / k, which grows with m_W. Each chunk
   takes the fewest primes whose product exceeds the bound at its largest
   2m_W (read from its minors): the prime count is proven, not guessed.
   The residues of each subset become its mixed-radix (Garner) digits,
   which give its count exactly.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

import numpy as np

from . import counting
from .errors import CapacityError
from .graphs import Graph

# The twelve largest primes below 2^31. Residues stay below 2^31, so
# a*b - c*d fits in int64; the product (> 2^371) exceeds the largest tree
# count bound of a subset, k^(k-2) on K_k, for every
# k <= counting.MAX_BITMASK_VERTICES (at most 62^60 < 2^358).
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
)
# entries in one elimination tensor (one prime at a time), and the fewest
# matrices in one: below it, per-call overhead dominates large minors
_CHUNK_ELEMENTS = 1 << 17
_CHUNK_FLOOR = 256
# entries a strip of rows of the trailing block gathers into one numpy update
_STRIP_ELEMENTS = 1 << 12
# float64 holds every integer below this exactly
_FLOAT_EXACT = 1 << 53


def _connected_levels(g: Graph) -> Iterator[np.ndarray]:
    """Yield the connected k-subsets as sorted int64 bitmasks, k = 1, 2, ...

    Stops after the last nonempty level (the largest component size).
    """
    adj = np.array(g.adjacency_bits, dtype=np.int64)
    bits = np.left_shift(1, np.arange(g.n, dtype=np.int64))
    masks = bits
    while masks.size:
        yield masks
        masks = _grow_level(masks, adj, bits)


def _grow_level(masks: np.ndarray, adj: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Connected (k+1)-subsets from the sorted connected k-subsets `masks`."""
    # v grows every subset that holds a neighbour of v and not v itself.
    # Each grown subset arises once per removable vertex. Filling one
    # preallocated array and deduplicating it in place keeps the peak
    # memory at one copy of the duplicates.
    hits = [((masks & row) != 0) & ((masks & bit) == 0) for bit, row in zip(bits, adj)]
    grown = np.empty(sum(int(np.count_nonzero(hit)) for hit in hits), dtype=np.int64)
    end = 0
    for bit, hit in zip(bits, hits):
        part = masks[hit]
        grown[end:end + part.size] = part | bit
        end += part.size
    del hits
    grown.sort()
    first = np.empty(grown.size, dtype=bool)
    first[:1] = True
    np.not_equal(grown[1:], grown[:-1], out=first[1:])
    return grown[first]


def _mask_vertices(masks: np.ndarray, k: int) -> np.ndarray:
    """(k, B) array: row i holds the i-th smallest vertex of every k-bit mask."""
    rest = masks.copy()
    vertices = np.empty((k, masks.size), dtype=np.int64)
    for row in vertices:
        low = rest & -rest
        row[:] = np.bitwise_count(low - 1)
        rest ^= low
    return vertices


def _laplacian_minors(adj: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """(k-1, k-1, B) int8 Laplacians of g[W], row and column of min(W) deleted.

    `adj` is the dense int8 0/1 adjacency matrix and `vertices` the (k, B)
    ascending vertex ids of the subsets. The batch axis is last and
    contiguous, so every step of the elimination works on rows of B entries.
    int8 holds the -1/0/1 entries and every degree below MAX_BITMASK_VERTICES.
    """
    k, batch = vertices.shape
    flat, n = adj.ravel(), adj.shape[0]
    minors = np.empty((k - 1, k - 1, batch), dtype=np.int8)
    for i in range(1, k):
        row = flat.take(vertices[i] * n + vertices)  # adj[W_i, W_j] for every j
        np.negative(row[1:], out=minors[i - 1])
        minors[i - 1, i - 1] = row.sum(axis=0, dtype=np.int8)
    return minors


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p for residues below p < 2^31; the product is below 2^62."""
    x = a * b
    x -= x // p * p
    return x


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse of nonzero residues mod p by a product tree.

    Pairwise products up to the root, one modular inverse of the root, and
    back down: each child's inverse is its parent's inverse times its
    sibling, about three multiplications per element.
    """
    size, levels = x.size, []
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 1)
        levels.append(x)
        x = _mul_mod(x[0::2], x[1::2], p)
    inverse = np.array([pow(int(x[0]), -1, p)], dtype=np.int64)
    for level in reversed(levels):
        down = np.empty_like(level)
        half = inverse[:level.size // 2]
        down[0::2] = _mul_mod(half, level[1::2], p)
        down[1::2] = _mul_mod(half, level[0::2], p)
        inverse = down
    return inverse[:size]


def _determinants_mod(minors: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """det(minors[:, :, b]) mod p for a (m, m, B) stack of symmetric matrices.

    Returns `(det, ok)`. Elimination is division-free and pivot-free: row
    c+1.. of the trailing block takes a_ij <- a_cc a_ij - a_ic a_cj, which
    keeps it symmetric, so only its upper triangle is updated (a_ic is read
    as a_ci). Each row update scales the determinant by the pivot, so with
    prefix_c the product of the first c+1 pivots,

        det = prefix_(m-1) / (prefix_0 * ... * prefix_(m-2)),

    and one batched inverse clears the denominators. Every operand is a
    residue below p < 2^31, so each product is below 2^62 and a difference
    of two fits in int64; `x - (x // p) p` reduces it with one scalar
    divisor.

    A pivot a_cc = 0 (c < m-1) flags its matrix: `ok` is False and its `det`
    is meaningless. The first zero pivot marks a leading principal minor
    divisible by p. Those of a connected graph's reduced Laplacian are
    positive integers (it is positive definite), so flags are rare with
    31-bit primes; with no zero pivot the elimination is exact mod p.
    """
    m, batch = minors.shape[0], minors.shape[2]
    a = minors.astype(np.int64)
    np.remainder(a, p, out=a)
    ok = np.ones(batch, dtype=bool)
    prefix = np.ones(batch, dtype=np.int64)
    denominator = np.ones(batch, dtype=np.int64)
    for c in range(m - 1):
        pivot = a[c, c]
        ok &= pivot != 0
        prefix = _mul_mod(prefix, pivot, p)
        denominator = _mul_mod(denominator, prefix, p)
        row = a[c]
        i = c + 1
        while i < m:
            # rows i..j-1 from column i on: the upper triangle, plus the
            # lower corner of the strip, which is never read
            j = min(m, i + max(1, _STRIP_ELEMENTS // ((m - i) * batch)))
            block = a[i:j, i:]
            x = block * pivot
            x -= row[i:j, None] * row[i:]
            np.subtract(x, x // p * p, out=block)
            i = j
    prefix = _mul_mod(prefix, a[m - 1, m - 1], p)
    denominator[~ok] = 1
    return _mul_mod(prefix, _inverse_mod(denominator, p), p), ok


def _determinants_float(minors: np.ndarray) -> np.ndarray:
    """det(minors[:, :, b]) for a (m, m, B) stack of reduced Laplacians, exactly.

    Bareiss' fraction-free elimination in float64, in the strip layout of
    `_determinants_mod`: row c+1.. of the trailing block takes
    a_ij <- (a_cc a_ij - a_ic a_cj) / prev, prev the pivot before a_cc,
    and the last pivot is the determinant. It is exact on a chunk whose
    `_hadamard_bound` H has H^2 < 2^53:

    - every entry is a minor det A[I, J] of the reduced Laplacian A
      (Sylvester's identity), and each pivot a leading principal minor;
    - A is positive definite, so its compound matrices are too, and
      |det A[I, J]| <= max(det A[I, I], det A[J, J]); by Hadamard's
      inequality that is at most the product of the |I| largest diagonal
      entries, all >= 1;
    - with P_j the product of the j largest diagonal entries, each
      product multiplies two minors of order c+1 <= m-1, so it is an
      integer of size at most P_(c+1)^2 <= H^2 < 2^53, held exactly; the
      difference is prev (order c) times an entry of order c+2, at most
      P_c P_(c+2) <= P_(c+1)^2, so it is exact too, and so is the
      quotient, an integer;
    - the pivots are positive, so no division is by zero and no subset
      is flagged.

    The lower corner of a strip is updated but never read.
    """
    m, batch = minors.shape[0], minors.shape[2]
    a = minors.astype(np.float64)
    for c in range(m - 1):
        pivot = a[c, c]
        row = a[c]
        i = c + 1
        while i < m:
            j = min(m, i + max(1, _STRIP_ELEMENTS // ((m - i) * batch)))
            # row c lies outside the strip, so it updates in place
            block = a[i:j, i:]
            block *= pivot
            block -= row[i:j, None] * row[i:]
            if c:
                block /= a[c - 1, c - 1]
            i = j
    return a[m - 1, m - 1]


def _hadamard_bound(minors: np.ndarray) -> int:
    """H: the largest, over a chunk, product of the m-1 largest diagonal entries.

    `minors` is the (m, m, B) stack of reduced Laplacians, whose diagonals
    are the degrees inside each subset, 1 to m <= 61. Each column's product
    is taken in float64 and divided by its smallest entry. Every entry is at
    least 1, so below 2^53 every partial product is exact, and so is H.
    Rounding is monotone and 2^53 a float, so at or above 2^53 the computed
    product is too, and the computed H, like the true one, is at least 2^47
    (2^53 / 61 > 2^47). So the float route is refused exactly when the true
    H^2 >= 2^53.
    """
    m = minors.shape[0]
    diagonal = minors[np.arange(m), np.arange(m)]
    product = diagonal.prod(axis=0, dtype=np.float64)
    return int((product / diagonal.min(axis=0)).max())


def _primes_for(bound: int) -> tuple[int, ...]:
    """The fewest leading _PRIMES whose product exceeds `bound`."""
    product = 1
    for count, p in enumerate(_PRIMES, start=1):
        product *= p
        if product > bound:
            return _PRIMES[:count]
    raise CapacityError(f"no {len(_PRIMES)}-prime product exceeds {bound}")


def _grimmett_bound(minors: np.ndarray) -> int:
    """Grimmett's bound (step 3) at a chunk's largest 2m_W: at least every t(G[W]).

    Each row of a reduced Laplacian sums to its vertex's edge to the deleted
    min(W), so the trace plus all the entries of a minor is 2m_W.
    """
    m = minors.shape[0]
    two_m = np.trace(minors, dtype=np.int64) + minors.sum(axis=(0, 1), dtype=np.int64)
    return int(two_m.max()) ** m // ((m + 1) * m ** m)


def _mixed_radix_digits(residues: list[np.ndarray], primes: tuple[int, ...]) -> list[np.ndarray]:
    """Garner's digits d_i < primes[i] of x = d_0 + d_1 p_0 + d_2 p_0 p_1 + ...

    x is the value below prod(primes) with x = residues[i] mod primes[i].
    Each step multiplies a residue below p by a scalar below p, so every
    product stays below 2^62.
    """
    digits = []
    for p, r in zip(primes, residues):
        x = r
        for q, d in zip(primes, digits):
            x = _mul_mod(np.remainder(x - d, p), pow(q, -1, p), p)
        digits.append(x)
    return digits


def _chunk_matrices(k: int) -> int:
    """Subsets per chunk at size k: _CHUNK_ELEMENTS entries, at least _CHUNK_FLOOR."""
    return max(_CHUNK_FLOOR, _CHUNK_ELEMENTS // max(k - 1, 1) ** 2)


def _chunk_total(adj: np.ndarray, vertices: np.ndarray) -> int:
    """Exact sum of t(G[W]) over the columns W of a (k, B) vertex array.

    `adj` is the dense int8 adjacency matrix. Each column holds a connected
    k-subset in ascending order, and B is at most `_chunk_matrices(k)`.
    """
    k, batch = vertices.shape
    if k == 1:
        return batch
    minors = _laplacian_minors(adj, vertices)
    if _hadamard_bound(minors) ** 2 < _FLOAT_EXACT:
        # each count is below 2^53 and k^(k-2), so a chunk's sum fits in
        # int64 (test_float_chunk_sums_fit_in_int64)
        return int(_determinants_float(minors).astype(np.int64).sum())
    primes = _primes_for(_grimmett_bound(minors))
    residues, oks = zip(*(_determinants_mod(minors, p) for p in primes))
    ok = np.logical_and.reduce(oks)
    # every count is below the product of the primes, so its digits give it
    # exactly; a column of at most 2^17 digits below 2^31 sums in int64. A
    # subset flagged under any prime adds its exact Bareiss determinant instead.
    total, radix = 0, 1
    for p, digit in zip(primes, _mixed_radix_digits(residues, primes)):
        total += radix * int(digit[ok].sum())
        radix *= p
    flagged = np.flatnonzero(~ok)
    return total + sum(counting._bareiss_determinant(minors[:, :, b].tolist()) for b in flagged)


def _chunked_levels(g: Graph) -> Iterator[Iterator[np.ndarray]]:
    """Each connected-subset level as (k, B) vertex arrays of at most _chunk_matrices(k) subsets."""
    for k, masks in enumerate(_connected_levels(g), start=1):
        chunk = _chunk_matrices(k)
        yield (_mask_vertices(masks[lo:lo + chunk], k) for lo in range(0, masks.size, chunk))


def level_counts(g: Graph) -> list[int]:
    """s_1..s_n of g: the connected k-subsets, weighted by t(G[W]) for k >= 2."""
    bits = np.array(g.adjacency_bits, dtype=np.int64)
    adj = ((bits[:, None] >> np.arange(g.n)) & 1).astype(np.int8)
    counts = [sum(_chunk_total(adj, part) for part in chunks) for chunks in _chunked_levels(g)]
    return counts + [0] * (g.n - len(counts))


def connected_subsets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The connected k-subsets of g as ascending vertex tuples, by bitmask value."""
    for vertices in next(islice(_chunked_levels(g), k - 1, None), ()):
        yield from map(tuple, vertices.T.tolist())
