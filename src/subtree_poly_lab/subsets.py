"""The counting kernel: connected-subset levels and their modular determinants.

`counting.subtree_counts` calls into this module for hosts of more than
`counting.SMALL_HOST_VERTICES` vertices, and `counting.enumerate_connected_subsets`
for every host; only they load it, so that numpy is imported only where
this enumeration runs. Smaller hosts are counted in `counting` on Python
integers, faster than importing numpy. s_k(G) is the sum of t(G[W]) over
the connected k-subsets W, computed one subset size at a time:

1. Levels. The connected k-subsets are held as one sorted int64 array of
   bitmasks. Level k+1 is every level-k subset grown by one vertex of its
   neighbourhood bitmask, sorted and deduplicated.
2. Modular elimination. t(G[W]) is a reduced-Laplacian cofactor. The
   (k-1)x(k-1) minors of a chunk of subsets are stacked in int8 with the
   batch axis last, and eliminated together modulo one 31-bit prime at a
   time: division-free, without row swaps, updating only the upper
   triangle of each symmetric trailing block. One product-tree inverse
   per chunk and prime clears the pivot products. A pivot that vanishes
   mod p (p divides a leading principal minor of a positive definite
   matrix) flags its subset, which then adds its exact Bareiss count
   (`counting._bareiss_determinant`) instead. The residues are summed
   per k.
3. CRT. G[W] is a subgraph of K_k, so t(G[W]) <= k^(k-2) and
   s_k(G) <= C(n,k) k^(k-2). The fewest primes whose product exceeds that
   bound determine s_k exactly by Chinese remaindering: the prime count
   is proven, not guessed.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import counting
from .errors import CapacityError
from .graphs import Graph

# The twelve largest primes below 2^31. Residues stay below 2^31, so
# a*b - c*d fits in int64; the product (> 2^371) exceeds C(n,k) k^(k-2)
# for every n <= counting.MAX_BITMASK_VERTICES (at most 2^358).
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
)
# int64 entries in one elimination tensor (one prime at a time)
_CHUNK_ELEMENTS = 1 << 16
# entries a strip of rows of the trailing block gathers into one numpy update
_STRIP_ELEMENTS = 1 << 12


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
    # the neighbourhood of each subset, less the subset itself
    frontier = np.zeros_like(masks)
    for bit, row in zip(bits, adj):
        frontier[(masks & bit) != 0] |= row
    frontier &= ~masks
    # Each grown subset arises once per removable vertex. Filling one
    # preallocated array and deduplicating it in place keeps the peak
    # memory at one copy of the duplicates.
    hits = [(frontier & bit) != 0 for bit in bits]
    grown = np.empty(sum(int(np.count_nonzero(hit)) for hit in hits), dtype=np.int64)
    end = 0
    for bit, hit in zip(bits, hits):
        part = masks[hit]
        grown[end:end + part.size] = part | bit
        end += part.size
    del frontier, hits
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


def _primes_for(bound: int) -> tuple[int, ...]:
    """The fewest leading _PRIMES whose product exceeds `bound`."""
    product = 1
    for count, p in enumerate(_PRIMES, start=1):
        product *= p
        if product > bound:
            return _PRIMES[:count]
    raise CapacityError(f"no {len(_PRIMES)}-prime product exceeds {bound}")


def _crt(residues: list[int], primes: tuple[int, ...]) -> int:
    """The x in [0, prod(primes)) with x = residues[i] mod primes[i] (Garner)."""
    value, modulus = 0, 1
    for r, p in zip(residues, primes):
        value += modulus * ((r - value) * pow(modulus, -1, p) % p)
        modulus *= p
    return value


def _level_tree_total(adj: np.ndarray, masks: np.ndarray, k: int) -> int:
    """Exact sum of t(G[W]) over the connected k-subsets W in `masks`, k >= 2."""
    n = adj.shape[0]
    primes = _primes_for(math.comb(n, k) * k ** (k - 2))
    chunk = max(1, _CHUNK_ELEMENTS // (k - 1) ** 2)
    residues = [0] * len(primes)
    for lo in range(0, masks.size, chunk):
        minors = _laplacian_minors(adj, _mask_vertices(masks[lo:lo + chunk], k))
        for i, p in enumerate(primes):
            det, ok = _determinants_mod(minors, p)
            # a flagged matrix takes its exact Bareiss determinant instead
            total = int(det[ok].sum()) + sum(
                counting._bareiss_determinant(minors[:, :, b].tolist())
                for b in np.flatnonzero(~ok)
            )
            residues[i] = (residues[i] + total) % p
    return _crt(residues, primes)


def level_counts(g: Graph) -> list[int]:
    """s_1..s_n of g: the connected k-subsets, weighted by t(G[W]) for k >= 2."""
    bits = np.array(g.adjacency_bits, dtype=np.int64)
    adj = ((bits[:, None] >> np.arange(g.n)) & 1).astype(np.int8)
    counts = [0] * g.n
    for k, masks in enumerate(_connected_levels(g), start=1):
        counts[k - 1] = masks.size if k == 1 else _level_tree_total(adj, masks, k)
    return counts


def connected_subsets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The connected k-subsets of g as ascending vertex tuples, by bitmask value."""
    for size, masks in enumerate(_connected_levels(g), start=1):
        if size == k:
            chunk = max(1, _CHUNK_ELEMENTS // g.n)
            for lo in range(0, masks.size, chunk):
                yield from map(tuple, _mask_vertices(masks[lo:lo + chunk], k).T.tolist())
            return
