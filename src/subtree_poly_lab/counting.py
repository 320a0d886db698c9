"""Exact subtree counting.

A k-vertex subtree is a spanning tree of the induced subgraph on its
vertex support, so

    s_k(G) = sum over connected k-subsets W of t(G[W]),

where t(.) is the spanning-tree count. The production route works one
subset size at a time:

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
   instead. The residues are summed per k.
3. CRT. G[W] is a subgraph of K_k, so t(G[W]) <= k^(k-2) and
   s_k(G) <= C(n,k) k^(k-2). The fewest primes whose product exceeds that
   bound determine s_k exactly by Chinese remaindering: the prime count
   is proven, not guessed.

`counts_for` dispatches: `closed_form_counts` where the host's family has
one (complete graphs), the tree recursion of `_tree_counts` for a tree
host (connected, m = n - 1, however it was given), else the above. Only
the enumeration is bound by the cap.

Every count is an exact integer. Fraction-free Bareiss elimination on one
minor (`spanning_tree_count`, `subset_spanning_tree_count`) is kept as the
exact oracle, and the independent oracles (closed form for complete
graphs, edge-subset brute force) live alongside the production path so
they can disagree loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import CapacityError, ValidationError
from .graphs import FamilySpec, Graph, generate, is_connected

DEFAULT_ENUMERATION_CAP = 24
BRUTE_FORCE_GUARD = 10**8
# subsets are int64 bitmasks, with the sign bit and bit 62 kept clear
MAX_BITMASK_VERTICES = 62
# The twelve largest primes below 2^31. Residues stay below 2^31, so
# a*b - c*d fits in int64; the product (> 2^371) exceeds C(n,k) k^(k-2)
# for every n <= MAX_BITMASK_VERTICES (at most 2^358).
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
)
# int64 entries in one elimination tensor (one prime at a time)
_CHUNK_ELEMENTS = 1 << 16
# entries a strip of rows of the trailing block gathers into one numpy update
_STRIP_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class SubtreeCountVector:
    """Exact counts s_1..s_n; the coefficient list of the subtree polynomial."""

    n: int
    counts: tuple[int, ...]  # counts[k-1] = s_k
    fingerprint: str = ""

    def __post_init__(self):
        if self.n < 1 or len(self.counts) != self.n:
            raise ValidationError("count vector must hold exactly n entries")
        if any(c < 0 for c in self.counts):
            raise ValidationError("subtree counts must be nonnegative")

    def s(self, k: int) -> int:
        """s_k, 1-based; 0 for k outside [1, n]."""
        if 1 <= k <= self.n:
            return self.counts[k - 1]
        return 0

    @property
    def spanning_tree_count(self) -> int:
        return self.counts[-1]

    def to_json_dict(self) -> dict:
        # decimal strings: entries exceed 64-bit range quickly
        return {"n": self.n, "counts": [str(c) for c in self.counts]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(doc: dict) -> "SubtreeCountVector":
        return SubtreeCountVector(
            n=int(doc["n"]), counts=tuple(int(c) for c in doc["counts"])
        )


def _bareiss_determinant(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix, destructive on `mat`."""
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for col in range(size - 1):
        pivot_row = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            sign = -sign
        pivot = mat[col][col]
        for r in range(col + 1, size):
            row = mat[r]
            head = row[col]
            top = mat[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * pivot - head * top[c]) // prev
            row[col] = 0
        prev = pivot
    return sign * mat[-1][-1]


def _laplacian_minor(g: Graph, vertices: list[int]) -> list[list[int]]:
    """Laplacian of g[vertices] with the first row and column deleted."""
    k = len(vertices)
    mat = [[0] * (k - 1) for _ in range(k - 1)]
    for i in range(1, k):
        bits_i = g.adjacency_bits[vertices[i]]
        deg = 0
        for j in range(k):
            if i == j:
                continue
            if (bits_i >> vertices[j]) & 1:
                deg += 1
                if j >= 1:
                    mat[i - 1][j - 1] = -1
        mat[i - 1][i - 1] = deg
    return mat


def spanning_tree_count(g: Graph) -> int:
    """Matrix-tree count: any Laplacian cofactor, exact integers.

    Returns 0 iff the graph is disconnected; 1 for a single vertex.
    """
    if g.n == 1:
        return 1
    return _bareiss_determinant(_laplacian_minor(g, list(range(g.n))))


def subset_spanning_tree_count(g: Graph, vertices: list[int]) -> int:
    """Spanning trees of g[vertices], without materializing the subgraph."""
    if len(vertices) == 1:
        return 1
    return _bareiss_determinant(_laplacian_minor(g, vertices))


def _require_bitmask_width(g: Graph) -> None:
    if g.n > MAX_BITMASK_VERTICES:
        raise CapacityError(
            f"exact counting on n={g.n} exceeds the {MAX_BITMASK_VERTICES}-vertex "
            "limit of int64 subset bitmasks"
        )


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


def enumerate_connected_subsets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Stream every vertex subset W with |W| = k and g[W] connected, once each.

    Subsets come as ascending vertex tuples, ordered by bitmask value.
    """
    if not 1 <= k <= g.n:
        raise ValidationError(f"subset size {k} out of range [1, {g.n}]")
    _require_bitmask_width(g)
    for size, masks in enumerate(_connected_levels(g), start=1):
        if size == k:
            chunk = max(1, _CHUNK_ELEMENTS // g.n)
            for lo in range(0, masks.size, chunk):
                yield from map(tuple, _mask_vertices(masks[lo:lo + chunk], k).T.tolist())
            return


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
                _bareiss_determinant(minors[:, :, b].tolist()) for b in np.flatnonzero(~ok)
            )
            residues[i] = (residues[i] + total) % p
    return _crt(residues, primes)


def subtree_counts(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> SubtreeCountVector:
    """Exact s_1..s_n by summing spanning-tree counts over connected subsets."""
    if g.n > cap:
        raise CapacityError(
            f"subtree_counts on n={g.n} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly if you really want the exponential walk"
        )
    _require_bitmask_width(g)
    bits = np.array(g.adjacency_bits, dtype=np.int64)
    adj = ((bits[:, None] >> np.arange(g.n)) & 1).astype(np.int8)
    counts = [0] * g.n
    for k, masks in enumerate(_connected_levels(g), start=1):
        counts[k - 1] = masks.size if k == 1 else _level_tree_total(adj, masks, k)
    return SubtreeCountVector(n=g.n, counts=tuple(counts), fingerprint=g.fingerprint())


def complete_graph_counts(n: int) -> SubtreeCountVector:
    """Closed-form oracle for complete graphs: s_k = C(n,k) * k^(k-2)."""
    if n < 1:
        raise ValidationError("complete graph needs n >= 1")
    counts = tuple(
        math.comb(n, k) * (k ** (k - 2) if k >= 2 else 1) for k in range(1, n + 1)
    )
    return SubtreeCountVector(
        n=n, counts=counts, fingerprint=generate(f"complete({n})").fingerprint()
    )


def closed_form_counts(family: FamilySpec | None) -> SubtreeCountVector | None:
    """The closed-form counts of `family` (only complete has one), else None."""
    if family is not None and family.name == "complete":
        return complete_graph_counts(family.args[0])
    return None


def _tree_counts(g: Graph) -> SubtreeCountVector:
    """Exact s_1..s_n of a tree (connected, m = n - 1) in O(n^2) integer operations.

    Rooted at vertex 0, the subtrees whose vertex nearest the root is v
    have the generating function f_v(x) = x prod over children c of
    (1 + f_c(x)), and S(x) = sum_v f_v(x) (Szekely and Wang, 2005). A
    child is multiplied into its parent in O(size_c size_p) operations,
    which sum to O(n^2) over the tree.
    """
    parent = [-1] * g.n
    order = [0]
    for v in order:  # breadth-first; the list grows while it is read
        for w in g.neighbors[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    f = [[0, 1] for _ in range(g.n)]  # f[v][k]: subtrees of k vertices topped at v
    counts = [0] * (g.n + 1)
    for v in reversed(order):
        fv = f[v]
        for k, c in enumerate(fv):
            counts[k] += c
        if v:
            fp = f[parent[v]]
            product = fp + [0] * (len(fv) - 1)  # f_p (1 + f_v), and f_v(0) = 0
            for i, a in enumerate(fp):
                if a:
                    for j in range(1, len(fv)):
                        product[i + j] += a * fv[j]
            f[parent[v]] = product
        f[v] = None
    return SubtreeCountVector(n=g.n, counts=tuple(counts[1:]), fingerprint=g.fingerprint())


def counts_for(
    g: Graph, family: FamilySpec | None = None, cap: int = DEFAULT_ENUMERATION_CAP
) -> SubtreeCountVector:
    """Exact s_1..s_n of g (generated from `family`, or None) by its cheapest route."""
    closed = closed_form_counts(family)
    if closed is not None:
        return closed
    if g.m == g.n - 1 and is_connected(g):
        return _tree_counts(g)
    return subtree_counts(g, cap=cap)


def brute_force_subtree_count(g: Graph, k: int) -> int:
    """Independent oracle: count (k-1)-edge subsets forming a tree on k vertices."""
    if not 1 <= k <= g.n:
        raise ValidationError(f"subtree size {k} out of range [1, {g.n}]")
    if k == 1:
        return g.n  # the empty edge set does not pin a vertex; by definition s_1 = n
    if math.comb(g.m, k - 1) > BRUTE_FORCE_GUARD:
        raise CapacityError(
            f"brute force over C({g.m}, {k - 1}) edge subsets exceeds guard {BRUTE_FORCE_GUARD}"
        )
    edges = g.edges()
    count = 0
    for subset in combinations(edges, k - 1):
        vertices = set()
        for u, v in subset:
            vertices.add(u)
            vertices.add(v)
        if len(vertices) != k:
            continue
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            count += 1
    return count


@dataclass(frozen=True)
class InequalityCheck:
    kind: str  # "ratio" or "partial_sum"
    index: int
    lhs: Fraction
    rhs: Fraction
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class RatioInequalityReport:
    checks: tuple[InequalityCheck, ...]
    precondition_ok: bool
    all_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "precondition_ok": self.precondition_ok,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def check_ratio_inequalities(
    counts: SubtreeCountVector,
    alpha: Fraction,
    min_degree: int | None = None,
) -> RatioInequalityReport:
    """Exact-rational checks of the two imported count inequalities.

    Ratio bound, for 1 <= k < alpha*n:
        s_{n-k}/s_n <= (1 / (alpha^k k!)) * (1 - k/(alpha n))^(-k)
    Partial-sum bound, for 1 <= r <= n:
        s_1 + ... + s_r <= 2^r s_r

    Both assume a connected source with min degree >= alpha*n; pass
    `min_degree` to have that precondition enforced (counts alone cannot
    carry it). A violated precondition skips the checks rather than
    producing vacuous failures.
    """
    n = counts.n
    alpha_n = alpha * n
    # s_n = 0 means the source was disconnected, outside both bounds' hypotheses
    if counts.s(n) == 0 or (min_degree is not None and alpha_n > min_degree):
        return RatioInequalityReport(checks=(), precondition_ok=False, all_passed=False)
    checks = []
    k = 1
    while Fraction(k) < alpha_n:
        lhs = Fraction(counts.s(n - k), counts.s(n))
        t = 1 - Fraction(k) / alpha_n
        rhs = Fraction(1, 1) / (alpha**k * math.factorial(k)) * t ** (-k)
        checks.append(InequalityCheck("ratio", k, lhs, rhs, passed=lhs <= rhs))
        k += 1
    prefix = 0
    for r in range(1, n + 1):
        prefix += counts.s(r)
        rhs = Fraction(2**r * counts.s(r))
        checks.append(
            InequalityCheck("partial_sum", r, Fraction(prefix), rhs, passed=prefix <= rhs)
        )
    return RatioInequalityReport(
        checks=tuple(checks),
        precondition_ok=True,
        all_passed=all(c.passed for c in checks),
    )
