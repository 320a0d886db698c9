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
   (k-1)x(k-1) minors of a chunk of subsets are stacked and eliminated
   together modulo 31-bit primes, and their residues summed per k.
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
# int64 entries in one stacked elimination tensor (all primes of a chunk)
_CHUNK_ELEMENTS = 1 << 15


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


def _bit_matrix(masks: np.ndarray, n: int) -> np.ndarray:
    """(B, n) 0/1 array: bit v of masks[b] at [b, v]."""
    return (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1


def _mask_vertices(masks: np.ndarray, k: int, n: int) -> np.ndarray:
    """(B, k) array of the ascending vertex ids of k-bit masks."""
    return np.nonzero(_bit_matrix(masks, n))[1].reshape(-1, k)


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
                yield from map(tuple, _mask_vertices(masks[lo:lo + chunk], k, g.n).tolist())
            return


def _laplacian_minors(adj: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """(B, k-1, k-1) Laplacians of g[W], row and column of min(W) deleted.

    `adj` is the dense 0/1 adjacency matrix, `vertices` the (B, k) subsets.
    """
    sub = adj[vertices[:, :, None], vertices[:, None, :]]
    minors = -sub[:, 1:, 1:]
    diag = np.arange(vertices.shape[1] - 1)
    minors[:, diag, diag] = sub[:, 1:].sum(axis=2)
    return minors


def _pow_mod(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod p by square-and-multiply; operands below 2^31."""
    result = np.ones_like(base)
    for bit in range(int(exp.max()).bit_length()):
        result = np.where((exp >> bit) & 1 == 1, result * base % p, result)
        base = base * base % p
    return result


def _determinants_mod(minors: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """det(minors[b]) mod p for every prime p, as a (len(primes), B) array.

    Division-free elimination: row_i <- pivot*row_i - a_ic*row_c scales the
    determinant by the pivot once per row below it, so with prefix_c the
    product of the first c+1 pivots,

        det = sign * prefix_(m-1) / (prefix_0 * ... * prefix_(m-2)),

    and one Fermat inverse per matrix clears the denominator. A column with
    no nonzero pivot leaves a zero pivot, and 0 is the correct residue.
    """
    count, (batch, m, _) = len(primes), minors.shape
    p_each = np.asarray(primes, dtype=np.int64)
    mat = (minors[None] % p_each[:, None, None, None]).reshape(count * batch, m, m)
    p = np.repeat(p_each, batch)
    p_block = p[:, None, None]
    sign = np.ones_like(p)
    prefix = np.ones_like(p)
    denominator = np.ones_like(p)
    for c in range(m):
        offset = np.argmax(mat[:, c:, c] != 0, axis=1)
        swap = np.flatnonzero(offset)
        if swap.size:
            other = offset[swap] + c
            row = mat[swap, c].copy()
            mat[swap, c] = mat[swap, other]
            mat[swap, other] = row
            sign[swap] = -sign[swap]
        pivot = mat[:, c, c]
        prefix = prefix * pivot % p
        if c == m - 1:
            break
        denominator = denominator * prefix % p
        block = mat[:, c + 1:, c + 1:]
        block *= pivot[:, None, None]
        block -= mat[:, c + 1:, c, None] * mat[:, c, None, c + 1:]
        block %= p_block
    det = prefix * _pow_mod(denominator, p - 2, p) % p
    det = np.where(sign < 0, (p - det) % p, det)
    return det.reshape(count, batch)


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
    chunk = max(1, _CHUNK_ELEMENTS // (len(primes) * (k - 1) ** 2))
    residues = [0] * len(primes)
    for lo in range(0, masks.size, chunk):
        vertices = _mask_vertices(masks[lo:lo + chunk], k, n)
        sums = _determinants_mod(_laplacian_minors(adj, vertices), primes).sum(axis=1)
        residues = [(r + int(s)) % p for r, s, p in zip(residues, sums, primes)]
    return _crt(residues, primes)


def subtree_counts(g: Graph, cap: int = DEFAULT_ENUMERATION_CAP) -> SubtreeCountVector:
    """Exact s_1..s_n by summing spanning-tree counts over connected subsets."""
    if g.n > cap:
        raise CapacityError(
            f"subtree_counts on n={g.n} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly if you really want the exponential walk"
        )
    _require_bitmask_width(g)
    adj = _bit_matrix(np.array(g.adjacency_bits, dtype=np.int64), g.n)
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
