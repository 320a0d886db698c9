"""Exact subtree counts and the exact diagnostics read from them.

A k-vertex subtree is a spanning tree of the induced subgraph on its
vertex support, so

    s_k(G) = sum over connected k-subsets W of t(G[W]),

where t(.) is the spanning-tree count. `counts_for` gives every caller
its counts by the cheapest route: `closed_form_counts` where the host's
family has one (complete graphs), the tree recursion of `_tree_counts`
for a tree host (connected, m = n - 1, however it was given), else the
enumeration of `subtree_counts`. The enumeration is bound by the cap,
the tree recursion by MAX_TREE_VERTICES. The enumeration takes one of
two routes by the host's size. A host of at most
SMALL_HOST_VERTICES vertices is counted here on Python integers: its
connected-subset levels are sets of bitmasks and each subset adds its
exact Bareiss count. A larger host runs in the numpy kernel of the
`subsets` module, which holds that algorithm (bitmask levels cut into
chunks of vertex arrays; each chunk's minors eliminated exactly, in
float64 under a proven Hadamard bound, else modulo a proven number of
primes with each count rebuilt from its residues); `subtree_counts` loads
it only for the larger hosts. `enumerate_connected_subsets` lists the
connected k-subsets of every host from the kernel's k-th level.

The diagnostics of the Poisson profile take the counts alone and stay in
exact rationals: `exact_beta` (s_{n-1}/s_n), `poisson_deviation` (the
factorial-normalized ratios s_{n-k}/s_n) and `check_ratio_inequalities`.

Every count is an exact integer. Fraction-free Bareiss elimination on one
minor (`spanning_tree_count`, `subset_spanning_tree_count`) is kept as the
exact oracle, and the independent oracles (closed form for complete
graphs, edge-subset brute force) live alongside the production path so
they can disagree loudly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, NamedTuple

from . import params
from .errors import CapacityError, ValidationError
from .graphs import FamilySpec, Graph, is_connected

BRUTE_FORCE_GUARD = 10**8
# subsets are int64 bitmasks, with the sign bit and bit 62 kept clear
MAX_BITMASK_VERTICES = 62
# The tree recursion takes O(n^2) big-integer operations, and a star's
# s_k = C(n-1, k-1) run to about 0.3 n digits: `counts` on a star at the
# bound takes about 1 s on a 2-vCPU VM and prints 0.9 MB, and both grow
# about 4x per doubling of n.
MAX_TREE_VERTICES = 2048
# Hosts up to this size are counted without numpy. On a 2-vCPU VM,
# importing numpy takes about 0.15 s and the Python route 0.02 s on K_10
# (0.16 s on K_12), so at 10 a process that has loaded numpy anyway
# loses at most about 20 ms to the kernel.
SMALL_HOST_VERTICES = 10


class _CountFields(NamedTuple):
    n: int
    counts: tuple[int, ...]  # counts[k-1] = s_k


class SubtreeCountVector(_CountFields):
    """Exact counts s_1..s_n; the coefficient list of the subtree polynomial."""

    __slots__ = ()

    # a NamedTuple body cannot define __new__, so the checks live on this subclass
    def __new__(cls, n: int, counts: tuple[int, ...]):
        if n < 1 or len(counts) != n:
            raise ValidationError("count vector must hold exactly n entries")
        if any(c < 0 for c in counts):
            raise ValidationError("subtree counts must be nonnegative")
        return super().__new__(cls, n, counts)

    def s(self, k: int) -> int:
        """s_k, 1-based; 0 for k outside [1, n]."""
        if 1 <= k <= self.n:
            return self.counts[k - 1]
        return 0


def exact_beta(counts: SubtreeCountVector) -> Fraction:
    """beta = s_{n-1}/s_n, exact."""
    if counts.s(counts.n) == 0:
        raise ValidationError("beta undefined: no spanning trees (disconnected source)")
    return Fraction(counts.s(counts.n - 1), counts.s(counts.n))


def poisson_deviation(counts: SubtreeCountVector, k_max: int) -> list[Fraction]:
    """dev_k = (s_{n-k}/s_n) * k! / beta^k - 1 for k = 0..k_max, exact.

    dev_0 = dev_1 = 0 by construction; higher deviations measure the
    distance from the factorial (Poisson) profile.
    """
    n = counts.n
    k_max = params.deviation_order(k_max, n, "k_max")
    beta = exact_beta(counts)  # refuses a disconnected source
    devs = []
    for k in range(k_max + 1):
        ratio = Fraction(counts.s(n - k), counts.s(n))
        devs.append(ratio * math.factorial(k) / beta**k - 1)
    return devs


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
    """Matrix-tree count: the Laplacian cofactor without the last vertex, exact integers.

    Returns 0 iff the graph is disconnected; 1 for a single vertex. s_n of
    `subtree_counts` deletes vertex 0, so each is a check of the other.
    """
    return subset_spanning_tree_count(g, [g.n - 1, *range(g.n - 1)])


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


def enumerate_connected_subsets(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Stream every vertex subset W with |W| = k and g[W] connected, once each.

    Subsets come as ascending vertex tuples, ordered by bitmask value.
    """
    if not 1 <= k <= g.n:
        raise ValidationError(f"subset size {k} out of range [1, {g.n}]")
    _require_bitmask_width(g)
    from .subsets import _chunked_levels

    for vertices in next(islice(_chunked_levels(g), k - 1, None), ()):
        yield from map(tuple, vertices.T.tolist())


def subtree_counts(g: Graph, cap: int = params.DEFAULT_ENUMERATION_CAP) -> SubtreeCountVector:
    """Exact s_1..s_n by summing spanning-tree counts over connected subsets.

    A host of at most SMALL_HOST_VERTICES vertices takes `_small_host_counts`
    (Python integers, no numpy import); a larger one the numpy kernel
    `subsets.level_counts`. Both return the same exact integers.
    """
    cap = params.cap(cap, "cap")
    if g.n > cap:
        raise CapacityError(
            f"subtree_counts on n={g.n} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly if you really want the exponential walk"
        )
    _require_bitmask_width(g)
    if g.n <= SMALL_HOST_VERTICES:
        return SubtreeCountVector(n=g.n, counts=tuple(_small_host_counts(g)))
    from .subsets import level_counts

    return SubtreeCountVector(n=g.n, counts=tuple(level_counts(g)))


def _small_host_counts(g: Graph) -> list[int]:
    """s_1..s_n of g on Python integers: bitmask levels, one Bareiss count per subset.

    Level k+1 is every connected k-subset grown by one vertex of its
    neighbourhood; a set of bitmasks removes the repeats.
    """
    counts = [0] * g.n
    level = {1 << v for v in range(g.n)}
    for k in range(g.n):
        if not level:
            break
        grown = set()
        for mask in level:
            vertices = [v for v in range(g.n) if mask >> v & 1]
            counts[k] += subset_spanning_tree_count(g, vertices)
            frontier = 0
            for v in vertices:
                frontier |= g.adjacency_bits[v]
            frontier &= ~mask
            while frontier:
                low = frontier & -frontier
                grown.add(mask | low)
                frontier ^= low
        level = grown
    return counts


def complete_graph_counts(n: int) -> SubtreeCountVector:
    """Closed-form oracle for complete graphs: s_k = C(n,k) * k^(k-2)."""
    if n < 1:
        raise ValidationError("complete graph needs n >= 1")
    counts = tuple(
        math.comb(n, k) * (k ** (k - 2) if k >= 2 else 1) for k in range(1, n + 1)
    )
    return SubtreeCountVector(n=n, counts=counts)


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
    return SubtreeCountVector(n=g.n, counts=tuple(counts[1:]))


def counts_for(
    g: Graph, family: FamilySpec | None = None, cap: int = params.DEFAULT_ENUMERATION_CAP
) -> SubtreeCountVector:
    """Exact s_1..s_n of g (generated from `family`, or None) by its cheapest route.

    The closed form, then the tree recursion (refused above
    MAX_TREE_VERTICES), then `subtree_counts`, whose small hosts
    (n <= SMALL_HOST_VERTICES) are counted without numpy.
    """
    closed = closed_form_counts(family)
    if closed is not None:
        return closed
    if g.m == g.n - 1 and is_connected(g):
        if g.n > MAX_TREE_VERTICES:
            raise CapacityError(
                f"the tree recursion on n={g.n} exceeds the {MAX_TREE_VERTICES}-vertex bound"
            )
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


class InequalityCheck(NamedTuple):
    kind: str  # "ratio" or "partial_sum"
    index: int
    lhs: Fraction
    rhs: Fraction
    passed: bool


class RatioInequalityReport(NamedTuple):
    precondition_ok: bool
    all_passed: bool
    checks: tuple[InequalityCheck, ...]


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
