"""Output checks that do not share a route with the code under test.

Each check reads one stdout document and raises CheckError on the first
disagreement. The references are closed forms, exact rational
elimination written here, and Vieta's relations evaluated on the printed
roots; none of them calls into the lab.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

VIETA_TOLERANCE = 1e-8  # the lab's own certification tolerance
SE_MULTIPLE = 4


class CheckError(Exception):
    """An operation's output disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def matrix_tree_count(n: int, edges) -> int:
    """Spanning-tree count by Fraction elimination of a Laplacian minor."""
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    mat = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] / mat[col][col]
            if factor:
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    require(det.denominator == 1, "matrix-tree determinant is not an integer")
    return int(det)


def cmpm_counts(n: int) -> list[int]:
    """s_1..s_n of K_n minus a perfect matching, by the closed form

    s_k = sum_j C(n/2, j) C(n/2 - j, k - 2j) 2^(k-2j) k^(k-2) (1 - 2/k)^j:
    choose j matching pairs inside the k-set and k - 2j singletons, then
    count spanning trees of K_k minus j disjoint edges.
    """
    half = n // 2
    counts = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for j in range(min(k // 2, half) + 1):
            ways = math.comb(half, j) * math.comb(half - j, k - 2 * j) * 2 ** (k - 2 * j)
            total += ways * Fraction(k) ** (k - 2) * (1 - Fraction(2, k)) ** j
        counts.append(int(total))
    return counts


def complete_counts(n: int) -> list[int]:
    return [math.comb(n, k) * (k ** (k - 2) if k >= 2 else 1) for k in range(1, n + 1)]


def _counts(doc: dict, n: int) -> list[int]:
    result = doc["result"]
    require(result["n"] == n, f"expected n = {n}, got {result['n']}")
    return [int(c) for c in result["counts"]]


def counts_generic(doc: dict, n: int, edges) -> None:
    """s_1 = n, s_2 = m, s_3 = sum_v C(d_v, 2), s_n = matrix-tree count."""
    s = _counts(doc, n)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    require(s[0] == n, f"s_1 = {s[0]}, expected {n}")
    require(s[1] == len(edges), f"s_2 = {s[1]}, expected m = {len(edges)}")
    paths = sum(math.comb(d, 2) for d in degree)
    require(s[2] == paths, f"s_3 = {s[2]}, expected {paths}")
    trees = matrix_tree_count(n, edges)
    require(s[-1] == trees, f"s_n = {s[-1]}, expected matrix-tree {trees}")


def counts_cmpm(doc: dict, n: int) -> None:
    require(_counts(doc, n) == cmpm_counts(n), "count vector differs from the closed form")


def experiment_complete(doc: dict, n: int, samples: int) -> None:
    """beta within SE_MULTIPLE standard errors of ((n-1)/n)^(n-3), no bound
    violations, and a leaf-count histogram that sums to the sample count."""
    result = doc["result"]
    beta = result["beta"]
    exact = Fraction(n - 1, n) ** (n - 3)
    require(beta["samples"] == samples, f"beta used {beta['samples']} samples, expected {samples}")
    error = abs(Fraction(beta["estimate_exact"]) - exact)
    require(error <= SE_MULTIPLE * beta["standard_error"],
            f"beta misses {float(exact):.6f} by {float(error):.3e}, "
            f"more than {SE_MULTIPLE} SE = {SE_MULTIPLE * beta['standard_error']:.3e}")
    for part in ("beta", "leaf_counts", "concentration"):
        require(result[part]["weight_bound_violations"] == 0, f"{part} reports weight-bound violations")
    total = sum(count for _, count in result["leaf_counts"]["histogram"])
    require(total == samples, f"leaf-count histogram sums to {total}, expected {samples}")


def roots_complete(doc: dict, n: int) -> None:
    """The printed roots of S(K_n; x) meet Vieta's relations for the closed-form
    coefficients: the nonzero roots multiply to s_1/s_n in modulus and sum to
    -s_(n-1)/s_n."""
    s = complete_counts(n)
    roots = doc["result"]["roots"]
    require(len(roots) == n, f"{len(roots)} roots, expected {n}")
    with mp.workprec(160):
        values = [mp.mpc(mp.mpf(re), mp.mpf(im)) for re, im in roots]
        nonzero = sorted(values, key=abs)[1:]  # S(x) = x Q(x): drop the forced root
        product = mp.fprod(abs(x) for x in nonzero)
        target = mp.mpf(s[0]) / s[-1]
        rel_product = abs(product - target) / target
        total = mp.fsum(nonzero)
        target_sum = -mp.mpf(s[-2]) / s[-1]
        rel_sum = abs(total - target_sum) / abs(target_sum)
    require(rel_product <= VIETA_TOLERANCE, f"|product of roots| off by {float(rel_product):.3e}")
    require(rel_sum <= VIETA_TOLERANCE, f"sum of roots off by {float(rel_sum):.3e}")


def rouche_complete(doc: dict, n: int) -> None:
    """Exact beta = ((n-1)/n)^(n-3), radius = alpha log(n) / C, witness holds."""
    result = doc["result"]
    require(result["n"] == n, f"expected n = {n}, got {result['n']}")
    beta = Fraction(n - 1, n) ** (n - 3)
    require(Fraction(result["beta_exact"]) == beta, "beta differs from ((n-1)/n)^(n-3)")
    radius = (n - 1) / n * math.log(n) / result["C"]
    require(math.isclose(result["radius"], radius, rel_tol=1e-12),
            f"radius {result['radius']} differs from {radius}")
    require(result["witness_ok"] is True, "pointwise witness failed")


def verify_doc(doc: dict, n: int, edges) -> None:
    """all_passed, and the enumerated tree count equals the matrix-tree count."""
    result = doc["result"]
    require(result["all_passed"] is True, "verify reports a failed check")
    trees = matrix_tree_count(n, edges)
    got = result["weight_identity"]["tree_count"]
    require(got == trees, f"tree_count = {got}, expected matrix-tree {trees}")
