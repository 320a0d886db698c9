"""Uniform spanning-tree sampling and the leaf-weight functional.

The weight of a spanning tree T of a host graph G is

    w(T) = sum over leaves v of T of 1/d(v),

with d(v) the degree of v in the HOST graph. Averaged over uniform
spanning trees this equals s_{n-1}/s_n exactly, which is what the
double-counting identity check below verifies by full enumeration.

Both hot paths reduce a tree to the integer pair (W, leaves), where
W = sum over leaves v of L/d(v) and L = lcm of the host degrees, so that
w(T) = W/L exactly and no rational is built per tree.

Sampling is Wilson's algorithm (loop-erased random walks), which is
exactly uniform. Each Monte Carlo sample runs on its own counter-keyed
stream, so estimates are bit-identical no matter how samples are split
across worker processes. A run keeps a histogram of its (W, leaves)
pairs, which take few distinct values (at most n on a regular host);
moments, extremes, bound checks and tails are read from it once per
distinct pair, and workers merge by adding histograms. Rationals and
floats appear only in final reports.

Enumeration includes and excludes edges with the tree degrees kept in
step, so the identity check sums W per tree directly.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .counting import spanning_tree_count, subset_spanning_tree_count
from .errors import CapacityError, ValidationError
from .graphs import Graph, is_connected
from .rng import DOMAIN_SAMPLE, RandomStream, StreamFamily

DEFAULT_SPANNING_TREE_CAP = 10**6
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class SpanningTree:
    n: int
    edges: frozenset[tuple[int, int]]
    leaf_set: frozenset[int]

    @staticmethod
    def from_edges(n: int, edges) -> "SpanningTree":
        edge_set = frozenset((min(u, v), max(u, v)) for u, v in edges)
        if len(edge_set) != n - 1:
            raise ValidationError(f"a spanning tree on {n} vertices needs {n - 1} edges")
        forest = Graph.from_edges(n, edge_set)
        if not is_connected(forest):
            raise ValidationError("edge set is not connected, not a spanning tree")
        return _tree(n, edge_set, forest.degrees)


def _tree(n: int, edges, tree_degree: Sequence[int]) -> SpanningTree:
    """A SpanningTree from edges already known to form one."""
    return SpanningTree(
        n=n,
        edges=frozenset((min(u, v), max(u, v)) for u, v in edges),
        leaf_set=frozenset(v for v, d in enumerate(tree_degree) if d == 1),
    )


@dataclass(frozen=True)
class WeightSample:
    weight: Fraction
    leaf_count: int


@dataclass(frozen=True)
class BetaEstimate:
    mean: Fraction
    standard_error: float
    samples: int
    seed: int
    min_weight: Fraction
    max_weight: Fraction
    bound_violations: int

    def to_json_dict(self) -> dict:
        return {
            "estimate": float(self.mean),
            "estimate_exact": str(self.mean),
            "standard_error": self.standard_error,
            "samples": self.samples,
            "seed": self.seed,
            "min_weight": str(self.min_weight),
            "max_weight": str(self.max_weight),
            "weight_bound_violations": self.bound_violations,
        }


def _leaf_scales(g: Graph) -> tuple[int, list[int]]:
    """L = lcm of the host degrees, and L/d(v) per vertex (0 if isolated)."""
    degrees = g.degrees
    lcm = math.lcm(*(d for d in degrees if d))
    return lcm, [lcm // d if d else 0 for d in degrees]


def _leaf_form(tree_degree: Sequence[int], scale: Sequence[int]) -> tuple[int, int]:
    """(W, leaves) of a tree: W = sum of L/d(v) over its leaves, w(T) = W/L."""
    w = leaves = 0
    for d, s in zip(tree_degree, scale):
        if d == 1:
            w += s
            leaves += 1
    return w, leaves


def _parent_degrees(parent: list[int]) -> list[int]:
    """Tree degrees of a parent array rooted at 0 (parent[0] = -1)."""
    degree = [1] * len(parent)
    degree[0] = 0
    for v in range(1, len(parent)):
        degree[parent[v]] += 1
    return degree


def wilson_sample(g: Graph, rng: RandomStream) -> SpanningTree:
    """One exactly-uniform spanning tree via loop-erased random walks."""
    if not is_connected(g):
        raise ValidationError("Wilson sampling needs a connected host graph")
    parent = _wilson_parents(g, rng)
    return _tree(g.n, [(v, parent[v]) for v in range(1, g.n)], _parent_degrees(parent))


def _wilson_parents(g: Graph, rng: RandomStream) -> list[int]:
    """Wilson's walks from each vertex into the tree grown from root 0."""
    n = g.n
    parent = [-1] * n
    in_tree = [False] * n
    in_tree[0] = True
    neighbors = g.neighbors
    randint = rng.randint
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        while not in_tree[u]:
            nb = neighbors[u]
            parent[u] = nb[randint(len(nb))]  # cycles erased by overwriting
            u = parent[u]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    return parent


def leaf_weight(t: SpanningTree, g: Graph) -> WeightSample:
    """Exact rational w(T); leaf degrees taken in the host graph."""
    if t.n != g.n:
        raise ValidationError("tree and host disagree on vertex count")
    tree_degree = [0] * t.n
    for u, v in t.edges:
        if not g.has_edge(u, v):
            raise ValidationError(f"tree edge ({u}, {v}) is not a host edge")
        tree_degree[u] += 1
        tree_degree[v] += 1
    lcm, scale = _leaf_scales(g)
    w, leaves = _leaf_form(tree_degree, scale)
    return WeightSample(weight=Fraction(w, lcm), leaf_count=leaves)


def _expected_draws(g: Graph) -> int:
    """About the words one Wilson sample on connected g draws on average.

    The walks take sum_v d(v) R(v, 0) steps on average (Wilson 1996), R
    the effective resistance: the diagonal of the inverse Laplacian
    grounded at 0. A step at degree d draws 2^ceil(log2 d)/d words; the
    worst degree is taken.
    """
    n = g.n
    if n < 2:
        return 1
    adjacency = [[(bits >> u) & 1 for u in range(n)] for bits in g.adjacency_bits]
    grounded = (np.diag(g.degrees) - np.array(adjacency, dtype=float))[1:, 1:]
    resistance = np.diag(np.linalg.inv(grounded))
    steps = float(np.dot(g.degrees[1:], resistance))
    draws_per_step = max((1 << (d - 1).bit_length()) / d for d in g.degrees)
    return math.ceil(steps * draws_per_step)


def _weight_chunk(args) -> Counter:
    """Worker: the (W, leaves) histogram of a contiguous block of sample indices."""
    g, seed, lo, hi, first_block = args
    _, scale = _leaf_scales(g)
    streams = StreamFamily(seed, DOMAIN_SAMPLE, first_block)
    hist: Counter = Counter()
    for i in range(lo, hi):
        parent = _wilson_parents(g, streams.at(i))
        hist[_leaf_form(_parent_degrees(parent), scale)] += 1
    return hist


class _WeightHistogram:
    """The samples of one run on g: how often each (W, leaves) pair occurred."""

    def __init__(self, g: Graph, counts: Counter):
        lcm, _ = _leaf_scales(g)
        n, delta = g.n, min(g.degrees)
        self.g, self.counts, self.lcm = g, counts, lcm
        self.num = sum(counts.values())
        self.total = sum(w * c for (w, _), c in counts.items())
        self.mean = Fraction(self.total, lcm * self.num)
        # samples outside |l(T)|/n <= w(T) <= 1/alpha = n/delta
        self.violations = sum(
            c for (w, leaves), c in counts.items()
            if w * n < leaves * lcm or (delta > 0 and w * delta > n * lcm)
        )
        leaf_hist: Counter = Counter()
        for (_, leaves), c in counts.items():
            leaf_hist[leaves] += c
        self.leaf_histogram = tuple(sorted(leaf_hist.items()))

    def standard_error(self) -> float:
        num = self.num
        if num < 2:
            return 0.0
        total_sq = sum(w * w * c for (w, _), c in self.counts.items())
        # (sum w^2 - (sum w)^2 / num) / (num - 1) with w = W/L, never negative
        variance = Fraction(total_sq * num - self.total**2, self.lcm**2 * num * (num - 1))
        return math.sqrt(float(variance) / num)


def _run_weight_samples(g: Graph, samples: int, seed: int, threads: int = 1) -> _WeightHistogram:
    if samples < 1:
        raise ValidationError("sample count must be positive")
    if not is_connected(g):
        raise ValidationError("sampling requires a connected host graph")
    first_block = _expected_draws(g)
    threads = max(1, threads)
    if threads == 1 or samples < 2 * threads:
        parts = [_weight_chunk((g, seed, 0, samples, first_block))]
    else:
        pieces = min(samples, threads * _CHUNKS_PER_WORKER)
        step = -(-samples // pieces)
        chunks = [
            (g, seed, lo, min(lo + step, samples), first_block)
            for lo in range(0, samples, step)
        ]
        # the chunk count above follows --threads, so stdout does not depend
        # on the CPU count; only the number of worker processes is bounded
        workers = min(threads, len(os.sched_getaffinity(0)))
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run loads it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_weight_chunk, chunks))
    return _WeightHistogram(g, sum(parts, Counter()))


def _beta_report(h: _WeightHistogram, seed: int) -> BetaEstimate:
    return BetaEstimate(
        mean=h.mean,
        standard_error=h.standard_error(),
        samples=h.num,
        seed=seed,
        min_weight=Fraction(min(w for w, _ in h.counts), h.lcm),
        max_weight=Fraction(max(w for w, _ in h.counts), h.lcm),
        bound_violations=h.violations,
    )


def estimate_beta(g: Graph, samples: int, seed: int, threads: int = 1) -> BetaEstimate:
    """Monte Carlo mean of w(T) over uniform spanning trees.

    Unbiased for beta = s_{n-1}/s_n by the double-counting identity;
    reproducible per seed, independent of thread count.
    """
    if g.n < 2:
        raise ValidationError("beta estimation needs n >= 2")
    return _beta_report(_run_weight_samples(g, samples, seed, threads), seed)


@dataclass(frozen=True)
class LeafCountStats:
    samples: int
    seed: int
    mean: Fraction
    variance: float
    histogram: tuple[tuple[int, int], ...]  # (leaf_count, occurrences), sorted
    epsilon: float
    threshold: float  # (1/e - epsilon) * n
    below_threshold_probability: float
    bound_violations: int

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "mean": float(self.mean),
            "mean_exact": str(self.mean),
            "variance": self.variance,
            "histogram": [[k, v] for k, v in self.histogram],
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "below_threshold_probability": self.below_threshold_probability,
            "weight_bound_violations": self.bound_violations,
        }


def _leaf_stats_report(h: _WeightHistogram, seed: int, epsilon: float) -> LeafCountStats:
    hist = h.leaf_histogram
    num = h.num
    mean = Fraction(sum(k * v for k, v in hist), num)
    sq = Fraction(sum(k * k * v for k, v in hist), num)
    threshold = (math.exp(-1) - epsilon) * h.g.n
    below = sum(v for k, v in hist if k < threshold)
    return LeafCountStats(
        samples=num,
        seed=seed,
        mean=mean,
        variance=float(sq - mean * mean),
        histogram=hist,
        epsilon=epsilon,
        threshold=threshold,
        below_threshold_probability=below / num,
        bound_violations=h.violations,
    )


def leaf_count_stats(
    g: Graph, samples: int, seed: int, epsilon: float = 0.05, threads: int = 1
) -> LeafCountStats:
    """Empirical distribution of the leaf count |l(T)| of uniform trees.

    Reports the frequency of trees with fewer than (1/e - epsilon) * n
    leaves, the quantity the few-leaves lemma bounds by epsilon for large
    dense graphs.
    """
    _check_epsilon(epsilon)
    return _leaf_stats_report(_run_weight_samples(g, samples, seed, threads), seed, epsilon)


@dataclass(frozen=True)
class ConcentrationRow:
    b: float
    tail_count: int
    empirical_tail: float
    bound_min_degree: float  # 2 exp(-delta^2 b^2 / (32 n))
    bound_alpha_form: float  # 2 exp(-alpha^2 b^2 n / 32)
    status_min_degree: str
    status_alpha_form: str

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "tail_count": self.tail_count,
            "empirical_tail": self.empirical_tail,
            "bound_min_degree": self.bound_min_degree,
            "bound_alpha_form": self.bound_alpha_form,
            "status_min_degree": self.status_min_degree,
            "status_alpha_form": self.status_alpha_form,
        }


@dataclass(frozen=True)
class ConcentrationReport:
    samples: int
    seed: int
    mean: Fraction
    rows: tuple[ConcentrationRow, ...]
    bound_violations: int

    @property
    def any_violation(self) -> bool:
        return any(
            "violation" in (r.status_min_degree, r.status_alpha_form) for r in self.rows
        )

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "mean": float(self.mean),
            "mean_exact": str(self.mean),
            "rows": [r.to_json_dict() for r in self.rows],
            "weight_bound_violations": self.bound_violations,
            "any_violation": self.any_violation,
        }


def _tail_status(tail: float, bound: float, samples: int) -> str:
    """Monte Carlo verdict; noise near the boundary must not cry wolf."""
    if tail <= bound:
        return "pass"
    clamped = min(max(bound, 0.0), 1.0)
    se = math.sqrt(clamped * (1.0 - clamped) / samples)
    if tail <= bound + 3.0 * se:
        return "inconclusive"
    return "violation"


def _tails_report(h: _WeightHistogram, seed: int, b_grid: Sequence[float]) -> ConcentrationReport:
    g, num = h.g, h.num
    delta = min(g.degrees)
    alpha = Fraction(delta, g.n)
    rows = []
    for b in b_grid:
        # |w(T) - mean| >= b, compared exactly
        tail_count = sum(
            c for (w, _), c in h.counts.items() if abs(Fraction(w, h.lcm) - h.mean) >= b
        )
        tail = tail_count / num
        bound_delta = 2.0 * math.exp(-(delta**2) * b * b / (32.0 * g.n))
        bound_alpha = 2.0 * math.exp(-float(alpha) ** 2 * b * b * g.n / 32.0)
        rows.append(
            ConcentrationRow(
                b=b,
                tail_count=tail_count,
                empirical_tail=tail,
                bound_min_degree=bound_delta,
                bound_alpha_form=bound_alpha,
                status_min_degree=_tail_status(tail, bound_delta, num),
                status_alpha_form=_tail_status(tail, bound_alpha, num),
            )
        )
    return ConcentrationReport(
        samples=num, seed=seed, mean=h.mean, rows=tuple(rows), bound_violations=h.violations
    )


def _check_b_grid(b_grid: Sequence[float]) -> None:
    if not b_grid:
        raise ValidationError("b_grid must be nonempty")
    if not all(math.isfinite(b) and b > 0 for b in b_grid):
        raise ValidationError("b_grid entries must be positive and finite")


def _check_epsilon(epsilon: float) -> None:
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon}")


def concentration_profile(
    g: Graph,
    samples: int,
    b_grid: Sequence[float],
    seed: int,
    threads: int = 1,
) -> ConcentrationReport:
    """Empirical tails of |w(T) - mean| against both printed bound forms.

    The min-degree form 2 exp(-delta^2 b^2 / (32 n)) is the sharper one;
    the alpha form 2 exp(-alpha^2 b^2 n / 32) follows from delta >= alpha n.
    """
    _check_b_grid(b_grid)
    return _tails_report(_run_weight_samples(g, samples, seed, threads), seed, b_grid)


def weight_experiment(
    g: Graph,
    samples: int,
    seed: int,
    b_grid: Sequence[float],
    epsilon: float = 0.05,
    threads: int = 1,
) -> tuple[BetaEstimate, LeafCountStats, ConcentrationReport]:
    """One sampling pass feeding all three reports.

    The beta estimate, the leaf-count distribution, and the concentration
    tails describe the same empirical sample set, and the pass costs a
    third of running the three experiments separately.
    """
    if g.n < 2:
        raise ValidationError("the sampling battery needs n >= 2")
    _check_b_grid(b_grid)
    _check_epsilon(epsilon)
    h = _run_weight_samples(g, samples, seed, threads)
    return (
        _beta_report(h, seed),
        _leaf_stats_report(h, seed, epsilon),
        _tails_report(h, seed, b_grid),
    )


def _spanning_tree_walk(g: Graph, cap: int) -> Iterator[tuple[list, list[int]]]:
    """Yield (edges, tree degrees) of each spanning tree exactly once.

    Edge inclusion/exclusion in depth-first order. An edge is excluded
    when it closes a cycle in the forest built so far, or when it is not
    a bridge of that forest plus the edges not yet decided, so every
    branch ends in a tree. The forest is kept as adjacency bitmasks and
    tree degrees, rolled back in step. Both yielded lists are shared and
    change at the next step. The matrix-tree count guards the cap up
    front and is re-verifiable against the yield count.
    """
    if not is_connected(g):
        raise ValidationError("spanning-tree enumeration needs a connected graph")
    total = spanning_tree_count(g)
    if total > cap:
        raise CapacityError(f"{total} spanning trees exceed the enumeration cap {cap}")
    n = g.n
    edges = g.edges()
    suffix = [[0] * n]  # suffix[i][v]: neighbours of v over edges[i:], as bits
    for u, v in reversed(edges):
        row = list(suffix[-1])
        row[u] |= 1 << v
        row[v] |= 1 << u
        suffix.append(row)
    suffix.reverse()
    forest = [0] * n  # adjacency bitmasks of the included edges
    tree_degree = [0] * n
    included: list[tuple[int, int]] = []

    def joined(u: int, v: int, rest: list[int]) -> bool:
        """Whether the forest plus the edges in `rest` connects u to v."""
        seen = frontier = 1 << u
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                w = low.bit_length() - 1
                reach |= rest[w] | forest[w]
                frontier ^= low
            if (reach >> v) & 1:
                return True
            frontier = reach & ~seen
            seen |= frontier
        return False

    todo = [(0, n, False)]
    while todo:
        idx, components, undo = todo.pop()
        if undo:  # back from including edges[idx]: undo, then exclude it unless a bridge
            u, v = included.pop()
            forest[u] ^= 1 << v
            forest[v] ^= 1 << u
            tree_degree[u] -= 1
            tree_degree[v] -= 1
            if joined(u, v, suffix[idx + 1]):
                todo.append((idx + 1, components, False))
            continue
        if components == 1:
            yield included, tree_degree
            continue
        u, v = edges[idx]
        while joined(u, v, suffix[-1]):  # a cycle edge; a crossing edge remains, as the rest connects
            idx += 1
            u, v = edges[idx]
        forest[u] |= 1 << v
        forest[v] |= 1 << u
        tree_degree[u] += 1
        tree_degree[v] += 1
        included.append((u, v))
        todo.append((idx, components, True))
        todo.append((idx + 1, components - 1, False))


def enumerate_spanning_trees(
    g: Graph, cap: int = DEFAULT_SPANNING_TREE_CAP
) -> Iterator[SpanningTree]:
    """Yield each spanning tree exactly once (see _spanning_tree_walk)."""
    for edges, tree_degree in _spanning_tree_walk(g, cap):
        yield _tree(g.n, edges, tree_degree)


@dataclass(frozen=True)
class WeightIdentityReport:
    n: int
    tree_count: int
    weight_sum: Fraction  # sum of w(T) over all spanning trees
    s_n_minus_1: int  # independent matrix-tree route
    equal: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "tree_count": self.tree_count,
            "lhs_weight_sum": str(self.weight_sum),
            "rhs_s_n_minus_1": str(self.s_n_minus_1),
            "equal": self.equal,
        }


def verify_weight_identity(
    g: Graph, cap: int = DEFAULT_SPANNING_TREE_CAP
) -> WeightIdentityReport:
    """Check sum_{T} w(T) = s_{n-1}(G) exactly.

    The left side enumerates every spanning tree and adds its scaled
    leaf weight W, dividing by L once; the right side computes s_{n-1}
    as the sum of matrix-tree counts of the vertex-deleted subgraphs, a
    fully independent route.
    """
    n = g.n
    if n == 1:
        return WeightIdentityReport(
            n=1, tree_count=1, weight_sum=Fraction(0), s_n_minus_1=0, equal=True
        )
    lcm, scale = _leaf_scales(g)
    scaled_sum = tree_count = 0
    for _, tree_degree in _spanning_tree_walk(g, cap):
        scaled_sum += _leaf_form(tree_degree, scale)[0]
        tree_count += 1
    weight_sum = Fraction(scaled_sum, lcm)
    s_n_minus_1 = 0
    for v in range(n):
        rest = [u for u in range(n) if u != v]
        s_n_minus_1 += subset_spanning_tree_count(g, rest)
    return WeightIdentityReport(
        n=n,
        tree_count=tree_count,
        weight_sum=weight_sum,
        s_n_minus_1=s_n_minus_1,
        equal=weight_sum == s_n_minus_1,
    )
