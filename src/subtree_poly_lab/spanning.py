"""Uniform spanning-tree sampling and the leaf-weight functional.

The weight of a spanning tree T of a host graph G is

    w(T) = sum over leaves v of T of 1/d(v),

with d(v) the degree of v in the HOST graph. Averaged over uniform
spanning trees this equals s_{n-1}/s_n exactly, by a double count: v is
a leaf of exactly d(v) tau(G - v) spanning trees, and s_{n-1} is the sum
of tau(G - v). The identity check below verifies that count for every
vertex, over all spanning trees.

The sampler reduces a tree to the integer pair (W, leaves), where
W = sum over leaves v of L/d(v) and L = lcm of the host degrees, so that
w(T) = W/L exactly and no rational is built per tree.

Sampling is Wilson's algorithm (loop-erased random walks), which is
exactly uniform. Each Monte Carlo sample runs on its own counter-keyed
stream, so estimates are bit-identical no matter how samples are split
across worker processes. ``wilson_sample`` walks one stream a word at a
time. A sampling run walks a block of samples at once in numpy lockstep
(``_wilson_batch``): row b of a word block holds the first words of
sample b's stream, and each iteration takes one walk step or one
erasure step per sample, so every sample draws the tree its own stream
gives. Blocks hold about _BLOCK_ELEMENTS words and parent entries, so
memory does not grow with the sample count; a sample whose row of words
runs out runs again from its first word with twice the width, and draws
the same tree. A run keeps a histogram of its (W, leaves)
pairs, which take few distinct values (at most n on a regular host);
moments, extremes, bound checks and tails are read from it once per
distinct pair, and workers merge by adding histograms. Rationals and
floats appear only in final reports.

Enumeration includes and excludes edges depth first with the tree
degrees and each vertex's component label kept in step, down to a cut:
a forest of a given number of components, below which the walk does
not branch. The trees below a cut are the forest plus a spanning tree of
the quotient multigraph Q on its components, whose edges are the
undecided edges that join two of them. ``enumerate_spanning_trees``
cuts at four components and tests each triple of crossing edges against
the definition of a tree, in lexicographic edge order; it is the only
code that lists the trees of a cut. The identity check cuts at
min(K_MAX, n - 2) components and lists none: a cut has tau(Q) trees,
Q's matrix-tree determinant, and how many of them have a given vertex
as a leaf follows by three cases on its forest degree. Degree 1: a leaf
exactly when the tree takes none of its crossing edges, in as many
trees as Q has without them. Degree 0: a component X of its own, a leaf
exactly when X is a leaf of the quotient tree, in deg(X) tau(Q - X)
trees. Degree 2 or more: never a leaf. Each vertex's total over the
cuts must be d(v) tau(G - v).
A sampling run takes one chunk of samples per worker process, and one
worker runs in-process.
Only the sampling functions import numpy and the random streams, so
enumeration and exact weights run without them.
"""

import math
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations, compress
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from . import params
from .counting import _bareiss_determinant, _laplacian_minor, spanning_tree_count, subset_spanning_tree_count
from .errors import CapacityError, ValidationError
from .graphs import Graph, degree_profile, is_connected

if TYPE_CHECKING:
    import numpy as np

    from .rng import RandomStream

class SpanningTree(NamedTuple):
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


class WeightSample(NamedTuple):
    weight: Fraction
    leaf_count: int


class BetaEstimate(NamedTuple):
    mean: Fraction
    standard_error: float
    samples: int
    seed: int
    min_weight: Fraction
    max_weight: Fraction
    bound_violations: int


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


def wilson_sample(g: Graph, rng: "RandomStream") -> SpanningTree:
    """One exactly-uniform spanning tree via loop-erased random walks."""
    if not is_connected(g):
        raise ValidationError("Wilson sampling needs a connected host graph")
    parent = _wilson_parents(g, rng)
    return _tree(g.n, [(v, parent[v]) for v in range(1, g.n)], _parent_degrees(parent))


def _wilson_parents(g: Graph, rng: "RandomStream") -> list[int]:
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
    import numpy as np

    n = g.n
    if n < 2:
        return 1
    grounded = np.array(_laplacian_minor(g, list(range(n))), dtype=float)
    resistance = np.diag(np.linalg.inv(grounded))
    steps = float(np.dot(g.degrees[1:], resistance))
    draws_per_step = max((1 << (d - 1).bit_length()) / d for d in g.degrees)
    return math.ceil(steps * draws_per_step)


def _step_table(g: Graph) -> "tuple[np.ndarray, int]":
    """The walk's moves: row u, column j is where a walk at u goes on a word
    with low bits j, for j below `stride` = 2^ceil(log2 (max degree)).

    That is u's neighbour nb[j & mask] (mask = 2^ceil(log2 d(u)) - 1), the
    draw of ``RandomStream.randint``, or u itself where randint rejects.
    """
    import numpy as np

    n = g.n
    stride = 1 << (max(g.degrees) - 1).bit_length()
    masks = np.array([(1 << (len(nb) - 1).bit_length()) - 1 for nb in g.neighbors])
    padded = np.repeat(np.arange(n), stride).reshape(n, stride)  # u past its neighbours
    for u, nb in enumerate(g.neighbors):
        padded[u, : len(nb)] = nb
    table = np.take_along_axis(padded, np.arange(stride) & masks[:, None], axis=1)
    return table.ravel(), stride


# numpy keeps freed buffers under 1 KiB for reuse, by exact size: state
# arrays shrinking through many small sizes, block after block, would grow
# the process by up to a few MB
_COMPACT_FLOOR = 1024


def _wilson_batch(g: Graph, words: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """Wilson's walks of a block of samples in lockstep, one sample a row.

    Row b of `words` is the start of sample b's stream, of any unsigned
    dtype wide enough for the table's stride (see `StreamFamily.fill`).
    The host has at least two vertices and `words` at least one row.
    Returns the `(B, n)` parent arrays, each what `_wilson_parents` gives
    on the same stream, and the words each sample drew. A sample that ran
    out of words shows width + 1: its row is unfinished, and the sample
    must run again with more words.

    Every iteration does one thing per sample. A walking sample draws
    one word and sets parent[u] to the vertex drawn (erasing any loop),
    or to u itself on a rejected draw, which the accepted draw that
    leaves u overwrites; on reaching the tree it switches to erasure
    from its start. An erasing sample marks one vertex as in the tree
    and moves to its parent; on reaching the tree it starts a new walk
    from the first vertex not yet in it, Wilson's order of starts, or is
    done. A sample that is done or short of words is parked: it walks in
    a spare row past the block, which it never marks, and draws no word.
    Parked samples are dropped from the state arrays once they are a
    quarter of them, so the arrays shrink in a few steps, and never to
    fewer than _COMPACT_FLOOR entries.
    """
    import numpy as np

    count, width = words.shape
    n = g.n
    parent = np.full((count + 1) * n, -1, dtype=np.min_scalar_type(-n))
    in_tree = np.zeros((count + 1) * n, dtype=bool)
    in_tree[: count * n : n] = True
    used = np.zeros(count, dtype=np.int64)
    table, stride = _step_table(g)
    low = stride - 1
    flat_words = words.reshape(-1)
    if flat_words.dtype == np.uint64:  # uint64 and int64 operands would promote to float
        flat_words = flat_words.view(np.int64)
    rows = in_tree[: count * n].reshape(count, n)
    spare = count * n
    # per sample: its index, the offset of its parent and in_tree row, its
    # next word, its vertex and walk start, and its mode
    sample = np.arange(count)
    base = sample * n
    cursor = sample * width
    u = np.ones(count, dtype=np.int64)
    start = u.copy()
    erasing = np.zeros(count, dtype=bool)
    walking = ~erasing
    live = count
    safe = width  # iterations before any sample can draw past its words

    def park(idx):
        nonlocal live
        used[sample[idx]] = cursor[idx] - sample[idx] * width
        base[idx] = spare
        cursor[idx] = 0  # never past its words again
        walking[idx] = erasing[idx] = False
        live -= idx.size

    while live:
        cell = base + u
        drawn = table.take(u * stride + (flat_words.take(cursor, mode="clip") & low))
        u = np.where(erasing, parent.take(cell), drawn)
        parent[cell] = u  # an erasing sample writes back its own parent
        in_tree[cell] = erasing  # a walking sample's u is off the tree
        cursor += walking
        safe -= 1
        if safe < 0:
            left = (sample + 1) * width - cursor
            over = left < 0  # drew past its words: the draw and what follows are void
            if over.any():
                idx = over.nonzero()[0]
                park(idx)
                left[idx] = width
            safe = int(left.min())
        hit = in_tree.take(base + u)
        if hit.any():
            np.copyto(u, start, where=hit > erasing)  # arrived: erase from the start
            finished = (hit & erasing).nonzero()[0]
            erasing ^= hit
            walking ^= hit
            if finished.size:
                first = rows[sample[finished]].argmin(axis=1)
                start[finished] = u[finished] = first  # 0 once every vertex is in
                done = finished[first == 0]
                if done.size:
                    park(done)
        if live >= _COMPACT_FLOOR and 4 * live <= 3 * sample.size:
            keep = base != spare
            sample, base, cursor = sample[keep], base[keep], cursor[keep]
            u, start, erasing, walking = u[keep], start[keep], erasing[keep], walking[keep]
    return parent[: count * n].reshape(count, n), used


def _tree_pairs(parents: "np.ndarray", scale: Sequence[int], lcm: int) -> Iterator[tuple[int, int]]:
    """The (W, leaves) pair of each row of `(B, n)` parent arrays rooted at 0.

    Off the root a leaf is a vertex that is no vertex's parent; the root
    is a leaf when it is the parent of one vertex. Columns are taken one
    at a time, so the work arrays hold one entry per row, not per cell.
    """
    import numpy as np

    count, n = parents.shape
    leaf = np.ones((count, n), dtype=bool)
    flat, offsets = leaf.reshape(-1), np.arange(0, count * n, n)
    for v in range(1, n):
        flat[offsets + parents[:, v]] = False
    leaf[:, 0] = (parents[:, 1:] == 0).sum(axis=1) == 1
    leaves = leaf.sum(axis=1).tolist()
    if lcm * n < 1 << 63:  # W <= sum of L/d(v) <= n L fits in int64
        weights = np.zeros(count, dtype=np.int64)
        for v, s in enumerate(scale):
            weights[leaf[:, v]] += s
        weights = weights.tolist()
    else:  # exact Python integers
        weights = [sum(compress(scale, row)) for row in leaf.tolist()]
    return zip(weights, leaves)


# A block of samples holds about _BLOCK_ELEMENTS words and parent entries,
# and at least _MIN_ROWS samples: on fewer, numpy's cost per call outweighs
# the Python walk it replaces. A sample's row holds _WIDTH_FACTOR times the
# words it is expected to draw.
_BLOCK_ELEMENTS = 1 << 18
_MIN_ROWS = 256
_WIDTH_FACTOR = 2


def _weight_chunk(args) -> Counter:
    """Worker: the (W, leaves) histogram of a contiguous block of sample indices.

    Samples run through `_wilson_batch` in blocks sized by _BLOCK_ELEMENTS,
    so memory does not grow with the chunk, each word kept to the low
    bits a walk step reads. The samples whose row of words runs out run
    again after the others, from their first word with twice the width,
    and so draw the same trees.
    """
    import numpy as np

    from .rng import DOMAIN_SAMPLE, StreamFamily

    g, seed, lo, hi, expected = args
    lcm, scale = _leaf_scales(g)
    streams = StreamFamily(seed, DOMAIN_SAMPLE)
    dtype = np.min_scalar_type(max(g.degrees))
    hist: Counter = Counter()
    todo: Sequence[int] = range(lo, hi)
    width = _WIDTH_FACTOR * expected
    while todo:
        rows = max(_MIN_ROWS, _BLOCK_ELEMENTS // (width + g.n))
        buffer = np.empty((min(rows, len(todo)), width), dtype=dtype)
        redo = []
        for first in range(0, len(todo), rows):
            part = todo[first : first + rows]
            parents, used = _wilson_batch(g, streams.fill(buffer[: len(part)], part))
            short = used > width
            if short.any():
                redo += [part[i] for i in np.flatnonzero(short).tolist()]
                parents = parents[~short]
            hist.update(_tree_pairs(parents, scale, lcm))
        todo, width = redo, 2 * width
    return hist


class _WeightHistogram:
    """The samples of one run on g: how often each (W, leaves) pair occurred."""

    def __init__(self, g: Graph, counts: Counter):
        lcm, _ = _leaf_scales(g)
        n, delta = g.n, degree_profile(g).min_degree
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


def _run_weight_samples(
    g: Graph, samples: int, seed: int, threads: int = params.DEFAULT_THREADS
) -> _WeightHistogram:
    if g.n < 2:
        raise ValidationError("sampling needs n >= 2")
    samples = params.samples(samples, "samples")
    threads = params.threads(threads, "threads")
    if not is_connected(g):
        raise ValidationError("sampling requires a connected host graph")
    expected = _expected_draws(g)
    # one chunk per worker, in-process for one; the histograms merge exactly,
    # so chunking never changes a result
    workers = 1
    if threads > 1:
        # the CPUs this process may run on; os.sched_getaffinity is Linux-only
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        workers = max(1, min(threads, cpus, samples // 2))
    chunks = [
        (g, seed, samples * i // workers, samples * (i + 1) // workers, expected)
        for i in range(workers)
    ]
    if workers == 1:
        parts = map(_weight_chunk, chunks)
    else:
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


def estimate_beta(
    g: Graph, samples: int, seed: int, threads: int = params.DEFAULT_THREADS
) -> BetaEstimate:
    """Monte Carlo mean of w(T) over uniform spanning trees.

    Unbiased for beta = s_{n-1}/s_n by the double-counting identity;
    reproducible per seed, independent of thread count.
    """
    return _beta_report(_run_weight_samples(g, samples, seed, threads), seed)


class LeafCountStats(NamedTuple):
    samples: int
    seed: int
    mean: Fraction
    variance: float
    histogram: tuple[tuple[int, int], ...]  # (leaf_count, occurrences), sorted
    epsilon: float
    threshold: float  # (1/e - epsilon) * n
    below_threshold_probability: float
    bound_violations: int


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


class ConcentrationRow(NamedTuple):
    b: float
    tail_count: int
    empirical_tail: float
    bound_min_degree: float  # 2 exp(-delta^2 b^2 / (32 n))
    bound_alpha_form: float  # 2 exp(-alpha^2 b^2 n / 32)
    status_min_degree: str
    status_alpha_form: str


class ConcentrationReport(NamedTuple):
    samples: int
    seed: int
    mean: Fraction
    rows: tuple[ConcentrationRow, ...]
    bound_violations: int
    any_violation: bool  # a row with a "violation" status under either bound


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
    profile = degree_profile(g)
    delta, alpha = profile.min_degree, profile.alpha
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
        samples=num, seed=seed, mean=h.mean, rows=tuple(rows), bound_violations=h.violations,
        any_violation=any("violation" in (r.status_min_degree, r.status_alpha_form) for r in rows),
    )


def weight_experiment(
    g: Graph,
    samples: int,
    seed: int,
    b_grid: Sequence[float],
    epsilon: float = params.DEFAULT_EPSILON,
    threads: int = params.DEFAULT_THREADS,
) -> tuple[BetaEstimate, LeafCountStats, ConcentrationReport]:
    """One sampling pass feeding three reports on the same samples.

    The beta estimate; the leaf-count distribution, with the frequency of
    trees with fewer than (1/e - epsilon) n leaves, which the few-leaves
    lemma bounds by epsilon on large dense hosts; and the tails of
    |w(T) - mean| against both printed bound forms: the min-degree form
    2 exp(-delta^2 b^2 / (32 n)) is the sharper one, and the alpha form
    2 exp(-alpha^2 b^2 n / 32) follows from delta >= alpha n.
    """
    b_grid = params.b_grid(b_grid, "b_grid")
    epsilon = params.finite(epsilon, "epsilon")
    h = _run_weight_samples(g, samples, seed, threads)
    return (
        _beta_report(h, seed),
        _leaf_stats_report(h, seed, epsilon),
        _tails_report(h, seed, b_grid),
    )


def _guarded_tree_count(g: Graph, cap: int) -> int:
    """The matrix-tree count of connected g, refused above `cap`."""
    cap = params.tree_cap(cap, "cap")
    if not is_connected(g):
        raise ValidationError("spanning-tree enumeration needs a connected graph")
    total = spanning_tree_count(g)
    if total > cap:
        raise CapacityError(f"{total} spanning trees exceed the enumeration cap {cap}")
    return total


def _spanning_cuts(
    g: Graph, stop: int
) -> Iterator[tuple[list, list[int], list[int], list[tuple[int, int, int]]]]:
    """Yield (forest edges, tree degrees, comp, crossing) for each cut of connected g.

    Edge inclusion/exclusion in depth-first order. An edge is excluded
    when it closes a cycle in the forest built so far, or when it is not
    a bridge of that forest plus the edges not yet decided, so every
    branch holds a tree. The walk stops where the forest has `stop`
    components, or spans (n < stop), and yields that cut: the forest,
    its tree degrees, each vertex's component as bits, and the undecided
    edges with ends in two components, in edge order, each tagged with
    the bits of both components. The trees below a cut are the forest
    plus each set of crossing edges, one fewer than the components, that
    joins the components into one tree.

    The forest is kept as tree degrees and `comp`, each vertex's
    component as bits, rolled back in step: an include merges the two
    components in a new `comp` list and saves the old one for its undo.
    So the cycle test compares two labels, and the bridge test of an
    undo grows whole components over the undecided edges. The yielded
    edge, degree and component lists are shared: a consumer may change
    them, and restores them before the next cut.
    Callers guard the size up front with `_guarded_tree_count`.
    """
    n = g.n
    edges = g.edges()
    suffix = [[0] * n]  # suffix[i][v]: neighbours of v over edges[i:], as bits
    for u, v in reversed(edges):
        row = list(suffix[-1])
        row[u] |= 1 << v
        row[v] |= 1 << u
        suffix.append(row)
    suffix.reverse()
    comp = [1 << x for x in range(n)]  # comp[x]: x's forest component, as bits
    tree_degree = [0] * n
    included: list[tuple[int, int]] = []

    def joined(u: int, v: int, rest: list[int]) -> bool:
        """Whether the forest plus the edges in `rest` connects u to v."""
        target = comp[v]
        seen = frontier = comp[u]
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rest[low.bit_length() - 1]
                frontier ^= low
            if reach & target:
                return True
            reach &= ~seen
            while reach:  # take in the whole component of each vertex reached
                low = reach & -reach
                side = comp[low.bit_length() - 1]
                frontier |= side
                reach &= ~side
            seen |= frontier
        return False

    todo = [(0, n, None)]  # (next edge, components, comp to restore after an include)
    while todo:
        idx, components, saved = todo.pop()
        if saved is not None:  # back from including edges[idx]: undo; exclude it unless a bridge
            u, v = included.pop()
            tree_degree[u] -= 1
            tree_degree[v] -= 1
            comp = saved
            if joined(u, v, suffix[idx + 1]):
                todo.append((idx + 1, components, None))
            continue
        if components == stop or components == 1:  # a cut; one component only when n < stop
            crossing = [
                (u, v, comp[u] | comp[v]) for u, v in edges[idx:] if comp[u] != comp[v]
            ]
            yield included, tree_degree, comp, crossing
            continue
        u, v = edges[idx]
        while comp[u] == comp[v]:  # a cycle edge; a crossing edge remains, as the rest connects
            idx += 1
            u, v = edges[idx]
        todo.append((idx, components, comp))
        a, b = comp[u], comp[v]
        merged = a | b
        comp = [merged if c == a or c == b else c for c in comp]
        tree_degree[u] += 1
        tree_degree[v] += 1
        included.append((u, v))
        todo.append((idx + 1, components - 1, None))


def enumerate_spanning_trees(
    g: Graph, cap: int = params.DEFAULT_SPANNING_TREE_CAP
) -> Iterator[SpanningTree]:
    """Each spanning tree of connected g exactly once; host and cap checked on the call.

    The trees come from the cuts of `_spanning_cuts` at four components,
    in edge order: a spanning forest as it is (n <= 3), and otherwise the
    forest plus each triple e1 < e2 < e3 of crossing edges whose tags
    differ pairwise and together cover every vertex, the definition of a
    tree on them: an edge inside a component closes a cycle, three edges
    joining distinct pairs of four components form a tree unless they form
    a triangle, and a triangle leaves the fourth component apart. When e1
    is a bridge of the forest plus the undecided edges, no triple leaves
    it out, so the triples need no bridge test. The triples come in
    lexicographic order, the order an include-first walk down to the last
    edge would take.
    """
    _guarded_tree_count(g, cap)
    n = g.n
    everyone = (1 << n) - 1

    def trees() -> Iterator[SpanningTree]:
        for included, degree, _, crossing in _spanning_cuts(g, 4):
            if not crossing:  # the forest spans
                yield _tree(n, included, degree)
            for (a, b, r), (c, d, s), (e, f, t) in combinations(crossing, 3):
                if r != s != t != r and r | s | t == everyone:
                    tree_degree = list(degree)
                    for x in (a, b, c, d, e, f):
                        tree_degree[x] += 1
                    yield _tree(n, (*included, (a, b), (c, d), (e, f)), tree_degree)

    return trees()


def _cut_leaf_sum(
    degree: list[int], comp: list[int], crossing: list[tuple[int, int, int]], leaf_sum: list[int]
) -> int:
    """The number of trees below one cut of `_spanning_cuts`; adds to
    leaf_sum[v], for each vertex v, the number of them that have v as a leaf.

    The trees are the forest F plus a spanning tree of the quotient
    multigraph Q on F's components, whose edges are the crossing edges,
    so there are tau(Q) of them, the matrix-tree determinant of Q; a
    spanning forest is Q on one vertex, and its one tree. A vertex v of F
    with
    - degree 1 is a leaf of a tree exactly when the tree takes none of
      v's crossing edges, in as many trees as Q has without them: the
      determinant of Q's Laplacian without the row and column of v's
      component, less v's crossing edges to each component on the
      diagonal. Vertices of one component with the same crossing counts
      share it;
    - degree 0 is a component X alone, and a leaf exactly when X is a
      leaf of the quotient tree, in deg_Q(X) tau(Q - X) trees;
    - degree 2 or more is never a leaf.
    """
    index = {x: i for i, x in enumerate(dict.fromkeys(comp))}  # Q's vertices
    size = len(index)
    laplacian = [[0] * size for _ in range(size)]
    reach = {v: [0] * size for v, d in enumerate(degree) if d == 1}  # crossing edges per component
    for u, v, _ in crossing:
        i, j = index[comp[u]], index[comp[v]]
        laplacian[i][i] += 1
        laplacian[j][j] += 1
        laplacian[i][j] -= 1
        laplacian[j][i] -= 1
        if u in reach:
            reach[u][j] += 1
        if v in reach:
            reach[v][i] += 1
    trees = _bareiss_determinant([row[1:] for row in laplacian[1:]])

    def minor(x: int, cut: list[int]) -> list[list[int]]:
        """Q's Laplacian without row and column x, less cut[a] at each (a, a)."""
        rows = [row[:x] + row[x + 1 :] for row in laplacian[:x] + laplacian[x + 1 :]]
        for a, c in enumerate(cut[:x] + cut[x + 1 :]):
            rows[a][a] -= c
        return rows

    memo: dict[tuple[int, ...], int] = {}  # by component and crossing counts
    for v, d in enumerate(degree):
        if d == 1:
            x, cut = index[comp[v]], reach[v]
            key = (x, *cut)
            if key not in memo:
                memo[key] = _bareiss_determinant(minor(x, cut)) if any(cut) else trees
            leaf_sum[v] += memo[key]
        elif d == 0:  # X alone: tau(Q - X) on Q - X's Laplacian, 0 when n = 1
            x = index[comp[v]]
            rest = minor(x, [-e for e in laplacian[x]])
            leaf_sum[v] += laplacian[x][x] * _bareiss_determinant([row[1:] for row in rest[1:]])
    return trees


# verify's tree walk cuts at K_MAX components, or at n - 2 on smaller
# hosts, so that every cut fixes at least two forest edges. A deeper cut
# stands for more trees, on a larger quotient: dense hosts walk fastest
# uncapped, long sparse ones at a few components. Of 4 to 16, 8 took the
# least time over K_9, K_10 minus a perfect matching, cycle(80) and
# path(80): the least that caps neither dense host
K_MAX = 8


class WeightIdentityReport(NamedTuple):
    n: int
    tree_count: int
    weight_sum: Fraction  # sum of w(T) over all spanning trees
    s_n_minus_1: int  # independent matrix-tree route
    equal: bool  # each vertex is a leaf of d(v) tau(G - v) trees, not only the sums agree
    matrix_tree_count: int  # the cap guard's count, which tree_count must equal


def verify_weight_identity(
    g: Graph, cap: int = params.DEFAULT_SPANNING_TREE_CAP
) -> WeightIdentityReport:
    """Check sum_{T} w(T) = s_{n-1}(G) exactly, one vertex at a time.

    A vertex v is a leaf of exactly N_v = d(v) tau(G - v) spanning trees:
    such a tree is a spanning tree of G - v plus one of v's d(v) host
    edges. Summed with weight 1/d(v), that is the identity. `equal` holds
    only when N_v agrees for every vertex, so leaf credit given to the
    wrong vertex shows even where the sums, or the degrees, agree.

    The left side visits every spanning tree once, as a cut of
    `_spanning_cuts` at min(K_MAX, n - 2) components (at least one) and a
    spanning tree of the cut's quotient, and lists none: `_cut_leaf_sum`
    counts each cut's trees and, for each vertex, those that have it as a
    leaf, by matrix-tree determinants of the quotient. `weight_sum` is the
    sum of N_v/d(v). The right side takes each tau(G - v) as the
    matrix-tree count of the vertex-deleted subgraph, a fully independent
    route, and `s_n_minus_1` is their sum; a vertex whose deletion
    disconnects g leaves no spanning tree, so a bitmask search skips its
    determinant.
    """
    n = g.n
    matrix_tree_count = _guarded_tree_count(g, cap)
    leaf_sum, tree_count = [0] * n, 0  # leaf_sum[v]: N_v
    for _, degree, comp, crossing in _spanning_cuts(g, max(1, min(K_MAX, n - 2))):
        tree_count += _cut_leaf_sum(degree, comp, crossing, leaf_sum)
    everyone = (1 << n) - 1
    deleted = [  # tau(G - v): none where deleting v disconnects g; s_0 counts no subtree
        subset_spanning_tree_count(g, [u for u in range(n) if u != v])
        if n > 1 and is_connected(g, everyone ^ 1 << v) else 0
        for v in range(n)
    ]
    return WeightIdentityReport(
        n=n,
        tree_count=tree_count,
        weight_sum=sum((Fraction(k, d) for k, d in zip(leaf_sum, g.degrees) if d), Fraction(0)),
        s_n_minus_1=sum(deleted),
        equal=leaf_sum == [d * t for d, t in zip(g.degrees, deleted)],
        matrix_tree_count=matrix_tree_count,
    )
