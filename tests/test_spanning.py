"""Wilson sampling, leaf weights, identity verification, concentration."""

import concurrent.futures
import hashlib
import math
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtree_poly_lab import (
    CapacityError,
    Graph,
    SpanningTree,
    ValidationError,
    degree_profile,
    enumerate_spanning_trees,
    estimate_beta,
    exact_beta,
    generate,
    generate_connected,
    leaf_weight,
    spanning_tree_count,
    subtree_counts,
    verify_weight_identity,
    weight_experiment,
    wilson_sample,
)
from subtree_poly_lab import spanning
from subtree_poly_lab.graphs import is_connected
from subtree_poly_lab.rng import DOMAIN_SAMPLE, RandomStream, StreamFamily, stream
from subtree_poly_lab.spanning import (
    _cut_leaf_sum,
    _expected_draws,
    _leaf_form,
    _leaf_scales,
    _parent_degrees,
    _quotient_trees,
    _weight_chunk,
    _wilson_batch,
    _wilson_parents,
)


def chi2_sf(stat, df):
    """Upper tail of the chi-square distribution via the incomplete gamma."""
    return float(mp.gammainc(mp.mpf(df) / 2, a=mp.mpf(stat) / 2, b=mp.inf, regularized=True))


def star(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------- sampling


def test_wilson_on_tree_returns_it():
    host = generate("random_tree(9)", seed=4)
    tree = wilson_sample(host, stream(0, 0, DOMAIN_SAMPLE))
    assert tree.edges == frozenset(host.edges())


def test_wilson_tree_shape():
    g, _ = generate_connected("gnp(9,0.5)", seed=8)
    for i in range(50):
        tree = wilson_sample(g, stream(3, i, DOMAIN_SAMPLE))
        assert len(tree.edges) == g.n - 1
        assert all(g.has_edge(u, v) for u, v in tree.edges)
        assert 2 <= len(tree.leaf_set) <= g.n - 1


def test_wilson_rejects_disconnected():
    with pytest.raises(ValidationError):
        wilson_sample(Graph.from_edges(4, [(0, 1), (2, 3)]), stream(0, 0))


def test_wilson_uniform_k3():
    # all 3 spanning trees of K_3, chi-square at significance 1e-3
    k3 = generate("complete(3)")
    trees = {t.edges: 0 for t in enumerate_spanning_trees(k3)}
    assert len(trees) == 3
    draws = 100_000
    for i in range(draws):
        trees[wilson_sample(k3, stream(17, i, DOMAIN_SAMPLE)).edges] += 1
    expected = draws / 3
    stat = sum((c - expected) ** 2 / expected for c in trees.values())
    assert chi2_sf(stat, 2) >= 1e-3


def test_wilson_deterministic_per_stream():
    g = generate("complete(6)")
    a = wilson_sample(g, stream(9, 5, DOMAIN_SAMPLE))
    b = wilson_sample(g, stream(9, 5, DOMAIN_SAMPLE))
    assert a.edges == b.edges
    distinct = {wilson_sample(g, stream(9, i, DOMAIN_SAMPLE)).edges for i in range(10)}
    assert len(distinct) > 1  # distinct streams explore distinct trees


# ------------------------------------------------------------- leaf weight


def test_leaf_weight_path_host():
    for n in [2, 5, 9]:
        host = generate(f"path({n})")
        tree = wilson_sample(host, stream(0, 0, DOMAIN_SAMPLE))
        assert leaf_weight(tree, host).weight == Fraction(2)


def test_leaf_weight_k4_star_and_path():
    k4 = generate("complete(4)")
    star_tree = SpanningTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert leaf_weight(star_tree, k4).weight == Fraction(1)
    ham_path = SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sample = leaf_weight(ham_path, k4)
    assert sample.weight == Fraction(2, 3)
    assert sample.leaf_count == 2


def test_leaf_weight_rejects_non_subgraph():
    p4 = generate("path(4)")
    not_subtree = SpanningTree.from_edges(4, [(0, 2), (2, 1), (1, 3)])
    with pytest.raises(ValidationError):
        leaf_weight(not_subtree, p4)
    with pytest.raises(ValidationError, match="disagree on vertex count"):
        leaf_weight(SpanningTree.from_edges(4, [(0, 1), (1, 2), (2, 3)]), generate("path(5)"))


def test_spanning_tree_validation():
    with pytest.raises(ValidationError):
        SpanningTree.from_edges(4, [(0, 1), (1, 2)])  # too few edges
    with pytest.raises(ValidationError):
        SpanningTree.from_edges(4, [(0, 1), (0, 1), (2, 3)])  # duplicate collapses
    with pytest.raises(ValidationError, match="not connected"):
        SpanningTree.from_edges(4, [(0, 1), (0, 2), (1, 2)])  # a triangle and vertex 3


# ---------------------------------------------------------------- estimates


def test_exact_beta_examples():
    assert exact_beta(subtree_counts(generate("complete(4)"))) == Fraction(3, 4)
    assert exact_beta(subtree_counts(generate("path(3)"))) == Fraction(2)
    assert exact_beta(subtree_counts(generate("complete(3)"))) == Fraction(1)


def test_exact_beta_disconnected():
    counts = subtree_counts(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValidationError):
        exact_beta(counts)


def test_estimate_beta_k3_zero_variance():
    est = estimate_beta(generate("complete(3)"), samples=200, seed=0)
    assert est.mean == Fraction(1)
    assert est.standard_error == 0.0
    assert est.min_weight == est.max_weight == Fraction(1)


def test_estimate_beta_k4_within_4_se():
    est = estimate_beta(generate("complete(4)"), samples=20000, seed=2)
    assert est.bound_violations == 0
    assert abs(float(est.mean) - 0.75) <= 4 * est.standard_error


def test_estimate_beta_two_seeds_k12():
    g = generate("complete(12)")
    exact = exact_beta(__import__("subtree_poly_lab").complete_graph_counts(12))
    a = estimate_beta(g, samples=20000, seed=101)
    b = estimate_beta(g, samples=20000, seed=202)
    # both estimates near the exact value, and near each other
    combined = math.hypot(a.standard_error, b.standard_error)
    assert abs(float(a.mean) - float(exact)) <= 4 * a.standard_error
    assert abs(float(b.mean) - float(exact)) <= 4 * b.standard_error
    assert abs(float(a.mean) - float(b.mean)) <= 5 * combined


def test_estimate_beta_validation():
    with pytest.raises(ValidationError):
        estimate_beta(generate("complete(4)"), samples=0, seed=1)
    with pytest.raises(ValidationError, match="threads must be a positive integer"):
        estimate_beta(generate("complete(4)"), samples=10, seed=1, threads=0)
    with pytest.raises(ValidationError, match="seed must be an integer in"):
        estimate_beta(generate("complete(4)"), samples=10, seed=-1)
    with pytest.raises(ValidationError):
        estimate_beta(Graph.from_edges(1, []), samples=5, seed=1)


def test_estimate_thread_count_invariance():
    g = generate("complete(8)")
    serial = estimate_beta(g, samples=600, seed=7, threads=1)
    parallel = estimate_beta(g, samples=600, seed=7, threads=3)
    assert serial == parallel


def _recording_pool(seen):
    # a ProcessPoolExecutor that runs the chunks in this process and starts
    # none, recording its max_workers and the number of chunks in `seen`
    class RecordingPool:
        def __init__(self, max_workers):
            seen["max_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            seen["chunks"] = len(chunks)
            return map(fn, chunks)

    return RecordingPool


def test_worker_pool_is_bounded_by_usable_cpus(monkeypatch):
    # --threads far above the CPU count asks for no more processes than CPUs,
    # and the run takes one chunk per worker; the result follows neither
    seen = {}
    RecordingPool = _recording_pool(seen)

    def no_affinity(pid):  # os.sched_getaffinity exists only on Linux
        raise AssertionError("a one-thread run reads no CPU count")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", no_affinity)
    g = generate("complete(4)")
    for cpus, samples, workers in [(3, 10000, 3), (3, 5, 2), (1, 10000, 1)]:
        serial = estimate_beta(g, samples, seed=3, threads=1)
        assert seen == {}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        wide = estimate_beta(g, samples, seed=3, threads=5000)
        # min(threads, usable CPUs, samples // 2) workers, one chunk each; no pool for one
        assert seen == ({} if workers == 1 else {"max_workers": workers, "chunks": workers})
        assert wide == serial
        seen.clear()
        monkeypatch.setattr(os, "sched_getaffinity", no_affinity)


def test_worker_pool_without_sched_getaffinity_uses_the_cpu_count(monkeypatch):
    # off Linux os.sched_getaffinity does not exist: the CPU count bounds
    # the pool instead, and a host that reports none runs one worker
    seen = {}
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _recording_pool(seen))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    g = generate("complete(4)")
    serial = estimate_beta(g, 10000, seed=3, threads=1)
    for cpus, workers in [(3, 3), (1, 1), (None, 1)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        wide = estimate_beta(g, 10000, seed=3, threads=5000)
        assert seen == ({} if workers == 1 else {"max_workers": workers, "chunks": workers})
        assert wide == serial
        seen.clear()


def test_weight_experiment_matches_components():
    g = generate("complete(8)")
    beta_report, leaf_report, tails = weight_experiment(
        g, samples=500, seed=11, b_grid=[0.2, 0.4], epsilon=0.05
    )
    assert beta_report == estimate_beta(g, 500, 11)
    # the three reports read one sampling pass
    assert leaf_report.samples == tails.samples == 500
    assert leaf_report.seed == tails.seed == 11
    assert tails.mean == beta_report.mean
    assert leaf_report.bound_violations == tails.bound_violations == beta_report.bound_violations


# ------------------------------------------------------------ the identity


def test_weight_identity_examples():
    k3 = verify_weight_identity(generate("complete(3)"))
    assert k3.weight_sum == Fraction(3) and k3.s_n_minus_1 == 3 and k3.equal

    p4 = verify_weight_identity(generate("path(4)"))
    assert p4.weight_sum == Fraction(2) and p4.s_n_minus_1 == 2 and p4.equal

    k4 = verify_weight_identity(generate("complete(4)"))
    assert k4.weight_sum == Fraction(12) and k4.equal
    assert k4.tree_count == 16


def test_weight_identity_random_hosts():
    for seed in range(8):
        g, _ = generate_connected("gnp(7,0.5)", seed=300 + seed)
        report = verify_weight_identity(g)
        assert report.equal, f"identity failed on seed {seed}"
        assert report.s_n_minus_1 == subtree_counts(g).s(g.n - 1)


def test_weight_identity_single_vertex():
    report = verify_weight_identity(Graph.from_edges(1, []))
    assert report.equal and report.tree_count == 1


@pytest.mark.parametrize("spec", ["path(1)", "path(2)"])
def test_weight_identity_guards_the_tree_cap_on_every_host(spec):
    # a one-vertex host has one spanning tree, like a two-vertex one
    with pytest.raises(CapacityError):
        verify_weight_identity(generate(spec), cap=0)
    assert verify_weight_identity(generate(spec), cap=1).tree_count == 1


# -------------------------------------------------------------- enumeration


def test_enumeration_matches_matrix_tree():
    for family, seed in [("complete(5)", 0), ("cycle(7)", 0), ("gnp(7,0.6)", 12)]:
        g, _ = generate_connected(family, seed=seed)
        trees = list(enumerate_spanning_trees(g))
        assert len(trees) == spanning_tree_count(g)
        assert len({t.edges for t in trees}) == len(trees)


def test_enumeration_of_tree_host():
    host = generate("random_tree(8)", seed=2)
    trees = list(enumerate_spanning_trees(host))
    assert len(trees) == 1
    assert trees[0].edges == frozenset(host.edges())


def test_enumeration_guards():
    with pytest.raises(ValidationError):
        list(enumerate_spanning_trees(Graph.from_edges(4, [(0, 1), (2, 3)])))
    with pytest.raises(CapacityError):
        list(enumerate_spanning_trees(generate("complete(6)"), cap=100))


def test_enumeration_checks_on_call():
    # raised by the call itself, before any tree is asked for
    with pytest.raises(ValidationError):
        enumerate_spanning_trees(Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(CapacityError):
        enumerate_spanning_trees(generate("complete(6)"), cap=100)


def _brute_force_spanning_trees(g):
    """The connected (n-1)-edge subsets of the host's edges."""
    return {
        frozenset(subset)
        for subset in combinations(g.edges(), g.n - 1)
        if is_connected(Graph.from_edges(g.n, subset))
    }


def _check_walk(g):
    """The walk's trees are the brute-force trees sorted by their edge indices.

    That is the include-first order, stated without a digest. Each tree's
    leaves are the vertices of degree 1 among its own edges.
    """
    index = {e: i for i, e in enumerate(g.edges())}
    trees = list(enumerate_spanning_trees(g))
    for tree in trees:
        degrees = Graph.from_edges(g.n, tree.edges).degrees
        assert tree.leaf_set == {v for v, d in enumerate(degrees) if d == 1}
    seen = [tuple(sorted(index[e] for e in tree.edges)) for tree in trees]
    brute = [tuple(sorted(index[e] for e in tree)) for tree in _brute_force_spanning_trees(g)]
    assert len(seen) == spanning_tree_count(g)
    assert seen == sorted(brute)


@pytest.mark.parametrize(
    "host",
    [
        Graph.from_edges(1, []),
        Graph.from_edges(2, [(0, 1)]),
        generate("random_tree(7)", seed=5),
        generate("cycle(6)"),
        generate("complete(4)"),
        generate("cycle(4)"),
        generate("path(4)"),
    ],
    ids=["n1", "n2", "tree", "cycle6", "k4", "cycle4", "path4"],
)
def test_tree_walk_matches_brute_force_on_small_hosts(host):
    # on four vertices the first cut is the empty forest: every tree is a triple
    _check_walk(host)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(3, 7), p=st.sampled_from([0.3, 0.5, 0.6]), seed=st.integers(0, 10**6))
def test_tree_walk_matches_brute_force_on_gnp_hosts(n, p, seed):
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    assume(g.m <= 14)
    _check_walk(g)


# sha256 of the tree sequence, one line of sorted edges per tree, as the
# include-first walk yields it; a change here reorders every caller's trees
_TREE_ORDER = {
    "complete(5)": (125, "2a0dee867b66b1e90955030248b08281dae1e1875ab821cc9abb966c6a8c9b09"),
    "complete_minus_perfect_matching(6)": (
        384, "c8c3abda9138aebbac2f69d4bc75f1a7afa263e287e97fae9bfd505dafff79d7"
    ),
}


@pytest.mark.parametrize("spec", sorted(_TREE_ORDER))
def test_enumeration_order_pinned(spec):
    digest, count = hashlib.sha256(), 0
    for tree in enumerate_spanning_trees(generate(spec)):
        digest.update((repr(sorted(tree.edges)) + "\n").encode())
        count += 1
    assert (count, digest.hexdigest()) == _TREE_ORDER[spec]


def _check_identity_sum(g):
    """verify's tree count and scaled leaf sum against the enumerated trees and brute force.

    Each tree's W is recomputed with _leaf_form from that tree's own degrees.
    """
    lcm, scale = _leaf_scales(g)
    report = verify_weight_identity(g)
    enumerated = [
        _leaf_form(Graph.from_edges(g.n, tree.edges).degrees, scale)[0]
        for tree in enumerate_spanning_trees(g)
    ]
    brute = [
        _leaf_form(Graph.from_edges(g.n, tree).degrees, scale)[0]
        for tree in _brute_force_spanning_trees(g)
    ]
    assert report.tree_count == len(enumerated) == len(brute)
    assert report.weight_sum * lcm == sum(enumerated) == sum(brute)


@pytest.mark.parametrize(
    "host",
    [
        Graph.from_edges(1, []),
        Graph.from_edges(2, [(0, 1)]),
        generate("complete(3)"),
        generate("complete(4)"),
        generate("cycle(4)"),
        generate("random_tree(7)", seed=5),
        generate("cycle(6)"),
    ],
    ids=["n1", "n2", "n3", "k4", "cycle4", "tree", "cycle6"],
)
def test_identity_sum_matches_walk_and_brute_force_on_small_hosts(host):
    _check_identity_sum(host)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(1, 7), p=st.sampled_from([0.3, 0.5, 0.6]), seed=st.integers(0, 10**6))
def test_identity_sum_matches_walk_and_brute_force_on_gnp_hosts(n, p, seed):
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    assume(g.m <= 14)
    _check_identity_sum(g)


@pytest.mark.parametrize(
    "spec, cuts", [("complete_minus_perfect_matching(8)", 2169), ("complete(7)", 290)]
)
def test_tree_walk_branches_to_pinned_cuts(monkeypatch, spec, cuts):
    # the walk branches down to four components and expands each cut's
    # triples without branching; a walk that branched further would yield
    # more cuts, and both consumers read the same ones
    g = generate(spec)
    original, seen = spanning._spanning_cuts, []

    def counted(*args):
        for cut in original(*args):
            seen.append(len(cut[0]))
            yield cut

    monkeypatch.setattr(spanning, "_spanning_cuts", counted)
    assert verify_weight_identity(g).tree_count == spanning_tree_count(g)
    assert len(seen) == cuts and set(seen) == {g.n - 4}
    seen.clear()
    assert sum(1 for _ in enumerate_spanning_trees(g)) == spanning_tree_count(g)
    assert len(seen) == cuts


@settings(max_examples=100, derandomize=True, deadline=None)
@given(counts=st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_quotient_trees_counts_the_trees_of_the_four_vertex_multigraph(counts):
    # vertices X, A, B, C = 0, 1, 2, 3; each triple of the six pairs that
    # connects all four is a tree, taking one edge of each of its pairs
    pairs = [(0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2)]
    trees = 0
    for triple in combinations(range(6), 3):
        if is_connected(Graph.from_edges(4, [pairs[i] for i in triple])):
            trees += math.prod(counts[i] for i in triple)
    assert _quotient_trees(*counts) == trees


def _cut_sums_against_oracle(g):
    """Each cut's tree count and per-vertex leaf counts from `_cut_leaf_sum`,
    and from the `leaf_set`s of the trees that `enumerate_spanning_trees`
    lists on that cut; and the cases of `_cut_leaf_sum` the cuts reach."""
    formula, listed, cases = [], [], set()
    original = spanning._spanning_cuts

    def marked(*args):
        for cut in original(*args):
            _, degree, comp, crossing = cut
            leaf_sum = [0] * g.n
            formula.append([_cut_leaf_sum(degree, comp, crossing, leaf_sum), leaf_sum])
            listed.append([0, [0] * g.n])
            ends = {x for u, v, _ in crossing for x in (u, v)}
            if not crossing:
                cases.add("spans")
            for v, d in enumerate(degree):
                if d == 0:
                    cases.add("alone")
                elif d == 1:
                    cases.add("leaf crossed" if v in ends else "leaf kept")
            yield cut

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spanning, "_spanning_cuts", marked)
        for tree in enumerate_spanning_trees(g):
            listed[-1][0] += 1
            for v in tree.leaf_set:
                listed[-1][1][v] += 1
    assert formula == listed
    return cases


_CUT_HOSTS = {
    "n1": Graph.from_edges(1, []),
    "n2": Graph.from_edges(2, [(0, 1)]),
    "path3": generate("path(3)"),
    "k3": generate("complete(3)"),
    "k4": generate("complete(4)"),
    "star6": star(6),
    "tree": generate("random_tree(7)", seed=5),
    "cycle6": generate("cycle(6)"),
    "cmpm8": generate("complete_minus_perfect_matching(8)"),
    "gnp9": generate("gnp(9,0.6)", seed=2),
}


@pytest.mark.parametrize("spec", sorted(_CUT_HOSTS))
def test_cut_leaf_sum_matches_the_trees_listed_on_each_cut(spec):
    _cut_sums_against_oracle(_CUT_HOSTS[spec])


def test_cut_hosts_reach_every_case():
    # spanning forests (n <= 3), singleton components, and forest leaves
    # with and without crossing edges
    small = [g for g in _CUT_HOSTS.values() if g.n <= 7]
    cases = set().union(*map(_cut_sums_against_oracle, small))
    assert cases == {"spans", "alone", "leaf crossed", "leaf kept"}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(4, 7), p=st.sampled_from([0.3, 0.5, 0.7]), seed=st.integers(0, 10**6))
def test_cut_leaf_sum_matches_the_trees_listed_on_gnp_cuts(n, p, seed):
    # n <= 3 is a spanning forest, which the fixed hosts cover
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    _cut_sums_against_oracle(g)


def _check_leaf_sums(g):
    """Each vertex v is a leaf of d(v) tau(G - v) spanning trees: a spanning
    tree of G - v plus one of v's host edges. Summed over the cuts as
    `verify_weight_identity` sums them, against the matrix-tree count of
    each vertex-deleted graph, built as a graph of its own."""
    leaf_sum = [0] * g.n
    for _, degree, comp, crossing in spanning._spanning_cuts(g):
        _cut_leaf_sum(degree, comp, crossing, leaf_sum)
    expected = []
    for v, d in enumerate(g.degrees):
        label = {u: i for i, u in enumerate(u for u in range(g.n) if u != v)}
        rest = [(label[a], label[b]) for a, b in g.edges() if v not in (a, b)]
        expected.append(d and d * spanning_tree_count(Graph.from_edges(g.n - 1, rest)))
    assert leaf_sum == expected
    assert verify_weight_identity(g).equal


@pytest.mark.parametrize("spec", sorted(_CUT_HOSTS))
def test_each_vertex_is_a_leaf_of_its_degree_times_the_trees_without_it(spec):
    _check_leaf_sums(_CUT_HOSTS[spec])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(n=st.integers(4, 7), p=st.sampled_from([0.3, 0.5, 0.7]), seed=st.integers(0, 10**6))
def test_each_vertex_is_a_leaf_of_its_degree_times_the_trees_without_it_on_gnp_hosts(n, p, seed):
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    _check_leaf_sums(g)


@pytest.mark.parametrize(
    "spec, seed, calls", [("path(12)", 0, 2), ("path(80)", 0, 2), ("random_tree(40)", 3, None), ("cycle(9)", 0, 9)]
)
def test_identity_right_side_skips_cut_vertices(monkeypatch, spec, seed, calls):
    # deleting a cut vertex leaves no spanning tree, and no determinant is
    # taken for it: on a tree host only its leaves remain, each of which
    # leaves a subtree of n - 1 vertices, and on a cycle every vertex does
    g = generate(spec, seed=seed)
    original, seen = spanning.subset_spanning_tree_count, []

    def counted(host, vertices):
        seen.append(len(vertices))
        return original(host, vertices)

    monkeypatch.setattr(spanning, "subset_spanning_tree_count", counted)
    report = verify_weight_identity(g)
    if calls is None:
        calls = sum(1 for d in g.degrees if d == 1)
    assert len(seen) == calls and set(seen) == {g.n - 1}
    assert report.equal and report.s_n_minus_1 == calls


# ------------------------------------------------------------- leaf counts


def _leaf_probability_oracle(n):
    """Exact P(vertex 0 is a leaf) by enumerating all Prufer sequences."""
    total = 0
    leaf_hits = 0
    for seq in product(range(n), repeat=n - 2):
        total += 1
        if 0 not in seq:  # a vertex is a leaf iff absent from the sequence
            leaf_hits += 1
    return Fraction(leaf_hits, total)


def test_leaf_probability_closed_form():
    # validates P(leaf) = (1 - 1/n)^(n-2) before it is used at n = 15
    for n in [3, 4, 5, 6]:
        assert _leaf_probability_oracle(n) == Fraction(n - 1, n) ** (n - 2)


def test_leaf_count_stats_path_host():
    _, stats, _ = weight_experiment(generate("path(6)"), 50, 0, [1.0])
    assert stats.histogram == ((2, 50),)
    assert stats.mean == Fraction(2)


def test_leaf_count_stats_k3():
    _, stats, _ = weight_experiment(generate("complete(3)"), 100, 1, [1.0])
    assert stats.histogram == ((2, 100),)


def test_leaf_count_stats_k15_mean():
    n = 15
    g = generate("complete(15)")
    _, stats, _ = weight_experiment(g, 20000, 23, [1.0])
    exact_mean = n * (Fraction(n - 1, n) ** (n - 2))
    se = math.sqrt(stats.variance / stats.samples)
    assert abs(float(stats.mean) - float(exact_mean)) <= 4 * se
    assert stats.bound_violations == 0


def test_leaf_count_tail_probability_field():
    _, stats, _ = weight_experiment(generate("complete(6)"), 400, 5, [1.0], epsilon=0.2)
    assert stats.threshold == pytest.approx((math.exp(-1) - 0.2) * 6)
    assert 0.0 <= stats.below_threshold_probability <= 1.0


# ------------------------------------------------------------ concentration


def test_concentration_bound_values():
    # direct substitution: n=15, delta=14, b=0.5
    _, _, report = weight_experiment(generate("complete(15)"), 100, 3, [0.5])
    assert report.rows[0].bound_min_degree == pytest.approx(
        2 * math.exp(-(14**2) * 0.25 / (32 * 15))
    )
    assert report.rows[0].bound_min_degree == pytest.approx(1.8059, abs=1e-4)
    assert report.rows[0].bound_alpha_form >= report.rows[0].bound_min_degree


def test_concentration_path_host_zero_tail():
    _, _, report = weight_experiment(generate("path(7)"), 200, 0, [0.1, 0.5, 1.0])
    for row in report.rows:
        assert row.tail_count == 0
        assert row.status_min_degree == "pass"


def test_concentration_no_violations_k8():
    _, _, report = weight_experiment(generate("complete(8)"), 5000, 9, [0.2, 0.3, 0.5])
    assert not report.any_violation
    assert report.bound_violations == 0


@pytest.mark.parametrize(
    "tail, bound, status",
    [
        (0.25, 0.5, "pass"),
        (0.5, 0.5, "pass"),
        (0.625, 0.5, "inconclusive"),
        (0.875, 0.5, "inconclusive"),  # exactly bound + 3 se
        (math.nextafter(0.875, 1.0), 0.5, "violation"),
        (0.01, 0.0, "violation"),  # a zero bound has no noise band
    ],
)
def test_tail_status_verdicts(tail, bound, status):
    # 16 samples at bound 1/2: se = sqrt(1/4 / 16) = 1/8 exactly, so the
    # inconclusive band ends at 1/2 + 3/8
    assert spanning._tail_status(tail, bound, 16) == status


def test_concentration_validation():
    for b_grid in ([], [-0.5], [0.2, math.nan], [math.inf]):
        with pytest.raises(ValidationError):
            weight_experiment(generate("complete(4)"), 10, 0, b_grid)
    with pytest.raises(ValidationError):
        weight_experiment(generate("complete(4)"), 10, 0, [0.5], epsilon=math.nan)


# ------------------------------------------------------------ weight bounds


def test_weight_bounds_exact_on_samples():
    # |l(T)|/n <= w(T) <= 1/alpha, checked in exact rational arithmetic
    for family, seed in [("complete(9)", 0), ("gnp(8,0.6)", 21), ("complete_minus_perfect_matching(8)", 0)]:
        g, _ = generate_connected(family, seed=seed)
        profile = degree_profile(g)
        upper = 1 / profile.alpha
        for i in range(300):
            tree = wilson_sample(g, stream(seed, i, DOMAIN_SAMPLE))
            sample = leaf_weight(tree, g)
            assert Fraction(sample.leaf_count, g.n) <= sample.weight <= upper


# ---------------------------------------------------------------- rng pins


class _CountingStream(RandomStream):
    __slots__ = ("steps", "draws")

    def __init__(self, generator):
        super().__init__(generator)
        self.steps = 0
        self.draws = 0

    def next_u64(self):
        self.draws += 1
        return RandomStream.next_u64(self)

    def randint(self, n):
        self.steps += 1
        return RandomStream.randint(self, n)


def test_wilson_draw_counts_pinned():
    # one randint per walk step, each through next_u64; counts of the
    # Generator.integers fill, which random_raw must reproduce word for word
    g = generate("complete(15)")
    steps = draws = 0
    for i in range(200):
        rs = _CountingStream(stream(1, i, DOMAIN_SAMPLE)._gen)
        wilson_sample(g, rs)
        steps += rs.steps
        draws += rs.draws
    assert (steps, draws) == (4829, 5520)


@pytest.mark.parametrize("seed, index", [(1, 0), (2**64 - 1, 12345), (7, 2**56 - 1)])
def test_rekeyed_stream_matches_fresh_stream(seed, index):
    family = StreamFamily(seed, DOMAIN_SAMPLE)
    family.fill(np.empty((1, 5), dtype=np.uint64), [3])  # the state of an earlier key is dropped
    indices = range(max(0, index - 2), index + 1)
    block = family.fill(np.empty((len(indices), 300), dtype=np.uint64), indices)
    for row, i in enumerate(indices):
        fresh = stream(seed, i, DOMAIN_SAMPLE)
        assert block[row].tolist() == [fresh.next_u64() for _ in range(300)]
    # the same words as the Generator.integers fill streams used before random_raw
    key = seed | ((DOMAIN_SAMPLE << 56 | index) << 64)
    reference = np.random.Generator(np.random.Philox(key=key))
    assert block[-1].tolist() == reference.integers(0, 2**64, size=300, dtype=np.uint64).tolist()
    # a narrower block keeps the low bits of the same words, in any row order
    low = family.fill(np.empty((len(indices), 300), dtype=np.uint8), indices[::-1])
    assert (low[::-1] == block % 256).all()


def test_stream_index_range_checked():
    with pytest.raises(ValueError):
        stream(1, 2**56, DOMAIN_SAMPLE)
    family = StreamFamily(1, DOMAIN_SAMPLE)
    with pytest.raises(ValueError):
        family.fill(np.empty((1, 8), dtype=np.uint64), [-1])
    with pytest.raises(ValueError):
        family.fill(np.empty((2, 8), dtype=np.uint64), range(2**56 - 1, 2**56 + 1))
    with pytest.raises(ValueError, match="randint bound must be positive"):
        stream(0).randint(0)


# ------------------------------------------------- the batched Wilson kernel


def _single_stream_walks(g, seed, indices):
    """Parent arrays and words drawn of `_wilson_parents` on each stream."""
    parents, draws = [], []
    for i in indices:
        rs = _CountingStream(stream(seed, i, DOMAIN_SAMPLE)._gen)
        parents.append(_wilson_parents(g, rs))
        draws.append(rs.draws)
    return parents, draws


def _host(kind, n, seed):
    if kind == "complete":
        return generate(f"complete({n})")
    if kind == "gnp":
        return generate_connected(f"gnp({n},0.3)", seed=seed)[0]
    if kind == "random_tree":
        return generate(f"random_tree({n})", seed=seed)
    if kind == "path":
        return generate(f"path({n})")
    if kind == "star":
        return star(n)
    return generate(f"complete_minus_perfect_matching({2 * (n // 2) + 2})")


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["complete", "gnp", "random_tree", "path", "star", "cmpm"]),
    n=st.integers(2, 20),
    seed=st.integers(0, 10**6),
    width=st.sampled_from([1, 2, 5, 32, 400]),
    dtype=st.sampled_from([np.uint8, np.uint64]),
)
def test_wilson_batch_matches_single_stream_walks(kind, n, seed, width, dtype):
    g = _host(kind, n, seed)
    indices = range(seed, seed + 12)
    expected, draws = _single_stream_walks(g, seed, indices)
    words = StreamFamily(seed, DOMAIN_SAMPLE).fill(np.empty((12, width), dtype=dtype), indices)
    with mock.patch.object(spanning, "_COMPACT_FLOOR", 2):  # compact as samples finish
        parents, used = _wilson_batch(g, words)
    for row, (parent, drawn) in enumerate(zip(expected, draws)):
        if drawn <= width:  # the same tree from the same words
            assert (used[row], parents[row].tolist()) == (drawn, parent)
        else:  # out of words, and flagged so
            assert used[row] == width + 1


@pytest.mark.parametrize("factor, expected", [(1, 1), (2, 1), (2, None)])
@pytest.mark.parametrize("family", ["complete(9)", "gnp(16,0.3)", "path(6)", "random_tree(11)"])
def test_weight_chunk_matches_single_stream_walks(family, factor, expected):
    # widths 1 and 2 run nearly every sample again, most of them repeatedly;
    # blocks of a few dozen samples, compacted as their samples finish
    g, _ = generate_connected(family, seed=4)
    lcm, scale = _leaf_scales(g)
    parents, _ = _single_stream_walks(g, 2, range(5, 305))
    oracle = Counter(_leaf_form(_parent_degrees(p), scale) for p in parents)
    with mock.patch.object(spanning, "_WIDTH_FACTOR", factor), \
            mock.patch.object(spanning, "_BLOCK_ELEMENTS", 600), \
            mock.patch.object(spanning, "_MIN_ROWS", 7), \
            mock.patch.object(spanning, "_COMPACT_FLOOR", 5):
        args = (g, 2, 5, 305, expected or _expected_draws(g))
        assert _weight_chunk(args) == oracle


def test_wilson_batch_draw_counts_pinned():
    # the words test_wilson_draw_counts_pinned counts, drawn by the batch; on
    # K_15 (degree 14, mask 15) a word is rejected exactly when its low four
    # bits are 14 or 15, so the accepted steps are read off the words drawn
    g = generate("complete(15)")
    words = StreamFamily(1, DOMAIN_SAMPLE).fill(np.empty((200, 500), dtype=np.uint64), range(200))
    parents, used = _wilson_batch(g, words)
    assert (used <= 500).all()
    drawn = np.arange(500) < used[:, None]
    steps = int((drawn & (words % 16 < 14)).sum())
    assert (steps, int(used.sum())) == (4829, 5520)
    expected, _ = _single_stream_walks(g, 1, range(200))
    assert parents.tolist() == expected


def _havel_hakimi(degrees):
    """A graph with the given degree sequence (which must be graphical)."""
    left = list(enumerate(degrees))
    edges = []
    while left:
        left.sort(key=lambda vd: -vd[1])
        (u, d), rest = left[0], left[1:]
        assert d <= len(rest)
        for k in range(d):
            v, dv = rest[k]
            edges.append((u, v))
            rest[k] = (v, dv - 1)
        left = [vd for vd in rest if vd[1] > 0]
    return Graph.from_edges(len(degrees), edges)


def test_weight_chunk_exact_beyond_int64():
    # degrees 47, 43, 41, ..., 32, 27, 25 make L = lcm of the degrees about
    # 4.4e20, so L n and the W of a typical tree pass 2^63: the histogram
    # must take its pairs in Python integers, and equal the scalar oracle's
    degrees = [47, 43, 41, 37, 32, 31, 29, 27, 25, 23, 19, 17, 13, 11, 7] + [24] * 33
    g = _havel_hakimi(degrees)
    assert sorted(g.degrees) == sorted(degrees) and is_connected(g)
    lcm, scale = _leaf_scales(g)
    assert lcm * g.n >= 2**63
    parents, _ = _single_stream_walks(g, 3, range(60))
    oracle = Counter(_leaf_form(_parent_degrees(p), scale) for p in parents)
    assert max(w for w, _ in oracle) >= 2**63
    assert _weight_chunk((g, 3, 0, 60, _expected_draws(g))) == oracle


# ------------------------------------------------------ the Fraction oracle


def _fraction_oracle(g, samples, seed, b_grid):
    """Per-sample exact rationals, accumulated the direct way."""
    weights = [
        leaf_weight(wilson_sample(g, stream(seed, i, DOMAIN_SAMPLE)), g) for i in range(samples)
    ]
    total = sum((s.weight for s in weights), Fraction(0))
    total_sq = sum((s.weight * s.weight for s in weights), Fraction(0))
    mean = total / samples
    variance = (total_sq - total * total / samples) / (samples - 1)
    upper = Fraction(g.n, min(g.degrees))
    leaf_hist = {}
    for s in weights:
        leaf_hist[s.leaf_count] = leaf_hist.get(s.leaf_count, 0) + 1
    return {
        "mean": mean,
        "standard_error": math.sqrt(float(variance) / samples),
        "min": min(s.weight for s in weights),
        "max": max(s.weight for s in weights),
        "violations": sum(
            1 for s in weights if s.weight < Fraction(s.leaf_count, g.n) or s.weight > upper
        ),
        "leaf_hist": tuple(sorted(leaf_hist.items())),
        "tails": [sum(1 for s in weights if abs(s.weight - mean) >= b) for b in b_grid],
    }


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 7),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    seed=st.integers(0, 10**6),
)
def test_integer_kernel_matches_fraction_oracle(n, p, seed):
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    identity = verify_weight_identity(g)
    assert identity.weight_sum == sum(
        (leaf_weight(t, g).weight for t in enumerate_spanning_trees(g)), Fraction(0)
    )
    assert identity.equal
    b_grid = [0.05, 0.2, 0.5]
    beta, leaves, tails = weight_experiment(g, 60, seed, b_grid)
    oracle = _fraction_oracle(g, 60, seed, b_grid)
    assert beta.mean == oracle["mean"] == tails.mean
    assert beta.standard_error == oracle["standard_error"]
    assert (beta.min_weight, beta.max_weight) == (oracle["min"], oracle["max"])
    assert beta.bound_violations == oracle["violations"] == 0
    assert leaves.histogram == oracle["leaf_hist"]
    assert [row.tail_count for row in tails.rows] == oracle["tails"]


def test_tail_count_includes_deviation_equal_to_b():
    # on K_5 every w(T) = leaves/4 and the mean of 16 samples is dyadic, so
    # a grid of the deviations themselves has |w - mean| == b exactly
    g = generate("complete(5)")
    weights = [
        leaf_weight(wilson_sample(g, stream(3, i, DOMAIN_SAMPLE)), g).weight for i in range(16)
    ]
    mean = sum(weights, Fraction(0)) / 16
    deviations = {abs(w - mean) for w in weights} - {0}
    b_grid = sorted(float(d) for d in deviations)
    assert b_grid and all(Fraction(b) in deviations for b in b_grid)
    _, _, tails = weight_experiment(g, 16, 3, b_grid)
    assert [row.tail_count for row in tails.rows] == _fraction_oracle(g, 16, 3, b_grid)["tails"]


def test_expected_draws_closed_forms():
    # Wilson's mean walk length sum_v d(v) R(v, 0): 2 (n-1)^2 / n on K_n,
    # (n-1)^2 on a path rooted at an end; K_n draws 2^ceil(log2(n-1))/(n-1) words a step
    for n in (5, 15):
        words = 2 * (n - 1) ** 2 / n * (1 << (n - 2).bit_length()) / (n - 1)
        assert abs(_expected_draws(generate(f"complete({n})")) - words) <= 1
    assert abs(_expected_draws(generate("path(9)")) - 64) <= 1
    assert _expected_draws(Graph.from_edges(1, [])) == 1
    # pinned: half the first word width of a sampling run, so a change to the
    # grounded Laplacian or the resistance sum moves every run's draws
    for spec, words in (("complete(15)", 30), ("path(80)", 6241), ("cycle(40)", 533), ("gnp(30,0.3)", 90)):
        assert _expected_draws(generate(spec, seed=1)) == words, spec
