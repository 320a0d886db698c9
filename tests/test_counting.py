"""Exact counting: oracle equivalence, invariants, inequality checks."""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subtree_poly_lab import (
    CapacityError,
    Graph,
    SubtreeCountVector,
    ValidationError,
    brute_force_subtree_count,
    check_ratio_inequalities,
    complete_graph_counts,
    degree_profile,
    enumerate_connected_subsets,
    generate,
    generate_connected,
    parse_family,
    spanning_tree_count,
    subtree_counts,
)
from subtree_poly_lab import counting, subsets
from subtree_poly_lab.cli import _json
from subtree_poly_lab.counting import (
    MAX_BITMASK_VERTICES,
    SMALL_HOST_VERTICES,
    _bareiss_determinant,
    _laplacian_minor,
    closed_form_counts,
    counts_for,
    subset_spanning_tree_count,
)
from subtree_poly_lab.subsets import (
    _FLOAT_EXACT,
    _PRIMES,
    _chunk_matrices,
    _chunk_total,
    _chunked_levels,
    _connected_levels,
    _determinants_float,
    _determinants_mod,
    _grimmett_bound,
    _hadamard_bound,
    _laplacian_minors,
    _mask_vertices,
    _mixed_radix_digits,
    _primes_for,
)


def _connected_filter_oracle(g, k):
    """Independent route: filter all C(n, k) subsets by connectivity."""
    hits = []
    for subset in combinations(range(g.n), k):
        chosen = set(subset)
        stack = [subset[0]]
        seen = {subset[0]}
        while stack:
            u = stack.pop()
            for v in g.neighbors[u]:
                if v in chosen and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == k:
            hits.append(subset)
    return hits


def _python_route(g):
    return SubtreeCountVector(g.n, tuple(counting._small_host_counts(g)))


def _numpy_route(g):
    return SubtreeCountVector(g.n, tuple(subsets.level_counts(g)))


# subtree_counts takes the Python route up to SMALL_HOST_VERTICES and the
# numpy kernel above it; the tests on small hosts run both by name, in a
# loop so that each test keeps its id
ROUTES = (_python_route, _numpy_route)


def test_spanning_tree_count_trees_have_one():
    for family in ["path(5)", "path(8)", "random_tree(7)"]:
        assert spanning_tree_count(generate(family, seed=3)) == 1


def test_spanning_tree_count_k3():
    # oracle: of the 3 two-edge subsets of K_3, all 3 are trees
    k3 = generate("complete(3)")
    assert brute_force_subtree_count(k3, 3) == 3
    assert spanning_tree_count(k3) == 3


def test_spanning_tree_count_k5():
    k5 = generate("complete(5)")
    assert brute_force_subtree_count(k5, 5) == 125
    assert spanning_tree_count(k5) == 125


def test_spanning_tree_count_edge_cases():
    assert spanning_tree_count(Graph.from_edges(1, [])) == 1
    assert spanning_tree_count(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0


def test_connected_subsets_k4_pairs():
    k4 = generate("complete(4)")
    assert sorted(enumerate_connected_subsets(k4, 2)) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    ]


def test_connected_subsets_path():
    p3 = generate("path(3)")
    assert sorted(enumerate_connected_subsets(p3, 2)) == [(0, 1), (1, 2)]


def test_connected_subsets_cycle_arcs():
    c5 = generate("cycle(5)")
    got = sorted(tuple(sorted(s)) for s in enumerate_connected_subsets(c5, 3))
    oracle = sorted(_connected_filter_oracle(c5, 3))
    assert got == oracle
    assert len(got) == 5


def test_connected_subsets_range_check():
    with pytest.raises(ValidationError):
        list(enumerate_connected_subsets(generate("path(3)"), 0))
    with pytest.raises(ValidationError):
        list(enumerate_connected_subsets(generate("path(3)"), 4))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), p=st.floats(0.2, 0.9), k=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_connected_subsets_match_filter(n, p, k, seed):
    if k > n:
        k = n
    g = generate(f"gnp({n},{p})", seed=seed)
    got = sorted(tuple(sorted(s)) for s in enumerate_connected_subsets(g, k))
    assert got == sorted(_connected_filter_oracle(g, k))
    assert len(set(got)) == len(got)


def test_subtree_counts_examples():
    for count in ROUTES:
        assert count(generate("path(3)")).counts == (3, 2, 1)
        assert count(generate("complete(4)")).counts == (4, 6, 12, 16)
        assert count(generate("cycle(5)")).counts == (5, 5, 5, 5, 5)


def test_subtree_counts_match_brute_force_families():
    for family in ["complete(5)", "cycle(6)", "path(7)", "complete_minus_perfect_matching(6)"]:
        g = generate(family)
        for count in ROUTES:
            counts = count(g)
            for k in range(1, g.n + 1):
                assert counts.s(k) == brute_force_subtree_count(g, k), (family, count, k)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 10**6))
def test_subtree_counts_match_brute_force_random(n, seed):
    g = generate(f"gnp({n},0.6)", seed=seed)
    expected = tuple(brute_force_subtree_count(g, k) for k in range(1, n + 1))
    for count in ROUTES:
        assert count(g).counts == expected, count


def test_counts_basic_invariants():
    for family, seed in [("gnp(7,0.5)", 1), ("gnp(8,0.4)", 9), ("cycle(6)", 0)]:
        g = generate(family, seed=seed)
        for count in ROUTES:
            counts = count(g)
            assert counts.s(1) == g.n
            assert counts.s(2) == g.m
            assert counts.s(g.n) == spanning_tree_count(g)
            assert counts.s(g.n + 5) == 0  # out-of-range reads as zero


def test_counts_positive_when_connected():
    g, _ = generate_connected("gnp(7,0.5)", seed=4)
    counts = subtree_counts(g)
    assert all(c > 0 for c in counts.counts)


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        subtree_counts(generate("path(6)"), cap=5)
    with pytest.raises(ValidationError, match="cap must be a nonnegative integer"):
        subtree_counts(generate("path(6)"), cap=-1)


def test_bitmask_width_guard():
    wide = generate(f"cycle({MAX_BITMASK_VERTICES + 1})")
    with pytest.raises(CapacityError, match=f"{MAX_BITMASK_VERTICES}-vertex"):
        subtree_counts(wide, cap=100)
    with pytest.raises(CapacityError, match=f"{MAX_BITMASK_VERTICES}-vertex"):
        list(enumerate_connected_subsets(wide, 2))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 11), p=st.floats(0.1, 0.95), seed=st.integers(0, 10**6))
def test_subtree_counts_match_per_subset_oracle(n, p, seed):
    # per-subset Bareiss over the filter oracle's subsets, independent of the
    # bitmask levels and the modular elimination
    g = generate(f"gnp({n},{p})", seed=seed)
    expected = tuple(
        sum(subset_spanning_tree_count(g, list(w)) for w in _connected_filter_oracle(g, k))
        for k in range(1, n + 1)
    )
    assert subtree_counts(g).counts == expected
    for count in ROUTES:
        assert count(g).counts == expected, count


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, SMALL_HOST_VERTICES + 1), p=st.floats(0.1, 0.95), seed=st.integers(0, 10**6))
def test_both_counting_routes_agree_around_the_bound(n, p, seed):
    g = generate(f"gnp({n},{p})", seed=seed)
    counts = subtree_counts(g)
    assert counts == _python_route(g) == _numpy_route(g)


def _stacked_minors(g, subsets):
    """(m, m, B) int8 stack of the list-built oracle minors of `subsets`."""
    mats = [_laplacian_minor(g, list(w)) for w in subsets]
    return np.array(mats, dtype=np.int8).transpose(1, 2, 0).copy()


def _fraction_determinant(mat):
    """Determinant by Gaussian elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


@st.composite
def _integer_matrices(draw):
    """Small square integer matrices, zero entries common; some with a repeated row."""
    size = draw(st.integers(0, 5))
    mat = [draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)) for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        mat[-1] = list(mat[draw(st.integers(0, size - 2))])  # singular
    return mat


@pytest.mark.parametrize("mat, det", [([], 1), ([[0, 1], [1, 0]], -1), ([[0, 0], [0, 1]], 0)])
def test_bareiss_determinant_fixed_cases(mat, det):
    # the 0x0 matrix, a row swap, and a column with no pivot
    assert _bareiss_determinant(mat) == det


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mat=_integer_matrices())
def test_bareiss_determinant_matches_fraction_elimination(mat):
    # Laplacian minors never need a row swap; general matrices do
    assert _bareiss_determinant([row[:] for row in mat]) == _fraction_determinant(mat)


def test_modular_determinant_crt_matches_bareiss():
    k24 = _laplacian_minor(generate("complete(24)"), list(range(24)))
    exact = _bareiss_determinant([row[:] for row in k24])
    assert exact == 24**22
    primes = _primes_for(24**22)
    assert len(primes) == 4
    residues = []
    for p in primes:
        det, ok = _determinants_mod(np.array(k24, dtype=np.int8)[:, :, None], p)
        assert ok.tolist() == [True]
        residues.append(det)
    digits = [int(d[0]) for d in _mixed_radix_digits(residues, primes)]
    assert all(0 <= d < p for d, p in zip(digits, primes))
    assert sum(d * math.prod(primes[:i]) for i, d in enumerate(digits)) == exact


def test_modular_determinant_flags_zero_pivot():
    # 125 = 0 mod 5: the K_5 minor is all 4s mod 5, so its second pivot
    # vanishes and the matrix is flagged; mod 7 no pivot vanishes
    k5 = _stacked_minors(generate("complete(5)"), [range(5)])
    _, ok = _determinants_mod(k5, 5)
    assert ok.tolist() == [False]
    det, ok = _determinants_mod(k5, 7)
    assert ok.tolist() == [True]
    assert det.tolist() == [125 % 7]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 9),
    edge_p=st.floats(0.2, 0.9),
    seed=st.integers(0, 10**6),
    k=st.integers(2, 9),
    p=st.sampled_from([2, 5, 7, 97]),
)
def test_modular_determinant_matches_bareiss_or_flags(n, edge_p, seed, k, p):
    g = generate(f"gnp({n},{edge_p})", seed=seed)
    subsets = list(enumerate_connected_subsets(g, min(k, n)))
    assume(subsets)
    minors = _stacked_minors(g, subsets)
    adj = np.array([[(bits >> v) & 1 for v in range(n)] for bits in g.adjacency_bits], dtype=np.int8)
    vertices = np.array(subsets, dtype=np.int64).T.copy()
    assert np.array_equal(_laplacian_minors(adj, vertices), minors)
    det, ok = _determinants_mod(minors, p)
    m = minors.shape[0]
    for b, w in enumerate(subsets):
        mat = minors[:, :, b].tolist()
        if ok[b]:
            assert det[b] == subset_spanning_tree_count(g, list(w)) % p
        else:
            # a flag means p divides a leading principal minor the
            # elimination divides by
            leading = [_bareiss_determinant([row[:j] for row in mat[:j]]) for j in range(1, m)]
            assert any(d % p == 0 for d in leading)


def test_subtree_counts_small_primes_take_the_exact_route(monkeypatch):
    # primes below 100 make zero pivots common; every flagged subset must
    # take its exact Bareiss count and the totals stay exact. The kernel is
    # called directly: subtree_counts would count the two hosts at or below
    # SMALL_HOST_VERTICES without it. A float limit of 0 sends every chunk
    # to the modular route, which these small hosts would otherwise skip.
    hosts = [generate(f"gnp({n},{q})", seed=seed) for n, q, seed in ((9, 0.5, 1), (10, 0.6, 2), (11, 0.4, 3))]
    expected = [
        tuple(
            sum(subset_spanning_tree_count(g, list(w)) for w in _connected_filter_oracle(g, k))
            for k in range(1, g.n + 1)
        )
        for g in hosts
    ]
    calls = []

    def counted(mat):
        calls.append(len(mat))
        return _bareiss_determinant(mat)

    small = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))
    monkeypatch.setattr(subsets, "_PRIMES", small)
    monkeypatch.setattr(subsets, "_FLOAT_EXACT", 0)
    monkeypatch.setattr(counting, "_bareiss_determinant", counted)
    assert [tuple(subsets.level_counts(g)) for g in hosts] == expected
    assert calls


def test_prime_table_covers_every_bitmask_width():
    for p in _PRIMES:
        assert p < 2**31 and all(p % d for d in range(2, math.isqrt(p) + 1))
    # the chunk bound is largest on a complete subset of the widest host
    n = MAX_BITMASK_VERTICES
    minor = _laplacian_minors(_dense_adjacency(generate(f"complete({n})")), np.arange(n)[:, None])
    worst = _grimmett_bound(minor)
    assert worst == n ** (n - 2)
    assert math.prod(_primes_for(worst)) > worst


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.floats(0.2, 1.0),
    seed=st.integers(0, 10**6),
    chunk=st.integers(1, 64),
)
def test_chunk_tree_bound_covers_every_subset(n, p, seed, chunk):
    # Grimmett's bound at the chunk's largest edge count, read from the
    # minors, is the bound at the largest 2m_W counted from the adjacency
    # bitmasks (so a chunk takes the same primes), at least each member's
    # tree count, and exactly k^(k-2) on a complete k-subset
    g = generate(f"gnp({n},{p})", seed=seed)
    bits = np.array(g.adjacency_bits, dtype=np.int64)
    adj = _dense_adjacency(g)
    for k, masks in enumerate(_connected_levels(g), start=1):
        if k == 1:
            continue
        for lo in range(0, masks.size, chunk):
            part = masks[lo:lo + chunk]
            vertices = _mask_vertices(part, k)
            minors = _laplacian_minors(adj, vertices)
            bound = _grimmett_bound(minors)
            # the oracle: each member's degree inside W, by popcount, summed
            two_m = int(np.bitwise_count(bits[vertices] & part).sum(axis=0).max())
            assert bound == two_m ** (k - 1) // (k * (k - 1) ** (k - 1))
            for b, (mask, w) in enumerate(zip(part.tolist(), vertices.T.tolist())):
                count = subset_spanning_tree_count(g, w)
                assert bound >= count
                if all((g.adjacency_bits[v] | 1 << v) & mask == mask for v in w):
                    assert _grimmett_bound(minors[:, :, b:b + 1]) == k ** (k - 2) == count


@pytest.mark.parametrize(
    "spec, float_chunks, modular_calls",
    [("gnp(16,0.5)", 30, 10), ("complete_minus_perfect_matching(16)", 26, 16)],
)
def test_count_dense_hosts_take_pinned_eliminations(monkeypatch, spec, float_chunks, modular_calls):
    # one _determinants_float call per float chunk and one _determinants_mod
    # call per modular chunk and prime: a routing or chunking change, or a
    # prime choice that takes more primes than the chunk bound needs,
    # changes these integers
    floats, calls = [], []

    def counted_float(minors):
        floats.append(minors.shape[2])
        return _determinants_float(minors)

    def counted(minors, p):
        calls.append(p)
        return _determinants_mod(minors, p)

    g = generate(spec, seed=1)
    expected = subtree_counts(g).counts
    monkeypatch.setattr(subsets, "_determinants_float", counted_float)
    monkeypatch.setattr(subsets, "_determinants_mod", counted)
    assert tuple(subsets.level_counts(g)) == expected
    assert (len(floats), len(calls)) == (float_chunks, modular_calls)


def _dense_adjacency(g):
    bits = np.array(g.adjacency_bits, dtype=np.int64)
    return ((bits[:, None] >> np.arange(g.n)) & 1).astype(np.int8)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(4, 14),
    p=st.floats(0.6, 1.0),
    seed=st.integers(0, 10**6),
    chunk=st.integers(1, 300),
)
def test_float_route_matches_bareiss(n, p, seed, chunk):
    # every chunk whose Hadamard bound admits the float route gives each
    # subset's exact Bareiss determinant
    g = generate(f"gnp({n},{p})", seed=seed)
    adj = _dense_adjacency(g)
    checked = 0
    for k, masks in enumerate(_connected_levels(g), start=1):
        if k == 1:
            continue
        for lo in range(0, masks.size, chunk):
            minors = _laplacian_minors(adj, _mask_vertices(masks[lo:lo + chunk], k))
            if _hadamard_bound(minors) ** 2 >= _FLOAT_EXACT:
                continue
            det = _determinants_float(minors)
            for b in range(minors.shape[2]):
                assert det[b] == _bareiss_determinant(minors[:, :, b].tolist())
            checked += 1
    assume(checked)


@pytest.mark.parametrize("n, route", [(10, "float"), (11, "modular")])
def test_complete_level_switches_route_at_the_float_limit(monkeypatch, n, route):
    # the full K_n minor has degrees n-1, so H = (n-1)^(n-2): 9^8 squared
    # is about 1.85e15 < 2^53, 10^9 squared is 1e18 > 2^53
    g = generate(f"complete({n})")
    full = np.array([(1 << n) - 1], dtype=np.int64)
    minor = _laplacian_minors(_dense_adjacency(g), _mask_vertices(full, n))
    assert _hadamard_bound(minor) == (n - 1) ** (n - 2)
    sizes = {"float": [], "modular": []}

    def counted_float(minors):
        sizes["float"].append(minors.shape[0])
        return _determinants_float(minors)

    def counted(minors, p):
        sizes["modular"].append(minors.shape[0])
        return _determinants_mod(minors, p)

    monkeypatch.setattr(subsets, "_determinants_float", counted_float)
    monkeypatch.setattr(subsets, "_determinants_mod", counted)
    assert subsets.level_counts(g) == list(complete_graph_counts(n).counts)
    assert [route for route, ms in sizes.items() if n - 1 in ms] == [route]


def _diagonal_stack(diagonals):
    """(m, m, B) int8 stack whose column b has diagonal diagonals[b], zeros elsewhere."""
    m = len(diagonals[0])
    minors = np.zeros((m, m, len(diagonals)), dtype=np.int8)
    minors[np.arange(m), np.arange(m)] = np.array(diagonals, dtype=np.int8).T
    return minors


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), m=st.integers(1, 61), top=st.integers(1, 61), batch=st.integers(1, 8))
def test_hadamard_bound_matches_exact_product(data, m, top, batch):
    # diagonals of 1..61, the degrees inside a subset of at most 62 vertices;
    # the oracle is the Python-int product of each column's m-1 largest
    # entries, maxed over the batch: exact below 2^53, refused above it
    column = st.lists(st.integers(1, top), min_size=m, max_size=m)
    diagonals = data.draw(st.lists(column, min_size=batch, max_size=batch))
    oracle = max(math.prod(sorted(d)[1:]) for d in diagonals)
    bound = _hadamard_bound(_diagonal_stack(diagonals))
    if oracle < _FLOAT_EXACT:
        assert bound == oracle
    else:
        assert bound >= 2**47


@pytest.mark.parametrize(
    "diagonal, bound, route",
    [([1, 5, 8, 11, 13, 16, 17, 61], 94_906_240, "float"), ([1, 8, 9, 9, 49, 49, 61], 94_906_728, "modular")],
)
def test_hadamard_bound_at_the_float_limit(diagonal, bound, route):
    # the two 61-smooth integers closest to 2^26.5 = 94,906,265.6, one on each side
    got = _hadamard_bound(_diagonal_stack([diagonal, [1] * len(diagonal)]))
    assert got == bound
    assert ("float" if got**2 < _FLOAT_EXACT else "modular") == route


def test_float_chunk_sums_fit_in_int64():
    # a float chunk's counts are each below 2^53 and t(K_k) = k^(k-2), and
    # _chunk_total sums them in int64; the level walk cuts every level into
    # chunks of at most _chunk_matrices(k) subsets
    for k in range(2, MAX_BITMASK_VERTICES + 1):
        assert _chunk_matrices(k) * min(_FLOAT_EXACT, k ** (k - 2)) < 2**63, k
    for k, chunks in enumerate(_chunked_levels(generate("gnp(16,0.5)", seed=1)), start=1):
        sizes = [vertices.shape for vertices in chunks]
        assert all(size[0] == k and size[1] <= _chunk_matrices(k) for size in sizes), k
        assert len(sizes) == -(-sum(size[1] for size in sizes) // _chunk_matrices(k)), k


def test_chunk_total_on_complements_in_complete_graph():
    # the complement of the empty set and of each single vertex of K_30,
    # built as vertex arrays: s_30 = 30^28 and s_29 = 30 * 29^27
    n = 30
    adj = _dense_adjacency(generate(f"complete({n})"))
    everything = np.arange(n)[:, None]
    singles = np.array([[v for v in range(n) if v != r] for r in range(n)]).T
    assert _chunk_total(adj, everything) == n ** (n - 2)
    assert _chunk_total(adj, singles) == n * (n - 1) ** (n - 3)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 14),
    p=st.floats(0.3, 1.0),
    seed=st.integers(0, 10**6),
    chunk=st.integers(1, 200),
)
def test_chunk_total_on_vertex_arrays_matches_bareiss(n, p, seed, chunk):
    # ascending vertex arrays in lexicographic order, never bitmasks, cut
    # into chunks of any size: each chunk's total is its members' exact
    # tree counts summed, on either elimination route
    g, _ = generate_connected(f"gnp({n},{p})", seed=seed)
    adj = _dense_adjacency(g)
    for k in range(1, n + 1):
        subsets = _connected_filter_oracle(g, k)
        for lo in range(0, len(subsets), chunk):
            part = subsets[lo:lo + chunk]
            vertices = np.array(part, dtype=np.int64).T.copy()
            expected = sum(subset_spanning_tree_count(g, list(w)) for w in part)
            assert _chunk_total(adj, vertices) == expected, (k, lo)


@pytest.mark.parametrize(
    "spec, total, sizes",
    [
        (
            "gnp(16,0.5)",
            62_577,
            [16, 65, 312, 1245, 3592, 7349, 11041, 12692, 11384, 7997, 4367, 1820, 560, 120, 16, 1],
        ),
        (
            "complete_minus_perfect_matching(16)",
            65_527,
            [16, 112, 560, 1820, 4368, 8008, 11440, 12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1],
        ),
    ],
)
def test_count_dense_hosts_have_pinned_level_sizes(spec, total, sizes):
    # the connected subsets per k of the two count-dense hosts: a change to
    # level growth that drops, repeats or adds a subset moves these integers
    got = [masks.size for masks in _connected_levels(generate(spec, seed=1))]
    assert got == sizes
    assert sum(got) == total


def test_disconnected_and_single_vertex_vectors():
    assert subtree_counts(Graph.from_edges(1, [])).counts == (1,)
    assert subtree_counts(generate("gnp(6,0.0)")).counts == (6, 0, 0, 0, 0, 0)
    forest = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6), (4, 5)])
    assert subtree_counts(forest).counts == (7, 5, 3, 1, 0, 0, 0)


def test_complete_graph_counts_closed_form():
    assert complete_graph_counts(4).counts == (4, 6, 12, 16)
    assert complete_graph_counts(3).counts == (3, 3, 3)
    assert complete_graph_counts(1).counts == (1,)
    with pytest.raises(ValidationError, match="n >= 1"):
        complete_graph_counts(0)


def test_complete_graph_counts_build_no_graph(monkeypatch):
    # the closed form is a formula in n: K_200 is never materialized
    def refuse(*args, **kwargs):
        raise AssertionError("complete_graph_counts built a graph")

    monkeypatch.setattr(Graph, "from_edges", refuse)
    counts = complete_graph_counts(200)
    # vertices, edges, and Cayley's n^(n-2) spanning trees
    assert (counts.n, counts.s(1), counts.s(2)) == (200, 200, 19900)
    assert counts.s(200) == 200**198


def test_counts_for_takes_the_closed_form_only_for_complete():
    family = parse_family("complete(7)")
    g = generate(family)
    # a cap below n leaves only the closed form able to answer
    assert counts_for(g, family, cap=6) == complete_graph_counts(7)
    # a graph without a family, as from an edge list, is enumerated
    with pytest.raises(CapacityError):
        counts_for(g, None, cap=6)
    assert counts_for(g, None, cap=7) == complete_graph_counts(7)
    cycle = parse_family("cycle(7)")
    assert closed_form_counts(cycle) is None and closed_form_counts(None) is None
    assert counts_for(generate(cycle), cycle, cap=7) == subtree_counts(generate(cycle))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 14),
    data=st.data(),
)
def test_tree_route_matches_enumeration(n, data):
    # a random labelled tree, given without a family as from an edge list;
    # a cap of 1 leaves only the tree route able to answer
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
    label = data.draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(label[i], label[p]) for i, p in enumerate(parents, start=1)])
    assert counts_for(g, None, cap=1) == subtree_counts(g)


def test_disconnected_host_with_n_minus_one_edges_is_enumerated():
    # a triangle and an isolated vertex have m = n - 1 but are no tree
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert counts_for(g, None).counts == (4, 3, 3, 0)


def test_tree_route_matches_path_closed_form():
    # s_k = n - k + 1 for the path, past the enumeration cap and up to the
    # bitmask width
    for n in range(1, MAX_BITMASK_VERTICES + 1):
        family = parse_family(f"path({n})")
        counts = counts_for(generate(family), family)
        assert counts.counts == tuple(n - k + 1 for k in range(1, n + 1))


def test_complete_graph_counts_match_enumeration():
    # past SMALL_HOST_VERTICES the numpy kernel counts, on both routes
    for n in range(1, 19):
        assert complete_graph_counts(n).counts == subtree_counts(generate(f"complete({n})")).counts


def test_brute_force_guard():
    big = generate("complete(24)")
    with pytest.raises(CapacityError):
        brute_force_subtree_count(big, 12)
    g = generate("path(3)")
    for k in (0, g.n + 1):
        with pytest.raises(ValidationError, match="out of range"):
            brute_force_subtree_count(g, k)


def test_brute_force_k1_and_path():
    assert brute_force_subtree_count(generate("path(3)"), 1) == 3
    assert brute_force_subtree_count(generate("path(3)"), 3) == 1
    assert brute_force_subtree_count(generate("cycle(5)"), 4) == 5


def test_ratio_inequalities_k4():
    counts = subtree_counts(generate("complete(4)"))
    report = check_ratio_inequalities(counts, Fraction(3, 4), min_degree=3)
    assert report.precondition_ok and report.all_passed
    ratio_1 = next(c for c in report.checks if c.kind == "ratio" and c.index == 1)
    assert ratio_1.lhs == Fraction(3, 4)
    assert ratio_1.rhs == Fraction(2)
    partial_2 = next(c for c in report.checks if c.kind == "partial_sum" and c.index == 2)
    assert partial_2.lhs == Fraction(10)
    assert partial_2.rhs == Fraction(24)


def test_ratio_inequalities_single_vertex():
    counts = subtree_counts(Graph.from_edges(1, []))
    report = check_ratio_inequalities(counts, Fraction(0, 1), min_degree=0)
    assert report.all_passed
    r1 = report.checks[0]
    assert r1.kind == "partial_sum" and r1.lhs == 1 and r1.rhs == 2


def test_ratio_inequalities_precondition_violation():
    counts = subtree_counts(generate("path(4)"))
    report = check_ratio_inequalities(counts, Fraction(1, 2), min_degree=1)
    assert not report.precondition_ok
    assert report.checks == ()


def test_ratio_inequalities_disconnected_skipped():
    counts = subtree_counts(Graph.from_edges(4, [(0, 1), (2, 3)]))
    report = check_ratio_inequalities(counts, Fraction(1, 4))
    assert not report.precondition_ok


def test_ratio_inequalities_on_dense_families():
    for family in ["complete(8)", "complete_minus_perfect_matching(8)"]:
        g = generate(family)
        profile = degree_profile(g)
        report = check_ratio_inequalities(subtree_counts(g), profile.alpha, profile.min_degree)
        assert report.precondition_ok and report.all_passed


def test_count_vector_json_round_trip():
    counts = complete_graph_counts(12)
    doc = json.loads(json.dumps(_json(counts)))
    assert doc["n"] == 12
    # decimal strings, which a JSON reader keeps exact past 2^53
    assert doc["counts"] == [str(c) for c in counts.counts]
    assert SubtreeCountVector(doc["n"], tuple(map(int, doc["counts"]))) == counts


def test_count_vector_validation():
    with pytest.raises(ValidationError):
        SubtreeCountVector(n=2, counts=(1,))
    with pytest.raises(ValidationError):
        SubtreeCountVector(n=1, counts=(-1,))


def test_per_anchor_tree_sums_reduce_to_counts():
    # the numpy enumeration, grouped by each subset's smallest vertex and
    # weighted per subset, sums to the Python small-host route's s_k
    g = generate("gnp(9,0.5)", seed=7)
    assert g.n <= SMALL_HOST_VERTICES
    counts = subtree_counts(g)
    for k in range(1, g.n + 1):
        by_anchor = {}
        for subset in enumerate_connected_subsets(g, k):
            t = subset_spanning_tree_count(g, list(subset))
            by_anchor[subset[0]] = by_anchor.get(subset[0], 0) + t
        assert sum(by_anchor.values()) == counts.s(k), k
