"""Graph construction, generators, and edge-list ingestion."""

import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtree_poly_lab import (
    EdgeListParseError,
    Graph,
    ValidationError,
    degree_profile,
    from_edge_list,
    generate,
    generate_connected,
    is_connected,
    parse_family,
)
from subtree_poly_lab.graphs import FAMILIES, FAMILY_NAMES, FamilySpec


def test_edge_list_path():
    g = from_edge_list("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_single_vertex():
    g = from_edge_list("1 0")
    assert g.n == 1 and g.m == 0


def test_edge_list_triangle_degree_sums():
    g = from_edge_list("3 3\n0 1\n1 2\n0 2")
    # recompute the degree sums as the independent check
    assert sum(g.degrees) == 2 * g.m
    assert g.degrees == (2, 2, 2)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("3\n0 1", "header"),
        ("3 1\n0 1 2", "edge line"),
        ("3 1\nx y", "two integers"),
        ("3 1\n1 1", "self-loop"),
        ("3 1\n2 1", "0 <= u < v"),
        ("3 1\n0 3", "out of range"),
        ("3 2\n0 1\n0 1", "duplicate"),
        ("0 0", "positive"),
        ("3 2\n0 1", "2 edges"),
    ],
)
def test_edge_list_rejects(text, fragment):
    with pytest.raises(EdgeListParseError) as err:
        from_edge_list(text)
    assert fragment in str(err.value)


def test_edge_list_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as err:
        from_edge_list("4 2\n0 1\n2 2")
    assert err.value.line_number == 3


def test_edge_list_round_trip():
    g = generate("gnp(9,0.4)", seed=11)
    assert from_edge_list(g.to_edge_list()).edges() == g.edges()


def test_complete_graph():
    g = generate("complete(4)")
    assert g.m == 6
    assert degree_profile(g) == degree_profile(g)
    assert degree_profile(g).min_degree == 3


def test_gnp_extremes():
    assert generate("gnp(10,0.0)", seed=3).m == 0
    full = generate("gnp(10,1.0)", seed=7)
    assert full.edges() == generate("complete(10)").edges()


def test_gnp_deterministic_per_seed():
    a = generate("gnp(12,0.5)", seed=42)
    b = generate("gnp(12,0.5)", seed=42)
    c = generate("gnp(12,0.5)", seed=43)
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()


def test_random_tree_is_tree():
    for seed in range(20):
        g = generate("random_tree(9)", seed=seed)
        assert g.m == g.n - 1
        assert is_connected(g)


def test_random_tree_small():
    g = generate("random_tree(5)", seed=1)
    assert g.m == 4 and is_connected(g)
    assert generate("random_tree(1)", seed=0).n == 1
    assert generate("random_tree(2)", seed=0).edges() == [(0, 1)]


def test_matching_removed():
    g = generate("complete_minus_perfect_matching(6)")
    assert g.m == 15 - 3
    assert degree_profile(g).min_degree == 4
    with pytest.raises(ValidationError):
        generate("complete_minus_perfect_matching(5)")


@pytest.mark.parametrize(
    "family",
    ["complete(0)", "path(0)", "gnp(0,0.5)", "cycle(0)", "random_tree(0)",
     "complete_minus_perfect_matching(0)", "gnp(-1,2.0)"],
)
def test_zero_vertices_rejected(family):
    # n >= 1 is checked once for every family, before the family's own refusals
    spec = parse_family(family)
    with pytest.raises(ValidationError, match=re.escape(f"family {spec.name} needs n >= 1, got {spec.args[0]}")):
        generate(spec)


# every row of the family table: edges at two sizes (two seeds where the
# family draws), recorded from the generators that preceded the table, and
# the row's own refusals with their messages
_FAMILY_EDGES = {
    "complete": [
        ("complete(3)", 0, [(0, 1), (0, 2), (1, 2)]),
        ("complete(4)", 0, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ],
    "cycle": [
        ("cycle(3)", 0, [(0, 1), (0, 2), (1, 2)]),
        ("cycle(5)", 0, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]),
    ],
    "path": [("path(1)", 0, []), ("path(4)", 0, [(0, 1), (1, 2), (2, 3)])],
    "gnp": [
        ("gnp(5,0.5)", 0, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 4), (3, 4)]),
        ("gnp(5,0.5)", 1, [(0, 1), (0, 3), (0, 4), (1, 3), (2, 3), (2, 4), (3, 4)]),
        ("gnp(6,0.3)", 0, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 5), (3, 5)]),
        ("gnp(6,0.3)", 1, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (4, 5)]),
    ],
    "random_tree": [
        ("random_tree(5)", 0, [(0, 3), (1, 2), (1, 4), (2, 3)]),
        ("random_tree(5)", 1, [(0, 2), (1, 2), (2, 4), (3, 4)]),
        ("random_tree(7)", 0, [(0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6)]),
        ("random_tree(7)", 1, [(0, 2), (1, 4), (1, 6), (2, 3), (2, 4), (5, 6)]),
    ],
    "complete_minus_perfect_matching": [
        ("complete_minus_perfect_matching(4)", 0, [(0, 2), (0, 3), (1, 2), (1, 3)]),
        ("complete_minus_perfect_matching(6)", 0, [
            (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
            (1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5),
        ]),
    ],
}
_FAMILY_REFUSALS = {
    "cycle": [("cycle(2)", "cycle needs n >= 3 to stay a simple graph")],
    "gnp": [
        ("gnp(5,1.5)", "p must be a finite number in [0, 1], got 1.5"),
        ("gnp(5,-0.1)", "p must be a finite number in [0, 1], got -0.1"),
    ],
    "complete_minus_perfect_matching": [
        ("complete_minus_perfect_matching(5)", "complete_minus_perfect_matching needs even n"),
    ],
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_table_row(name):
    for spec, seed, edges in _FAMILY_EDGES[name]:
        assert generate(spec, seed).edges() == edges, (spec, seed)
    count = len(FAMILIES[name].args)
    for args in [(), (4,) * (count + 1), (4.0,) + (1,) * (count - 1)]:
        with pytest.raises(ValidationError) as err:
            generate(FamilySpec(name, args))
        assert str(err.value) == f"family {name} expects {count} argument(s), got {args}"
    for spec, message in _FAMILY_REFUSALS.get(name, []):
        with pytest.raises(ValidationError) as err:
            generate(spec)
        assert str(err.value) == message, spec


def test_cycle_needs_three_vertices():
    with pytest.raises(ValidationError):
        generate("cycle(2)")


def test_family_parse_errors():
    with pytest.raises(ValidationError):
        parse_family("torus(4)")
    with pytest.raises(ValidationError):
        parse_family("complete[4]")
    with pytest.raises(ValidationError):
        parse_family("gnp(4,oops)")
    # an empty argument is refused, not dropped
    for spec in ("complete(,5)", "gnp(5,,0.5)", "complete(5,)"):
        with pytest.raises(ValidationError, match=re.escape(f"bad argument '' in family spec {spec!r}")):
            parse_family(spec)
    # parse_family refuses an unknown name first; a hand-built spec reaches generate
    with pytest.raises(ValidationError, match=re.escape("unknown family 'torus'")):
        generate(FamilySpec("torus", (3,)))


@pytest.mark.parametrize(
    "family, profile",
    [
        ("complete(4)", (3, 3, Fraction(3, 4))),
        ("path(3)", (1, 2, Fraction(1, 3))),
        ("cycle(5)", (2, 2, Fraction(2, 5))),
    ],
)
def test_degree_profiles(family, profile):
    p = degree_profile(generate(family))
    assert (p.min_degree, p.max_degree, p.alpha) == profile


def test_connectivity():
    assert is_connected(generate("complete(4)"))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_generate_connected_counts_rejections():
    g, rejections = generate_connected("gnp(8,0.3)", seed=5)
    assert is_connected(g)
    assert rejections >= 0


def test_graph_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 5)])


def test_neighbors_sorted_whatever_the_edge_order():
    g = Graph.from_edges(5, [(3, 4), (0, 4), (2, 4), (1, 4), (0, 1)])
    assert g.neighbors == ((1, 4), (0, 4), (4,), (4,), (0, 1, 2, 3))
    assert g.neighbors == from_edge_list(g.to_edge_list()).neighbors


def test_header_only_edge_list_loads_in_linear_time():
    # the neighbour tuples once came from scanning n bits per vertex, so
    # loading isolated vertices took time quadratic in n (about 55 s for this one)
    started = time.perf_counter()
    g = from_edge_list("30000 0\n")
    assert time.perf_counter() - started < 5.0
    assert g.m == 0 and g.neighbors[-1] == ()


@settings(max_examples=40)
@given(n=st.integers(2, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_handshake_identity(n, p, seed):
    g = generate(f"gnp({n},{p})", seed=seed)
    assert sum(g.degrees) == 2 * g.m
    for u in range(g.n):
        for v in g.neighbors[u]:
            assert g.has_edge(v, u)


@settings(max_examples=30)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32))
def test_prufer_trees_always_trees(n, seed):
    g = generate(f"random_tree({n})", seed=seed)
    assert g.m == n - 1 and is_connected(g)


def test_prufer_uniformity_n4():
    # all 16 labeled trees on 4 vertices should each appear; frequencies
    # within 5 sigma of 1/16 over 16000 draws
    freq = {}
    draws = 16000
    for seed in range(draws):
        g = generate("random_tree(4)", seed=seed)
        freq[tuple(g.edges())] = freq.get(tuple(g.edges()), 0) + 1
    assert len(freq) == 16
    expected = draws / 16
    sigma = (draws * (1 / 16) * (15 / 16)) ** 0.5
    for count in freq.values():
        assert abs(count - expected) < 5 * sigma


def test_fingerprint_distinguishes():
    a = generate("path(4)")
    b = generate("cycle(4)")
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == generate("path(4)").fingerprint()
