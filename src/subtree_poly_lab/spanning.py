"""Spanning-tree enumeration and the exact leaf-weight identity.

The weight of a spanning tree T of a host graph G is

    w(T) = sum over leaves v of T of 1/d(v),

with d(v) the degree of v in the HOST graph. Averaged over uniform
spanning trees this equals s_{n-1}/s_n exactly, by a double count: v is
a leaf of exactly d(v) tau(G - v) spanning trees, and s_{n-1} is the sum
of tau(G - v). The identity check below verifies that count for every
vertex, over all spanning trees.

Enumeration includes and excludes edges depth first with the tree
degrees and each vertex's component label kept in step, down to a cut:
a forest of a given number of components, below which the walk does
not branch. The trees below a cut are the forest plus a spanning tree of
the quotient multigraph Q on its components, whose edges are the
undecided edges that join two of them. ``enumerate_spanning_trees``
runs the walk to one component, where each cut is a spanning tree, in
lexicographic edge order. The identity check cuts at
min(K_MAX, n - 2) components and lists no tree: a cut has tau(Q) trees,
Q's matrix-tree determinant, and how many of them have a given vertex
as a leaf follows by three cases on its forest degree. Degree 1: a leaf
exactly when the tree takes none of its crossing edges, in as many
trees as Q has without them. Degree 0: a component X of its own, a leaf
exactly when X is a leaf of the quotient tree, in deg(X) tau(Q - X)
trees. Degree 2 or more: never a leaf. Each vertex's total over the
cuts must be d(v) tau(G - v).

Wilson sampling and the weight of one tree (``leaf_weight``) live in
`sampling`, which imports numpy and the random streams; this module runs
on Python integers, so enumeration and the identity check load neither.
"""

from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from . import params
from .counting import _bareiss_determinant, spanning_tree_count, subset_spanning_tree_count
from .errors import CapacityError, ValidationError
from .graphs import Graph, is_connected


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
) -> Iterator[tuple[list, list[int], list[int], list[tuple[int, int]]]]:
    """Yield (forest edges, tree degrees, comp, crossing) for each cut of connected g.

    Edge inclusion/exclusion in depth-first order. An edge is excluded
    when it closes a cycle in the forest built so far, or when it is not
    a bridge of that forest plus the edges not yet decided, so every
    branch holds a tree. The walk stops where the forest has `stop`
    components, 1 <= stop <= n, and yields that cut: the forest, its
    tree degrees, each vertex's component as bits, and the undecided
    edges with ends in two components, in edge order. The trees below a
    cut are the forest plus each set of crossing edges, one fewer than
    the components, that joins the components into one tree; at one
    component the forest is a spanning tree and no edge crosses.

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
        if components == stop:
            crossing = [(u, v) for u, v in edges[idx:] if comp[u] != comp[v]]
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

    The trees are the forests of the cuts of `_spanning_cuts` at one
    component, in the walk's include-first order, which is lexicographic
    in the edges' indices.
    """
    _guarded_tree_count(g, cap)
    return (_tree(g.n, included, degree) for included, degree, _, _ in _spanning_cuts(g, 1))


def _cut_leaf_sum(
    degree: list[int], comp: list[int], crossing: list[tuple[int, int]], leaf_sum: list[int]
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
    for u, v in crossing:
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
