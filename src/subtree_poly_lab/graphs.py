"""Simple undirected graphs: representation, generators, edge-list ingestion.

Vertices are 0-based contiguous integers. Adjacency is stored twice: as
bitset rows (fast subset intersection during enumeration) and as sorted
neighbor tuples (fast random walks). Graphs are immutable after
construction and safe to share across workers. Only the random
generators import `rng`, and numpy with it.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import params
from .errors import EdgeListParseError, ValidationError


class Graph(NamedTuple):
    n: int
    m: int
    neighbors: tuple[tuple[int, ...], ...]
    adjacency_bits: tuple[int, ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a simple graph; rejects self-loops, duplicates, bad ids."""
        if n < 1:
            raise ValidationError("graph must have at least one vertex")
        bits = [0] * n
        adjacent = [[] for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if (bits[u] >> v) & 1:
                raise ValidationError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            adjacent[u].append(v)
            adjacent[v].append(u)
            m += 1
        # from the edges, so loading costs O(n + m log m) and not O(n^2)
        neighbors = tuple(tuple(sorted(a)) for a in adjacent)
        return Graph(n=n, m=m, neighbors=neighbors, adjacency_bits=tuple(bits))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.neighbors)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency_bits[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [
            (u, v) for u in range(self.n) for v in self.neighbors[u] if u < v
        ]

    def fingerprint(self) -> str:
        """Stable hash of the labeled graph (vertex count + edge set)."""
        import hashlib  # loads OpenSSL, so only the `counts` command, which hashes, pays for it

        body = f"{self.n};" + ",".join(f"{u}-{v}" for u, v in self.edges())
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def to_edge_list(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"


class DegreeProfile(NamedTuple):
    min_degree: int
    alpha: Fraction  # min_degree / n, kept exact


def degree_profile(g: Graph) -> DegreeProfile:
    delta = min(g.degrees)
    return DegreeProfile(min_degree=delta, alpha=Fraction(delta, g.n))


def is_connected(g: Graph, keep: int | None = None) -> bool:
    """Single-component test of g, or of its subgraph on the vertex bitmask
    `keep`; one vertex counts as connected."""
    full = (1 << g.n) - 1 if keep is None else keep
    seen = frontier = full & -full  # bitset of visited vertices, from the lowest
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= g.adjacency_bits[low.bit_length() - 1]
            v ^= low
        frontier = nxt & full & ~seen
        seen |= frontier
    return seen == full


def from_edge_list(text: str) -> Graph:
    """Parse the edge-list document format: header "n m", then m lines "u v".

    Edge lines require 0 <= u < v < n; no duplicates, no comments. Blank
    lines are ignored. Errors carry the offending 1-based line number.
    """
    entries = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not entries:
        raise EdgeListParseError(1, "empty document, expected header 'n m'")
    header_no, header = entries[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListParseError(header_no, f"header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListParseError(header_no, f"header must be two integers, got {header!r}")
    if n < 1:
        raise EdgeListParseError(header_no, f"vertex count must be positive, got {n}")
    if m < 0:
        raise EdgeListParseError(header_no, f"edge count must be nonnegative, got {m}")
    if len(entries) - 1 != m:
        raise EdgeListParseError(
            header_no, f"header declares {m} edges but document has {len(entries) - 1} edge lines"
        )
    seen = set()
    edges = []
    for line_no, line in entries[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListParseError(line_no, f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"edge line must be two integers, got {line!r}")
        if u == v:
            raise EdgeListParseError(line_no, f"self-loop at vertex {u}")
        if not 0 <= u < v:
            raise EdgeListParseError(line_no, f"edge must satisfy 0 <= u < v, got ({u}, {v})")
        if v >= n:
            raise EdgeListParseError(line_no, f"vertex id {v} out of range [0, {n})")
        if (u, v) in seen:
            raise EdgeListParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    return Graph.from_edges(n, edges)


class FamilySpec(NamedTuple):
    name: str
    args: tuple

    def __str__(self) -> str:
        inner = ",".join(
            str(a) if not isinstance(a, float) else repr(a) for a in self.args
        )
        return f"{self.name}({inner})"


_FAMILY_RE = re.compile(r"^\s*([a-z_]+)\s*\(\s*([^)]*)\s*\)\s*$")


def parse_family(text: str) -> FamilySpec:
    """Parse specs like 'complete(4)' or 'gnp(10,0.5)'."""
    match = _FAMILY_RE.match(text)
    if not match:
        raise ValidationError(f"cannot parse family spec {text!r}, expected name(args)")
    name, raw_args = match.group(1), match.group(2)
    if name not in FAMILY_NAMES:
        raise ValidationError(
            f"unknown family {name!r}, expected one of {', '.join(FAMILY_NAMES)}"
        )
    # no argument reaches generate's arity check; an empty one is a bad argument
    pieces = raw_args.split(",") if raw_args.strip() else []
    args = []
    for piece in map(str.strip, pieces):
        try:
            args.append(int(piece))
        except ValueError:
            try:
                args.append(float(piece))
            except ValueError:
                raise ValidationError(f"bad argument {piece!r} in family spec {text!r}")
    return FamilySpec(name=name, args=tuple(args))


def _complete(n: int, seed: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _path(n: int, seed: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n: int, seed: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValidationError("cycle needs n >= 3 to stay a simple graph")
    return _path(n, seed) + [(0, n - 1)]


def _complete_minus_perfect_matching(n: int, seed: int) -> list[tuple[int, int]]:
    if n % 2 != 0:
        raise ValidationError("complete_minus_perfect_matching needs even n")
    return [(u, v) for u, v in _complete(n, seed) if not (u % 2 == 0 and v == u + 1)]


def _gnp(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Each pair independently with probability p, one draw per pair in order."""
    p = params.probability(p, "p")
    from .rng import stream

    rs = stream(seed)
    return [edge for edge in _complete(n, seed) if rs.uniform() < p]


def _random_tree(n: int, seed: int) -> list[tuple[int, int]]:
    """Uniform over labeled trees via Prufer decoding; n <= 2 draws nothing."""
    if n <= 2:
        return _path(n, seed)
    from .rng import stream

    rs = stream(seed)
    return _prufer_decode([rs.randint(n) for _ in range(n - 2)], n)


def _prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Bijective decode of a Prufer sequence into a labeled tree's edges."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


class Family(NamedTuple):
    args: tuple[str, ...]  # argument names, n first; sweep sets the rest from flags of the same name
    edges: Callable[..., list[tuple[int, int]]]  # (*args, seed) -> edges, refusing what the family cannot build


# one row per family; a new family is one row here plus its entry in the CLI's --help epilog
FAMILIES = {
    "complete": Family(("n",), _complete),
    "cycle": Family(("n",), _cycle),
    "path": Family(("n",), _path),
    "gnp": Family(("n", "p"), _gnp),
    "random_tree": Family(("n",), _random_tree),
    "complete_minus_perfect_matching": Family(("n",), _complete_minus_perfect_matching),
}
FAMILY_NAMES = tuple(FAMILIES)


def generate(spec: FamilySpec | str, seed: int = params.DEFAULT_SEED) -> Graph:
    """Deterministic graph from a family spec and a 64-bit seed, possibly disconnected."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    family = FAMILIES.get(spec.name)
    if family is None:
        raise ValidationError(f"unknown family {spec.name!r}")
    if len(spec.args) != len(family.args) or not isinstance(spec.args[0], int):
        raise ValidationError(f"family {spec.name} expects {len(family.args)} argument(s), got {spec.args}")
    n = spec.args[0]
    if n < 1:
        raise ValidationError(f"family {spec.name} needs n >= 1, got {n}")
    return Graph.from_edges(n, family.edges(*spec.args, seed))


def generate_connected(
    spec: FamilySpec | str, seed: int = params.DEFAULT_SEED, max_attempts: int = 10_000
) -> tuple[Graph, int]:
    """Resample with incremented seed until connected.

    Returns (graph, rejections). Keeps the generator itself a faithful
    product measure; only the experiment conditions on connectivity.
    """
    if isinstance(spec, str):
        spec = parse_family(spec)
    for attempt in range(max_attempts):
        g = generate(spec, seed + attempt)
        if is_connected(g):
            return g, attempt
    raise ValidationError(
        f"no connected instance of {spec} within {max_attempts} seeds from {seed}"
    )
