"""Finite graphs with loops, graph homomorphisms, and folds.

Vertices are 0..n-1.  Adjacency is stored as one bitmask per vertex, so
neighborhood containment (the whole content of fold detection) is a single
integer comparison.  Graphs are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Malformed graph file.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class FoldError(ValueError):
    """A claimed fold witness fails the neighborhood-domination check."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1; loops allowed, no multi-edges."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length must equal vertex count")
        full = (1 << self.n) - 1
        for v, m in enumerate(self.adj):
            if m & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {self.n}")
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (min, max) pairs, sorted; a loop appears as (v, v)."""
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v]):
                if u >= v:
                    out.append((v, u))
        return out

    def edge_count(self) -> int:
        return len(self.edges())


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format.

    Accepted lines: blank, ``# comment``, one ``n <count>`` header (which
    must precede every edge), and ``e <u> <v>`` with 0-based endpoints.
    Anything else is a GraphParseError naming the line.
    """
    n = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphParseError("duplicate 'n' header", line_no)
            if len(parts) != 2:
                raise GraphParseError("expected 'n <count>'", line_no)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"vertex count {parts[1]!r} is not an integer", line_no) from None
            if n < 0:
                raise GraphParseError("vertex count must be non-negative", line_no)
            n_line = line_no
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError("edge listed before the 'n' header", line_no)
            if len(parts) != 3:
                raise GraphParseError("expected 'e <u> <v>'", line_no)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphParseError("edge endpoints must be integers", line_no) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"edge ({u}, {v}) out of range [0, {n})", line_no)
            edges.append((u, v))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", line_no)
    if n is None:
        raise GraphParseError("missing 'n' header")
    try:
        return Graph.from_edges(n, edges)
    except OverflowError:  # the adjacency table cannot even be sized
        raise GraphParseError(f"vertex count {n} is too large", n_line) from None


def format_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphHom:
    """A vertex map between graphs; use is_homomorphism to check edges."""

    source: Graph
    target: Graph
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.source.n:
            raise ValueError("map must assign every source vertex")
        for y in self.map:
            if not 0 <= y < self.target.n:
                raise ValueError(f"map value {y} is not a target vertex")

    def __call__(self, v: int) -> int:
        return self.map[v]

    def then(self, other: "GraphHom") -> "GraphHom":
        """Composite source -> self.target -> other.target."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("composition targets do not match")
        return GraphHom(self.source, other.target, tuple(other.map[y] for y in self.map))


def identity_hom(g: Graph) -> GraphHom:
    return GraphHom(g, g, tuple(range(g.n)))


def is_homomorphism(h: GraphHom) -> bool:
    """True when h carries every edge (loops included) to an edge."""
    return all(h.target.has_edge(h.map[u], h.map[v]) for u, v in h.source.edges())


@dataclass(frozen=True, order=True)
class FoldWitness:
    """Vertex v may be folded onto u because every neighbor of v sees u."""

    v: int
    u: int


def find_folds(g: Graph) -> list[FoldWitness]:
    """All pairs (v, u), u != v, with N(v) a subset of N(u), sorted by (v, u).

    Neighborhoods here are the closed-under-loops masks: a loop at v puts v
    in its own neighborhood, so looped and loopless vertices only fold when
    the masks genuinely nest.
    """
    out = []
    for v in range(g.n):
        nv = g.adj[v]
        for u in range(g.n):
            if u != v and nv & ~g.adj[u] == 0:
                out.append(FoldWitness(v, u))
    return out


def check_fold(g: Graph, w: FoldWitness) -> None:
    if not (0 <= w.v < g.n and 0 <= w.u < g.n) or w.u == w.v:
        raise FoldError(f"({w.v}, {w.u}) is not a pair of distinct vertices of the graph")
    missing = g.adj[w.v] & ~g.adj[w.u]
    if missing:
        raise FoldError(
            f"vertex {w.u} does not dominate {w.v}: "
            f"neighbor(s) {sorted(bits(missing))} of {w.v} are not adjacent to {w.u}"
        )


def apply_fold(g: Graph, w: FoldWitness) -> tuple[Graph, GraphHom, GraphHom]:
    """Delete w.v, sending it to w.u.

    Returns (folded, f, i) where f: g -> folded is the retraction and
    i: folded -> g the inclusion, with f after i the identity.  Surviving
    vertices are relabeled downward to stay contiguous; f and i absorb the
    relabeling.
    """
    check_fold(g, w)
    keep = [x for x in range(g.n) if x != w.v]
    relabel = {x: k for k, x in enumerate(keep)}
    folded = Graph.from_edges(
        g.n - 1,
        [(relabel[a], relabel[b]) for a, b in g.edges() if a != w.v and b != w.v],
    )
    f = GraphHom(g, folded, tuple(relabel[x if x != w.v else w.u] for x in range(g.n)))
    i = GraphHom(folded, g, tuple(keep))
    return folded, f, i
