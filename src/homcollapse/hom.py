"""Complexes of graph multihomomorphisms.

A cell assigns to each vertex of the domain graph a nonempty set of target
vertices, such that any choice across an edge lands on an edge.  Cells are
kept as tuples of bitmasks over the codomain's vertices; the face relation
is pointwise containment, and covers add exactly one vertex to one set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, GraphHom, bits, is_homomorphism, mask_of
from .posets import FacePoset, PosetMap

Cell = tuple[int, ...]


class ResourceLimitError(RuntimeError):
    """Enumeration exceeded the configured cell budget."""

    def __init__(self, limit: int):
        super().__init__(f"cell enumeration exceeded the budget of {limit}")
        self.limit = limit


def _common_neighbors(h: Graph, mask: int) -> int:
    cn = (1 << h.n) - 1
    for a in bits(mask):
        cn &= h.adj[a]
    return cn


def cell_dim(cell: Cell) -> int:
    return sum(m.bit_count() - 1 for m in cell)


def cell_vertex_sets(cell: Cell) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(bits(m)) for m in cell)


@dataclass(frozen=True)
class HomComplex:
    domain: Graph
    codomain: Graph
    cells: tuple[Cell, ...]
    poset: FacePoset
    cell_index: dict[Cell, int] = field(compare=False)

    def __len__(self):
        return len(self.cells)

    def zero_cells(self) -> list[GraphHom]:
        """The vertex-level homomorphisms, i.e. cells of dimension 0."""
        out = []
        for cell in self.cells:
            if cell_dim(cell) == 0:
                out.append(GraphHom(self.domain, self.codomain,
                                    tuple(m.bit_length() - 1 for m in cell)))
        return out

    def to_json(self) -> dict:
        return self.poset.to_json()


def enumerate_hom_cells(g: Graph, h: Graph, max_cells: int = 1_000_000) -> HomComplex:
    """Build the full cell poset of multihomomorphisms g -> h.

    Vertices of g are assigned in index order; at each step the candidate
    set is the common neighborhood of everything already chosen across
    earlier edges, so dead branches are cut before they fan out.  Raises
    ResourceLimitError once more than max_cells cells have been produced.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be positive")
    full = (1 << h.n) - 1
    looped = [bool(g.adj[x] >> x & 1) for x in range(g.n)]
    earlier = [[y for y in bits(g.adj[x]) if y < x] for x in range(g.n)]
    cells: list[Cell] = []
    assignment = [0] * g.n

    def choices(x: int):
        # sets for vertex x given assignment[:x]; past the last vertex, record the cell
        if x == g.n:
            cells.append(tuple(assignment))
            if len(cells) > max_cells:
                raise ResourceLimitError(max_cells)
            return
        allowed = full
        for y in earlier[x]:
            allowed &= _common_neighbors(h, assignment[y])
        s = allowed
        while s:
            if not looped[x] or s & ~_common_neighbors(h, s) == 0:
                yield s
            s = (s - 1) & allowed

    stack = [choices(0)]  # one generator per vertex, so deep domains miss the recursion limit
    while stack:
        s = next(stack[-1], 0)
        if s:
            assignment[len(stack) - 1] = s
            stack.append(choices(len(stack)))
        else:
            stack.pop()
    # the vertex set of each mask that occurs, built once and shared by every label
    vertex_set = {m: tuple(bits(m)) for m in {m for c in cells for m in c}}
    # labels are unique, so they alone order the cells; rebinding frees the pairs
    cells = sorted((tuple(map(vertex_set.__getitem__, c)), c) for c in cells)
    labels = dict(enumerate(sets for sets, _ in cells))
    cells = [c for _, c in cells]
    index = {c: k for k, c in enumerate(cells)}
    covers = []
    for cid, cell in enumerate(cells):
        for x, m in enumerate(cell):
            vs = vertex_set[m]
            if len(vs) > 1:
                for a in vs:
                    face = cell[:x] + (m ^ (1 << a),) + cell[x + 1 :]
                    covers.append((index[face], cid))
    poset = FacePoset(
        range(len(cells)),
        covers,
        {k: sum(map(len, sets)) - g.n for k, sets in labels.items()},
        labels,
    )
    return HomComplex(g, h, tuple(cells), poset, index)


def induced_covariant(f: GraphHom, source: HomComplex, target: HomComplex) -> PosetMap:
    """Push cells forward along f in the codomain slot:
    Hom(K, f.source) -> Hom(K, f.target), applying f to every vertex set."""
    if not is_homomorphism(f):
        raise ValueError("covariant induction needs a graph homomorphism")
    if source.codomain != f.source or target.codomain != f.target:
        raise ValueError("hom complexes do not match the map's endpoints")
    if source.domain != target.domain:
        raise ValueError("hom complexes must share their domain graph")
    mapping = {}
    for cid, cell in enumerate(source.cells):
        image = tuple(mask_of(f.map[a] for a in bits(m)) for m in cell)
        mapping[cid] = target.cell_index[image]
    return PosetMap(source.poset, target.poset, mapping)


def induced_contravariant(f: GraphHom, source: HomComplex, target: HomComplex) -> PosetMap:
    """Pull cells back along f in the domain slot:
    Hom(f.target, H) -> Hom(f.source, H), precomposing assignments with f."""
    if not is_homomorphism(f):
        raise ValueError("contravariant induction needs a graph homomorphism")
    if source.domain != f.target or target.domain != f.source:
        raise ValueError("hom complexes do not match the map's endpoints")
    if source.codomain != target.codomain:
        raise ValueError("hom complexes must share their codomain graph")
    mapping = {}
    for cid, cell in enumerate(source.cells):
        image = tuple(cell[f.map[x]] for x in range(f.source.n))
        mapping[cid] = target.cell_index[image]
    return PosetMap(source.poset, target.poset, mapping)
