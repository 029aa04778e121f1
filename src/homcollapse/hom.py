"""Complexes of graph multihomomorphisms.

A cell assigns to each vertex of the domain graph a nonempty set of target
vertices, such that any choice across an edge lands on an edge.  Cells are
kept as tuples of bitmasks over the codomain's vertices; the face relation
is pointwise containment, and covers add exactly one vertex to one set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .graphs import Graph, GraphHom, bits, is_homomorphism, mask_of
from .posets import FacePoset, PosetMap, ResourceLimitError

Cell = tuple[int, ...]


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
    cell_index: dict[Cell, int] = field(compare=False)

    def __len__(self):
        return len(self.cells)

    @cached_property
    def poset(self) -> FacePoset:
        """The face poset of the cells, built on first read.

        Id k is cells[k], labelled by its vertex sets, and each cover adds
        one vertex to one set.  Each cell's faces are looked up once, as its
        sorted lower covers; each upper cover list is filled in id order, so
        it comes out sorted and free of repeats.
        """
        cells, index = self.cells, self.cell_index
        ids = tuple(index.values())  # 0, 1, ...: the index's int objects, shared below
        # the vertex set of each mask that occurs, built once and shared by every label
        vertex_set = {m: tuple(bits(m)) for m in {m for c in cells for m in c}}
        n = self.domain.n
        upper: dict = {cid: [] for cid in ids}
        lower, dims, labels = {}, {}, {}
        for cid, cell in zip(ids, cells):
            labels[cid] = sets = tuple(map(vertex_set.__getitem__, cell))
            dims[cid] = sum(map(len, sets)) - n
            faces = sorted(
                index[cell[:x] + (m ^ (1 << a),) + cell[x + 1 :]]
                for x, m in enumerate(cell)
                if m & (m - 1)  # a single vertex has no face
                for a in sets[x]
            )
            lower[cid] = tuple(faces)
            for f in faces:
                upper[f].append(cid)
        for f, ys in upper.items():  # in place, so no second copy of every list is held
            upper[f] = tuple(ys)
        return FacePoset._from_hasse(ids, upper, lower, dims, labels)

    def to_json(self) -> dict:
        return self.poset.to_json()


def enumerate_hom_cells(g: Graph, h: Graph, max_cells: int = 1_000_000) -> HomComplex:
    """Enumerate the cells of multihomomorphisms g -> h, in label order.

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
                raise ResourceLimitError(max_cells, "cell")
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
    # cells in the lexicographic order of their vertex-set labels: rank the
    # distinct masks by their vertex tuples, then read a cell's ranks as the
    # digits of one mixed-radix number
    masks = sorted({m for c in cells for m in c}, key=lambda m: tuple(bits(m)))
    rank = {m: r for r, m in enumerate(masks)}
    radix = len(masks)

    def key(cell: Cell) -> int:
        k = 0
        for m in cell:
            k = k * radix + rank[m]
        return k

    cells.sort(key=key)
    return HomComplex(g, h, tuple(cells), {c: k for k, c in enumerate(cells)})


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
