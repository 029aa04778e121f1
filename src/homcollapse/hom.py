"""Complexes of graph multihomomorphisms.

A cell assigns to each vertex of the domain graph a nonempty set of target
vertices, such that any choice across an edge lands on an edge.  Cells are
kept as tuples of bitmasks over the codomain's vertices; the face relation
is pointwise containment, and covers add exactly one vertex to one set.
"""

from __future__ import annotations

from collections import Counter
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

    def f_vector(self) -> tuple[int, ...]:
        """Cell counts by dimension, as poset.f_vector() reads them, with no poset built."""
        counts = Counter(map(cell_dim, self.cells))
        return tuple(counts[k] for k in range(max(counts, default=-1) + 1))

    def _labels(self):
        """Each cell's vertex sets, in id order; labels share one tuple per distinct set."""
        vertex_set = {m: tuple(bits(m)) for m in {m for c in self.cells for m in c}}
        for cell in self.cells:
            yield tuple(map(vertex_set.__getitem__, cell))

    def upper_covers(self):
        """For each cell in id order, the sorted ids of its upper covers: the
        cells that add one vertex to one set.

        At position x the vertices that can be added are those adjacent to
        every vertex in the sets of x's other neighbours; at a looped x they
        must also be looped and adjacent to all of x's own set, as
        enumerate_hom_cells requires, so every cover is a cell.
        """
        g, h, index = self.domain, self.codomain, self.cell_index
        full = (1 << h.n) - 1
        looped = mask_of(a for a in range(h.n) if h.adj[a] >> a & 1)
        others = [[y for y in bits(g.adj[x]) if y != x] for x in range(g.n)]
        loops = [bool(g.adj[x] >> x & 1) for x in range(g.n)]
        common = {m: _common_neighbors(h, m) for m in {m for c in self.cells for m in c}}
        for cell in self.cells:
            cns = tuple(map(common.__getitem__, cell))
            ups = []
            for x, m in enumerate(cell):
                free = full & ~m
                for y in others[x]:
                    free &= cns[y]
                if loops[x]:
                    free &= cns[x] & looped
                if free:
                    head, tail = cell[:x], cell[x + 1 :]
                    while free:
                        low = free & -free
                        ups.append(index[head + (m | low,) + tail])
                        free ^= low
            ups.sort()
            yield tuple(ups)

    @cached_property
    def poset(self) -> FacePoset:
        """The face poset of the cells, built on first read.

        Id k is cells[k], labelled by its vertex sets.  Its upper covers are
        upper_covers() as yielded; each lower cover list is filled in id
        order, so it comes out sorted and free of repeats.
        """
        ids = tuple(self.cell_index.values())  # 0, 1, ...: the index's int objects, shared below
        upper = dict(zip(ids, self.upper_covers()))
        lower: dict = {cid: [] for cid in ids}
        for a, bs in upper.items():
            for b in bs:
                lower[b].append(a)
        for b, xs in lower.items():  # in place, so no second copy of every list is held
            lower[b] = tuple(xs)
        labels = dict(zip(ids, self._labels()))
        n = self.domain.n
        dims = {cid: sum(map(len, sets)) - n for cid, sets in labels.items()}
        return FacePoset._from_hasse(ids, upper, lower, dims, labels)

    def to_json(self) -> dict:
        """poset.to_json() with no poset built: its element records and its
        covers (a, b), a in id order, are generators, read once as written."""
        n = self.domain.n
        return {
            "elements": (
                {"id": cid, "dim": sum(map(len, sets)) - n, "label": sets}
                for cid, sets in enumerate(self._labels())
            ),
            "covers": ((a, b) for a, bs in enumerate(self.upper_covers()) for b in bs),
        }


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
