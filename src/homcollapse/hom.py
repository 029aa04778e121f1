"""Complexes of graph multihomomorphisms.

A cell assigns to each vertex of the domain graph a nonempty set of target
vertices, such that any choice across an edge lands on an edge.  Cells are
kept as tuples of bitmasks over the codomain's vertices; the face relation
is pointwise containment, and covers add exactly one vertex to one set.
A cell (A_0, ..., A_{n-1}) is the product of the simplices on the A_x, so
Hom(G, H) is a regular CW complex, read as one by HomComplex.facets().
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, GraphHom, bits, is_homomorphism, mask_of
from .posets import FacePoset, ResourceLimitError

Cell = tuple[int, ...]


def _common_neighbors(h: Graph, mask: int) -> int:
    cn = (1 << h.n) - 1
    for a in bits(mask):
        cn &= h.adj[a]
    return cn


def cell_dim(cell: Cell) -> int:
    return sum(map(int.bit_count, cell)) - len(cell)


@dataclass(frozen=True)
class HomComplex:
    """Cells of Hom(domain, codomain), or a down-set of them, in id order;
    cell_index, the int keys, facets() and poset are derived from cells on
    first read."""

    domain: Graph
    codomain: Graph
    cells: tuple[Cell, ...]

    def __len__(self):
        return len(self.cells)

    def f_vector(self) -> tuple[int, ...]:
        """Cell counts by dimension."""
        counts = Counter(map(cell_dim, self.cells))
        return tuple(counts[k] for k in range(max(counts, default=-1) + 1))

    def upper_covers(self):
        """For each cell in id order, the sorted ids of its upper covers: the
        cells that add one vertex to one set.

        Adding vertex v to the set m at position x moves a cell's int key
        by (rank[m | v] - rank[m]) * weight[x]; each such key is looked up
        in the key index, so which tuples are cells is decided by
        enumerate_hom_cells alone.  An m | v that no cell has has no rank,
        and no cover.  When the cells are only a down-set of a Hom, a cover
        that is not among them is not found and left out.
        """
        rank, weight, ids = self._keys
        get = ids.get
        vertices = [1 << a for a in range(self.codomain.n)]
        # each mask's rank steps to its one-vertex extensions that some cell has
        steps = {m: [rank[m | v] - r for v in vertices if not m & v and m | v in rank] for m, r in rank.items()}
        for key, cell in zip(ids, self.cells):
            ups = []
            for x, m in enumerate(cell):
                w = weight[x]
                for d in steps[m]:
                    cid = get(key + d * w)
                    if cid is not None:
                        ups.append(cid)
            ups.sort()
            yield tuple(ups)

    def facets(self) -> list[list[tuple[int, int]]]:
        """For each cell in id order, its codimension-1 faces as (id, e) pairs.

        Dropping the j-th smallest vertex of a set A_x of two or more
        vertices is a face with incidence (-1)^e, e = sum over y < x of
        (|A_y| - 1) + j: the product rule for simplices.  The face's int
        key is the cell's moved by (rank[A_x - a] - rank[A_x]) * weight[x],
        looked up in the key index, so the cells must be a down-set; the
        cells of a Hom and those left by legal collapses are.  The lists
        are derived on the first call and shared by every later one, so
        callers must not modify them.
        """
        return self._facets

    @cached_property
    def cell_index(self) -> dict[Cell, int]:
        return {c: k for k, c in enumerate(self.cells)}

    @cached_property
    def _keys(self) -> tuple[dict[int, int], list[int], dict[int, int]]:
        """Each mask's rank, each position's digit weight, and {key: id},
        built in id order: a cell's int key is the sort key of
        enumerate_hom_cells, the sum of rank[A_x] * weight[x]."""
        rank, key = _cell_key(self.cells)
        n = self.domain.n
        weight = [len(rank) ** (n - 1 - x) for x in range(n)]
        return rank, weight, {key(c): k for k, c in enumerate(self.cells)}

    @cached_property
    def _facets(self) -> list[list[tuple[int, int]]]:
        rank, weight, ids = self._keys
        # each mask's rank steps to its faces, in the order of the dropped vertex
        drops = {m: [rank[m ^ (1 << a)] - r for a in bits(m)] for m, r in rank.items() if m & (m - 1)}
        out = []
        for key, cell in zip(ids, self.cells):
            faces = []
            e = 0  # sum over y < x of (|A_y| - 1)
            for x, m in enumerate(cell):
                if m & (m - 1):
                    w = weight[x]
                    for j, d in enumerate(drops[m], e):
                        faces.append((ids[key + d * w], j))
                    e = j  # e + |A_x| - 1
            out.append(faces)
        return out

    @cached_property
    def poset(self) -> FacePoset:
        """The face poset of the cells, built on first read: id k is
        cells[k].  Its upper covers are
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
        return FacePoset._from_hasse(ids, upper, lower)


def _cell_key(cells):
    """Each distinct mask of cells ranked by its vertex tuple, and the key
    that reads a cell's ranks as the digits of one mixed-radix number: keys
    order cells as their vertex-set labels are ordered."""
    masks = sorted({m for c in cells for m in c}, key=lambda m: tuple(bits(m)))
    rank = {m: r for r, m in enumerate(masks)}
    radix = len(masks)

    def key(cell: Cell) -> int:
        k = 0
        for m in cell:
            k = k * radix + rank[m]
        return k

    return rank, key


def enumerate_hom_cells(g: Graph, h: Graph, max_cells: int = 1_000_000) -> HomComplex:
    """Enumerate the cells of multihomomorphisms g -> h, in label order.

    Vertices of g are assigned in index order, one generator of candidate
    sets per vertex; at each step the candidates are the subsets of the
    common neighborhoods, computed once as each earlier neighbor was
    assigned, so dead branches are cut before they fan out.  Each set of
    the last vertex completes a cell, recorded at once.  Raises
    ResourceLimitError once more than max_cells cells have been produced.
    """
    if max_cells < 1:
        raise ValueError("max_cells must be positive")
    if not g.n:
        return HomComplex(g, h, ((),))  # the empty domain has one cell
    full = (1 << h.n) - 1
    looped = [bool(g.adj[x] >> x & 1) for x in range(g.n)]
    earlier = [[y for y in bits(g.adj[x]) if y < x] for x in range(g.n)]
    cells: list[Cell] = []
    assignment = [0] * g.n
    common = [full] * g.n  # common[y]: the common neighborhood of assignment[y]
    last = g.n - 1

    def choices(x: int):
        # sets for vertex x given assignment[:x]
        allowed = full
        for y in earlier[x]:
            allowed &= common[y]
        s = allowed
        while s:
            if not looped[x] or s & ~_common_neighbors(h, s) == 0:
                yield s
            s = (s - 1) & allowed

    stack = [choices(0)]  # one generator per vertex, so deep domains miss the recursion limit
    while stack:
        x = len(stack) - 1
        if x == last:  # each set of the last vertex completes a cell
            for s in stack.pop():
                assignment[x] = s
                cells.append(tuple(assignment))
                if len(cells) > max_cells:
                    raise ResourceLimitError(max_cells, "cell")
        elif s := next(stack[-1], 0):
            assignment[x] = s
            common[x] = _common_neighbors(h, s)
            stack.append(choices(x + 1))
        else:
            stack.pop()
    cells.sort(key=_cell_key(cells)[1])  # in the lexicographic order of their vertex-set labels
    return HomComplex(g, h, tuple(cells))


def induced_covariant(f: GraphHom, source: HomComplex, target: HomComplex) -> dict[int, int]:
    """Push cells forward along f in the codomain slot:
    Hom(K, f.source) -> Hom(K, f.target), applying f to every vertex set.
    Returns the map of cell ids."""
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
    return mapping


def induced_contravariant(f: GraphHom, source: HomComplex, target: HomComplex) -> dict[int, int]:
    """Pull cells back along f in the domain slot:
    Hom(f.target, H) -> Hom(f.source, H), precomposing assignments with f.
    Returns the map of cell ids."""
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
    return mapping
