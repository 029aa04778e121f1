"""Collapse plans induced by graph folds, in either hom argument.

Folding v onto u in G shrinks Hom(G, H) through two closure operators on
the cell poset: first enlarge eta(v) by eta(u) (ascending), then overwrite
eta(v) with eta(u) (descending on the fixed cells of the first).  The
composite forgets v, which is exactly restriction along the inclusion of
the folded graph.  Folding inside the second argument instead kills the
cells using v by a perfect matching that inserts u into the first set
(along a chosen vertex order) where v appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import CollapseSequence, collapse_sequence_from_closure
from .graphs import FoldWitness, Graph, check_fold
from .hom import HomComplex, cell_dim, enumerate_hom_cells
from .posets import PosetMap


@dataclass(frozen=True)
class FoldCollapsePlan:
    """A fold-induced reduction of a hom complex, as the builder made it;
    homology.verify_plan judges it.

    retained lists what must survive, in the same currency as the
    sequence; target_cells counts surviving poset cells either way.
    """

    side: str
    witness: FoldWitness
    vertex_order: tuple[int, ...] | None
    sequence: CollapseSequence
    retained: frozenset
    target_cells: tuple[int, ...]
    hom: HomComplex

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "v": self.witness.v,
            "u": self.witness.u,
            "vertex_order": self.vertex_order,
            "sequence": self.sequence.to_json(),
            "retained": sorted(self.retained),
        }


def alpha_beta_maps(hom: HomComplex, w: FoldWitness) -> tuple[PosetMap, PosetMap]:
    """The two closures on the cells of Hom(G, H) driven by folding w.v
    onto w.u in the domain G.

    The first sends eta(v) to eta(v) | eta(u) and is ascending; its fixed
    cells are those with eta(v) containing eta(u).  On that subposet the
    second sends eta(v) to eta(u) and is descending, landing on the cells
    with the two sets equal.
    """
    check_fold(hom.domain, w)
    v, u = w.v, w.u
    return _closure_pair(
        hom,
        lambda cell: cell[:v] + (cell[v] | cell[u],) + cell[v + 1 :],
        lambda cell: cell[:v] + (cell[u],) + cell[v + 1 :],
    )


def first_arg_collapse(g: Graph, h: Graph, w: FoldWitness, max_cells: int = 1_000_000) -> FoldCollapsePlan:
    """Collapse the order complex of Hom(g, h) onto that of the subposet
    where eta(w.v) == eta(w.u), for a fold w inside the domain g, by
    running the ascending closure and then the descending one on its fixed
    cells.

    max_cells bounds the cells of Hom(g, h) and then its chains, which are
    counted before any step is built: ResourceLimitError past either."""
    check_fold(g, w)
    hom = enumerate_hom_cells(g, h, max_cells)
    hom.poset.chain_counts(max_cells)  # ResourceLimitError past max_cells chains
    alpha, beta = alpha_beta_maps(hom, w)
    up = collapse_sequence_from_closure(alpha, "ascending")
    down = collapse_sequence_from_closure(beta, "descending")
    seq = CollapseSequence("simplicial", up.steps + down.steps)
    target = tuple(sorted(set(beta.map.values())))
    retained = frozenset(hom.poset.chains(within=target))
    return FoldCollapsePlan(
        side="first",
        witness=w,
        vertex_order=None,
        sequence=seq,
        retained=retained,
        target_cells=target,
        hom=hom,
    )


def second_arg_collapse(
    k: Graph,
    g: Graph,
    w: FoldWitness,
    vertex_order=None,
    max_cells: int = 1_000_000,
) -> FoldCollapsePlan:
    """Collapse the cell poset of Hom(k, g) onto the cells avoiding w.v,
    for a fold w inside the codomain g.

    Scanning k's vertices in vertex_order, each cell using v is classified
    at the first position whose set contains v: if u is missing there the
    cell is free, and its pairing coface adds u at that position.  Pairs
    fire ordered by (scan position, falling dimension, cell id), which
    makes every free face genuine at its turn.
    """
    check_fold(g, w)
    if vertex_order is None:
        order = tuple(range(k.n))
    else:
        order = tuple(vertex_order)
        if sorted(order) != list(range(k.n)):
            raise ValueError("vertex_order must be a permutation of the domain's vertices")
    hom = enumerate_hom_cells(k, g, max_cells)
    v, u = w.v, w.u
    vbit, ubit = 1 << v, 1 << u
    retained = []
    pairs = []
    for cid, cell in enumerate(hom.cells):
        pos = next((j for j, x in enumerate(order) if cell[x] & vbit), None)
        if pos is None:
            retained.append(cid)
            continue
        x = order[pos]
        if cell[x] & ubit:
            continue  # coface side of some pair
        mate = cell[:x] + (cell[x] | ubit,) + cell[x + 1 :]
        mate_id = hom.cell_index.get(mate)
        if mate_id is None:
            raise AssertionError("inserting the dominating vertex left the complex")
        pairs.append((pos, -cell_dim(cell), cid, mate_id))
    if len(retained) + 2 * len(pairs) != len(hom.cells):
        raise AssertionError("fold pairing failed to partition the cells")
    pairs.sort()
    steps = tuple((cid, mate_id) for _, _, cid, mate_id in pairs)
    return FoldCollapsePlan(
        side="second",
        witness=w,
        vertex_order=order,
        sequence=CollapseSequence("cw", steps),
        retained=frozenset(retained),
        target_cells=tuple(retained),
        hom=hom,
    )


def phi_psi_maps(hom: HomComplex, w: FoldWitness) -> tuple[PosetMap, PosetMap]:
    """The two closures on the cells of Hom(H, G) driven by folding w.v
    onto w.u in the codomain G.

    The first inserts u into every set containing v (ascending); its fixed
    cells are those where v never appears without u.  On that subposet the
    second deletes v everywhere (descending), landing on the cells that
    avoid v."""
    check_fold(hom.codomain, w)
    vbit, ubit = 1 << w.v, 1 << w.u
    return _closure_pair(
        hom,
        lambda cell: tuple(m | ubit if m & vbit else m for m in cell),
        lambda cell: tuple(m & ~vbit for m in cell),
    )


def _closure_pair(hom: HomComplex, grow, shrink) -> tuple[PosetMap, PosetMap]:
    """The ascending closure grow (cell -> cell) on all of hom's cells, and
    the descending closure shrink on the cells grow fixes, as maps of ids."""
    index = hom.cell_index
    up = {cid: index[grow(cell)] for cid, cell in enumerate(hom.cells)}
    fixed_ids = [cid for cid, image in up.items() if image == cid]
    fixed = hom.poset.restrict(fixed_ids)
    down = {cid: index[shrink(hom.cells[cid])] for cid in fixed_ids}
    return PosetMap(hom.poset, hom.poset, up), PosetMap(fixed, fixed, down)
