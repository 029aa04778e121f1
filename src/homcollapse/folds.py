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
from functools import cached_property

from .closure import CollapseSequence, collapse_sequence_from_closure
from .graphs import FoldWitness, Graph, check_fold
from .hom import HomComplex, enumerate_hom_cells
from .posets import PosetMap, order_complex


@dataclass(frozen=True)
class FoldCollapsePlan:
    """A fold-induced reduction of a hom complex, ready for replay.

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

    @cached_property
    def ambient(self):
        """The complex the sequence acts on: the order complex of the cell
        poset for side "first" (simplicial mode), the cell poset itself for
        side "second" (cw mode).  Built on first use, since emitting a plan
        never reads it."""
        if self.side == "second":
            return self.hom.poset
        return order_complex(self.hom.poset)

    def to_json(self) -> dict:
        if self.sequence.mode == "cw":
            retained = sorted(self.retained)
        else:
            retained = sorted(list(s) for s in self.retained)
        return {
            "side": self.side,
            "v": self.witness.v,
            "u": self.witness.u,
            "vertex_order": list(self.vertex_order) if self.vertex_order is not None else None,
            "sequence": self.sequence.to_json(),
            "retained": retained,
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
    grow = {}
    for cid, cell in enumerate(hom.cells):
        filled = cell[v] | cell[u]
        if filled == cell[v]:
            grow[cid] = cid
        else:
            image = cell[:v] + (filled,) + cell[v + 1 :]
            grow[cid] = hom.cell_index[image]
    alpha = PosetMap(hom.poset, hom.poset, grow)
    fixed_ids = sorted(cid for cid, cell in enumerate(hom.cells) if cell[u] & ~cell[v] == 0)
    fixed = hom.poset.restrict(fixed_ids)
    shrink = {}
    for cid in fixed_ids:
        cell = hom.cells[cid]
        image = cell[:v] + (cell[u],) + cell[v + 1 :]
        shrink[cid] = hom.cell_index[image]
    beta = PosetMap(fixed, fixed, shrink)
    return alpha, beta


def first_arg_collapse(g: Graph, h: Graph, w: FoldWitness, max_cells: int = 1_000_000) -> FoldCollapsePlan:
    """Collapse the order complex of Hom(g, h) onto that of the subposet
    where eta(w.v) == eta(w.u), for a fold w inside the domain g, by
    running the ascending closure and then the descending one on its fixed
    cells."""
    hom = enumerate_hom_cells(g, h, max_cells)
    alpha, beta = alpha_beta_maps(hom, w)
    seq = collapse_sequence_from_closure(hom.poset, alpha, "ascending")
    seq = seq + collapse_sequence_from_closure(beta.source, beta, "descending")
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
    hom = enumerate_hom_cells(k, g, max_cells)
    if vertex_order is None:
        order = tuple(range(k.n))
    else:
        order = tuple(vertex_order)
        if sorted(order) != list(range(k.n)):
            raise ValueError("vertex_order must be a permutation of the domain's vertices")
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
        pairs.append((pos, -hom.poset.dim_of[cid], cid, mate_id))
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
    v, u = w.v, w.u
    vbit, ubit = 1 << v, 1 << u
    insert = {}
    for cid, cell in enumerate(hom.cells):
        image = tuple(m | ubit if m & vbit else m for m in cell)
        insert[cid] = hom.cell_index[image]
    phi = PosetMap(hom.poset, hom.poset, insert)
    fixed_ids = sorted(
        cid
        for cid, cell in enumerate(hom.cells)
        if all(m & ubit for m in cell if m & vbit)
    )
    fixed = hom.poset.restrict(fixed_ids)
    delete = {}
    for cid in fixed_ids:
        cell = hom.cells[cid]
        image = tuple(m & ~vbit for m in cell)
        delete[cid] = hom.cell_index[image]
    psi = PosetMap(fixed, fixed, delete)
    return phi, psi
