"""Collapse sequences and acyclic matchings driven by poset closure operators.

A descending closure (monotone, idempotent, pointwise below the identity)
lets the order complex collapse onto the order complex of its image, one
non-fixed element at a time.  The same data read on chains instead gives a
perfect acyclic matching whose critical cells are exactly the chains of the
image.  Ascending closures reduce to the descending case on the dual poset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .posets import (
    FacePoset,
    PosetMap,
    Simplex,
    face_poset,
    order_complex,
    verify_closure_operator,
)


class ClosureError(ValueError):
    """A map handed to a collapse builder is not a closure operator."""

    def __init__(self, report):
        super().__init__(report.describe())
        self.report = report


@dataclass(frozen=True)
class CollapseSequence:
    """Ordered elementary collapse steps.

    In "simplicial" mode each step names a free face and its unique coface
    as sorted vertex tuples; in "cw" mode the steps are cell ids in a face
    poset.
    """

    mode: str
    steps: tuple[tuple, ...]

    def __post_init__(self):
        if self.mode not in ("simplicial", "cw"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def __len__(self):
        return len(self.steps)

    def __add__(self, other: "CollapseSequence") -> "CollapseSequence":
        if self.mode != other.mode:
            raise ValueError("cannot concatenate sequences of different modes")
        return CollapseSequence(self.mode, self.steps + other.steps)

    def to_json(self) -> dict:
        if self.mode == "cw":
            steps = [{"free": a, "coface": b} for a, b in self.steps]
        else:
            steps = [{"free": list(a), "coface": list(b)} for a, b in self.steps]
        return {"mode": self.mode, "steps": steps}

    @classmethod
    def from_json(cls, data: Mapping) -> "CollapseSequence":
        try:
            mode = data["mode"]
            if mode == "cw":
                steps = tuple((int(s["free"]), int(s["coface"])) for s in data["steps"])
            else:
                steps = tuple(
                    (tuple(int(v) for v in s["free"]), tuple(int(v) for v in s["coface"]))
                    for s in data["steps"]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed collapse sequence JSON: {exc}") from None
        return cls(mode, steps)


@dataclass(frozen=True)
class Matching:
    """An acyclic-matching candidate on a face poset, plus its critical cells."""

    poset: FacePoset
    pairs: frozenset[tuple[int, int]]
    critical: frozenset[int]

    def to_json(self) -> dict:
        return {
            "pairs": sorted([a, b] for a, b in self.pairs),
            "critical": sorted(self.critical),
        }


def collapse_sequence_from_closure(p: FacePoset, phi: PosetMap, direction: str) -> CollapseSequence:
    """Elementary collapses taking the order complex of p onto that of
    phi's image.

    Repeatedly pick the minimal (smallest id on ties) non-fixed element x
    still present.  Every remaining chain through x either contains phi(x)
    or not, and inserting/removing phi(x) matches the two kinds; emitting
    those pairs in weakly decreasing dimension makes each free face genuine
    at the moment it is used.  Removing x then repeats the argument one
    element further in.
    """
    report = verify_closure_operator(phi, direction)
    if not report.ok:
        raise ClosureError(report)
    work = p if direction == "descending" else p.dual()
    fmap = phi.map
    image = set(fmap.values())
    remaining = set(work.ids)
    steps: list[tuple[Simplex, Simplex]] = []
    moving = remaining - image
    while moving:
        x = work.minimal_in(moving)[0]
        fx = fmap[x]
        up = work.above(x) & remaining
        down = work.below(fx) & remaining
        joins = [()]
        joins += work.chains(within=up)
        low = [()] + work.chains(within=down)
        sims = [tuple(sorted(cu + cd)) for cu in joins for cd in low]
        sims.sort(key=lambda s: (-len(s), s))
        for sigma in sims:
            steps.append((tuple(sorted(sigma + (x,))), tuple(sorted(sigma + (x, fx)))))
        remaining.discard(x)
        moving.discard(x)
    return CollapseSequence("simplicial", tuple(steps))


def morse_matching_from_closure(p: FacePoset, phi: PosetMap, bd: FacePoset | None = None) -> Matching:
    """The chain-level matching of a descending closure, on the face poset
    of the order complex of p.

    A chain missing from the image locates its lowest non-fixed entry x_i
    and is paired across inserting phi(x_i), or across deleting x_{i-1}
    when that happens to equal phi(x_i).  Chains inside the image are the
    critical cells.
    """
    report = verify_closure_operator(phi, "descending")
    if not report.ok:
        raise ClosureError(report)
    if bd is None:
        bd = face_poset(order_complex(p))
    image = set(phi.map.values())
    rank = p.linear_extension_rank()
    chain_id = {bd.label_of[i]: i for i in bd.ids}
    pairs = set()
    paired = set()
    critical = set()
    for cid in bd.ids:
        chain = sorted(bd.label_of[cid], key=rank.__getitem__)
        idx = next((k for k, x in enumerate(chain) if x not in image), None)
        if idx is None:
            critical.add(cid)
            continue
        x = chain[idx]
        fx = phi.map[x]
        if idx > 0 and chain[idx - 1] == fx:
            partner = tuple(sorted(chain[: idx - 1] + chain[idx:]))
            pair = (chain_id[partner], cid)
        else:
            partner = tuple(sorted(chain + [fx]))
            pair = (cid, chain_id[partner])
        if pair not in pairs:
            if pair[0] in paired or pair[1] in paired:
                raise AssertionError(f"matching rule reused a cell in {pair}")
            pairs.add(pair)
            paired.update(pair)
    if paired | critical != set(bd.ids):
        raise AssertionError("matching rule left a chain unaccounted for")
    return Matching(bd, frozenset(pairs), frozenset(critical))


def verify_acyclic_matching(p: FacePoset, m: Matching) -> tuple[bool, list[int] | None]:
    """Check m.pairs are disjoint covers of p and that reversing matched
    covers leaves the Hasse digraph acyclic.  Returns (True, None) or
    (False, certificate cycle as a list of cell ids)."""
    coverset = set(p.covers)
    used: set[int] = set()
    for a, b in m.pairs:
        if (a, b) not in coverset:
            raise ValueError(f"matched pair ({a}, {b}) is not a cover of the poset")
        if a in used or b in used:
            raise ValueError(f"cell reused by pair ({a}, {b}): not a matching")
        used.update((a, b))
    succ: dict[int, list[int]] = {i: [] for i in p.ids}
    pairset = set(m.pairs)
    for a, b in p.covers:
        if (a, b) in pairset:
            succ[a].append(b)  # matched covers point up
        else:
            succ[b].append(a)  # unmatched covers point down
    color = {i: 0 for i in p.ids}  # 0 fresh, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for root in p.ids:
        if color[root]:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                continue
            if color[nxt] == 0:
                color[nxt] = 1
                parent[nxt] = node
                stack.append((nxt, iter(succ[nxt])))
            elif color[nxt] == 1:
                cycle = [node]
                while cycle[-1] != nxt:
                    cycle.append(parent[cycle[-1]])
                cycle.reverse()
                return False, cycle
        # color 2 neighbors are settled
    return True, None


def _connected_components(n: int, edges: Iterable[tuple[int, int]]) -> list[frozenset[int]]:
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def disconnected_graph_fixture(n: int) -> tuple[FacePoset, PosetMap]:
    """Inclusion poset of disconnected graphs with at least one edge on n
    labeled vertices, with the ascending closure completing each connected
    component to a clique.

    The closure lands on disjoint unions of at least two cliques, not all
    single vertices; those are the interior of the lattice of set
    partitions.  Elements are labeled by their sorted edge lists.
    """
    if not 3 <= n <= 6:
        raise ValueError("fixture size must be between 3 and 6")
    possible = list(itertools.combinations(range(n), 2))
    graphs: list[frozenset[tuple[int, int]]] = []
    for r in range(1, len(possible) + 1):
        for combo in itertools.combinations(possible, r):
            if len(_connected_components(n, combo)) >= 2:
                graphs.append(frozenset(combo))
    graphs.sort(key=lambda es: (len(es), sorted(es)))
    index = {es: k for k, es in enumerate(graphs)}
    covers = []
    for es, k in index.items():
        for e in possible:
            if e not in es:
                bigger = index.get(es | {e})
                if bigger is not None:
                    covers.append((k, bigger))
    mapping = {}
    for es, k in index.items():
        comps = _connected_components(n, es)
        hull = frozenset(
            pair for comp in comps for pair in itertools.combinations(sorted(comp), 2)
        )
        mapping[k] = index[hull]
    poset = FacePoset(
        range(len(graphs)),
        covers,
        {k: len(es) - 1 for es, k in index.items()},
        {k: tuple(sorted(es)) for es, k in index.items()},
    )
    return poset, PosetMap(poset, poset, mapping)


def random_poset(rng, max_elements: int = 10) -> FacePoset:
    """A random poset on 1..max_elements elements, for property sweeps."""
    n = rng.randint(1, max_elements)
    p = rng.uniform(0.15, 0.55)
    lt = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                lt[i][j] = True
    for k in range(n):  # transitive closure, tiny n
        for i in range(n):
            if lt[i][k]:
                for j in range(n):
                    if lt[k][j]:
                        lt[i][j] = True
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if lt[i][j] and not any(lt[i][k] and lt[k][j] for k in range(n))
    ]
    return FacePoset(range(n), covers)


def random_descending_closure(rng, p: FacePoset, max_tries: int = 60) -> PosetMap:
    """A random descending closure on p: pick a retract candidate set
    containing all minimal elements and send each x to a maximal chosen
    element below it, keeping the first attempt that satisfies the laws."""
    ids = list(p.ids)
    floor = set(p.minimal_in(ids))
    for _ in range(max_tries):
        chosen = {x for x in ids if rng.random() < 0.55} | floor
        mapping = {}
        for x in ids:
            downs = (p.below(x) | {x}) & chosen
            tops = p.maximal_in(downs)
            mapping[x] = rng.choice(tops)
        phi = PosetMap(p, p, mapping)
        if verify_closure_operator(phi, "descending").ok:
            return phi
    return PosetMap(p, p, {x: x for x in ids})
