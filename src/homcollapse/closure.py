"""Collapse sequences and acyclic matchings driven by poset closure operators.

A descending closure (monotone, idempotent, pointwise below the identity)
lets the order complex collapse onto the order complex of its image, one
non-fixed element at a time.  The same data read on chains instead gives a
perfect acyclic matching whose critical cells are exactly the chains of the
image.  An ascending closure runs the same argument with above and below,
and minimal and maximal, swapped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .posets import (
    FacePoset,
    PosetCycleError,
    PosetMap,
    Simplex,
    face_poset,
    json_int,
    order_complex,
    verify_closure_operator,
)


class ClosureError(ValueError):
    """A map handed to a collapse builder is not a closure operator."""

    def __init__(self, report):
        super().__init__(f"{report.law} fails at {report.witness}")
        self.report = report


@dataclass(frozen=True)
class CollapseSequence:
    """Ordered elementary collapse steps.

    In "simplicial" mode each step names a free face and its unique coface
    as sorted vertex tuples; in "cw" mode they are HomComplex cell ids.
    """

    mode: str
    steps: tuple[tuple, ...]

    def __post_init__(self):
        if self.mode not in ("simplicial", "cw"):
            raise ValueError(f"unknown mode {self.mode!r}")

    def __len__(self):
        return len(self.steps)

    def to_json(self) -> dict:
        """The mode and a generator of step records, read once as written."""
        return {"mode": self.mode, "steps": ({"free": a, "coface": b} for a, b in self.steps)}

    @classmethod
    def from_json(cls, data: Mapping) -> "CollapseSequence":
        try:
            mode = data["mode"]
            if mode == "cw":
                steps = tuple((json_int(s["free"]), json_int(s["coface"])) for s in data["steps"])
            else:
                steps = tuple(
                    (tuple(json_int(v) for v in s["free"]), tuple(json_int(v) for v in s["coface"]))
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


def collapse_sequence_from_closure(phi: PosetMap, direction: str) -> CollapseSequence:
    """Elementary collapses taking the order complex of p = phi.source onto
    that of phi's image.

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
    p = phi.source
    if direction == "descending":
        above, below = p.above, p.below
    else:  # the descending case on the dual, whose chains are those of p
        above, below = p.below, p.above
    fmap = phi.map
    image = set(fmap.values())
    remaining = set(p.ids)
    steps: list[tuple[Simplex, Simplex]] = []
    moving = remaining - image
    # how many moving elements lie below each moving one; the free (zero) ones wait in a heap by id
    blockers = {x: len(below(x) & moving) for x in moving}
    free = [x for x, n in blockers.items() if not n]
    heapq.heapify(free)
    while free:
        x = heapq.heappop(free)
        fx = fmap[x]
        # every remaining element below fx lies below every one above x, so
        # these chains are the joins of a chain above x with one below fx
        sims = [()] + p.chains(within=(above(x) | below(fx)) & remaining)
        sims.sort()
        sims.sort(key=len, reverse=True)  # stable: by falling length, then as sorted above
        for sigma in sims:
            steps.append((tuple(sorted(sigma + (x,))), tuple(sorted(sigma + (x, fx)))))
        remaining.discard(x)
        moving.discard(x)
        for y in above(x) & moving:
            blockers[y] -= 1
            if not blockers[y]:
                heapq.heappush(free, y)
    return CollapseSequence("simplicial", tuple(steps))


def morse_matching_from_closure(phi: PosetMap) -> Matching:
    """The chain-level matching of a descending closure, on the face poset
    of the order complex of p = phi.source, whose element k is the k-th
    chain in face_poset's (dimension, lexicographic) id order.

    A chain missing from the image locates its lowest non-fixed entry x_i
    and is paired across inserting phi(x_i), or across deleting x_{i-1}
    when that happens to equal phi(x_i).  Chains inside the image are the
    critical cells.
    """
    report = verify_closure_operator(phi, "descending")
    if not report.ok:
        raise ClosureError(report)
    ox = order_complex(phi.source)
    bd = face_poset(ox)
    chains = sorted(ox.simplices, key=lambda s: (len(s), s))
    image = set(phi.map.values())
    below = phi.source.below  # along a chain, each entry has more elements below it than the last
    chain_id = {c: k for k, c in enumerate(chains)}
    pairs = set()
    paired = set()
    critical = set()
    for cid, c in enumerate(chains):
        chain = sorted(c, key=lambda x: len(below(x)))
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


def verify_acyclic_matching(m: Matching) -> tuple[bool, list[int] | None]:
    """Check m.pairs are disjoint covers of m.poset and that reversing matched
    covers leaves the Hasse digraph acyclic, that is, the cover relation of
    a poset.  Returns (True, None) or (False, certificate cycle as a list of
    cell ids, each with an edge to the next and the last to the first)."""
    p = m.poset
    used: set[int] = set()
    for a, b in m.pairs:
        if a not in p or b not in p.upper[a]:
            raise ValueError(f"matched pair ({a}, {b}) is not a cover of the poset")
        if a in used or b in used:
            raise ValueError(f"cell reused by pair ({a}, {b}): not a matching")
        used.update((a, b))
    # matched covers point up, unmatched ones down
    flipped = ((a, b) if (a, b) in m.pairs else (b, a) for a, bs in p.upper.items() for b in bs)
    try:
        FacePoset(p.ids, flipped)
    except PosetCycleError as exc:
        return False, exc.cycle
    return True, None


MAX_RANDOM_ELEMENTS = 64


def random_poset(rng, max_elements: int = 10) -> FacePoset:
    """A random poset on 1..max_elements <= MAX_RANDOM_ELEMENTS elements, for property sweeps."""
    if not 1 <= max_elements <= MAX_RANDOM_ELEMENTS:
        raise ValueError(f"max_elements must be from 1 to {MAX_RANDOM_ELEMENTS}, not {max_elements}")
    n = rng.randint(1, max_elements)
    p = rng.uniform(0.15, 0.55)
    relation = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return FacePoset(range(n), relation).restrict(range(n))  # restrict keeps only the covers


_CLOSURE_TRIES = 60


def random_descending_closure(rng, p: FacePoset) -> PosetMap:
    """A random descending closure on p: pick a retract candidate set
    containing all minimal elements and send each x to a maximal chosen
    element below it.  Returns the first lawful attempt, else the identity."""
    ids = list(p.ids)
    floor = {x for x in ids if not p.lower[x]}
    for _ in range(_CLOSURE_TRIES):
        chosen = {x for x in ids if rng.random() < 0.55} | floor
        mapping = {}
        for x in ids:
            downs = (p.below(x) | {x}) & chosen
            mapping[x] = rng.choice(sorted(y for y in downs if not (p.above(y) & downs)))
        phi = PosetMap(p, p, mapping)
        if verify_closure_operator(phi, "descending").ok:
            return phi
    return PosetMap(p, p, {x: x for x in ids})
