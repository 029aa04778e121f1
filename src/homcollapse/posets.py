"""Finite posets as Hasse diagrams, order complexes, and face posets.

A FacePoset stores only its Hasse diagram, once per direction: the upper
and lower covers of each element, and answers only order questions.  The
full order is reachability, computed on demand once per direction (above
or below) and cached.
Element ids are arbitrary integers and survive subposet extraction, so
collapse plans can name cells stably.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

Simplex = tuple[int, ...]


class ResourceLimitError(RuntimeError):
    """A count of cells, simplices or chains exceeded the configured budget."""

    def __init__(self, limit: int, counted: str):
        super().__init__(f"the {counted} count exceeded the budget of {limit}")
        self.limit = limit


class PosetCycleError(ValueError):
    """A cover relation has a cycle; .cycle lists one so that each element
    is covered by the next, and the last by the first."""

    def __init__(self, cycle: list[int]):
        super().__init__(f"cover relation has a cycle: {' < '.join(map(str, cycle + cycle[:1]))}")
        self.cycle = cycle


class FacePoset:
    ids: tuple[int, ...]
    upper: dict[int, tuple[int, ...]]
    lower: dict[int, tuple[int, ...]]

    def __init__(self, elements: Iterable[int], covers: Iterable[tuple[int, int]]):
        ids = tuple(elements)
        up: dict[int, Any] = {i: [] for i in ids}
        if len(up) != len(ids):
            raise ValueError("duplicate element ids")
        down: dict[int, Any] = {i: [] for i in ids}
        for lo, hi in covers:
            if lo not in up or hi not in up:
                raise ValueError(f"cover ({lo}, {hi}) references an unknown element")
            if lo == hi:
                raise ValueError(f"cover ({lo}, {hi}) relates an element to itself")
            up[lo].append(hi)
            down[hi].append(lo)
        for i in ids:  # a repeated cover counts once
            up[i] = tuple(sorted(set(up[i])))
            down[i] = tuple(sorted(set(down[i])))
        self.ids, self.upper, self.lower = ids, up, down
        self._topo  # a cycle raises here

    @classmethod
    def _from_hasse(cls, ids, upper, lower) -> "FacePoset":
        """The poset whose upper and lower covers of each id are the sorted,
        duplicate-free tuples given, taken as they are and unchecked."""
        p = cls.__new__(cls)
        p.ids, p.upper, p.lower = ids, upper, lower
        return p

    def __len__(self):
        return len(self.ids)

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """(a, b) for a in sorted ids and b in upper[a], built on each read."""
        return tuple((a, b) for a in sorted(self.ids) for b in self.upper[a])

    def __contains__(self, x):
        return x in self.upper

    @cached_property
    def _topo(self) -> tuple[int, ...]:
        """A linear extension, built on first use; PosetCycleError on a cycle."""
        indeg = {i: len(self.lower[i]) for i in self.ids}
        frontier = sorted(i for i in self.ids if indeg[i] == 0)
        order = []
        while frontier:
            x = frontier.pop()
            order.append(x)
            for y in self.upper[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    frontier.append(y)
        if len(order) != len(self.ids):
            # each element left has a lower cover left: walk down, smallest first, to a repeat
            left = {i for i, n in indeg.items() if n}
            walk: dict[int, int] = {}  # element: its place in the walk
            x = min(left)
            while x not in walk:
                walk[x] = len(walk)
                x = next(y for y in self.lower[x] if y in left)
            raise PosetCycleError(list(walk)[walk[x] :][::-1])
        return tuple(order)

    @staticmethod
    def _reach(step: Mapping[int, tuple[int, ...]], order: Iterable[int]) -> dict[int, frozenset[int]]:
        """x: everything reached from x by one or more steps, for x in an
        order that puts each x after all of step[x]."""
        reach: dict[int, frozenset[int]] = {}
        for x in order:
            acc: set[int] = set()
            for y in step[x]:
                acc.add(y)
                acc |= reach[y]
            reach[x] = frozenset(acc)
        return reach

    @cached_property
    def _above(self) -> dict[int, frozenset[int]]:
        return self._reach(self.upper, reversed(self._topo))

    @cached_property
    def _below(self) -> dict[int, frozenset[int]]:
        return self._reach(self.lower, self._topo)

    def above(self, x: int) -> frozenset[int]:
        """Elements strictly greater than x."""
        return self._above[x]

    def below(self, x: int) -> frozenset[int]:
        return self._below[x]

    def le(self, a: int, b: int) -> bool:
        return a == b or b in self.above(a)

    def chains(self, within: Iterable[int] | None = None) -> list[Simplex]:
        """All nonempty chains of within (all ids by default) as id-sorted
        tuples: the lists that chains_by_minimum, the one chain enumerator,
        yields, joined in order.  The simplicial replay on a poset streams
        that enumerator instead of building this list."""
        return [c for group in self.chains_by_minimum(within) for c in group]

    def chains_by_minimum(self, within: Iterable[int] | None = None):
        """For each x of within (all ids by default) in id order, the list
        of nonempty chains of within whose minimum is x, as id-sorted tuples.

        Each chain is grown upward from its minimum, so every chain is
        produced exactly once, and only one minimum's chains are held.
        """
        wanted = set(self.ids) if within is None else {i for i in within if i in self.upper}
        succ = {x: sorted(self.above(x) & wanted) for x in wanted}

        def grow(chain: Simplex, last: int):
            for nxt in succ[last]:
                ext = chain + (nxt,)
                out.append(tuple(sorted(ext)))
                grow(ext, nxt)

        for x in sorted(wanted):
            out: list[Simplex] = [(x,)]
            grow((x,), x)
            yield out

    def chain_counts(self, max_chains=math.inf) -> tuple[int, ...]:
        """The order complex's f-vector, counted unbuilt: entry k counts the
        chains of k + 1 elements.  Those ending at x are x alone, or x atop
        a chain one element shorter ending below x.  ResourceLimitError as
        soon as the running total passes max_chains, before the next
        length is counted."""
        ends = dict.fromkeys(self.ids, 1)  # x: chains of len(counts) + 1 elements ending at x
        counts = []
        zeros = itertools.repeat(0)
        while ends:  # where no chain of k elements ends, no chain of k + 1 does
            counts.append(sum(ends.values()))
            if sum(counts) > max_chains:
                raise ResourceLimitError(max_chains, "chain")
            ends = {x: n for x in ends if (n := sum(map(ends.get, self.below(x), zeros)))}
        return tuple(counts)

    def restrict(self, keep: Iterable[int]) -> "FacePoset":
        """Induced subposet on keep; ids are preserved, covers recomputed."""
        keepset = set(keep)
        ids = [i for i in self.ids if i in keepset]
        covers = []
        for a in ids:
            cand = self.above(a) & keepset
            for b in cand:
                if not (self.below(b) & cand):
                    covers.append((a, b))
        return FacePoset(ids, covers)

    def dual(self) -> "FacePoset":
        flipped = ((b, a) for a, bs in self.upper.items() for b in bs)
        return FacePoset(self.ids, flipped)

    def to_json(self) -> dict:
        """The elements, each with dim -1 and label null, and the covers."""
        return {
            "elements": [{"id": i, "dim": -1, "label": None} for i in self.ids],
            "covers": self.covers,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FacePoset":
        try:
            elements = [json_int(e["id"]) for e in data["elements"]]
            for e in data["elements"]:  # a dim must be an integer, though none is kept
                json_int(e["dim"])
            covers = [(json_int(a), json_int(b)) for a, b in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed poset JSON: {exc}") from None
        p = cls(elements, covers)
        for a, b in p.covers:  # nothing lies between; read downward only, as chain_counts reads
            if any(a in p.below(c) for c in p.lower[b]):
                between = min(c for c in p.below(b) if a in p.below(c))
                raise ValueError(f"cover ({a}, {b}) is transitive: {between} lies between")
        return p


def json_int(x) -> int:
    """x if it is a JSON integer: never a float (1e400 reads as inf) or bool."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


class SimplicialComplex:
    """Abstract simplicial complex; simplices are id-sorted vertex tuples."""

    __slots__ = ("simplices",)

    def __init__(self, simplices: Iterable[Sequence[int]], check: bool = True):
        sims = frozenset(tuple(s) for s in simplices)
        if check:
            for s in sims:
                if not s or any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not a strictly sorted nonempty tuple")
                if len(s) > 1:
                    for k in range(len(s)):
                        if s[:k] + s[k + 1 :] not in sims:
                            raise ValueError(f"complex is not closed: {s} lacks a face")
        self.simplices = sims

    @classmethod
    def from_facets(cls, facets: Iterable[Sequence[int]], max_simplices=math.inf) -> "SimplicialComplex":
        """The closure of facets; ResourceLimitError as soon as it passes max_simplices simplices."""
        sims: set[Simplex] = set()
        for f in facets:
            f = tuple(sorted(set(f)))
            if (1 << len(f)) - 1 > max_simplices:
                raise ResourceLimitError(max_simplices, "simplex")
            for k in range(1, len(f) + 1):
                sims.update(itertools.combinations(f, k))
            if len(sims) > max_simplices:
                raise ResourceLimitError(max_simplices, "simplex")
        return cls(sims, check=False)

    def __len__(self):
        return len(self.simplices)

    def __contains__(self, s):
        return tuple(s) in self.simplices

    def vertices(self) -> list[int]:
        return sorted({v for s in self.simplices for v in s})

    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max((len(s) for s in self.simplices), default=0) - 1

    def f_vector(self) -> tuple[int, ...]:
        counts: dict[int, int] = {}
        for s in self.simplices:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return tuple(counts.get(k, 0) for k in range(self.dim() + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.f_vector()))

    def facets(self) -> list[Simplex]:
        """Maximal simplices: those that are a codim-1 face of nothing present."""
        non_max = {s[:k] + s[k + 1 :] for s in self.simplices if len(s) > 1 for k in range(len(s))}
        return sorted(self.simplices - non_max, key=lambda s: (len(s), s))

    def to_json(self) -> dict:
        return {"vertices": self.vertices(), "facets": self.facets()}

    @classmethod
    def from_json(cls, data: Mapping, max_simplices=math.inf) -> "SimplicialComplex":
        try:
            facets = [tuple(json_int(v) for v in f) for f in data["facets"]]
            declared = {json_int(v) for v in data["vertices"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed complex JSON: {exc}") from None
        extra = {v for f in facets for v in f} - declared
        if extra:
            raise ValueError(f"facets mention undeclared vertices {sorted(extra)}")
        # isolated declared vertices are honest 0-simplices
        return cls.from_facets(facets + [(v,) for v in sorted(declared)], max_simplices)


def order_complex(p: FacePoset) -> SimplicialComplex:
    """The simplicial complex of nonempty chains of p, on p's ids."""
    return SimplicialComplex(p.chains(), check=False)


def face_poset(x: SimplicialComplex) -> FacePoset:
    """Poset of simplices of x ordered by inclusion; covers drop one vertex.

    Ids are assigned 0..N-1 in (dimension, lexicographic) order.
    """
    sims = sorted(x.simplices, key=lambda s: (len(s), s))
    index = {s: k for k, s in enumerate(sims)}
    covers = ((index[s[:k] + s[k + 1 :]], index[s]) for s in sims if len(s) > 1 for k in range(len(s)))
    return FacePoset(range(len(sims)), covers)


@dataclass
class PosetMap:
    """A map of posets given element-wise; see verify_closure_operator."""

    source: FacePoset
    target: FacePoset
    map: dict[int, int]

    def __post_init__(self):
        missing = [x for x in self.source.ids if x not in self.map]
        if missing:
            raise ValueError(f"map is not total: element {missing[0]} has no image")
        for x, y in self.map.items():
            if x not in self.source:
                raise ValueError(f"map defined on {x}, which is not a source element")
            if y not in self.target:
                raise ValueError(f"map sends {x} to {y}, which is not a target element")

    def is_order_preserving(self) -> tuple[int, int] | None:
        """A violated cover (a, b) with f(a) not below f(b), or None."""
        for a, b in self.source.covers:
            if not self.target.le(self.map[a], self.map[b]):
                return (a, b)
        return None


@dataclass(frozen=True)
class ClosureReport:
    """The first closure-operator law that fails, with a counterexample;
    law is None when all of them hold."""

    direction: str
    law: str | None = None
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.law is None


def verify_closure_operator(f: PosetMap, direction: str) -> ClosureReport:
    """The first law by which f fails to be a monotone, idempotent endomap
    with f(x) <= x (descending) or x <= f(x) (ascending), else a pass."""
    if direction not in ("descending", "ascending"):
        raise ValueError(f"direction must be 'descending' or 'ascending', not {direction!r}")
    if f.source.ids != f.target.ids or f.source.upper != f.target.upper:
        return ClosureReport(direction, "endomap", ())
    bad = f.is_order_preserving()
    if bad is not None:
        return ClosureReport(direction, "order preservation", bad)
    for x in f.source.ids:
        y = f.map[x]
        if f.map[y] != y:
            return ClosureReport(direction, "idempotence", (x, y, f.map[y]))
        if not (f.source.le(y, x) if direction == "descending" else f.source.le(x, y)):
            return ClosureReport(direction, f"{direction} comparison", (x, y))
    return ClosureReport(direction)


def image_subposet(f: PosetMap) -> FacePoset:
    """Induced subposet on the image of f; ids are preserved."""
    return f.source.restrict(sorted(set(f.map.values())))
