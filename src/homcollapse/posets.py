"""Finite posets as Hasse diagrams, order complexes, and face posets.

A FacePoset stores only its Hasse diagram, once per direction: the upper
and lower covers of each element.  The full order is reachability,
computed on demand once per direction (above or below) and cached.
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


class FacePoset:
    def __init__(
        self,
        elements: Iterable[int],
        covers: Iterable[tuple[int, int]],
        dims: Mapping[int, int] | None = None,
        labels: Mapping[int, Any] | None = None,
    ):
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
        self._set_hasse(ids, up, down, dict(dims or {}), dict(labels or {}))
        self._topo  # a cycle raises here

    @classmethod
    def _from_hasse(cls, ids, upper, lower, dims, labels) -> "FacePoset":
        """The poset whose upper and lower covers of each id are the sorted,
        duplicate-free tuples given, taken as they are and unchecked."""
        p = cls.__new__(cls)
        p._set_hasse(ids, upper, lower, dims, labels)
        return p

    def _set_hasse(self, ids, upper, lower, dims, labels) -> None:
        self.ids: tuple[int, ...] = ids
        self.upper: dict[int, tuple[int, ...]] = upper
        self.lower: dict[int, tuple[int, ...]] = lower
        self.dim_of: dict[int, int] = dims
        self.label_of: dict[int, Any] = labels
        self._above: dict[int, frozenset[int]] | None = None
        self._below: dict[int, frozenset[int]] | None = None

    def __len__(self):
        return len(self.ids)

    def f_vector(self) -> tuple[int, ...]:
        """Element counts by dim_of; an element without a dim is not counted."""
        counts: dict[int, int] = {}
        for i in self.ids:
            d = self.dim_of.get(i, -1)
            counts[d] = counts.get(d, 0) + 1
        return tuple(counts.get(k, 0) for k in range(max(counts, default=-1) + 1))

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """(a, b) for a in sorted ids and b in upper[a], built on each read."""
        return tuple((a, b) for a in sorted(self.ids) for b in self.upper[a])

    def __contains__(self, x):
        return x in self.upper

    @cached_property
    def _topo(self) -> tuple[int, ...]:
        """A linear extension, built on first use; ValueError on a cycle."""
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
            raise ValueError("cover relation has a cycle")
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

    def above(self, x: int) -> frozenset[int]:
        """Elements strictly greater than x."""
        if self._above is None:
            self._above = self._reach(self.upper, reversed(self._topo))
        return self._above[x]

    def below(self, x: int) -> frozenset[int]:
        if self._below is None:
            self._below = self._reach(self.lower, self._topo)
        return self._below[x]

    def le(self, a: int, b: int) -> bool:
        return a == b or b in self.above(a)

    def linear_extension_rank(self) -> dict[int, int]:
        return {x: k for k, x in enumerate(self._topo)}

    def chains(self, within: Iterable[int] | None = None) -> list[Simplex]:
        """All nonempty chains as id-sorted tuples.

        Each chain is grown upward from its minimum, so every chain is
        produced exactly once.
        """
        wanted = set(self.ids) if within is None else {i for i in within if i in self.upper}
        succ = {x: sorted(self.above(x) & wanted) for x in wanted}
        out: list[Simplex] = []

        def grow(chain: Simplex, last: int):
            for nxt in succ[last]:
                ext = chain + (nxt,)
                out.append(tuple(sorted(ext)))
                grow(ext, nxt)

        for x in sorted(wanted):
            out.append((x,))
            grow((x,), x)
        return out

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
        return FacePoset(
            ids,
            covers,
            {i: self.dim_of[i] for i in ids if i in self.dim_of},
            {i: self.label_of[i] for i in ids if i in self.label_of},
        )

    def dual(self) -> "FacePoset":
        flipped = ((b, a) for a, bs in self.upper.items() for b in bs)
        return FacePoset(self.ids, flipped, self.dim_of, self.label_of)

    def to_json(self) -> dict:
        return {
            "elements": [
                {"id": i, "dim": self.dim_of.get(i, -1), "label": self.label_of.get(i)}
                for i in self.ids
            ],
            "covers": self.covers,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "FacePoset":
        try:
            elements = [json_int(e["id"]) for e in data["elements"]]
            dims = {i: json_int(e["dim"]) for i, e in zip(elements, data["elements"])}
            labels = {i: e.get("label") for i, e in zip(elements, data["elements"])}
            covers = [(json_int(a), json_int(b)) for a, b in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed poset JSON: {exc}") from None
        p = cls(elements, covers, dims, labels)
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

    Ids are assigned 0..N-1 in (dimension, lexicographic) order; each
    element is labeled by its simplex.
    """
    sims = sorted(x.simplices, key=lambda s: (len(s), s))
    index = {s: k for k, s in enumerate(sims)}
    covers = ((index[s[:k] + s[k + 1 :]], index[s]) for s in sims if len(s) > 1 for k in range(len(s)))
    return FacePoset(
        range(len(sims)),
        covers,
        {k: len(s) - 1 for k, s in enumerate(sims)},
        {k: s for k, s in enumerate(sims)},
    )


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
