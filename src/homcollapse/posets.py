"""Finite posets as Hasse diagrams, order complexes, and face posets.

A FacePoset stores only the cover relation; the full order is reachability,
computed once on demand and cached.  Element ids are arbitrary integers and
survive subposet extraction, so collapse plans can name cells stably.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

Simplex = tuple[int, ...]


class FacePoset:
    def __init__(
        self,
        elements: Iterable[int],
        covers: Iterable[tuple[int, int]],
        dims: Mapping[int, int] | None = None,
        labels: Mapping[int, Any] | None = None,
    ):
        self.ids: tuple[int, ...] = tuple(elements)
        idset = set(self.ids)
        if len(idset) != len(self.ids):
            raise ValueError("duplicate element ids")
        self.dim_of = dict(dims) if dims is not None else {}
        self.label_of = dict(labels) if labels is not None else {}
        up: dict[int, list[int]] = {i: [] for i in self.ids}
        down: dict[int, list[int]] = {i: [] for i in self.ids}
        seen = set()
        for lo, hi in covers:
            if lo not in idset or hi not in idset:
                raise ValueError(f"cover ({lo}, {hi}) references an unknown element")
            if lo == hi:
                raise ValueError(f"cover ({lo}, {hi}) relates an element to itself")
            if (lo, hi) in seen:
                continue
            seen.add((lo, hi))
            up[lo].append(hi)
            down[hi].append(lo)
        self.covers: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.upper = {i: tuple(sorted(up[i])) for i in self.ids}
        self.lower = {i: tuple(sorted(down[i])) for i in self.ids}
        self._topo = self._toposort()
        self._above: dict[int, frozenset[int]] | None = None
        self._below: dict[int, frozenset[int]] | None = None

    def __len__(self):
        return len(self.ids)

    def __contains__(self, x):
        return x in self.upper

    def _toposort(self) -> tuple[int, ...]:
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

    def _ensure_reachability(self):
        if self._above is not None:
            return
        above: dict[int, frozenset[int]] = {}
        below: dict[int, frozenset[int]] = {}
        for x in reversed(self._topo):
            acc: set[int] = set()
            for y in self.upper[x]:
                acc.add(y)
                acc |= above[y]
            above[x] = frozenset(acc)
        for x in self._topo:
            acc = set()
            for y in self.lower[x]:
                acc.add(y)
                acc |= below[y]
            below[x] = frozenset(acc)
        self._above, self._below = above, below

    def above(self, x: int) -> frozenset[int]:
        """Elements strictly greater than x."""
        self._ensure_reachability()
        return self._above[x]

    def below(self, x: int) -> frozenset[int]:
        self._ensure_reachability()
        return self._below[x]

    def le(self, a: int, b: int) -> bool:
        return a == b or b in self.above(a)

    def linear_extension_rank(self) -> dict[int, int]:
        return {x: k for k, x in enumerate(self._topo)}

    def minimal_in(self, subset: Iterable[int]) -> list[int]:
        """Minimal elements of the induced subposet, sorted by id."""
        sub = set(subset)
        return sorted(x for x in sub if not (self.below(x) & sub))

    def maximal_in(self, subset: Iterable[int]) -> list[int]:
        sub = set(subset)
        return sorted(x for x in sub if not (self.above(x) & sub))

    def chains(self, within: Iterable[int] | None = None) -> list[Simplex]:
        """All nonempty chains as id-sorted tuples.

        Each chain is grown upward from its minimum, so every chain is
        produced exactly once.
        """
        wanted = set(self.ids if within is None else within)
        members = [i for i in self.ids if i in wanted]
        succ = {x: sorted(self.above(x) & wanted) for x in members}
        out: list[Simplex] = []

        def grow(chain: Simplex, last: int):
            for nxt in succ[last]:
                ext = chain + (nxt,)
                out.append(tuple(sorted(ext)))
                grow(ext, nxt)

        for x in sorted(members):
            out.append((x,))
            grow((x,), x)
        return out

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
        return FacePoset(self.ids, [(b, a) for a, b in self.covers], self.dim_of, self.label_of)

    def validate_covers(self) -> None:
        """Reject transitive edges: a cover (a, b) must have nothing between."""
        for a, b in self.covers:
            between = self.above(a) & self.below(b)
            if between:
                raise ValueError(f"cover ({a}, {b}) is transitive: {min(between)} lies between")

    def to_json(self) -> dict:
        return {
            "elements": [
                {"id": i, "dim": self.dim_of.get(i, -1), "label": _jsonable(self.label_of.get(i))}
                for i in self.ids
            ],
            "covers": [list(c) for c in self.covers],
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
        p.validate_covers()
        return p


def json_int(x) -> int:
    """x if it is a JSON integer: never a float (1e400 reads as inf) or bool."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _jsonable(x):
    if isinstance(x, int):
        return x
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
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
    def from_facets(cls, facets: Iterable[Sequence[int]]) -> "SimplicialComplex":
        sims: set[Simplex] = set()
        for f in facets:
            f = tuple(sorted(set(f)))
            for k in range(1, len(f) + 1):
                sims.update(itertools.combinations(f, k))
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
        return {
            "vertices": self.vertices(),
            "facets": [list(f) for f in self.facets()],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SimplicialComplex":
        try:
            facets = [tuple(json_int(v) for v in f) for f in data["facets"]]
            declared = {json_int(v) for v in data["vertices"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed complex JSON: {exc}") from None
        x = cls.from_facets(facets)
        extra = {v for f in facets for v in f} - declared
        if extra:
            raise ValueError(f"facets mention undeclared vertices {sorted(extra)}")
        # isolated declared vertices are honest 0-simplices
        return cls(x.simplices | {(v,) for v in declared}, check=False)


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
    covers = []
    for s in sims:
        if len(s) > 1:
            sid = index[s]
            for k in range(len(s)):
                covers.append((index[s[:k] + s[k + 1 :]], sid))
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

    def __call__(self, x: int) -> int:
        return self.map[x]

    def is_order_preserving(self) -> tuple[int, int] | None:
        """A violated cover (a, b) with f(a) not below f(b), or None."""
        for a, b in self.source.covers:
            if not self.target.le(self.map[a], self.map[b]):
                return (a, b)
        return None

    def then(self, other: "PosetMap") -> "PosetMap":
        if other.source.ids != self.target.ids:
            raise ValueError("composition sources/targets do not match")
        return PosetMap(self.source, other.target, {x: other.map[y] for x, y in self.map.items()})


def identity_map(p: FacePoset) -> PosetMap:
    return PosetMap(p, p, {x: x for x in p.ids})


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

    def describe(self) -> str:
        if self.ok:
            return f"valid {self.direction} closure operator"
        return f"{self.law} fails at {self.witness}"


def verify_closure_operator(f: PosetMap, direction: str) -> ClosureReport:
    """The first law by which f fails to be a monotone, idempotent endomap
    with f(x) <= x (descending) or x <= f(x) (ascending), else a pass."""
    if direction not in ("descending", "ascending"):
        raise ValueError(f"direction must be 'descending' or 'ascending', not {direction!r}")
    if f.source.ids != f.target.ids or f.source.covers != f.target.covers:
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
