"""Independent verification: collapse execution and simplicial homology.

The executor replays elementary collapse steps against the stated ambient
complex, maintaining upper-cover counts so that freeness of a face is an
O(1) check at the moment the step fires.  Homology comes from scratch in
two ways that share no code path with the collapse builders: sparse
Gaussian elimination over GF(2), and integer Smith normal form on exact
arbitrary-precision arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .closure import CollapseSequence
from .posets import FacePoset, SimplicialComplex, order_complex


@dataclass
class CollapseReport:
    """Step-by-step outcome of replaying a collapse sequence."""

    valid: bool
    failed_step: int | None
    step_dims: tuple[tuple[int, int], ...]
    detail: str | None = None


def f_vector(x) -> tuple[int, ...]:
    """Cell counts by dimension for a SimplicialComplex or FacePoset."""
    if isinstance(x, SimplicialComplex):
        return x.f_vector()
    if isinstance(x, FacePoset):
        counts: dict[int, int] = {}
        for i in x.ids:
            d = x.dim_of.get(i, -1)
            counts[d] = counts.get(d, 0) + 1
        top = max(counts, default=-1)
        return tuple(counts.get(k, 0) for k in range(top + 1))
    raise TypeError(f"no f-vector for {type(x).__name__}")


def execute_collapses(ambient, seq: CollapseSequence):
    """Replay seq on ambient, which is a SimplicialComplex for simplicial
    mode or a FacePoset for cw mode.

    A step (free, coface) is legal when both are present, coface covers
    free, free has no other remaining coface, and coface is maximal.  On
    the first illegal step the replay stops; the report names the step and
    an offending cell.  Returns (remaining complex, CollapseReport).
    """
    if isinstance(ambient, SimplicialComplex):
        if seq.mode != "simplicial":
            raise ValueError("cw sequence cannot run on a simplicial complex")
        cells = ambient.simplices
        steps = [(tuple(free), tuple(cof)) for free, cof in seq.steps]

        def faces(s):
            return [s[:k] + s[k + 1 :] for k in range(len(s))] if len(s) > 1 else ()

        def dim(s):
            return len(s) - 1

        def survivors(remaining):
            labels = ambient.vertex_labels
            kept = {v: labels[v] for s in remaining for v in s if v in labels}
            return SimplicialComplex(remaining, kept, check=False)

    elif isinstance(ambient, FacePoset):
        if seq.mode != "cw":
            raise ValueError("simplicial sequence cannot run on a face poset")
        cells = ambient.ids
        steps = seq.steps
        faces = ambient.lower.__getitem__

        def dim(i):
            return ambient.dim_of.get(i, -1)

        survivors = ambient.restrict
    else:
        raise TypeError(f"cannot collapse a {type(ambient).__name__}")

    remaining = set(cells)
    up_count = dict.fromkeys(remaining, 0)
    for c in remaining:
        for f in faces(c):
            up_count[f] += 1

    def first_coface(face, skip=None):
        # failure path only: a full scan keeps the hot loop free of coface indexes
        return min(c for c in remaining if c != skip and face in faces(c))

    dims: list[tuple[int, int]] = []
    for idx, (free, cof) in enumerate(steps):
        problem = None
        if free not in remaining:
            problem = f"free cell {free} is absent"
        elif cof not in remaining:
            problem = f"coface {cof} is absent"
        elif free not in faces(cof):
            problem = f"{cof} does not cover {free}"
        elif up_count[free] != 1:
            problem = f"cell {free} is not free: {first_coface(free, cof)} also covers it"
        elif up_count[cof] != 0:
            problem = f"coface {cof} is not maximal: {first_coface(cof)} remains"
        if problem is not None:
            report = CollapseReport(False, idx, tuple(dims), f"step {idx}: {problem}")
            return survivors(remaining), report
        dims.append((dim(free), dim(cof)))
        for c in (cof, free):
            remaining.discard(c)
            for f in faces(c):
                up_count[f] -= 1
    return survivors(remaining), CollapseReport(True, None, tuple(dims))


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers with trailing zeros trimmed; torsion is per-dimension
    invariant-factor tuples in integer mode and None over GF(2)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] | None = None

    def torsion_free(self) -> bool:
        return not self.torsion or all(not t for t in self.torsion)


def _trim(seq: Sequence) -> tuple:
    out = list(seq)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def gf2_rank(columns: Iterable[Iterable[int]]) -> int:
    """Rank over GF(2) of a sparse matrix given as columns of row indices.

    Each round performs a rank-one pivot update: with pivot entry (i0, j0),
    adding (column j0) x (row i0) kills that row and column and applies the
    Schur complement to the rest, all via symmetric differences on the two
    mirrored sparse indexes.
    """
    col_rows: dict[int, set[int]] = {}
    for j, rows in enumerate(columns):
        rows = set(rows)
        if rows:
            col_rows[j] = rows
    row_cols: dict[int, set[int]] = {}
    for j, rows in col_rows.items():
        for i in rows:
            row_cols.setdefault(i, set()).add(j)
    rank = 0
    while col_rows:
        j0 = next(iter(col_rows))
        i0 = next(iter(col_rows[j0]))
        # prefer the sparser of two candidate pivots to limit fill-in
        j1 = next(iter(row_cols[i0]))
        i1 = next(iter(col_rows[j1]))
        if len(col_rows[j1]) + len(row_cols[i1]) < len(col_rows[j0]) + len(row_cols[i0]):
            i0, j0 = i1, j1
        I = frozenset(col_rows[j0])  # snapshots: the live sets mutate below
        J = frozenset(row_cols[i0])
        for i in I:
            cols = row_cols[i]
            cols ^= J
            if not cols:
                del row_cols[i]
        for j in J:
            rows = col_rows[j]
            rows ^= I
            if not rows:
                del col_rows[j]
        rank += 1
    return rank


def smith_invariant_factors(matrix: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Classical reduction with exact arithmetic: bring the absolutely
    smallest entry to the pivot, clear its row and column by division with
    remainder (re-pivoting on any remainder, which strictly shrinks the
    pivot), then restart the block if the pivot fails to divide some
    remaining entry.
    """
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            leftover = [i for i in range(t + 1, m) if a[i][t]]
            if leftover:
                i = min(leftover, key=lambda r: abs(a[r][t]))
                a[t], a[i] = a[i], a[t]
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
            leftover = [j for j in range(t + 1, n) if a[t][j]]
            if leftover:
                j = min(leftover, key=lambda c: abs(a[t][c]))
                for row in a:
                    row[t], row[j] = row[j], row[t]
                continue
            stray = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]),
                None,
            )
            if stray is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[stray])]
        factors.append(abs(a[t][t]))
        t += 1
    return factors


def _group_by_dim(x: SimplicialComplex):
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for s in x.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    for sims in by_dim.values():
        sims.sort()
    return by_dim


def betti(x: SimplicialComplex, coefficients: str = "gf2") -> BettiVector:
    """Unreduced Betti numbers of x, plus invariant factors in integer mode.

    The boundary in each dimension is assembled from scratch with signs
    (-1)^k on deleting the k-th vertex; ranks come from gf2_rank or from
    counting Smith invariant factors, never from any collapse data.
    """
    if coefficients not in ("gf2", "integer"):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    if not x.simplices:
        return BettiVector((), None if coefficients == "gf2" else ())
    by_dim = _group_by_dim(x)
    top = max(by_dim)
    index = {d: {s: k for k, s in enumerate(by_dim[d])} for d in by_dim}
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [() for _ in range(top + 1)]
    for d in range(1, top + 1):
        rows = index.get(d - 1, {})
        cols = by_dim.get(d, [])
        if not cols or not rows:
            continue
        if coefficients == "gf2":
            sparse = [[rows[s[:k] + s[k + 1 :]] for k in range(len(s))] for s in cols]
            ranks[d] = gf2_rank(sparse)
        else:
            dense = [[0] * len(cols) for _ in range(len(rows))]
            for j, s in enumerate(cols):
                for k in range(len(s)):
                    dense[rows[s[:k] + s[k + 1 :]]][j] = -1 if k % 2 else 1
            factors = smith_invariant_factors(dense)
            ranks[d] = len(factors)
            torsion[d - 1] = tuple(f for f in factors if f > 1)
    bs = [len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    if coefficients == "gf2":
        return BettiVector(_trim(bs), None)
    return BettiVector(_trim(bs), _trim(torsion))


@dataclass
class Verdict:
    """Cross-checks of one collapse plan; all four components must hold."""

    valid: bool
    failed_step: int | None
    euler_invariant: bool
    betti_before: tuple[int, ...]
    betti_after: tuple[int, ...]
    remaining_matches: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.valid
            and self.euler_invariant
            and self.remaining_matches
            and self.betti_before == self.betti_after
        )

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "failed_step": self.failed_step,
            "euler_invariant": self.euler_invariant,
            "betti_before": list(self.betti_before),
            "betti_after": list(self.betti_after),
            "remaining_matches": self.remaining_matches,
        }


def compare_collapse(ambient, seq: CollapseSequence, expected_remaining, coefficients: str = "gf2") -> Verdict:
    """Replay seq on ambient and judge it.

    Checks, all independent of how the sequence was produced: every step
    legal, every step removing a (k, k+1) pair so the Euler characteristic
    is pinned stepwise, the survivors equal to expected_remaining, and the
    Betti numbers (of order complexes, for cw mode) unchanged.
    """
    remaining, report = execute_collapses(ambient, seq)
    euler_ok = report.valid and all(hi == lo + 1 for lo, hi in report.step_dims)
    if isinstance(ambient, FacePoset):
        before_c, after_c = order_complex(ambient), order_complex(remaining)
        survivors = set(remaining.ids)
    else:
        before_c, after_c = ambient, remaining
        survivors = set(remaining.simplices)
    expected = {s if isinstance(s, int) else tuple(s) for s in expected_remaining}
    bv_before = betti(before_c, coefficients)
    bv_after = betti(after_c, coefficients)
    return Verdict(
        valid=report.valid,
        failed_step=report.failed_step,
        euler_invariant=euler_ok,
        betti_before=bv_before.betti,
        betti_after=bv_after.betti,
        remaining_matches=report.valid and survivors == expected,
    )
