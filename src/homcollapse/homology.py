"""Independent verification: collapse execution and homology.

The executor replays elementary collapse steps against the stated ambient
complex in one pass over its cover incidences.  It stamps each cell with
the index of the step that removes it, and a replay is legal exactly when
no cell outlives one of its faces, so no coface counts are kept and only a
failing step is checked again, to name it.  Homology comes from scratch, off
one chain complex, either of a simplicial complex or the cellular one of a
HomComplex with the signed faces of HomComplex.facets(): one signed
boundary row per cell.  Those rows feed one rank loop that shares no code
path with the collapse builders: column reduction over GF(2) on int
bitsets, or integer Smith invariant factors from an exact sparse elimination.
verify_plan is the one place that knows how a fold plan of either side
is judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, filterfalse, islice, repeat
from typing import Iterable, Mapping, Sequence

from .closure import CollapseSequence
from .graphs import apply_fold
from .hom import HomComplex, cell_dim, enumerate_hom_cells, induced_contravariant, induced_covariant
from .posets import FacePoset, SimplicialComplex, order_complex


@dataclass
class CollapseReport:
    """Outcome of replaying a collapse sequence: whether every step was
    legal, the first illegal step and why (detail), and the dimensions of
    the free cell and coface of each step before it."""

    valid: bool
    failed_step: int | None
    step_dims: tuple[tuple[int, int], ...]
    detail: str | None = None


def execute_collapses(ambient, seq: CollapseSequence):
    """Replay seq on ambient: in simplicial mode a SimplicialComplex, or a
    FacePoset standing for its order complex; in cw mode a HomComplex,
    whose cell ids the steps name.

    A step (free, coface) is legal when both are present, coface covers
    free, free has no other remaining coface, and coface is maximal.  Each
    cell is stamped with the index of the step that names it, up to the
    first step whose pair is absent, was named before, or is not a cover;
    a cell never named counts as stamped last.  Each cell's faces are read
    once, as the cell is stamped or after the steps, and a face stamped
    before its cell fails the replay at the face's stamp; the earliest
    failure wins.  This is exact: while the earlier steps are legal, the
    cells left at step i are those stamped i or later, so step i is legal
    exactly when its pair is a present cover and no other coface of free,
    and no coface of coface, is stamped later.  Only the failing step is
    checked again, against the cells left at it, to name an offending cell.

    A FacePoset's order complex is never built when the steps name only
    chains: the steps are stamped unchecked for presence, and the chains
    are then streamed once from chains_by_minimum, each one never named
    kept as a survivor.  If fewer chains are met among the stamped cells
    than were stamped, a step named a tuple that is no chain, and the
    replay runs again on order_complex(ambient), so the outcome is the
    same either way.

    Returns (surviving cells, CollapseReport): a set of simplices in
    simplicial mode, of element ids in cw mode.  Legal steps remove free
    pairs, so the survivors are a subcomplex (a down-set).  A FacePoset
    with a cw sequence, or any other ambient, raises TypeError.
    """
    # a poset's cells are its chains, streamed once after the steps
    stream = isinstance(ambient, FacePoset) and seq.mode == "simplicial"
    if stream or isinstance(ambient, SimplicialComplex):
        if seq.mode != "simplicial":
            raise ValueError("cw sequence cannot run on a simplicial complex")
        cells = None if stream else ambient.simplices
        name = tuple  # a step may give its simplices as lists

        def faces(s):
            return combinations(s, len(s) - 1) if s else ()  # a step may name (), which has no faces

        def dim(s):
            return len(s) - 1
    elif isinstance(ambient, HomComplex):
        if seq.mode != "cw":
            raise ValueError("simplicial sequence cannot run on a hom complex")
        cells = frozenset(range(len(ambient)))
        faces = [[f for f, _ in fs] for fs in ambient.facets()].__getitem__

        def name(i):
            return i

        def dim(i):
            return cell_dim(ambient.cells[i])
    else:
        raise TypeError(f"cannot collapse a {type(ambient).__name__}")

    stamp: dict = {}
    get = stamp.get
    failed = len(seq.steps)
    unstamped = repeat(failed)
    for i, (free, cof) in enumerate(seq.steps):
        free, cof = name(free), name(cof)
        if (
            free in stamp
            or cof in stamp
            or not stream and (free not in cells or cof not in cells)  # a poset's chains are met later
            or free not in faces(cof)
        ):
            failed = min(failed, i)
            break
        # every face stamped so far was stamped before i
        first = min(map(get, chain(faces(free), faces(cof)), unstamped))
        if first < failed:
            failed = first
        stamp[free] = stamp[cof] = i
    if stream:
        remaining, chains = set(), 0
        for group in ambient.chains_by_minimum():
            chains += len(group)
            remaining.update(filterfalse(stamp.__contains__, group))
        if chains - len(remaining) < len(stamp):  # a stamped name is no chain: judge it on the built complex
            return execute_collapses(order_complex(ambient), seq)
    else:
        remaining = set(cells.difference(stamp))
    for c in remaining:
        first = min(map(get, faces(c), unstamped), default=failed)
        if first < failed:
            failed = first

    shared: dict = {}  # one (dim, dim) tuple per distinct pair
    dims = tuple(shared.setdefault(d, d) for d in ((dim(f), dim(c)) for f, c in islice(seq.steps, failed)))
    if failed == len(seq.steps):
        return remaining, CollapseReport(True, None, dims)
    remaining.update(c for c, at in stamp.items() if at >= failed)  # the cells left at the failing step
    free, cof = map(name, seq.steps[failed])
    if free not in remaining:
        problem = f"free cell {free} is absent"
    elif cof not in remaining:
        problem = f"coface {cof} is absent"
    elif free not in faces(cof):
        problem = f"{cof} does not cover {free}"
    elif others := [c for c in remaining if c != cof and free in faces(c)]:
        problem = f"cell {free} is not free: {min(others)} also covers it"
    else:
        problem = f"coface {cof} is not maximal: {min(c for c in remaining if cof in faces(c))} remains"
    return remaining, CollapseReport(False, failed, dims, f"step {failed}: {problem}")


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers with trailing zeros trimmed; torsion is per-dimension
    invariant-factor tuples in integer mode and None over GF(2)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...] | None = None


def _trim(seq: Sequence) -> tuple:
    out = list(seq)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def gf2_rank(columns: Iterable[Iterable[int]]) -> int:
    """Rank over GF(2) of a sparse matrix given as columns of row indices
    (a {row: entry} map is read by its keys).

    Column reduction with each column held as an int bitset (a repeated row
    index counts once): XOR the stored pivot column with the same leading
    bit into the column until it vanishes or shows a new leading bit, under
    which it is stored.  The rank is the number of stored pivots.
    """
    pivots: dict[int, int] = {}
    for rows in columns:
        v = 0
        for i in rows:
            v |= 1 << i
        while v:
            lead = v.bit_length()
            if lead not in pivots:
                pivots[lead] = v
                break
            v ^= pivots[lead]
    return len(pivots)


def smith_invariant_factors(rows: Iterable[Mapping[int, int]]) -> list[int]:
    """Nonzero invariant factors, in divisibility order, of sparse int rows.

    One elimination over copies of the {column: entry} rows (the caller's
    are left as they are) with exact arithmetic.  The pivot is the first
    +-1 entry, or failing that one of least absolute value.  Row operations
    clear its column, and a nonzero remainder takes over as a strictly
    smaller pivot.  With the column clear, a column operation changes only
    the pivot row, so its other entries are reduced modulo the pivot; a
    remainder again takes over.  A non-unit pivot that fails to divide some
    remaining entry absorbs that entry's row and goes round again.
    """
    rows = [r for r in ({j: x for j, x in row.items() if x} for row in rows) if r]
    factors = []
    while rows:
        at = next(((i, j) for i, r in enumerate(rows) for j, x in r.items() if x in (1, -1)), None)
        if at is None:
            _, *at = min((abs(x), i, j) for i, r in enumerate(rows) for j, x in r.items())
        i, c = at
        top = rows.pop(i)
        while True:
            for k, r in enumerate(rows):
                while c in r:
                    q = r[c] // top[c]
                    for j, x in top.items():
                        y = r.get(j, 0) - q * x
                        if y:
                            r[j] = y
                        else:
                            r.pop(j, None)
                    if c in r:
                        r, top = top, r
                rows[k] = r
            p = top[c]
            rest = {j: x % p for j, x in top.items() if x % p}
            top = {c: p, **rest}
            if rest:
                c = min(rest, key=lambda j: abs(rest[j]))
                continue
            if p in (1, -1):
                break
            stray = next((r for r in rows if any(x % p for x in r.values())), None)
            if stray is None:
                break
            top.update(stray)
        factors.append(abs(p))
        rows = [r for r in rows if r]
    return factors


def _betti(sizes: Sequence[int], boundary, coefficients: str) -> BettiVector:
    """Betti numbers of a chain complex with sizes[d] cells in dimension d.

    boundary(d) builds the whole boundary out of dimension d in one call,
    one {row: +-1} map per d-cell over the cells of dimension d - 1: its
    keys are a column for gf2_rank, and the maps are the Smith rows of the
    transpose (it has the same invariant factors).
    """
    if coefficients not in ("gf2", "integer"):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    top = len(sizes) - 1
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [() for _ in range(top + 1)]
    for d in range(1, top + 1):
        if coefficients == "gf2":
            ranks[d] = gf2_rank(boundary(d))
        else:
            factors = smith_invariant_factors(boundary(d))
            ranks[d] = len(factors)
            torsion[d - 1] = tuple(f for f in factors if f > 1)
    bs = [sizes[d] - ranks[d] - ranks[d + 1] for d in range(top + 1)]
    if coefficients == "gf2":
        return BettiVector(_trim(bs), None)
    return BettiVector(_trim(bs), _trim(torsion))


def betti(x, coefficients: str = "gf2") -> BettiVector:
    """Unreduced Betti numbers of x, plus invariant factors in integer mode.

    x is a SimplicialComplex, or a HomComplex read as the regular CW
    complex of its product cells, with the faces and incidences of
    x.facets(); any other x, a FacePoset included, raises TypeError.  Each
    boundary is assembled from scratch once, one signed row per cell, and
    feeds either kernel; no collapse data is read.
    """
    if not isinstance(x, (SimplicialComplex, HomComplex)):
        raise TypeError(f"no Betti numbers for {type(x).__name__}")
    return _betti(*_chains(x), coefficients)


def _chains(x):
    """The chain complex of x: its cell counts by dimension, and boundary(d),
    a list of one {row: +-1} map per d-cell, rows indexing dimension d - 1.

    The cells of each dimension are indexed once, simplices sorted and Hom
    cells by id.  A simplex's k-th face drops its k-th vertex, with sign
    (-1)^k; a Hom cell's faces (f, e) are those of x.facets(), with
    incidence (-1)^e.
    """
    by_dim: dict[int, list] = {}
    if isinstance(x, SimplicialComplex):
        for s in sorted(x.simplices):
            by_dim.setdefault(len(s) - 1, []).append(s)

        def boundary(d):
            signs = [-1 if k % 2 else 1 for k in range(d, -1, -1)]  # combinations drops the last vertex first
            return [dict(zip(map(row.__getitem__, combinations(s, d)), signs)) for s in cells[d]]
    else:
        for i, cell in enumerate(x.cells):
            by_dim.setdefault(cell_dim(cell), []).append(i)
        faces = x.facets()

        def boundary(d):
            return [{row[f]: -1 if e % 2 else 1 for f, e in faces[i]} for i in cells[d]]

    cells = [by_dim.get(d, []) for d in range(max(by_dim, default=-1) + 1)]
    row = {c: k for ids in cells for k, c in enumerate(ids)}  # a simplex or id has one dimension
    return [len(ids) for ids in cells], boundary


@dataclass(frozen=True)
class Verdict:
    """Cross-checks of one collapse plan; all four components must hold.
    failure names the first check that fails, in the order all_pass reads
    them (for an illegal step, the step and why), or is None when all of
    them hold."""

    valid: bool
    failed_step: int | None
    euler_invariant: bool
    betti_before: tuple[int, ...]
    betti_after: tuple[int, ...]
    remaining_matches: bool
    failure: str | None = None

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
            "betti_before": self.betti_before,
            "betti_after": self.betti_after,
            "remaining_matches": self.remaining_matches,
        }


def compare_collapse(
    ambient, seq: CollapseSequence, expected_remaining, coefficients: str = "gf2"
) -> Verdict:
    """Replay seq on ambient and judge it.

    Checks, all independent of how the sequence was produced: every step
    legal, every step removing a (k, k+1) pair so the Euler characteristic
    is pinned stepwise, the survivors equal to expected_remaining, and the
    Betti numbers of ambient and of the survivors equal.  In cw mode ambient
    is a HomComplex, the Betti numbers are cellular, and the survivors are
    judged as the HomComplex of the remaining cells, which form a
    subcomplex even when the replay stops early (each legal step removes a
    free pair).  A FacePoset, which execute_collapses replays on, has no
    Betti numbers here and raises TypeError.
    """
    before = betti(ambient, coefficients)  # first, so a FacePoset raises TypeError before any replay
    remaining, report = execute_collapses(ambient, seq)
    if isinstance(ambient, SimplicialComplex):
        survivors = SimplicialComplex(remaining, check=False)
    else:
        cells = tuple(ambient.cells[i] for i in sorted(remaining))
        survivors = HomComplex(ambient.domain, ambient.codomain, cells)
    after = betti(survivors, coefficients)
    return _judge(report, remaining, expected_remaining, before, after)


def verify_plan(plan, coefficients: str = "gf2") -> Verdict:
    """Judge a fold collapse plan, as its builder made it, by its side's theorem.

    Either side folds w.v onto w.u in one argument of plan.hom and
    enumerates the smaller Hom afresh: Hom(G - v, H) for side "first",
    whose cells carry into Hom(G, H) by precomposing with the retraction,
    and Hom(K, G - v) for side "second", whose cells carry into Hom(K, G)
    along the inclusion.  The carried cells must be target_cells one to
    one, and the replay must leave just their chains (first) or themselves
    (second), else remaining_matches is False.  The steps replay on the
    cell poset plan.hom.poset, standing for its order complex, whose chains
    are streamed and never built unless a step names something that is no
    chain (first), or on the HomComplex plan.hom itself (second), and the
    cellular Betti numbers of plan.hom and of the folded Hom are compared.
    Side second builds no face poset.
    """
    hom, first = plan.hom, plan.side == "first"
    small, retraction, inclusion = apply_fold(hom.domain if first else hom.codomain, plan.witness)
    pair = (small, hom.codomain) if first else (hom.domain, small)
    folded = enumerate_hom_cells(*pair, max(len(hom.cells), 1))  # both folded Homs embed in hom
    if first:
        carried, ambient = induced_contravariant(retraction, folded, hom), hom.poset
        cause = "target cells do not pull back one-to-one onto Hom(G - v, H)"
    else:
        carried, ambient = induced_covariant(inclusion, folded, hom), hom
        cause = "target cells are not Hom(K, G - v) pushed forward one-to-one"
    cells = sorted(carried.values())
    remaining, report = execute_collapses(ambient, plan.sequence)
    span = hom.poset.chains(within=cells) if first else cells  # built after the replay, so not held through it
    before, after = betti(hom, coefficients), betti(folded, coefficients)
    return _judge(report, remaining, span, before, after, None if cells == sorted(plan.target_cells) else cause)


def _judge(report, remaining, expected_remaining, before, after, carry_failure=None) -> Verdict:
    """The verdict on a replay that left the set remaining, given the Betti
    vectors to compare and why the target is not the folded Hom, if not."""
    euler_ok = report.valid and all(hi == lo + 1 for lo, hi in report.step_dims)
    matches = report.valid and remaining == set(expected_remaining)
    checks = (
        (report.valid, report.detail),
        (euler_ok, "a step did not remove a (k, k+1) pair"),
        (matches, "survivors differ from the target"),
        (carry_failure is None, carry_failure),
        (before.betti == after.betti, "betti numbers differ"),
    )
    return Verdict(
        valid=report.valid,
        failed_step=report.failed_step,
        euler_invariant=euler_ok,
        betti_before=before.betti,
        betti_after=after.betti,
        remaining_matches=matches and carry_failure is None,
        failure=next((cause for ok, cause in checks if not ok), None),
    )
