import itertools
import math
import random
import re

import pytest

from homcollapse import (
    BettiVector,
    CollapseSequence,
    FacePoset,
    FoldWitness,
    Graph,
    HomComplex,
    PosetMap,
    SimplicialComplex,
    betti,
    collapse_sequence_from_closure,
    compare_collapse,
    enumerate_hom_cells,
    execute_collapses,
    face_poset,
    find_folds,
    first_arg_collapse,
    gf2_rank,
    image_subposet,
    order_complex,
    random_descending_closure,
    random_poset,
    ResourceLimitError,
    second_arg_collapse,
    smith_invariant_factors,
)

from homcollapse import homology
from homcollapse.homology import CollapseReport, _chains, _judge

from helpers import (
    as_read,
    complete,
    cycle,
    edgeless,
    k4_pendant,
    path_graph,
    random_graph,
    reference_replay,
)

RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def hollow_triangle():
    return SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])


def full_triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def test_f_vector_dispatch():
    assert full_triangle().f_vector() == (3, 3, 1)
    assert SimplicialComplex([]).f_vector() == ()


def test_gf2_rank_small_matrices():
    # columns as row-index lists
    assert gf2_rank([[0], [1], [0, 1]]) == 2
    assert gf2_rank([[0, 1], [0, 1]]) == 1
    assert gf2_rank([]) == 0
    assert gf2_rank([[], []]) == 0
    identity = [[i] for i in range(5)]
    assert gf2_rank(identity) == 5


def test_gf2_rank_against_dense_elimination():
    rng = random.Random(97)
    for trial in range(120):
        # small dense matrices, then sparse ones up to 60 x 60
        top, density = (8, 0.5) if trial < 60 else (60, rng.choice((0.03, 0.08, 0.2)))
        m, n = rng.randint(1, top), rng.randint(1, top)
        dense = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        cols = [[i for i in range(m) if dense[i][j]] for j in range(n)]
        # plain row echelon over GF(2)
        work = [row[:] for row in dense]
        rank = 0
        for j in range(n):
            piv = next((i for i in range(rank, m) if work[i][j]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for i in range(m):
                if i != rank and work[i][j]:
                    work[i] = [a ^ b for a, b in zip(work[i], work[rank])]
            rank += 1
        assert gf2_rank(cols) == rank
        # a repeated row index counts once
        assert gf2_rank([rows + rng.sample(rows, len(rows) // 2) for rows in cols]) == rank
        # one-shot iterables, for the matrix and for each column
        assert gf2_rank(iter(rows) for rows in cols) == rank


def _smith(mat):
    return smith_invariant_factors([dict(enumerate(row)) for row in mat])


def test_smith_normal_form_known_matrices():
    assert _smith([[2, 4], [6, 8]]) == [2, 4]
    assert _smith([[1, 0], [0, 1]]) == [1, 1]
    assert _smith([[0, 0], [0, 0]]) == []
    assert _smith([[6]]) == [6]
    assert _smith([[2, 0], [0, 3]]) == [1, 6]
    assert _smith([]) == []


def test_smith_sparse_row_inputs():
    # explicit zeros and empty rows are dropped; columns need not be contiguous
    assert smith_invariant_factors([{0: 0, 7: 2}, {}, {3: 0}, {7: 4, 9: 6}]) == [2, 6]
    assert smith_invariant_factors([{}, {}]) == []
    assert smith_invariant_factors([{5: 0}]) == []
    # a one-shot generator of rows
    assert smith_invariant_factors({0: x} for x in (4, 6)) == [2]
    assert smith_invariant_factors(iter([{0: 2, 1: 4}, {0: 6, 1: 8}])) == [2, 4]
    # the caller's mappings are left as they were
    rows = [{0: 2, 1: 4, 2: 0}, {0: 6, 1: 8}, {}]
    before = [dict(r) for r in rows]
    assert smith_invariant_factors(rows) == [2, 4]
    assert rows == before


def _det(a):
    # Laplace expansion along the first row: exact, and cheap up to 5 x 5
    if not a:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


def test_smith_factors_divisibility_randomized():
    rng = random.Random(101)
    for trial in range(1500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        span = (1, 2, 6, 30)[trial % 4]
        density = rng.choice((0.3, 0.6, 1.0))
        if trial % 8 == 0:
            mat = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(m)]
        else:
            mat = [
                [rng.randint(-span, span) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ]
        factors = _smith(mat)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        # the first factor is the gcd of all entries (the 1 x 1 minors)
        if factors:
            assert factors[0] == math.gcd(*(v for row in mat for v in row))
        # factor k is d_k / d_(k-1), where d_k is the gcd of the k x k minors
        divisors = [1]
        for k in range(1, min(m, n) + 1):
            d = 0
            for rows in itertools.combinations(mat, k):
                for cols in itertools.combinations(range(n), k):
                    d = math.gcd(d, _det([[row[c] for c in cols] for row in rows]))
            if not d:
                break
            divisors.append(d)
        assert factors == [b // a for a, b in zip(divisors, divisors[1:])]


def test_betti_point_and_spheres():
    assert betti(full_triangle()).betti == (1,)
    assert betti(hollow_triangle()).betti == (1, 1)
    tetra = SimplicialComplex.from_facets(
        [f for f in itertools.combinations(range(4), 3)]
    )
    assert betti(tetra).betti == (1, 0, 1)
    assert betti(tetra, "integer").betti == (1, 0, 1)
    assert betti(SimplicialComplex([])).betti == ()


def test_betti_projective_plane_torsion():
    rp2 = SimplicialComplex.from_facets(RP2_FACETS)
    assert rp2.f_vector() == (6, 15, 10)
    over_2 = betti(rp2)
    assert over_2.betti == (1, 1, 1)
    integral = betti(rp2, "integer")
    assert integral.betti == (1,)
    assert integral.torsion == ((), (2,))
    assert integral.torsion != ()


def test_betti_modes_agree_without_torsion():
    rng = random.Random(103)
    for _ in range(25):
        verts = range(rng.randint(1, 6))
        facets = [tuple(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
                  for _ in range(rng.randint(1, 5))]
        x = SimplicialComplex.from_facets(facets)
        integral = betti(x, "integer")
        if integral.torsion == ():
            assert betti(x, "gf2").betti == integral.betti


def test_betti_invariant_under_barycentric_subdivision():
    for x in (hollow_triangle(), full_triangle()):
        sub = order_complex(face_poset(x))
        assert betti(sub).betti == betti(x).betti
        assert betti(sub, "integer").betti == betti(x, "integer").betti


def test_betti_euler_consistency_randomized():
    rng = random.Random(107)
    for _ in range(20):
        verts = range(rng.randint(1, 6))
        facets = [tuple(rng.sample(verts, rng.randint(1, len(verts))))
                  for _ in range(rng.randint(1, 4))]
        x = SimplicialComplex.from_facets(facets)
        b = betti(x).betti
        assert sum((-1) ** k * v for k, v in enumerate(b)) == x.euler_characteristic()


def test_execute_simplicial_collapse():
    x = full_triangle()
    seq = CollapseSequence("simplicial", (((0, 1), (0, 1, 2)), ((0,), (0, 2))))
    remaining, report = execute_collapses(x, seq)
    assert report.valid and report.failed_step is None
    assert report.step_dims == ((1, 2), (0, 1))
    assert sorted(remaining) == [(1,), (1, 2), (2,)]


def test_execute_rejects_non_free_face():
    x = full_triangle()
    # (0,) has two cofaces, so removing it first is illegal
    seq = CollapseSequence("simplicial", (((0,), (0, 1)),))
    remaining, report = execute_collapses(x, seq)
    assert not report.valid and report.failed_step == 0
    assert "not free" in report.detail
    assert len(remaining) == 7  # nothing was removed


def test_execute_rejects_missing_cells_and_mode_mismatch():
    x = full_triangle()
    _, report = execute_collapses(
        x, CollapseSequence("simplicial", (((3,), (3, 4)),))
    )
    assert not report.valid and "absent" in report.detail
    with pytest.raises(ValueError):
        execute_collapses(x, CollapseSequence("cw", ((0, 1),)))
    with pytest.raises(ValueError):
        execute_collapses(hom_triangle(), CollapseSequence("simplicial", ()))
    with pytest.raises(TypeError):
        execute_collapses([1], CollapseSequence("cw", ()))


def hom_triangle():
    # Hom(K1, K3): a cell is one nonempty subset of {0, 1, 2}, so the cells are the full triangle's faces
    return enumerate_hom_cells(edgeless(1), complete(3))


def triangle_cell(hom):
    """A map from each simplex of the triangle to the id of its Hom(K1, K3) cell."""
    return lambda s: hom.cell_index[(sum(1 << v for v in s),)]


def test_execute_cw_collapse():
    hom = hom_triangle()
    cell = triangle_cell(hom)
    seq = CollapseSequence("cw", ((cell((0, 1)), cell((0, 1, 2))), (cell((0,)), cell((0, 2)))))
    remaining, report = execute_collapses(hom, seq)
    assert report.valid and report.step_dims == ((1, 2), (0, 1))
    # the survivors keep their original ids
    assert remaining == {cell((1,)), cell((1, 2)), cell((2,))}


def test_execute_cw_detects_dependent_steps_out_of_order():
    hom = hom_triangle()
    cell = triangle_cell(hom)
    swapped = ((cell((0,)), cell((0, 2))), (cell((0, 1)), cell((0, 1, 2))))
    _, report = execute_collapses(hom, CollapseSequence("cw", swapped))
    assert not report.valid and report.failed_step == 0


def _triangle_in(mode):
    """The full triangle as a replay ambient, and a map from its simplices
    to the cells that name them in that mode."""
    if mode == "simplicial":
        return full_triangle(), lambda s: s
    hom = hom_triangle()
    return hom, triangle_cell(hom)


# Illegal steps on the full triangle, each replayed after the legal step
# (0, 1) < (0, 1, 2); the detail is built from the mode's cell names.
TRIANGLE_REJECTIONS = {
    "free-absent": (((0, 1), (0, 1, 2)), lambda c: f"free cell {c((0, 1))} is absent"),
    "coface-absent": (((0,), (0, 1)), lambda c: f"coface {c((0, 1))} is absent"),
    "not-covering": (((0,), (1, 2)), lambda c: f"{c((1, 2))} does not cover {c((0,))}"),
    "not-free": (((2,), (0, 2)), lambda c: f"cell {c((2,))} is not free: {c((1, 2))} also covers it"),
}


def _rejection_cases():
    for mode in ("simplicial", "cw"):
        ambient, cell = _triangle_in(mode)
        first = (cell((0, 1)), cell((0, 1, 2)))
        for name, ((free, cof), detail) in TRIANGLE_REJECTIONS.items():
            steps = (first, (cell(free), cell(cof)))
            yield pytest.param(ambient, mode, steps, detail(cell), id=f"{mode}-{name}")


@pytest.mark.parametrize("ambient, mode, steps, detail", list(_rejection_cases()))
def test_execute_rejection_branches(ambient, mode, steps, detail):
    remaining, report = execute_collapses(ambient, CollapseSequence(mode, steps))
    assert not report.valid and report.failed_step == 1
    assert report.detail == f"step 1: {detail}"
    assert len(report.step_dims) == 1
    before = set(ambient.simplices if mode == "simplicial" else range(len(ambient)))
    assert remaining == before - set(steps[0])


def _tampered(rng, steps, cells, poset=None):
    """The steps as built, then each kind of tampering at random positions;
    given the poset of a simplicial plan, also two that name a tuple that
    is no chain of it."""
    yield "as built", steps
    if len(steps) < 2:
        return
    i, j = sorted(rng.sample(range(len(steps)), 2))
    free, cof = steps[i]
    yield "swap", steps[:i] + (steps[j],) + steps[i + 1 : j] + (steps[i],) + steps[j + 1 :]
    yield "drop", steps[:i] + steps[i + 1 :]
    yield "repeat", steps[: j + 1] + (steps[i],) + steps[j + 1 :]
    yield "exchange", steps[:i] + ((cof, free),) + steps[i + 1 :]
    yield "retarget", steps[:i] + ((free, rng.choice(cells)),) + steps[i + 1 :]
    cell = rng.choice((free, cof))
    yield "same cell", steps[:i] + ((cell, cell),) + steps[i + 1 :]
    if poset is None:
        return
    # both are stamped: step i's cells and (a,) are named by no earlier step
    yield "unsorted", steps[:i] + ((free[::-1], cof[::-1]),) + steps[i + 1 :]
    named = set(itertools.chain.from_iterable(steps[:i]))
    unnamed = [a for a in poset.ids if (a,) not in named]
    incomparable = ((a, b) for a in unnamed for b in poset.ids if not (poset.le(a, b) or poset.le(b, a)))
    a, b = next(incomparable, (None, None))
    if a is not None:
        yield "incomparable", steps[:i] + (((a,), tuple(sorted((a, b)))),) + steps[i + 1 :]


def test_replay_matches_the_step_by_step_reference(monkeypatch):
    # the one-pass replay against reference_replay, which counts remaining
    # cofaces and fires one step at a time, on plans of both sides of random
    # (G, H) pairs with loops, as built and tampered; side-first plans replay
    # a second time on their poset, whose order complex is built only when a
    # step names a tuple that is no chain
    built = []
    monkeypatch.setattr(homology, "order_complex", lambda p: built.append(p) or order_complex(p))
    rng = random.Random(2027)
    problems = {"simplicial": set(), "cw": set()}
    fallbacks = set()
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 3), 0.7, loops=True)
        h = random_graph(rng, rng.randint(2, 4), 0.7, loops=True)
        side = rng.choice(("first", "second"))
        folds = find_folds(g if side == "first" else h)
        if not folds:
            continue
        w = rng.choice(folds)
        if side == "first":
            try:
                plan = first_arg_collapse(g, h, w, max_cells=3000)
            except ResourceLimitError:
                continue
            poset = plan.hom.poset
            ambient = order_complex(poset)
            cells = sorted(ambient.simplices)
        else:
            plan = second_arg_collapse(g, h, w)
            poset, ambient, cells = None, plan.hom, range(len(plan.hom))
        mode = plan.sequence.mode
        for kind, steps in _tampered(rng, plan.sequence.steps, cells, poset):
            seq = CollapseSequence(mode, steps)
            got, want = execute_collapses(ambient, seq), reference_replay(ambient, seq)
            assert got == want, (kind, g, h, w)
            if poset is not None:
                built.clear()
                assert execute_collapses(poset, seq) == want, (kind, g, h, w)
                assert built == ([poset] if kind in ("unsorted", "incomparable") else []), (kind, g, h, w)
                if built:
                    fallbacks.add(kind)
            assert want[1].valid or kind != "as built"
            if not want[1].valid:
                problems[mode].add(re.sub(r"[0-9(), ]+", " ", want[1].detail.split(": ", 1)[1]).strip())
    assert fallbacks == {"unsorted", "incomparable"}
    # in both modes the tampered plans reached every kind of illegal step but
    # "coface is not maximal", which a replay on a closed complex never reaches
    # (a coface over free below a remaining cell leaves free a second coface)
    for mode, seen in problems.items():
        assert seen == {"free cell is absent", "coface is absent", "does not cover", "cell is not free: also covers it"}, mode


def test_replay_reads_simplices_given_as_lists():
    plan = first_arg_collapse(path_graph(3), complete(3), FoldWitness(0, 2))
    ambient, steps = order_complex(plan.hom.poset), plan.sequence.steps
    details = []
    for tuples in (steps, steps[:1] + steps, steps[1:]):  # as built, step 0 repeated, step 0 dropped
        lists = tuple(([*free], [*cof]) for free, cof in tuples)
        want = execute_collapses(ambient, CollapseSequence("simplicial", tuples))
        assert execute_collapses(ambient, CollapseSequence("simplicial", lists)) == want
        details.append(want[1].detail)
    # the report names the cells as tuples either way
    assert details == [
        None,
        "step 1: free cell (0, 1) is absent",
        "step 1: cell (1,) is not free: (0, 1) also covers it",
    ]


def test_compare_collapse_pass_and_failure_modes():
    p = FacePoset(range(3), [(0, 1), (1, 2)])
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    seq = collapse_sequence_from_closure(phi, "descending")
    ambient = order_complex(p)
    expected = {(0,), (1,), (0, 1)}
    good = compare_collapse(ambient, seq, expected)
    assert good.all_pass and good.failed_step is None and good.failure is None
    assert good.betti_before == good.betti_after == (1,)

    # wrong survivor set
    bad_expected = compare_collapse(ambient, seq, {(0,), (1,)})
    assert bad_expected.valid and not bad_expected.remaining_matches
    assert not bad_expected.all_pass
    assert bad_expected.failure == "survivors differ from the target"

    # swapping dependent steps breaks validity at the first step
    swapped = CollapseSequence("simplicial", (seq.steps[1], seq.steps[0]))
    broken = compare_collapse(ambient, swapped, expected)
    assert not broken.valid and broken.failed_step == 0
    assert not broken.all_pass and broken.failure.startswith("step 0: ")

    # dropping a step leaves extra survivors
    partial = CollapseSequence("simplicial", seq.steps[:1])
    short = compare_collapse(ambient, partial, expected)
    assert short.valid and not short.remaining_matches
    assert short.failure == "survivors differ from the target"


def test_compare_collapse_names_the_first_failed_check():
    # Hom(K1, K2) is an edge: cell 1 = ({0, 1},) covers 0 = ({0},) and 2 = ({1},)
    edge = enumerate_hom_cells(edgeless(1), complete(2))
    seq = CollapseSequence("cw", ((0, 1),))
    assert compare_collapse(edge, seq, {2}).failure is None
    # every face of a product cell has one dimension less, so only a report
    # of a legal replay that removed a (0, 2) pair reaches the Euler check
    skewed = CollapseReport(True, None, ((0, 2),))
    for target in ({2}, {0}):  # the Euler check comes before the survivors
        verdict = _judge(skewed, {2}, target, betti(edge), betti(edge))
        assert verdict.valid and verdict.failure == "a step did not remove a (k, k+1) pair"
    # Hom(K2, K2) is two points, whose Betti numbers differ from an edge's;
    # side-first plans compare two complexes other than the replay's
    points = betti(enumerate_hom_cells(complete(2), complete(2)))
    remaining, report = execute_collapses(edge, seq)
    verdict = _judge(report, remaining, {2}, betti(edge), points)
    assert verdict.betti_after == (2,) and verdict.failure == "betti numbers differ"
    # the survivors come before the pullback, and the pullback before the Betti numbers
    pullback = "target cells do not pull back one-to-one onto Hom(G - v, H)"
    verdict = _judge(report, remaining, {0}, betti(edge), points, pullback)
    assert verdict.failure == "survivors differ from the target"
    verdict = _judge(report, remaining, {2}, betti(edge), points, pullback)
    assert not verdict.remaining_matches
    assert verdict.failure == pullback


def test_compare_collapse_cw_mode_uses_cellular_homology():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    verdict = compare_collapse(plan.hom, plan.sequence, plan.target_cells, "integer")
    assert verdict.all_pass
    assert verdict.betti_before == (2,)


def test_compare_collapse_cw_mode_judges_a_stopped_replay():
    # the survivors of legal steps are a subcomplex, so their cellular Betti
    # numbers exist wherever the replay stops
    plan = second_arg_collapse(complete(2), k4_pendant(), FoldWitness(4, 1))
    steps = plan.sequence.steps
    # two legal steps, then the first again, whose cells are gone
    stopped = compare_collapse(plan.hom, CollapseSequence("cw", steps[:2] + steps[:1]), plan.target_cells)
    assert not stopped.valid and stopped.failed_step == 2
    assert stopped.betti_after == stopped.betti_before == (1, 0, 1)
    partial = compare_collapse(plan.hom, CollapseSequence("cw", steps[:1]), plan.target_cells, "integer")
    assert partial.valid and not partial.remaining_matches
    assert partial.betti_after == partial.betti_before == (1, 0, 1)


def test_cw_survivors_are_a_down_set():
    # legal steps remove maximal cells only, so the survivors are a down-set,
    # also where the replay stops
    plan = second_arg_collapse(complete(2), k4_pendant(), FoldWitness(4, 1))
    steps = plan.sequence.steps
    lower = plan.hom.poset.lower
    for prefix in (steps, steps[:1], steps[:2] + steps[:1]):
        remaining, _ = execute_collapses(plan.hom, CollapseSequence("cw", prefix))
        assert remaining < set(range(len(plan.hom)))
        assert all(set(lower[i]) <= remaining for i in remaining)


@pytest.mark.parametrize("poset", [
    # a Hom's face poset and a simplex's face poset: neither is a HomComplex
    pytest.param(enumerate_hom_cells(complete(2), complete(3)).poset, id="no-labels"),
    pytest.param(face_poset(full_triangle()), id="simplex-labels"),
])
def test_betti_and_replay_reject_a_face_poset(poset):
    # cellular homology and the cw replay read a HomComplex's cells, never poset labels
    with pytest.raises(TypeError):
        betti(poset)
    with pytest.raises(TypeError):
        execute_collapses(poset, CollapseSequence("cw", ()))
    with pytest.raises(TypeError):
        compare_collapse(poset, CollapseSequence("cw", ()), set(poset.ids))


@pytest.mark.parametrize("g, h", [
    pytest.param(complete(2), complete(5), id="K2-K5"),
    pytest.param(cycle(5), complete(4), id="C5-K4"),
    # K4 with a loop at every vertex
    pytest.param(path_graph(3), Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a, 4)]), id="P3-K4r"),
])
def test_cellular_boundary_of_boundary_vanishes(g, h):
    # the product-rule signs compose to zero over the integers
    _assert_boundary_squares_to_zero(enumerate_hom_cells(g, h))


def _assert_boundary_squares_to_zero(x):
    sizes, boundary = _chains(x)
    assert len(sizes) > 2  # at least one composite to check
    for d in range(2, len(sizes)):
        below = boundary(d - 1)
        for column in boundary(d):
            acc = {}
            for mid, a in column.items():
                for row, b in below[mid].items():
                    acc[row] = acc.get(row, 0) + a * b
            assert not any(acc.values())


def _cone(x, apex):
    return SimplicialComplex(list(x.simplices) + [s + (apex,) for s in x.simplices] + [(apex,)])


def _seeded_order_complex():
    rng = random.Random(127)
    return max((order_complex(random_poset(rng, 12)) for _ in range(20)), key=lambda x: (x.dim(), len(x)))


@pytest.mark.parametrize("space", [
    pytest.param(lambda: SimplicialComplex.from_facets(RP2_FACETS), id="RP2"),
    pytest.param(_seeded_order_complex, id="order-complex"),
    pytest.param(lambda: _cone(SimplicialComplex.from_facets(RP2_FACETS), 6), id="cone-RP2"),
])
def test_simplicial_boundary_of_boundary_vanishes(space):
    # the (-1)^k signs of dropping the k-th vertex compose to zero over the integers
    _assert_boundary_squares_to_zero(space())


def _product(*factors):
    """A product of simplicial complexes as a HomComplex, one vertex bitmask
    per factor in each cell, and its face poset, whose covers add one
    vertex to one factor.  The complex's graphs only size its cells: it is
    read through facets(), never through upper_covers()."""
    simplices = [sorted(x.simplices) for x in factors]
    cells = list(itertools.product(*simplices))
    index = {c: k for k, c in enumerate(cells)}
    covers = [
        (index[c[:x] + (a[:j] + a[j + 1 :],) + c[x + 1 :]], index[c])
        for c in cells for x, a in enumerate(c) if len(a) > 1 for j in range(len(a))
    ]
    masks = tuple(tuple(sum(1 << v for v in a) for a in c) for c in cells)
    width = max(v for x in factors for v in x.vertices()) + 1
    hom = HomComplex(edgeless(len(factors)), edgeless(width), masks)
    return hom, FacePoset(range(len(cells)), covers)


SPACES = {
    "rp2": lambda: SimplicialComplex.from_facets(RP2_FACETS),
    "segment": lambda: SimplicialComplex.from_facets([(0, 1)]),
    "circle": hollow_triangle,
}


@pytest.mark.parametrize("factors", [
    pytest.param(("rp2", "segment"), id="RP2xI"),
    pytest.param(("circle", "circle", "segment"), id="torusxI"),
    pytest.param(("rp2", "circle"), id="RP2xS1"),
])
def test_product_cell_boundary_of_boundary_vanishes(factors):
    # the signs of facets() compose to zero on cells that no Hom enumerates
    cells, _ = _product(*(SPACES[f]() for f in factors))
    _assert_boundary_squares_to_zero(cells)


@pytest.mark.parametrize("factors, integral", [
    pytest.param(("rp2",), BettiVector((1,), ((), (2,))), id="RP2"),
    pytest.param(("rp2", "segment"), BettiVector((1,), ((), (2,))), id="RP2xI"),
    pytest.param(("circle", "circle"), BettiVector((1, 2, 1), ()), id="torus"),
])
def test_cellular_betti_matches_order_complex_with_torsion(factors, integral):
    cells, poset = _product(*(SPACES[f]() for f in factors))
    oracle = order_complex(poset)
    for coefficients in ("gf2", "integer"):
        assert betti(cells, coefficients) == betti(oracle, coefficients)
    assert betti(cells, "integer") == integral


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hom_k2_kn_is_a_sphere(n):
    # Hom(K2, Kn) is homotopy equivalent to S^(n-2) (Babson-Kozlov)
    p = enumerate_hom_cells(complete(2), complete(n))
    sphere = (1,) + (0,) * (n - 3) + (1,)
    assert betti(p).betti == sphere
    integral = betti(p, "integer")
    assert integral.betti == sphere and integral.torsion == ()


def test_hom_c5_k4_is_projective_space():
    # Hom(C5, K4) has the homology of RP^3 (Csorba-Lutz): Z/2 in H_1
    p = enumerate_hom_cells(cycle(5), complete(4))
    integral = betti(p, "integer")
    assert integral.betti == (1, 0, 0, 1)
    assert integral.torsion == ((), (2,))
    assert betti(p).betti == (1, 1, 1, 1)


def test_verdict_json_schema():
    p = FacePoset(range(2), [(0, 1)])
    phi = PosetMap(p, p, {0: 0, 1: 0})
    seq = collapse_sequence_from_closure(phi, "descending")
    verdict = compare_collapse(order_complex(p), seq, {(0,)})
    data = as_read(verdict.to_json())
    assert set(data) == {
        "valid", "failed_step", "euler_invariant",
        "betti_before", "betti_after", "remaining_matches",
    }
    assert data["valid"] is True and data["failed_step"] is None
    assert data["betti_before"] == [1] and data["remaining_matches"] is True


def test_boundary_of_boundary_vanishes():
    # the library's signed boundary matrices compose to zero, over the integers
    rng = random.Random(109)
    for _ in range(10):
        verts = range(rng.randint(3, 6))
        facets = [tuple(rng.sample(verts, rng.randint(2, len(verts))))
                  for _ in range(3)]
        _assert_boundary_squares_to_zero(SimplicialComplex.from_facets(facets))


def test_collapse_preserves_betti_randomized():
    rng = random.Random(113)
    for _ in range(30):
        p = random_poset(rng, 8)
        phi = random_descending_closure(rng, p)
        seq = collapse_sequence_from_closure(phi, "descending")
        ambient = order_complex(p)
        expected = set(image_subposet(phi).chains())
        verdict = compare_collapse(ambient, seq, expected)
        assert verdict.all_pass, verdict
