import itertools
import math
import random

import pytest

from homcollapse import (
    CollapseSequence,
    FacePoset,
    FoldWitness,
    PosetMap,
    SimplicialComplex,
    betti,
    collapse_sequence_from_closure,
    compare_collapse,
    execute_collapses,
    f_vector,
    face_poset,
    gf2_rank,
    image_subposet,
    order_complex,
    random_descending_closure,
    random_poset,
    second_arg_collapse,
    smith_invariant_factors,
)

from helpers import complete, path_graph

RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def hollow_triangle():
    return SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])


def full_triangle():
    return SimplicialComplex.from_facets([(0, 1, 2)])


def test_f_vector_dispatch():
    assert f_vector(full_triangle()) == (3, 3, 1)
    assert f_vector(face_poset(full_triangle())) == (3, 3, 1)
    assert f_vector(SimplicialComplex([])) == ()
    with pytest.raises(TypeError):
        f_vector([1, 2, 3])


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
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
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


def test_smith_normal_form_known_matrices():
    assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[0, 0], [0, 0]]) == []
    assert smith_invariant_factors([[6]]) == [6]
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([]) == []


def test_smith_factors_divisibility_randomized():
    rng = random.Random(101)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        factors = smith_invariant_factors(mat)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        # the first factor is the gcd of all entries (the 1 x 1 minors)
        if factors:
            assert factors[0] == math.gcd(*(v for row in mat for v in row))


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
    assert not integral.torsion_free()


def test_betti_modes_agree_without_torsion():
    rng = random.Random(103)
    for _ in range(25):
        verts = range(rng.randint(1, 6))
        facets = [tuple(rng.sample(verts, rng.randint(1, min(4, len(verts)))))
                  for _ in range(rng.randint(1, 5))]
        x = SimplicialComplex.from_facets(facets)
        integral = betti(x, "integer")
        if integral.torsion_free():
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
    assert sorted(remaining.simplices) == [(1,), (1, 2), (2,)]


def test_execute_rejects_non_free_face():
    x = full_triangle()
    # (0,) has two cofaces, so removing it first is illegal
    seq = CollapseSequence("simplicial", (((0,), (0, 1)),))
    remaining, report = execute_collapses(x, seq)
    assert not report.valid and report.failed_step == 0
    assert "not free" in report.detail
    assert len(remaining) == 7  # nothing was removed


def test_execute_rejects_non_maximal_coface():
    # in a closed simplicial complex a free face's unique coface is always
    # maximal, so drive this branch through the cw executor on a bare chain
    p = FacePoset(range(3), [(0, 1), (1, 2)], dims={0: 0, 1: 1, 2: 2})
    _, report = execute_collapses(p, CollapseSequence("cw", ((0, 1),)))
    assert not report.valid and report.failed_step == 0
    assert "not maximal" in report.detail and "2" in report.detail


def test_execute_rejects_missing_cells_and_mode_mismatch():
    x = full_triangle()
    _, report = execute_collapses(
        x, CollapseSequence("simplicial", (((3,), (3, 4)),))
    )
    assert not report.valid and "absent" in report.detail
    with pytest.raises(ValueError):
        execute_collapses(x, CollapseSequence("cw", ((0, 1),)))
    with pytest.raises(ValueError):
        execute_collapses(face_poset(x), CollapseSequence("simplicial", ()))
    with pytest.raises(TypeError):
        execute_collapses([1], CollapseSequence("cw", ()))


def test_execute_cw_collapse():
    p = face_poset(full_triangle())
    by_label = {p.label_of[i]: i for i in p.ids}
    seq = CollapseSequence("cw", (
        (by_label[(0, 1)], by_label[(0, 1, 2)]),
        (by_label[(0,)], by_label[(0, 2)]),
    ))
    remaining, report = execute_collapses(p, seq)
    assert report.valid
    assert sorted(p.label_of[i] for i in remaining.ids) == [(1,), (1, 2), (2,)]
    # the restriction keeps original ids
    assert set(remaining.ids) <= set(p.ids)


def test_execute_cw_detects_dependent_steps_out_of_order():
    p = face_poset(full_triangle())
    by_label = {p.label_of[i]: i for i in p.ids}
    good = (
        (by_label[(0, 1)], by_label[(0, 1, 2)]),
        (by_label[(0,)], by_label[(0, 2)]),
    )
    swapped = (good[1], good[0])
    _, report = execute_collapses(p, CollapseSequence("cw", swapped))
    assert not report.valid and report.failed_step == 0


def _triangle_in(mode):
    """The full triangle as a replay ambient, and a map from its simplices
    to the cells that name them in that mode."""
    x = full_triangle()
    if mode == "simplicial":
        return x, lambda s: s
    p = face_poset(x)
    by_label = {p.label_of[i]: i for i in p.ids}
    return p, by_label.__getitem__


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
    # in a closed simplicial complex a free face's unique coface is always
    # maximal, so only a cw ambient reaches this branch
    p = FacePoset(range(5), [(0, 1), (1, 2), (3, 4)], dims={0: 0, 1: 1, 2: 2, 3: 0, 4: 1})
    yield pytest.param(p, "cw", ((3, 4), (0, 1)), "coface 1 is not maximal: 2 remains", id="cw-not-maximal")


@pytest.mark.parametrize("ambient, mode, steps, detail", list(_rejection_cases()))
def test_execute_rejection_branches(ambient, mode, steps, detail):
    remaining, report = execute_collapses(ambient, CollapseSequence(mode, steps))
    assert not report.valid and report.failed_step == 1
    assert report.detail == f"step 1: {detail}"
    assert len(report.step_dims) == 1
    if mode == "simplicial":
        before, after = set(ambient.simplices), set(remaining.simplices)
    else:
        before, after = set(ambient.ids), set(remaining.ids)
    assert after == before - set(steps[0])


def test_compare_collapse_pass_and_failure_modes():
    p = FacePoset(range(3), [(0, 1), (1, 2)])
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    seq = collapse_sequence_from_closure(p, phi, "descending")
    ambient = order_complex(p)
    expected = {(0,), (1,), (0, 1)}
    good = compare_collapse(ambient, seq, expected)
    assert good.all_pass and good.failed_step is None
    assert good.betti_before == good.betti_after == (1,)

    # wrong survivor set
    bad_expected = compare_collapse(ambient, seq, {(0,), (1,)})
    assert bad_expected.valid and not bad_expected.remaining_matches
    assert not bad_expected.all_pass

    # swapping dependent steps breaks validity at the first step
    swapped = CollapseSequence("simplicial", (seq.steps[1], seq.steps[0]))
    broken = compare_collapse(ambient, swapped, expected)
    assert not broken.valid and broken.failed_step == 0
    assert not broken.all_pass

    # dropping a step leaves extra survivors
    partial = CollapseSequence("simplicial", seq.steps[:1])
    short = compare_collapse(ambient, partial, expected)
    assert short.valid and not short.remaining_matches


def test_compare_collapse_cw_mode_uses_order_complexes():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    verdict = compare_collapse(plan.ambient, plan.sequence, plan.retained, "integer")
    assert verdict.all_pass
    assert verdict.betti_before == (2,)


def test_verdict_json_schema():
    p = FacePoset(range(2), [(0, 1)])
    phi = PosetMap(p, p, {0: 0, 1: 0})
    seq = collapse_sequence_from_closure(p, phi, "descending")
    verdict = compare_collapse(order_complex(p), seq, {(0,)})
    data = verdict.to_json()
    assert set(data) == {
        "valid", "failed_step", "euler_invariant",
        "betti_before", "betti_after", "remaining_matches",
    }
    assert data["valid"] is True and data["failed_step"] is None
    assert data["betti_before"] == [1] and data["remaining_matches"] is True


def test_boundary_of_boundary_vanishes():
    # signed boundary matrices compose to zero, over the integers
    rng = random.Random(109)
    for _ in range(10):
        verts = range(rng.randint(3, 6))
        facets = [tuple(rng.sample(verts, rng.randint(2, len(verts))))
                  for _ in range(3)]
        x = SimplicialComplex.from_facets(facets)
        by_dim = {}
        for s in x.simplices:
            by_dim.setdefault(len(s) - 1, []).append(s)
        for d in by_dim:
            by_dim[d].sort()
        for d in range(2, max(by_dim) + 1):
            rows = {s: i for i, s in enumerate(by_dim[d - 2])}
            mids = {s: i for i, s in enumerate(by_dim[d - 1])}
            acc = {}
            for s in by_dim[d]:
                for k in range(len(s)):
                    t = s[:k] + s[k + 1 :]
                    for l in range(len(t)):
                        r = t[:l] + t[l + 1 :]
                        sign = (-1) ** (k + l)
                        acc[(rows[r], s)] = acc.get((rows[r], s), 0) + sign
            assert all(v == 0 for v in acc.values())


def test_collapse_preserves_betti_randomized():
    rng = random.Random(113)
    for _ in range(30):
        p = random_poset(rng, 8)
        phi = random_descending_closure(rng, p)
        seq = collapse_sequence_from_closure(p, phi, "descending")
        ambient = order_complex(p)
        expected = set(image_subposet(phi).chains())
        verdict = compare_collapse(ambient, seq, expected)
        assert verdict.all_pass, verdict
