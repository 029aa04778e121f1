import gc
import itertools
import random
import tracemalloc

import pytest

from homcollapse import (
    FoldError,
    FoldWitness,
    Matching,
    apply_fold,
    alpha_beta_maps,
    cell_dim,
    enumerate_hom_cells,
    find_folds,
    first_arg_collapse,
    induced_contravariant,
    induced_covariant,
    order_complex,
    phi_psi_maps,
    second_arg_collapse,
    verify_acyclic_matching,
    verify_closure_operator,
    verify_plan,
)
from helpers import as_read, cell_vertex_sets, complete, cycle, loop_fold_pair, path_graph, random_graph, star


def cells_named(hom):
    return {cell_vertex_sets(c): i for i, c in enumerate(hom.cells)}


def test_alpha_beta_on_path_into_triangle():
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    alpha, beta = alpha_beta_maps(hom, FoldWitness(0, 2))
    assert verify_closure_operator(alpha, "ascending").ok
    assert verify_closure_operator(beta, "descending").ok
    named = cells_named(hom)
    # eta(0) grows by eta(2), then gets overwritten by it
    a = named[((0,), (1,), (2,))]
    grown = named[((0, 2), (1,), (2,))]
    assert alpha.map[a] == grown
    assert beta.map[grown] == named[((2,), (1,), (2,))]
    # fixed cells of alpha are exactly those with eta(0) containing eta(2)
    for cid, cell in enumerate(hom.cells):
        assert (alpha.map[cid] == cid) == (cell[2] & ~cell[0] == 0)
    # beta's image pins the two coordinates equal
    for cid in beta.map.values():
        assert hom.cells[cid][0] == hom.cells[cid][2]


def test_alpha_beta_reject_bad_witness():
    hom = enumerate_hom_cells(complete(3), complete(3))
    with pytest.raises(FoldError):
        alpha_beta_maps(hom, FoldWitness(0, 1))


def test_first_arg_collapse_path_triangle():
    plan = first_arg_collapse(path_graph(3), complete(3), FoldWitness(0, 2))
    assert plan.side == "first"
    assert plan.sequence.mode == "simplicial"
    assert len(plan.hom.cells) == 30
    assert len(plan.target_cells) == 12
    verdict = verify_plan(plan)
    assert verdict.all_pass
    assert verdict.betti_before == (1, 1)  # a circle, as for the smaller complex


def test_verify_first_holds_no_order_complex():
    # judging the 12,924 steps on Hom(C4, K4) peaks below building the
    # order complex of its cell poset, which the replay streams instead
    plan = first_arg_collapse(cycle(4), complete(4), FoldWitness(0, 2))
    peaks = []
    for build in (lambda: order_complex(plan.hom.poset), lambda: verify_plan(plan)):
        gc.collect()  # empties the free lists, so both peaks count every object made
        tracemalloc.start()
        try:
            result = build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(plan.sequence) == 12924 and result.all_pass
    complex_peak, verify_peak = peaks
    assert verify_peak < complex_peak, peaks


def test_first_arg_collapse_matches_folded_complex():
    g, h = path_graph(3), complete(3)
    w = FoldWitness(0, 2)
    plan = first_arg_collapse(g, h, w)
    folded, f, i = apply_fold(g, w)
    hom_folded = enumerate_hom_cells(folded, h)
    res = induced_contravariant(i, plan.hom, hom_folded)
    ident = {c: res[c] for c in plan.target_cells}
    # the fixed subposet is carried bijectively onto the folded complex
    assert sorted(ident.values()) == list(range(len(hom_folded.cells)))
    for a, b in itertools.combinations(plan.target_cells, 2):
        assert plan.hom.poset.le(a, b) == hom_folded.poset.le(ident[a], ident[b])


def test_first_arg_collapse_on_star():
    plan = first_arg_collapse(star(2), complete(2), FoldWitness(1, 2))
    verdict = verify_plan(plan)
    assert verdict.all_pass
    assert verdict.betti_before == (2,)  # Hom(star, K2) is two points


def test_first_arg_collapse_with_loops():
    g = loop_fold_pair()
    plan = first_arg_collapse(g, g, FoldWitness(0, 1))
    verdict = verify_plan(plan)
    assert verdict.all_pass


def test_first_arg_collapse_empty_complex():
    plan = first_arg_collapse(path_graph(3), complete(1), FoldWitness(0, 2))
    assert len(plan.hom.cells) == 0
    assert plan.sequence.steps == ()
    assert verify_plan(plan).all_pass


def test_first_arg_requires_fold():
    with pytest.raises(FoldError):
        first_arg_collapse(complete(3), complete(3), FoldWitness(0, 1))


def test_second_arg_collapse_edge_into_path():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    assert plan.side == "second" and plan.sequence.mode == "cw"
    named = cells_named(plan.hom)
    expected_steps = (
        (named[((0,), (1,))], named[((0, 2), (1,))]),
        (named[((1,), (0,))], named[((1,), (0, 2))]),
    )
    assert plan.sequence.steps == expected_steps
    assert set(plan.target_cells) == {named[((1,), (2,))], named[((2,), (1,))]}
    verdict = verify_plan(plan)
    assert verdict.all_pass
    assert verdict.betti_before == (2,)


def test_second_arg_retained_avoid_folded_vertex():
    plan = second_arg_collapse(path_graph(3), path_graph(3), FoldWitness(0, 2))
    for cid in plan.target_cells:
        assert all(0 not in vs for vs in cell_vertex_sets(plan.hom.cells[cid]))
    for free, cof in plan.sequence.steps:
        assert cell_dim(plan.hom.cells[cof]) == cell_dim(plan.hom.cells[free]) + 1


def test_second_arg_collapse_respects_vertex_order():
    w = FoldWitness(0, 2)
    base = second_arg_collapse(path_graph(3), path_graph(3), w)
    assert base.vertex_order == (0, 1, 2)
    alt = second_arg_collapse(path_graph(3), path_graph(3), w, vertex_order=(2, 0, 1))
    assert alt.vertex_order == (2, 0, 1)
    va = verify_plan(base)
    vb = verify_plan(alt)
    assert va.all_pass and vb.all_pass
    assert va == vb  # the verdict is order-independent
    assert base.target_cells == alt.target_cells
    with pytest.raises(ValueError):
        second_arg_collapse(path_graph(3), path_graph(3), w, vertex_order=(0, 1))


def test_second_arg_pairs_form_acyclic_matching():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    m = Matching(plan.hom.poset, frozenset(plan.sequence.steps), frozenset(plan.target_cells))
    ok, cert = verify_acyclic_matching(m)
    assert ok, cert


def test_second_arg_step_order_is_scan_position_then_dimension():
    plan = second_arg_collapse(path_graph(3), path_graph(3), FoldWitness(0, 2))
    order = plan.vertex_order
    keys = []
    for free, _ in plan.sequence.steps:
        cell = plan.hom.cells[free]
        pos = next(k for k, x in enumerate(order) if 0 in cell_vertex_sets(cell)[x])
        keys.append((pos, -cell_dim(cell), free))
    assert keys == sorted(keys)


def test_phi_psi_on_edge_into_path():
    hom = enumerate_hom_cells(complete(2), path_graph(3))
    phi, psi = phi_psi_maps(hom, FoldWitness(0, 2))
    assert verify_closure_operator(phi, "ascending").ok
    assert verify_closure_operator(psi, "descending").ok
    named = cells_named(hom)
    start = named[((1,), (0,))]
    widened = named[((1,), (0, 2))]
    assert phi.map[start] == widened
    assert psi.map[widened] == named[((1,), (2,))]
    for cid in psi.map.values():
        assert all(0 not in vs for vs in cell_vertex_sets(hom.cells[cid]))


def test_composites_factor_through_folded_complexes():
    """beta after alpha is restriction along the inclusion; psi after phi is
    the pushforward along the fold retraction."""
    rng = random.Random(89)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 3), 0.7, loops=True)
        h = random_graph(rng, rng.randint(1, 3), 0.7, loops=True)
        folds = find_folds(g)
        if not folds:
            continue
        checked += 1
        w = folds[0]
        folded, f, i = apply_fold(g, w)

        hom = enumerate_hom_cells(g, h)
        alpha, beta = alpha_beta_maps(hom, w)
        hom_folded = enumerate_hom_cells(folded, h)
        res = induced_contravariant(i, hom, hom_folded)
        for c in range(len(hom.cells)):
            assert res[beta.map[alpha.map[c]]] == res[c]

        homhg = enumerate_hom_cells(h, g)
        phi, psi = phi_psi_maps(homhg, w)
        hom_target = enumerate_hom_cells(h, folded)
        push = induced_covariant(f, homhg, hom_target)
        for c in range(len(homhg.cells)):
            assert push[psi.map[phi.map[c]]] == push[c]
    assert checked >= 10


def test_plan_json_shape():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    data = as_read(plan.to_json())
    assert data["side"] == "second" and data["v"] == 0 and data["u"] == 2
    # the scan runs over the domain graph's vertices
    assert data["vertex_order"] == [0, 1]
    assert data["sequence"]["mode"] == "cw"
    assert all(set(s) == {"free", "coface"} for s in data["sequence"]["steps"])
    assert data["retained"] == retained_reading(plan)

    plan2 = first_arg_collapse(path_graph(3), complete(3), FoldWitness(0, 2))
    data2 = as_read(plan2.to_json())
    assert data2["vertex_order"] is None
    assert data2["sequence"]["mode"] == "simplicial"
    assert data2["retained"] == retained_reading(plan2)


def retained_reading(plan):
    """What a plan's JSON "retained" reads, found without the plan's own span
    rule: the sorted simplices of the whole order complex whose entries are
    all target cells (side first), or the ids of the cells whose sets all
    avoid the folded vertex (side second)."""
    if plan.side == "first":
        target = set(plan.target_cells)
        return [list(s) for s in sorted(order_complex(plan.hom.poset).simplices) if target.issuperset(s)]
    vbit = 1 << plan.witness.v
    return [cid for cid, cell in enumerate(plan.hom.cells) if not any(m & vbit for m in cell)]


def test_plan_json_retained_on_random_pairs():
    # the "retained" bytes of collapse --out, on both sides, beyond the pinned digests
    rng = random.Random(97)
    seen = {"first": 0, "second": 0}
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 4), 0.6, loops=True)
        h = random_graph(rng, rng.randint(1, 3), 0.7, loops=True)
        for w in find_folds(g)[:1]:
            for plan in (first_arg_collapse(g, h, w), second_arg_collapse(h, g, w)):
                assert as_read(plan.to_json())["retained"] == retained_reading(plan)
                seen[plan.side] += len(plan.target_cells) < len(plan.hom)  # some steps to replay
    assert min(seen.values()) >= 10
