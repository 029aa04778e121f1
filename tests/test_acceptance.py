"""End-to-end suite: one test per numbered shipping criterion.

Each test prints a single always-visible line

    [criterion N] PASS|FAIL <details, measured runtime vs its budget>

Criteria 3 and 4 sweep ordered pairs from a fixed corpus: one labeled
representative of every loopless isomorphism class on at most 4 vertices
(18 graphs) plus three looped shapes.  Pairs whose hom complex exceeds
1500 cells or whose order complex exceeds 20000 chains are skipped to keep
the suite inside its time budget; the skip counts are themselves pinned so
the guard cannot silently eat coverage.  Criterion 9 checks cellular
homology and chain counts against the order complex on the same capped
pairs.
"""

import itertools
import json
import random
import time

import pytest

from homcollapse import (
    Matching,
    ResourceLimitError,
    SimplicialComplex,
    alpha_beta_maps,
    apply_fold,
    betti,
    collapse_sequence_from_closure,
    compare_collapse,
    enumerate_hom_cells,
    execute_collapses,
    find_folds,
    first_arg_collapse,
    image_subposet,
    induced_contravariant,
    induced_covariant,
    morse_matching_from_closure,
    order_complex,
    phi_psi_maps,
    random_descending_closure,
    random_poset,
    second_arg_collapse,
    verify_acyclic_matching,
    verify_closure_operator,
    verify_plan,
)
from homcollapse.cli import main as cli_main

from helpers import (
    cell_vertex_sets,
    disconnected_graph_fixture,
    face_poset_simplices,
    loop_fold_pair,
    loop_vertex,
    loopless_iso_classes,
    reflexive_k2,
    sub_complex,
)

CELL_CAP = 1500
CHAIN_CAP = 20000


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


def chain_count(p):
    # chains starting at x: 1 + sum over everything above x
    c = {}
    for x in sorted(p.ids, key=lambda i: len(p.above(i))):
        c[x] = 1 + sum(c[y] for y in p.above(x))
    return sum(c.values())


@pytest.fixture(scope="module")
def corpus():
    graphs = dict(loopless_iso_classes(4))
    graphs["loop1"] = loop_vertex()
    graphs["k2_refl"] = reflexive_k2()
    graphs["loopfold"] = loop_fold_pair()
    return graphs


@pytest.fixture(scope="module")
def foldable(corpus):
    return [(name, g, find_folds(g)[0]) for name, g in corpus.items() if find_folds(g)]


def _guarded_hom(g, h):
    """The hom complex when it fits the caps, else None."""
    try:
        hom = enumerate_hom_cells(g, h, CELL_CAP)
    except ResourceLimitError:
        return None
    if chain_count(hom.poset) > CHAIN_CAP:
        return None
    return hom


@pytest.fixture(scope="module")
def closure_suite():
    rng = random.Random(20260814)
    t0 = time.perf_counter()
    failures = []
    step_dims = []
    cases = 0
    while cases < 200:
        p = random_poset(rng, 10)
        phi = random_descending_closure(rng, p)
        seq = collapse_sequence_from_closure(phi, "descending")
        ambient = order_complex(p)
        image_chains = set(image_subposet(phi).chains())
        verdict = compare_collapse(ambient, seq, image_chains)
        if not verdict.all_pass:
            failures.append(f"case {cases}: verdict {verdict.to_json()}")
        _, report = execute_collapses(ambient, seq)
        step_dims.append(report.step_dims)

        m = morse_matching_from_closure(phi)
        ok, certificate = verify_acyclic_matching(m)
        if not ok:
            failures.append(f"case {cases}: matching cycle {certificate}")
        chains = face_poset_simplices(ambient)
        critical_chains = {chains[i] for i in m.critical}
        if critical_chains != image_chains:
            failures.append(f"case {cases}: critical cells are not the image chains")
        cases += 1
    return {
        "cases": cases,
        "failures": failures,
        "step_dims": step_dims,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def first_sweep(corpus, foldable):
    t0 = time.perf_counter()
    records, failures, skipped = [], [], 0
    for gname, g, w in foldable:
        for hname, h in corpus.items():
            if _guarded_hom(g, h) is None:
                skipped += 1
                continue
            # the guard already holds cells to CELL_CAP and chains to CHAIN_CAP; the
            # builder's one budget bounds both, so the larger cap never fires here
            plan = first_arg_collapse(g, h, w, CHAIN_CAP)
            verdict = verify_plan(plan)
            if not verdict.all_pass:
                # a target that does not pull back onto Hom(G - v, H) is named in failure
                failures.append(f"Hom({gname}, {hname}): {verdict.failure}: {verdict.to_json()}")
            ambient = order_complex(plan.hom.poset)
            remaining, report = execute_collapses(ambient, plan.sequence)
            # the order complexes of Hom(G, H) and of the survivors are the oracle
            oracle = (betti(ambient).betti, betti(SimplicialComplex(remaining, check=False)).betti)
            if (verdict.betti_before, verdict.betti_after) != oracle:
                failures.append(
                    f"Hom({gname}, {hname}): cellular betti {verdict.to_json()} against {oracle}"
                )
            records.append({"g": gname, "h": hname, "step_dims": report.step_dims})
    return {
        "records": records,
        "failures": failures,
        "skipped": skipped,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def second_sweep(corpus, foldable):
    rng = random.Random(2026)
    t0 = time.perf_counter()
    records, failures, skipped = [], [], 0
    for gname, g, w in foldable:
        for hname, h in corpus.items():
            hom = _guarded_hom(h, g)
            if hom is None:
                skipped += 1
                continue
            plan = second_arg_collapse(h, g, w, None, CELL_CAP)
            verdict = verify_plan(plan)
            if not verdict.all_pass:
                failures.append(f"Hom({hname}, {gname}): {verdict.to_json()}")
            matching = Matching(
                plan.hom.poset, frozenset(plan.sequence.steps), frozenset(plan.target_cells)
            )
            acyclic, certificate = verify_acyclic_matching(matching)
            if not acyclic:
                failures.append(f"Hom({hname}, {gname}): pairing cycle {certificate}")
            remaining, report = execute_collapses(plan.hom, plan.sequence)
            if not all(set(plan.hom.poset.lower[i]) <= remaining for i in remaining):
                failures.append(f"Hom({hname}, {gname}): survivors are not a down-set")
            dims = [report.step_dims]
            for _ in range(3):
                order = list(range(h.n))
                rng.shuffle(order)
                alt = second_arg_collapse(h, g, w, tuple(order), CELL_CAP)
                alt_verdict = verify_plan(alt)
                if alt_verdict.to_json() != verdict.to_json():
                    failures.append(
                        f"Hom({hname}, {gname}): verdict changed under order {order}"
                    )
                dims.append(execute_collapses(alt.hom, alt.sequence)[1].step_dims)
            records.append({"g": gname, "h": hname, "step_dims_all": dims})
    return {
        "records": records,
        "failures": failures,
        "skipped": skipped,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_1_hexagon(capsys):
    ok, detail = False, "crashed"
    try:
        t0 = time.perf_counter()
        from helpers import complete

        hom = enumerate_hom_cells(complete(2), complete(3))
        fv = tuple(len([c for c in hom.cells if sum(bin(s).count("1") for s in c) == d + 2])
                   for d in range(2))
        # oracle: ordered pairs of disjoint nonempty subsets of a 3-set
        subsets = [frozenset(s) for r in (1, 2, 3)
                   for s in itertools.combinations(range(3), r)]
        oracle = sorted(
            (tuple(sorted(a)), tuple(sorted(b)))
            for a in subsets for b in subsets if not a & b
        )
        assert sorted(cell_vertex_sets(c) for c in hom.cells) == oracle
        assert fv == (6, 6)
        b = betti(order_complex(hom.poset)).betti
        assert b == (1, 1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        ok, detail = True, f"f-vector (6, 6), betti (1, 1), {elapsed:.2f}s < 1s"
    finally:
        announce(capsys, 1, ok, detail)


def test_criterion_2_closure_collapse_suite(closure_suite, capsys):
    ok, detail = False, "crashed"
    try:
        assert closure_suite["cases"] >= 200
        assert not closure_suite["failures"], closure_suite["failures"][:5]
        assert closure_suite["elapsed"] < 30.0
        ok = True
        detail = (f"{closure_suite['cases']} random closures collapsed onto their "
                  f"images, matchings acyclic, {closure_suite['elapsed']:.1f}s < 30s")
    finally:
        announce(capsys, 2, ok, detail)


def test_criterion_3_first_argument_sweep(first_sweep, capsys):
    ok, detail = False, "crashed"
    try:
        assert not first_sweep["failures"], first_sweep["failures"][:5]
        # 15 foldable graphs x 21 graphs, minus the pairs over the caps
        assert len(first_sweep["records"]) == 241
        assert first_sweep["skipped"] == 74
        assert first_sweep["elapsed"] < 120.0
        ok = True
        detail = (f"241 hom complexes collapsed and verified, cellular betti equal to the "
                  f"order complex's and targets one-to-one onto Hom(G - v, H) (74 over the "
                  f"resource caps skipped), {first_sweep['elapsed']:.1f}s < 120s")
    finally:
        announce(capsys, 3, ok, detail)


def test_criterion_4_second_argument_sweep(second_sweep, capsys):
    ok, detail = False, "crashed"
    try:
        assert not second_sweep["failures"], second_sweep["failures"][:5]
        assert len(second_sweep["records"]) == 257
        assert second_sweep["skipped"] == 58
        assert second_sweep["elapsed"] < 120.0
        ok = True
        detail = (f"257 cw plans verified with acyclic pairings and 3 shuffled scan "
                  f"orders each (58 skipped), {second_sweep['elapsed']:.1f}s < 120s")
    finally:
        announce(capsys, 4, ok, detail)


def test_criterion_5_factorization_identities(corpus, foldable, first_sweep, second_sweep, capsys):
    ok, detail = False, "crashed"
    try:
        witness = {name: w for name, _, w in foldable}
        checked = 0
        for rec in first_sweep["records"]:
            g, h, w = corpus[rec["g"]], corpus[rec["h"]], witness[rec["g"]]
            folded, f, i = apply_fold(g, w)
            hom = enumerate_hom_cells(g, h, CELL_CAP)
            alpha, beta = alpha_beta_maps(hom, w)
            res = induced_contravariant(i, hom, enumerate_hom_cells(folded, h, CELL_CAP))
            for c in range(len(hom.cells)):
                assert res[beta.map[alpha.map[c]]] == res[c], (rec, c)
            checked += len(hom.cells)
        for rec in second_sweep["records"]:
            g, h, w = corpus[rec["g"]], corpus[rec["h"]], witness[rec["g"]]
            folded, f, i = apply_fold(g, w)
            hom = enumerate_hom_cells(h, g, CELL_CAP)
            phi, psi = phi_psi_maps(hom, w)
            push = induced_covariant(f, hom, enumerate_hom_cells(h, folded, CELL_CAP))
            for c in range(len(hom.cells)):
                assert push[psi.map[phi.map[c]]] == push[c], (rec, c)
            checked += len(hom.cells)
        ok = True
        detail = f"both composites factor through the folded complex on {checked} cells"
    finally:
        announce(capsys, 5, ok, detail)


def test_criterion_6_end_to_end_verify(tmp_path, capsys):
    ok, detail = False, "crashed"
    try:
        l3 = tmp_path / "l3.g"
        l3.write_text("n 3\ne 0 1\ne 1 2\n")
        k3 = tmp_path / "k3.g"
        k3.write_text("n 3\ne 0 1\ne 0 2\ne 1 2\n")
        out = tmp_path / "verdict.json"
        code = cli_main([
            "verify", "-G", str(l3), "-H", str(k3),
            "--fold-vertex", "0", "--side", "first", "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ambient_cells"] == 30
        assert payload["target_cells"] == 12
        assert payload["verdict"]["valid"] is True
        assert payload["verdict"]["remaining_matches"] is True
        ok = True
        detail = "cli verify exit 0, ambient cells 30, target cells 12"
    finally:
        announce(capsys, 6, ok, detail)


def test_criterion_7_partition_fixture(capsys):
    ok, detail = False, "crashed"
    try:
        t0 = time.perf_counter()
        p, phi = disconnected_graph_fixture(4)
        assert len(p) == 25
        assert verify_closure_operator(phi, "ascending").ok
        image = image_subposet(phi)
        assert len(image) == 13
        big = betti(order_complex(p), "integer")
        small = betti(order_complex(image), "integer")
        assert big.betti == (1, 6) and big.torsion == ()
        assert small.betti == (1, 6) and small.torsion == ()
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        ok = True
        detail = (f"25-element poset and its 13-element closure image both have "
                  f"integral betti (1, 6), {elapsed:.1f}s < 10s")
    finally:
        announce(capsys, 7, ok, detail)


def test_criterion_8_stepwise_euler_invariance(closure_suite, first_sweep, second_sweep, capsys):
    ok, detail = False, "crashed"
    try:
        all_dims = list(closure_suite["step_dims"])
        all_dims += [rec["step_dims"] for rec in first_sweep["records"]]
        for rec in second_sweep["records"]:
            all_dims += rec["step_dims_all"]
        steps = 0
        for dims in all_dims:
            for lo, hi in dims:
                assert hi == lo + 1, (lo, hi)
                steps += 1
        assert steps > 0
        ok = True
        detail = (f"every one of {steps} steps across {len(all_dims)} executed plans "
                  f"removed a (k, k+1) pair")
    finally:
        announce(capsys, 8, ok, detail)


def test_criterion_9_cellular_homology_matches_order_complex(corpus, foldable, second_sweep, capsys):
    # the simplicial betti of the order complex is the oracle for the cellular path
    ok, detail = False, "crashed"
    try:
        t0 = time.perf_counter()
        complexes = []
        for g in corpus.values():
            for h in corpus.values():
                hom = _guarded_hom(g, h)
                if hom is not None:
                    complexes.append((hom, hom.poset))
        folds = {name: w for name, _, w in foldable}
        for rec in second_sweep["records"]:
            g, h = corpus[rec["g"]], corpus[rec["h"]]
            plan = second_arg_collapse(h, g, folds[rec["g"]], None, CELL_CAP)
            retained = sub_complex(plan.hom, plan.target_cells)
            complexes.append((retained, plan.hom.poset.restrict(plan.target_cells)))
        # each cell complex with its face poset, whose order complex is the oracle
        for cells, p in complexes:
            oracle = order_complex(p)
            assert p.chain_counts() == oracle.f_vector(), f"{len(p)} cells"
            for coefficients in ("gf2", "integer"):
                assert betti(cells, coefficients) == betti(oracle, coefficients), (
                    f"{len(p)} cells, {coefficients}"
                )
        assert len(complexes) == 365 + 257
        elapsed = time.perf_counter() - t0
        ok = True
        detail = (f"cellular betti equals the order complex's over GF(2) and Z, and chain "
                  f"counts its f-vector, on 365 hom complexes and 257 retained "
                  f"subcomplexes, {elapsed:.1f}s")
    finally:
        announce(capsys, 9, ok, detail)
