import random

import pytest

from homcollapse import (
    ClosureError,
    CollapseSequence,
    FacePoset,
    Matching,
    PosetMap,
    ResourceLimitError,
    alpha_beta_maps,
    betti,
    collapse_sequence_from_closure,
    enumerate_hom_cells,
    execute_collapses,
    face_poset,
    find_folds,
    image_subposet,
    morse_matching_from_closure,
    order_complex,
    phi_psi_maps,
    random_descending_closure,
    random_poset,
    verify_acyclic_matching,
    verify_closure_operator,
)
from homcollapse.closure import MAX_RANDOM_ELEMENTS
from helpers import (
    as_read,
    brute_le,
    disconnected_graph_fixture,
    disconnected_graphs,
    face_poset_simplices,
    loop_fold_pair,
    loop_vertex,
    loopless_iso_classes,
    reference_closure_steps,
    reflexive_k2,
)


def chain_poset(n):
    return FacePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def test_collapse_sequence_on_three_chain():
    p = chain_poset(3)
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    seq = collapse_sequence_from_closure(phi, "descending")
    # the 2 is swallowed along 1: first the top pair, then the edge pair
    assert seq.steps == (((0, 2), (0, 1, 2)), ((2,), (1, 2)))
    remaining, report = execute_collapses(order_complex(p), seq)
    assert report.valid
    assert sorted(remaining) == [(0,), (0, 1), (1,)]


def test_collapse_sequence_on_vee():
    p = FacePoset([0, 1, 2], [(0, 1), (0, 2)])
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 0})
    seq = collapse_sequence_from_closure(phi, "descending")
    assert seq.steps == (((2,), (0, 2)),)


def test_collapse_frontier_takes_the_smallest_free_id():
    # 4 < 1 < 0 and 4 < 3: 1 and 3 start free, and removing 1 frees 0, which
    # goes before the waiting 3 because its id is smaller
    p = FacePoset([0, 1, 3, 4], [(4, 1), (1, 0), (4, 3)])
    phi = PosetMap(p, p, dict.fromkeys(p.ids, 4))
    seq = collapse_sequence_from_closure(phi, "descending")
    assert seq.steps == (
        ((0, 1), (0, 1, 4)),
        ((1,), (1, 4)),
        ((0,), (0, 4)),
        ((3,), (3, 4)),
    )
    remaining, report = execute_collapses(order_complex(p), seq)
    assert report.valid and remaining == {(4,)}


def test_identity_closure_collapses_nothing():
    p = chain_poset(4)
    seq = collapse_sequence_from_closure(PosetMap(p, p, {i: i for i in p.ids}), "descending")
    assert seq.steps == ()


def test_random_poset_size_is_bounded():
    # one bit is drawn per pair of the n elements, so n has a ceiling
    rng = random.Random(3)
    assert 1 <= len(random_poset(rng, MAX_RANDOM_ELEMENTS)) <= MAX_RANDOM_ELEMENTS
    for bad in (0, MAX_RANDOM_ELEMENTS + 1):
        with pytest.raises(ValueError, match="max_elements"):
            random_poset(rng, bad)


def test_random_poset_covers_are_its_hasse_diagram():
    rng = random.Random(29)
    for k in range(40):
        p = random_poset(rng, (5, 10, 20, MAX_RANDOM_ELEMENTS)[k % 4])
        lt = brute_le(p)
        hasse = {(a, b) for a, b in lt if not any((a, c) in lt and (c, b) in lt for c in p.ids)}
        assert set(p.covers) == hasse


def test_ascending_is_descending_on_dual():
    rng = random.Random(61)
    for _ in range(25):
        p = random_poset(rng, 8)
        phi = random_descending_closure(rng, p)
        down = collapse_sequence_from_closure(phi, "descending")
        dual_phi = PosetMap(p.dual(), p.dual(), phi.map)
        up = collapse_sequence_from_closure(dual_phi, "ascending")
        assert down.steps == up.steps


def _fold_closures():
    """Both closure pairs of every fold of the acceptance corpus, with their
    directions, on each Hom within the acceptance caps (1500 cells, 20000
    chains)."""
    corpus = dict(loopless_iso_classes(4), loop1=loop_vertex(), k2_refl=reflexive_k2(), loopfold=loop_fold_pair())
    for g in corpus.values():
        for w in find_folds(g)[:1]:
            for h in corpus.values():
                for pair, maps in (((g, h), alpha_beta_maps), ((h, g), phi_psi_maps)):
                    try:
                        hom = enumerate_hom_cells(*pair, 1500)
                        hom.poset.chain_counts(20000)
                    except ResourceLimitError:
                        continue
                    grow, shrink = maps(hom, w)
                    yield grow, "ascending"
                    yield shrink, "descending"


def test_builder_matches_the_product_form_reference():
    # each link's chains, enumerated at once, are the product form's joins in the same order
    rng = random.Random(131)
    cases = []
    for _ in range(40):
        p = random_poset(rng, 10)
        cases.append((random_descending_closure(rng, p), "descending"))
        cases.append((PosetMap(p, p, random_descending_closure(rng, p.dual()).map), "ascending"))
    cases += _fold_closures()
    assert len(cases) > 500
    for phi, direction in cases:
        assert collapse_sequence_from_closure(phi, direction).steps == reference_closure_steps(phi, direction)


def test_collapse_rejects_non_closures():
    p = chain_poset(3)
    with pytest.raises(ClosureError, match="idempotence"):
        collapse_sequence_from_closure(PosetMap(p, p, {0: 0, 1: 0, 2: 1}), "descending")
    with pytest.raises(ClosureError, match="comparison"):
        collapse_sequence_from_closure(PosetMap(p, p, {0: 0, 1: 1, 2: 1}), "ascending")
    with pytest.raises(ValueError):
        collapse_sequence_from_closure(PosetMap(p, p, {i: i for i in p.ids}), "diagonal")


def test_collapse_lands_exactly_on_image_randomized():
    rng = random.Random(67)
    for _ in range(60):
        p = random_poset(rng, 9)
        phi = random_descending_closure(rng, p)
        seq = collapse_sequence_from_closure(phi, "descending")
        remaining, report = execute_collapses(order_complex(p), seq)
        assert report.valid, report.detail
        image_chains = set(image_subposet(phi).chains())
        assert remaining == image_chains
        # steps come in weakly decreasing dimension per element removed
        assert all(hi == lo + 1 for lo, hi in report.step_dims)


def test_matching_on_three_chain():
    p = chain_poset(3)
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    m = morse_matching_from_closure(phi)
    chains = face_poset_simplices(order_complex(p))
    named_pairs = {(chains[a], chains[b]) for a, b in m.pairs}
    assert named_pairs == {((2,), (1, 2)), ((0, 2), (0, 1, 2))}
    critical = {chains[c] for c in m.critical}
    assert critical == {(0,), (1,), (0, 1)}
    ok, cert = verify_acyclic_matching(m)
    assert ok and cert is None


def test_matching_identity_closure_leaves_all_critical():
    p = chain_poset(3)
    m = morse_matching_from_closure(PosetMap(p, p, {i: i for i in p.ids}))
    assert not m.pairs
    assert m.critical == frozenset(m.poset.ids)


def test_matching_properties_randomized():
    rng = random.Random(71)
    for _ in range(40):
        p = random_poset(rng, 8)
        phi = random_descending_closure(rng, p)
        m = morse_matching_from_closure(phi)
        ok, cert = verify_acyclic_matching(m)
        assert ok, cert
        # critical cells are exactly the chains inside the image
        image = set(phi.map.values())
        chains = face_poset_simplices(order_complex(p))
        assert m.poset.ids == tuple(range(len(chains)))
        for cid, chain in enumerate(chains):
            inside = all(x in image for x in chain)
            assert (cid in m.critical) == inside
        # every non-critical chain is in exactly one pair
        touched = [c for pair in m.pairs for c in pair]
        assert len(touched) == len(set(touched))
        assert set(touched) | set(m.critical) == set(m.poset.ids)
        # pairs are covers
        coverset = set(m.poset.covers)
        assert all(pair in coverset for pair in m.pairs)


def test_matching_critical_count_bounds_betti():
    # weak Morse inequality, checked over GF(2)
    rng = random.Random(73)
    for _ in range(15):
        p = random_poset(rng, 7)
        phi = random_descending_closure(rng, p)
        m = morse_matching_from_closure(phi)
        chains = face_poset_simplices(order_complex(p))
        crit_by_dim = {}
        for c in m.critical:
            d = len(chains[c]) - 1
            crit_by_dim[d] = crit_by_dim.get(d, 0) + 1
        b = betti(order_complex(p)).betti
        for d, bd in enumerate(b):
            assert crit_by_dim.get(d, 0) >= bd


def test_verify_acyclic_matching_rejects_bad_input():
    p = face_poset(order_complex(chain_poset(3)))
    with pytest.raises(ValueError, match="not a cover"):
        verify_acyclic_matching(Matching(p, frozenset({(0, 5)}), frozenset()))
    # ids 0,1,2 are vertices; find two covers sharing an endpoint
    a = p.covers[0]
    b = next(c for c in p.covers if c != a and (c[0] in a or c[1] in a))
    with pytest.raises(ValueError, match="not a matching"):
        verify_acyclic_matching(Matching(p, frozenset({a, b}), frozenset()))


def test_verify_acyclic_matching_finds_cycle():
    # rotating matching on the triangle boundary: a closed V-path
    from homcollapse import SimplicialComplex

    tri = SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])
    p = face_poset(tri)
    by_label = {s: i for i, s in enumerate(face_poset_simplices(tri))}
    pairs = frozenset({
        (by_label[(0,)], by_label[(0, 1)]),
        (by_label[(1,)], by_label[(1, 2)]),
        (by_label[(2,)], by_label[(0, 2)]),
    })
    ok, cert = verify_acyclic_matching(Matching(p, pairs, frozenset()))
    assert not ok
    assert cert and len(cert) == 6
    # certificate is a genuine closed walk in the reversed Hasse digraph
    assert len(set(cert)) == len(cert)
    edges = {(a, b) if (a, b) in pairs else (b, a) for a, b in p.covers}
    assert all(step in edges for step in zip(cert, cert[1:] + cert[:1]))


def test_matching_agrees_with_collapse_removals():
    rng = random.Random(79)
    for _ in range(20):
        p = random_poset(rng, 7)
        phi = random_descending_closure(rng, p)
        seq = collapse_sequence_from_closure(phi, "descending")
        m = morse_matching_from_closure(phi)
        seq_pairs = {(a, b) for a, b in seq.steps}
        chains = face_poset_simplices(order_complex(p))
        named = {(chains[a], chains[b]) for a, b in m.pairs}
        assert seq_pairs == named


def test_fixture_sizes_and_laws():
    for n, total in ((3, 3), (4, 25)):
        poset, phi = disconnected_graph_fixture(n)
        assert len(poset) == total
        assert verify_closure_operator(phi, "ascending").ok
    with pytest.raises(ValueError):
        disconnected_graph_fixture(2)
    with pytest.raises(ValueError):
        disconnected_graph_fixture(7)


def test_fixture_covers_are_single_edge_insertions():
    poset, _ = disconnected_graph_fixture(4)
    graphs = disconnected_graphs(4)
    for a, b in poset.covers:
        ea, eb = set(graphs[a]), set(graphs[b])
        assert ea < eb and len(eb - ea) == 1


def test_fixture_collapse_and_homology():
    poset, phi = disconnected_graph_fixture(4)
    seq = collapse_sequence_from_closure(phi, "ascending")
    remaining, report = execute_collapses(order_complex(poset), seq)
    assert report.valid
    image = image_subposet(phi)
    assert remaining == set(image.chains())
    assert betti(order_complex(poset)).betti == (1, 6)
    assert betti(order_complex(image)).betti == (1, 6)


def test_sequence_json_round_trip():
    p = chain_poset(3)
    phi = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    seq = collapse_sequence_from_closure(phi, "descending")
    data = as_read(seq.to_json())
    assert data["mode"] == "simplicial"
    assert data["steps"][0] == {"free": [0, 2], "coface": [0, 1, 2]}
    assert CollapseSequence.from_json(data) == seq
    cw = CollapseSequence("cw", ((3, 7),))
    assert CollapseSequence.from_json(as_read(cw.to_json())) == cw
    with pytest.raises(ValueError):
        CollapseSequence("cubical", ())
