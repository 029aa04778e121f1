import itertools
import json
import math
import random

import pytest

from homcollapse import (
    CollapseSequence,
    FacePoset,
    PosetMap,
    ResourceLimitError,
    SimplicialComplex,
    face_poset,
    image_subposet,
    order_complex,
    random_poset,
    verify_closure_operator,
)
from helpers import as_read, brute_chains, brute_le, disconnected_graph_fixture


def chain_poset(n):
    return FacePoset(range(n), [(i, i + 1) for i in range(n - 1)])


def vee():
    # a < b, a < c
    return FacePoset([0, 1, 2], [(0, 1), (0, 2)])


def test_poset_rejects_cycles_and_bad_covers():
    with pytest.raises(ValueError):
        FacePoset([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        FacePoset([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        FacePoset([0, 0], [])
    with pytest.raises(ValueError):
        FacePoset([0], [(0, 0)])


def test_covers_given_shuffled_and_repeated_build_the_same_poset():
    rng = random.Random(23)
    for _ in range(60):
        p = random_poset(rng, 10)
        # ids in an order that is not sorted, so the cover order has to be made
        name = dict(zip(p.ids, rng.sample(range(100), len(p))))
        ids = [name[i] for i in p.ids]
        unique = sorted((name[a], name[b]) for a, b in p.covers)
        given = unique + rng.choices(unique, k=len(unique) // 2)
        rng.shuffle(given)
        q, ref = FacePoset(ids, given), FacePoset(ids, unique)
        assert q.covers == ref.covers == tuple(unique)
        assert q.upper == ref.upper and q.lower == ref.lower
        assert all(ys == tuple(sorted(set(ys))) for ys in q.upper.values())
        assert q.to_json() == ref.to_json()
        # covers may come from a one-shot iterator, and are derived, never stored
        once = FacePoset(ids, iter(given))
        assert once.covers == q.covers and once.upper == q.upper and once.lower == q.lower
        assert once.to_json() == q.to_json()
        assert "covers" not in vars(q)


def test_reachability_on_chain():
    p = chain_poset(4)
    assert p.above(0) == {1, 2, 3}
    assert p.below(3) == {0, 1, 2}
    assert p.le(1, 3) and not p.le(3, 1)
    assert p.le(2, 2)


def test_reachability_is_built_one_direction_at_a_time():
    p, q = chain_poset(4), chain_poset(4)
    assert p.below(3) == {0, 1, 2} and vars(p)["_above"] is None
    assert q.above(0) == {1, 2, 3} and vars(q)["_below"] is None


def test_reachability_matches_brute_closure():
    rng = random.Random(11)
    for _ in range(40):
        p = random_poset(rng, 9)
        lt = brute_le(p)
        for a in p.ids:
            assert p.above(a) == {b for x, b in lt if x == a}
            assert p.below(a) == {x for x, b in lt if b == a}


def test_chains_match_brute_enumeration():
    rng = random.Random(13)
    for _ in range(30):
        p = random_poset(rng, 8)
        assert sorted(p.chains()) == sorted(brute_chains(p))


def test_chain_count_and_chains_within():
    rng = random.Random(17)
    for _ in range(30):
        p = random_poset(rng, 8)
        chains = brute_chains(p)
        counts = p.chain_counts()
        assert sum(counts) == len(p.chains()) == len(chains)
        assert counts == tuple(sum(len(c) == k for c in chains) for k in range(1, max(map(len, chains)) + 1))
        # ids outside the poset are ignored, and only chains inside within come out
        within = {i for i in p.ids if rng.random() < 0.5} | {-1, len(p)}
        assert p.chains(within=within) == [c for c in p.chains() if set(c) <= within]
    assert chain_poset(20).chain_counts() == tuple(math.comb(20, k) for k in range(1, 21))


def test_chain_counts_stop_at_the_budget():
    # 3 + 3 + 1 chains on a 3-element chain
    assert chain_poset(3).chain_counts(max_chains=7) == (3, 3, 1)
    for p in (chain_poset(3), chain_poset(200)):  # 2**200 - 1 chains are never counted in full
        with pytest.raises(ResourceLimitError, match="chain count exceeded the budget of 6"):
            p.chain_counts(max_chains=6)


def test_from_facets_stops_at_the_budget():
    assert len(SimplicialComplex.from_facets([(0, 1, 2), (1, 2, 3)], max_simplices=11)) == 11
    for facets in ([(0, 1, 2), (1, 2, 3)], [range(40)]):  # 2**40 - 1 simplices are never built
        with pytest.raises(ResourceLimitError, match="budget of 10"):
            SimplicialComplex.from_facets(facets, max_simplices=10)
    with pytest.raises(ResourceLimitError):
        SimplicialComplex.from_json({"vertices": [0, 1, 2, 3], "facets": [[0, 1, 2]]}, max_simplices=7)


def test_order_complex_shapes():
    assert sorted(order_complex(FacePoset([0, 1, 2], [])).simplices) == [(0,), (1,), (2,)]
    full = order_complex(chain_poset(3))
    assert full.f_vector() == (3, 3, 1)  # a 2-simplex: chains of a 3-chain
    assert order_complex(vee()).f_vector() == (3, 2)


def test_order_complex_of_empty_poset():
    x = order_complex(FacePoset([], []))
    assert len(x) == 0 and x.f_vector() == ()


def test_face_poset_of_triangle_boundary():
    x = SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])
    p = face_poset(x)
    assert len(p) == 6
    assert sorted(p.dim_of.values()) == [0, 0, 0, 1, 1, 1]
    # barycentric subdivision of a circle is a hexagon
    assert order_complex(p).f_vector() == (6, 6)


def test_face_poset_of_full_triangle():
    p = face_poset(SimplicialComplex.from_facets([(0, 1, 2)]))
    assert len(p) == 7
    assert order_complex(p).f_vector() == (7, 12, 6)
    # covers drop exactly one vertex
    for a, b in p.covers:
        assert len(p.label_of[b]) == len(p.label_of[a]) + 1
        assert set(p.label_of[a]) < set(p.label_of[b])


def test_face_poset_chains_equal_flag_count_randomized():
    rng = random.Random(5)
    for _ in range(20):
        verts = range(rng.randint(1, 5))
        facets = [rng.sample(verts, rng.randint(1, len(verts))) for _ in range(3)]
        x = SimplicialComplex.from_facets(facets)
        p = face_poset(x)
        # chains in the face poset are flags of simplices
        assert sorted(p.chains()) == sorted(brute_chains(p))


def test_restrict_keeps_ids_and_recomputes_covers():
    p = chain_poset(4)
    q = p.restrict([0, 2, 3])
    assert q.ids == (0, 2, 3)
    assert q.covers == ((0, 2), (2, 3))  # 0 < 2 became a cover
    assert q.le(0, 3)


def test_dual_is_involution():
    rng = random.Random(2)
    for _ in range(20):
        p = random_poset(rng, 8)
        dd = p.dual().dual()
        assert dd.ids == p.ids and dd.covers == p.covers


def test_simplicial_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex([(0, 1)])  # missing faces
    with pytest.raises(ValueError):
        SimplicialComplex([(1, 0)])  # unsorted
    with pytest.raises(ValueError):
        SimplicialComplex([()])
    x = SimplicialComplex.from_facets([(0, 1, 2)])
    assert len(x) == 7 and x.facets() == [(0, 1, 2)]


def test_f_vector_and_euler():
    x = SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2)])
    assert x.f_vector() == (3, 3)
    assert x.euler_characteristic() == 0
    assert SimplicialComplex.from_facets([(0, 1, 2)]).euler_characteristic() == 1


def test_poset_json_round_trip():
    p = face_poset(SimplicialComplex.from_facets([(0, 1, 2)]))
    data = as_read(p.to_json())
    q = FacePoset.from_json(data)
    assert q.ids == p.ids and q.covers == p.covers
    assert q.dim_of == p.dim_of
    assert {"id", "dim", "label"} == set(data["elements"][0])


def test_poset_json_rejects_transitive_cover():
    data = {
        "elements": [{"id": 0, "dim": 0, "label": None},
                     {"id": 1, "dim": 1, "label": None},
                     {"id": 2, "dim": 2, "label": None}],
        "covers": [[0, 1], [1, 2], [0, 2]],
    }
    with pytest.raises(ValueError, match="transitive"):
        FacePoset.from_json(data)


def test_poset_json_names_the_first_transitive_cover():
    # the message names the first transitive cover in covers order, and the
    # least element between its ends
    rng = random.Random(43)
    tried = 0
    for _ in range(60):
        p = random_poset(rng, 8)
        extra = sorted((a, b) for a in p.ids for b in p.above(a) if b not in p.upper[a])
        if not extra:
            continue
        tried += 1
        data = as_read(p.to_json())
        data["covers"] += [list(c) for c in rng.sample(extra, min(2, len(extra)))]
        q = FacePoset(p.ids, map(tuple, data["covers"]))
        a, b = next((a, b) for a, b in q.covers if q.above(a) & q.below(b))
        message = f"cover ({a}, {b}) is transitive: {min(q.above(a) & q.below(b))} lies between"
        with pytest.raises(ValueError) as caught:
            FacePoset.from_json(data)
        assert str(caught.value) == message
    assert tried >= 20


def test_poset_json_reads_reachability_downward_only():
    p = FacePoset.from_json(as_read(chain_poset(30).to_json()))
    assert p.chain_counts()[:2] == (30, 435)
    assert vars(p)["_above"] is None


def test_complex_json_round_trip():
    x = SimplicialComplex.from_facets([(0, 1, 2), (2, 3)])
    data = as_read(x.to_json())
    assert data["vertices"] == [0, 1, 2, 3]
    assert SimplicialComplex.from_json(data).simplices == x.simplices
    with pytest.raises(ValueError):
        SimplicialComplex.from_json({"vertices": [0], "facets": [[0, 1]]})


# One template per integer field of the three JSON readers; X is replaced
# by a JSON number that is not an integer, or by a bool.
NON_INTEGER_FIELDS = {
    "complex-facet": (SimplicialComplex, '{"vertices": [0, 1], "facets": [[0, X]]}'),
    "complex-vertex": (SimplicialComplex, '{"vertices": [0, X], "facets": [[0]]}'),
    "poset-id": (FacePoset, '{"elements": [{"id": 0, "dim": 0}, {"id": X, "dim": 0}], "covers": []}'),
    "poset-dim": (FacePoset, '{"elements": [{"id": 0, "dim": X}], "covers": []}'),
    "poset-cover": (
        FacePoset,
        '{"elements": [{"id": 0, "dim": 0}, {"id": 1, "dim": 1}], "covers": [[0, X]]}',
    ),
    "cw-step": (CollapseSequence, '{"mode": "cw", "steps": [{"free": 0, "coface": X}]}'),
    "simplicial-step": (
        CollapseSequence,
        '{"mode": "simplicial", "steps": [{"free": [0], "coface": [0, X]}]}',
    ),
}


@pytest.mark.parametrize("token", ["1e400", "1.5", "true"])
@pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
def test_json_readers_accept_only_integers(field, token):
    # 1e400 reads as inf (int() raises OverflowError); 1.5 and true would
    # otherwise be truncated to 1
    reader, template = NON_INTEGER_FIELDS[field]
    with pytest.raises(ValueError, match="is not an integer"):
        reader.from_json(json.loads(template.replace("X", token)))


def test_verify_closure_operator_laws():
    p = chain_poset(3)
    good = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    assert verify_closure_operator(good, "descending").ok
    assert not verify_closure_operator(good, "ascending").ok

    not_idem = PosetMap(p, p, {0: 0, 1: 0, 2: 1})
    rep = verify_closure_operator(not_idem, "descending")
    assert not rep.ok and rep.law == "idempotence" and rep.witness == (2, 1, 0)

    asc = PosetMap(p, p, {0: 2, 1: 2, 2: 2})
    assert verify_closure_operator(asc, "ascending").ok

    not_mono = PosetMap(vee(), vee(), {0: 1, 1: 1, 2: 2})
    rep = verify_closure_operator(not_mono, "ascending")
    assert not rep.ok and rep.law == "order preservation" and rep.witness == (0, 2)

    with pytest.raises(ValueError):
        verify_closure_operator(good, "sideways")


def test_identity_is_a_closure_both_ways():
    rng = random.Random(23)
    for _ in range(10):
        p = random_poset(rng, 8)
        f = PosetMap(p, p, {x: x for x in p.ids})
        assert verify_closure_operator(f, "descending").ok
        assert verify_closure_operator(f, "ascending").ok


def test_image_subposet():
    p = chain_poset(3)
    f = PosetMap(p, p, {0: 0, 1: 1, 2: 1})
    img = image_subposet(f)
    assert img.ids == (0, 1) and img.covers == ((0, 1),)
    assert image_subposet(PosetMap(p, p, {x: x for x in p.ids})).ids == p.ids


def test_closure_fixes_its_image_randomized():
    from homcollapse import random_descending_closure

    rng = random.Random(31)
    for _ in range(30):
        p = random_poset(rng, 9)
        phi = random_descending_closure(rng, p)
        assert verify_closure_operator(phi, "descending").ok
        for y in set(phi.map.values()):
            assert phi.map[y] == y


def test_fixture_image_is_partition_interior():
    """The component-closure image on 4 vertices must be order-isomorphic
    to partitions of a 4-set with at least two blocks, not all singletons,
    under refinement."""
    poset, phi = disconnected_graph_fixture(4)
    img = image_subposet(phi)
    assert len(poset) == 25 and len(img) == 13

    def components(edges):
        blocks = {frozenset([v]) for v in range(4)}
        for a, b in edges:
            ba = next(x for x in blocks if a in x)
            bb = next(x for x in blocks if b in x)
            if ba != bb:
                blocks = (blocks - {ba, bb}) | {ba | bb}
        return frozenset(blocks)

    def partitions(universe):
        if not universe:
            yield frozenset()
            return
        first, rest = universe[0], universe[1:]
        for sub in partitions(rest):
            for block in sub:
                yield (sub - {block}) | {frozenset(block | {first})}
            yield sub | {frozenset([first])}

    proper = {
        pt for pt in partitions(list(range(4)))
        if len(pt) >= 2 and any(len(b) > 1 for b in pt)
    }
    assert len(proper) == 13
    to_partition = {i: components(img.label_of[i]) for i in img.ids}
    assert set(to_partition.values()) == proper

    def refines(pa, pb):
        return all(any(a <= b for b in pb) for a in pa)

    for a in img.ids:
        for b in img.ids:
            assert img.le(a, b) == refines(to_partition[a], to_partition[b])
