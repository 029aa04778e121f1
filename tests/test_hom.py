import itertools
import random
import types

import pytest

from homcollapse import (
    FacePoset,
    Graph,
    GraphHom,
    ResourceLimitError,
    cell_dim,
    cell_vertex_sets,
    enumerate_hom_cells,
    induced_contravariant,
    induced_covariant,
    is_homomorphism,
)
from homcollapse import hom as hom_module
from helpers import (
    as_read,
    brute_hom_cells,
    brute_homs,
    complete,
    edgeless,
    loop_vertex,
    path_graph,
    random_graph,
)


def as_sets(hom):
    return {tuple(frozenset(vs) for vs in cell_vertex_sets(c)) for c in hom.cells}


def test_single_vertex_domain_gives_full_simplex():
    hom = enumerate_hom_cells(Graph.from_edges(1, []), complete(3))
    assert len(hom) == 7
    assert hom.poset.f_vector() == (3, 3, 1)


def test_edge_into_triangle():
    hom = enumerate_hom_cells(complete(2), complete(3))
    assert hom.poset.f_vector() == (6, 6)
    # oracle: ordered pairs of disjoint nonempty subsets of a 3-set
    expected = {
        (a, b)
        for a in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(3), r) for r in (1, 2, 3)))
        for b in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(3), r) for r in (1, 2, 3)))
        if not (a & b)
    }
    assert as_sets(hom) == expected


def test_path_into_triangle():
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    assert len(hom) == 30
    assert hom.poset.f_vector() == (12, 15, 3)


def test_no_homomorphisms_to_smaller_clique():
    hom = enumerate_hom_cells(complete(3), complete(2))
    assert len(hom) == 0
    assert hom.poset.f_vector() == ()


def test_loops():
    hom = enumerate_hom_cells(loop_vertex(), loop_vertex())
    assert len(hom) == 1
    # a loopless vertex image set may not touch the loop constraint
    hom2 = enumerate_hom_cells(loop_vertex(), complete(3))
    assert len(hom2) == 0
    # everything maps onto a single looped vertex
    hom3 = enumerate_hom_cells(complete(3), loop_vertex())
    assert len(hom3) == 1 and cell_dim(hom3.cells[0]) == 0


def test_cells_match_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        expected = {tuple(map(frozenset, c)) for c in brute_hom_cells(g, h)}
        assert as_sets(enumerate_hom_cells(g, h)) == expected


def test_zero_cells_are_exactly_homomorphisms():
    rng = random.Random(19)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 4), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 4), rng.random(), loops=True)
        hom = enumerate_hom_cells(g, h)
        zeros = [GraphHom(g, h, tuple(m.bit_length() - 1 for m in cell))
                 for cell in hom.cells if cell_dim(cell) == 0]
        assert {z.map for z in zeros} == set(brute_homs(g, h))
        assert all(is_homomorphism(z) for z in zeros)


def test_cells_are_downward_closed():
    rng = random.Random(29)
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    for cell in hom.cells:
        for x, m in enumerate(cell):
            for sub in range(1, m + 1):
                if sub & m == sub:  # nonempty pointwise subset at x
                    smaller = cell[:x] + (sub,) + cell[x + 1 :]
                    assert smaller in hom.cell_index


def test_cell_order_is_lexicographic():
    hom = enumerate_hom_cells(complete(2), complete(3))
    keys = [cell_vertex_sets(c) for c in hom.cells]
    assert keys == sorted(keys)
    for k, cell in enumerate(hom.cells):
        assert hom.poset.label_of[k] == cell_vertex_sets(cell)
        assert hom.poset.dim_of[k] == cell_dim(cell)


def test_covers_add_one_vertex():
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    p = hom.poset
    for a, b in p.covers:
        assert p.dim_of[b] == p.dim_of[a] + 1
        diff = [
            (ma, mb) for ma, mb in zip(hom.cells[a], hom.cells[b]) if ma != mb
        ]
        assert len(diff) == 1
        ma, mb = diff[0]
        assert ma & mb == ma and (mb ^ ma).bit_count() == 1


def test_covers_match_containment_oracle():
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 3), rng.random())
        h = random_graph(rng, rng.randint(1, 3), rng.random())
        hom = enumerate_hom_cells(g, h)
        expected = set()
        for i, a in enumerate(hom.cells):
            for j, b in enumerate(hom.cells):
                if all(x & y == x for x, y in zip(a, b)) and cell_dim(b) == cell_dim(a) + 1:
                    expected.add((i, j))
        assert set(hom.poset.covers) == expected


def test_covers_are_streamed_into_the_poset(monkeypatch):
    # the enumerator builds no list of cover pairs, and the poset stores none
    given = []

    def spy(ids, covers, *rest):
        given.append(covers)
        return FacePoset(ids, covers, *rest)

    monkeypatch.setattr(hom_module, "FacePoset", spy)
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    assert len(given) == 1 and isinstance(given[0], types.GeneratorType)
    assert "covers" not in vars(hom.poset) and len(hom.poset.covers) == 42


def test_max_cells_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(edgeless(3), complete(4), max_cells=1000)
    with pytest.raises(ValueError):
        enumerate_hom_cells(edgeless(1), complete(2), max_cells=0)


def test_induced_covariant_pushforward():
    from homcollapse import FoldWitness, apply_fold

    l3, k2 = path_graph(3), complete(2)
    folded, f, i = apply_fold(l3, FoldWitness(0, 2))
    source = enumerate_hom_cells(k2, l3)
    target = enumerate_hom_cells(k2, folded)
    pushed = induced_covariant(f, source, target)
    assert pushed.is_order_preserving() is None
    # the inclusion lands on the cells avoiding the folded vertex
    back = induced_covariant(i, target, source)
    assert all(0 not in cell_vertex_sets(source.cells[back.map[c]])[0]
               and 0 not in cell_vertex_sets(source.cells[back.map[c]])[1]
               for c in back.map)


def test_induced_contravariant_restriction():
    from homcollapse import FoldWitness, apply_fold

    l3, k3 = path_graph(3), complete(3)
    folded, f, i = apply_fold(l3, FoldWitness(0, 2))
    source = enumerate_hom_cells(l3, k3)
    target = enumerate_hom_cells(folded, k3)
    res = induced_contravariant(i, source, target)
    assert res.is_order_preserving() is None
    assert set(res.map.values()) == set(range(len(target.cells)))  # surjective
    lifted = induced_contravariant(f, target, source)
    # restriction after lifting is the identity (f after i is id)
    assert all(res.map[lifted.map[c]] == c for c in lifted.map)


def test_induced_maps_are_functorial():
    rng = random.Random(41)
    k = complete(2)
    tries = 0
    for _ in range(60):
        g1 = random_graph(rng, rng.randint(1, 3), 0.6, loops=True)
        g2 = random_graph(rng, rng.randint(1, 3), 0.6, loops=True)
        g3 = random_graph(rng, rng.randint(1, 3), 0.6, loops=True)
        h12 = brute_homs(g1, g2)
        h23 = brute_homs(g2, g3)
        if not (h12 and h23):
            continue
        tries += 1
        f = GraphHom(g1, g2, rng.choice(h12))
        g = GraphHom(g2, g3, rng.choice(h23))
        hk1 = enumerate_hom_cells(k, g1)
        hk2 = enumerate_hom_cells(k, g2)
        hk3 = enumerate_hom_cells(k, g3)
        fg = GraphHom(g1, g3, tuple(g.map[y] for y in f.map))
        first, second = induced_covariant(f, hk1, hk2), induced_covariant(g, hk2, hk3)
        one = {x: second.map[y] for x, y in first.map.items()}
        both = induced_covariant(fg, hk1, hk3)
        assert one == both.map
        h1k = enumerate_hom_cells(g1, k)
        h2k = enumerate_hom_cells(g2, k)
        h3k = enumerate_hom_cells(g3, k)
        first, second = induced_contravariant(g, h3k, h2k), induced_contravariant(f, h2k, h1k)
        contra = {x: second.map[y] for x, y in first.map.items()}
        direct = induced_contravariant(fg, h3k, h1k)
        assert contra == direct.map
    assert tries >= 15


def test_induced_identity_is_identity():
    l3 = path_graph(3)
    hom = enumerate_hom_cells(l3, complete(3))
    cov = induced_covariant(GraphHom(complete(3), complete(3), (0, 1, 2)), hom, hom)
    assert cov.map == {c: c for c in range(len(hom.cells))}
    contra = induced_contravariant(GraphHom(l3, l3, (0, 1, 2)), hom, hom)
    assert contra.map == {c: c for c in range(len(hom.cells))}


def test_induced_rejects_non_homomorphism():
    l3, k2 = path_graph(3), complete(2)
    bad = GraphHom(l3, k2, (0, 0, 0))
    hom_a = enumerate_hom_cells(k2, l3)
    hom_b = enumerate_hom_cells(k2, k2)
    with pytest.raises(ValueError):
        induced_covariant(bad, hom_a, hom_b)


def test_hom_json_uses_poset_schema():
    hom = enumerate_hom_cells(complete(2), complete(3))
    data = as_read(hom.to_json())
    assert {"elements", "covers"} == set(data)
    assert data["elements"][0]["label"] == [[0], [1]]
