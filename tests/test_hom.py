import gc
import itertools
import json
import random
import tracemalloc
from collections import deque

import pytest

from homcollapse import (
    FacePoset,
    FoldWitness,
    Graph,
    GraphHom,
    HomComplex,
    PosetMap,
    ResourceLimitError,
    cell_dim,
    cell_vertex_sets,
    enumerate_hom_cells,
    format_graph,
    induced_contravariant,
    induced_covariant,
    is_homomorphism,
    second_arg_collapse,
)
from homcollapse import cli
from homcollapse.cli import main
from helpers import (
    as_read,
    brute_hom_cells,
    brute_homs,
    complete,
    cycle,
    edgeless,
    k4_pendant,
    loop_vertex,
    path_graph,
    random_graph,
    sub_complex,
)


def as_sets(hom):
    return {tuple(frozenset(vs) for vs in cell_vertex_sets(c)) for c in hom.cells}


def test_single_vertex_domain_gives_full_simplex():
    hom = enumerate_hom_cells(Graph.from_edges(1, []), complete(3))
    assert len(hom) == 7
    assert hom.f_vector() == (3, 3, 1)


def test_edge_into_triangle():
    hom = enumerate_hom_cells(complete(2), complete(3))
    assert hom.f_vector() == (6, 6)
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
    assert hom.f_vector() == (12, 15, 3)


def test_no_homomorphisms_to_smaller_clique():
    hom = enumerate_hom_cells(complete(3), complete(2))
    assert len(hom) == 0
    assert hom.f_vector() == ()


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
    pairs = [
        (edgeless(0), complete(3)),  # the empty domain: one empty cell
        (edgeless(1), complete(3)),  # one vertex, the first and the last
        (loop_vertex(), Graph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)])),
        (edgeless(2), edgeless(0)),  # an empty codomain: no cell
        (edgeless(0), edgeless(0)),  # unless the domain is empty too
    ]
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        pairs.append((g, h))
    for g, h in pairs:
        expected = {tuple(map(frozenset, c)) for c in brute_hom_cells(g, h)}
        assert as_sets(enumerate_hom_cells(g, h)) == expected
    assert [len(enumerate_hom_cells(g, h)) for g, h in pairs[:5]] == [1, 7, 3, 0, 1]


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
    # each element record names its cell's vertex sets and dimension
    for k, (cell, record) in enumerate(zip(hom.cells, hom.to_json()["elements"])):
        assert record == {"id": k, "dim": cell_dim(cell), "label": cell_vertex_sets(cell)}


def test_covers_add_one_vertex():
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    for a, b in hom.poset.covers:
        assert cell_dim(hom.cells[b]) == cell_dim(hom.cells[a]) + 1
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


def _label_rule_faces(cell):
    """The faces of a cell read off its vertex sets (A_0, ..., A_{n-1}):
    dropping the j-th smallest vertex of A_x, with sign exponent
    sum over y < x of (|A_y| - 1) + j."""
    sets = cell_vertex_sets(cell)
    faces, e = [], 0
    for x, a in enumerate(sets):
        if len(a) > 1:
            faces += [(sets[:x] + (a[:j] + a[j + 1 :],) + sets[x + 1 :], e + j) for j in range(len(a))]
        e += len(a) - 1
    return faces


def test_facets_are_the_lower_covers_with_product_rule_signs():
    rng = random.Random(59)
    # the empty domain has one cell, (), with no faces; Hom(K3, K2) has no cells
    homs = [enumerate_hom_cells(edgeless(0), complete(3)), enumerate_hom_cells(complete(3), complete(2))]
    assert [list(hom.facets()) for hom in homs] == [[[]], []]
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 4), rng.random(), loops=True)
        homs.append(enumerate_hom_cells(g, h))
    for hom in homs:
        faces = list(hom.facets())
        assert len(faces) == len(hom.cells)
        by_label = {cell_vertex_sets(c): k for k, c in enumerate(hom.cells)}
        for k, cell in enumerate(hom.cells):
            assert sorted(f for f, _ in faces[k]) == list(hom.poset.lower[k])
            assert faces[k] == [(by_label[sets], e) for sets, e in _label_rule_faces(cell)]


def test_enumeration_builds_no_poset(monkeypatch, capsys, tmp_path):
    made = []
    init, from_hasse = FacePoset.__init__, FacePoset._from_hasse.__func__

    def counting_init(self, *args):
        made.append("__init__")
        init(self, *args)

    def counting_from_hasse(cls, *args):
        made.append("_from_hasse")
        return from_hasse(cls, *args)

    monkeypatch.setattr(FacePoset, "__init__", counting_init)
    monkeypatch.setattr(FacePoset, "_from_hasse", classmethod(counting_from_hasse))
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    assert made == [] and "poset" not in vars(hom)
    p = hom.poset
    assert made == ["_from_hasse"] and hom.poset is p and vars(hom)["poset"] is p
    # hom --out writes the cells and their covers with no poset built
    made.clear()
    files = []
    for name, graph in (("g", path_graph(3)), ("h", complete(3))):
        files.append(tmp_path / name)
        files[-1].write_text(format_graph(graph))
    out = tmp_path / "out.json"
    assert main(["hom", "-G", str(files[0]), "-H", str(files[1]), "--out", str(out)]) == 0
    assert "cells: " in capsys.readouterr().out
    assert made == [] and len(json.loads(out.read_text())["covers"]) == 42


def test_cell_index_is_derived_from_the_cells():
    hom = enumerate_hom_cells(path_graph(3), complete(5))
    assert len(hom) > 256  # so most ids are not the interpreter's shared small ints
    fresh = HomComplex(hom.domain, hom.codomain, hom.cells)
    index = fresh.cell_index
    assert len(index) == len(fresh) and all(index[c] == k for k, c in enumerate(fresh.cells))
    assert fresh.cell_index is index and fresh == hom
    # the poset's ids are the index's own int objects, as its docstring promises
    assert all(a is b for a, b in zip(fresh.poset.ids, index.values(), strict=True))


def test_side_second_plan_builds_no_poset():
    plan = second_arg_collapse(complete(2), path_graph(3), FoldWitness(0, 2))
    assert len(plan.sequence) > 0 and "poset" not in vars(plan.hom)


def test_poset_stores_no_list_of_cover_pairs():
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    p = hom.poset
    assert len(p.covers) == 42 and "covers" not in vars(p)
    for value in (*vars(hom).values(), *vars(p).values()):
        pairs = isinstance(value, (list, tuple)) and value and all(
            isinstance(c, tuple) and len(c) == 2 and all(type(x) is int for x in c) for c in value)
        assert not pairs
    assert all(type(ys) is tuple for ys in (*p.upper.values(), *p.lower.values()))


def test_lazy_poset_matches_the_validating_constructor():
    # the poset built from the sorted cells equals FacePoset given brute-force covers
    rng = random.Random(53)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 4), rng.random(), loops=True)
        hom = enumerate_hom_cells(g, h)
        labels = [cell_vertex_sets(c) for c in hom.cells]
        assert labels == sorted(labels)
        covers = [
            (i, j)
            for i, a in enumerate(hom.cells)
            for j, b in enumerate(hom.cells)
            if all(x & y == x for x, y in zip(a, b)) and cell_dim(b) == cell_dim(a) + 1
        ]
        ids = range(len(hom.cells))
        ref = FacePoset(ids, covers)
        p = hom.poset
        assert p.ids == ref.ids
        assert p.upper == ref.upper and p.lower == ref.lower
        records = [{"id": k, "dim": cell_dim(c), "label": l} for k, (c, l) in enumerate(zip(hom.cells, labels))]
        assert as_read(hom.to_json()) == as_read({"elements": records, "covers": ref.covers})
        # upper_covers only looks up: it reads no edge of G or H, and it reads
        # once the int key of each tuple that adds one vertex to one set of a
        # cell, when some cell has the grown set
        rank, weight, index = hom._keys
        watched = HomComplex(edgeless(g.n), edgeless(h.n), hom.cells)
        vars(watched)["_keys"] = rank, weight, WatchedIndex(index)  # shadows the cached property
        ups = list(watched.upper_covers())
        assert ups == [ref.upper[i] for i in ids]
        grown = [
            c[:x] + (m | 1 << a,) + c[x + 1 :]
            for c in hom.cells for x, m in enumerate(c) for a in range(h.n) if not m >> a & 1 and m | 1 << a in rank
        ]
        assert sorted(watched._keys[2].read) == sorted(sum(map(int.__mul__, map(rank.get, c), weight)) for c in grown)
        assert all(index[sum(map(int.__mul__, map(rank.get, c), weight))] == k for k, c in enumerate(hom.cells))


def test_covers_of_a_down_set_are_the_covers_among_its_cells():
    # a HomComplex of a down-set of cells, as compare_collapse builds for cw
    # survivors, has as covers the whole Hom's covers between kept cells
    plan = second_arg_collapse(complete(2), k4_pendant(), FoldWitness(4, 1))
    cases = [(plan.hom, plan.target_cells)]
    rng = random.Random(61)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 3), rng.random(), loops=True)
        h = random_graph(rng, rng.randint(1, 4), rng.random(), loops=True)
        hom = enumerate_hom_cells(g, h)
        tops = [i for i in range(len(hom)) if rng.random() < 0.3]
        cases.append((hom, set(tops).union(*map(hom.poset.below, tops))))
    for hom, keep in cases:
        sub = sub_complex(hom, keep)
        renumber = {i: k for k, i in enumerate(sorted(keep))}
        want = sorted((renumber[a], renumber[b]) for a, b in hom.poset.covers if a in keep and b in keep)
        assert list(sub.poset.covers) == want
        assert as_read(sub.to_json())["covers"] == as_read(want)
        # its int keys rank only its own masks, and its faces are still the label rule's
        by_label = {cell_vertex_sets(c): k for k, c in enumerate(sub.cells)}
        faces = [[(by_label[sets], e) for sets, e in _label_rule_faces(c)] for c in sub.cells]
        assert sub.facets() == faces
    assert len(cases[0][1]) < len(cases[0][0])  # the fold's target cells are a proper down-set


class WatchedIndex(dict):
    """A cell index that records every key read from it."""

    def __init__(self, index):
        super().__init__(index)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def test_hom_out_holds_no_list_of_covers():
    # writing the 2,640 cells and 8,100 covers of Hom(C5, K4p) peaks below
    # building its poset, with each cell's dim and label, and the poset's
    # covers tuple, as hom --out did before it streamed
    built = enumerate_hom_cells(cycle(5), k4_pendant())
    unread = enumerate_hom_cells(cycle(5), k4_pendant())

    def labelled_poset_covers():
        dims = {k: cell_dim(c) for k, c in enumerate(built.cells)}
        return built.poset, dims, dict(enumerate(built._labels())), tuple(built.poset.covers)

    peaks = []
    for build in (labelled_poset_covers, lambda: cli._dump(unread.to_json(), Sink())):
        gc.collect()  # empties the free lists, so both peaks count every object made
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(built) == 2640 and len(built.poset.covers) == 8100 and "poset" not in vars(unread)
    covers_peak, dump_peak = peaks
    assert dump_peak < covers_peak, peaks


class Sink:
    """A stream that keeps nothing written to it."""

    def write(self, text):
        pass

    def writelines(self, texts):
        deque(texts, maxlen=0)


def test_max_cells_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_hom_cells(edgeless(3), complete(4), max_cells=1000)
    # the budget is exact, on a loopless pair and on a looped one
    for g, h in ((path_graph(3), complete(3)), (cycle(3), Graph.from_edges(3, [(0, 0), (0, 1), (1, 1), (1, 2)]))):
        count = len(enumerate_hom_cells(g, h))
        assert count > 1 and len(enumerate_hom_cells(g, h, max_cells=count)) == count
        with pytest.raises(ResourceLimitError):
            enumerate_hom_cells(g, h, max_cells=count - 1)
    with pytest.raises(ValueError):
        enumerate_hom_cells(edgeless(1), complete(2), max_cells=0)


def test_induced_covariant_pushforward():
    from homcollapse import FoldWitness, apply_fold

    l3, k2 = path_graph(3), complete(2)
    folded, f, i = apply_fold(l3, FoldWitness(0, 2))
    source = enumerate_hom_cells(k2, l3)
    target = enumerate_hom_cells(k2, folded)
    pushed = induced_covariant(f, source, target)
    assert PosetMap(source.poset, target.poset, pushed).is_order_preserving() is None
    # the inclusion lands on the cells avoiding the folded vertex
    back = induced_covariant(i, target, source)
    assert sorted(back) == list(range(len(target.cells)))
    assert all(0 not in cell_vertex_sets(source.cells[back[c]])[0]
               and 0 not in cell_vertex_sets(source.cells[back[c]])[1]
               for c in back)


def test_induced_contravariant_restriction():
    from homcollapse import FoldWitness, apply_fold

    l3, k3 = path_graph(3), complete(3)
    folded, f, i = apply_fold(l3, FoldWitness(0, 2))
    source = enumerate_hom_cells(l3, k3)
    target = enumerate_hom_cells(folded, k3)
    res = induced_contravariant(i, source, target)
    assert PosetMap(source.poset, target.poset, res).is_order_preserving() is None
    assert set(res.values()) == set(range(len(target.cells)))  # surjective
    lifted = induced_contravariant(f, target, source)
    # restriction after lifting is the identity (f after i is id)
    assert all(res[lifted[c]] == c for c in lifted)


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
        one = {x: second[y] for x, y in first.items()}
        assert one == induced_covariant(fg, hk1, hk3)
        h1k = enumerate_hom_cells(g1, k)
        h2k = enumerate_hom_cells(g2, k)
        h3k = enumerate_hom_cells(g3, k)
        first, second = induced_contravariant(g, h3k, h2k), induced_contravariant(f, h2k, h1k)
        contra = {x: second[y] for x, y in first.items()}
        assert contra == induced_contravariant(fg, h3k, h1k)
    assert tries >= 15


def test_induced_identity_is_identity():
    l3 = path_graph(3)
    hom = enumerate_hom_cells(l3, complete(3))
    cov = induced_covariant(GraphHom(complete(3), complete(3), (0, 1, 2)), hom, hom)
    assert cov == {c: c for c in range(len(hom.cells))}
    contra = induced_contravariant(GraphHom(l3, l3, (0, 1, 2)), hom, hom)
    assert contra == {c: c for c in range(len(hom.cells))}


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
