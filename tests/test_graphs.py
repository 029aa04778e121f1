import random

import pytest

from homcollapse import (
    FoldError,
    FoldWitness,
    Graph,
    GraphHom,
    GraphParseError,
    apply_fold,
    find_folds,
    format_graph,
    identity_hom,
    is_homomorphism,
    parse_graph,
)
from helpers import complete, edgeless, loop_fold_pair, path_graph, random_graph, star


def test_parse_basic():
    g = parse_graph("# a path\nn 3\ne 0 1\ne 1 2\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_loop_and_blank_lines():
    g = parse_graph("\nn 2\n\ne 0 0\n# trailing comment\ne 0 1\n")
    assert g.has_edge(0, 0)
    assert g.edges() == [(0, 0), (0, 1)]


def test_parse_duplicate_edges_collapse():
    g = parse_graph("n 2\ne 0 1\ne 1 0\n")
    assert g.edges() == [(0, 1)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n 2\ne 0 2\n", "line 2"),
        ("e 0 1\nn 2\n", "line 1"),
        ("n 2\nn 3\n", "duplicate"),
        ("n 2\nv 0 1\n", "unknown directive"),
        ("n two\n", "not an integer"),
        ("n 2\ne 0\n", "expected"),
        ("", "missing 'n'"),
        ("n -1\n", "non-negative"),
        # past the platform's index range, so no adjacency table is ever allocated
        ("n 100000000000000000000000000000\n", "is too large"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_format_round_trip():
    g = Graph.from_edges(4, [(0, 1), (2, 2), (1, 3)])
    assert parse_graph(format_graph(g)) == g


def test_find_folds_path():
    # both endpoints of a 3-path fold onto the opposite endpoint
    assert [(w.v, w.u) for w in find_folds(path_graph(3))] == [(0, 2), (2, 0)]


def test_find_folds_stiff_graphs():
    assert find_folds(complete(3)) == []
    assert find_folds(complete(2)) == []
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert find_folds(two_k2) == []


def test_find_folds_star():
    # any leaf folds onto any other leaf
    ws = find_folds(star(3))
    assert len(ws) == 6
    assert all(w.v != 0 and w.u != 0 for w in ws)


def test_find_folds_loops():
    g = loop_fold_pair()
    assert [(w.v, w.u) for w in find_folds(g)] == [(0, 1)]


def test_find_folds_matches_raw_neighborhood_check():
    rng = random.Random(42)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 6), rng.random(), loops=True)
        expected = [
            (v, u)
            for v in range(g.n)
            for u in range(g.n)
            if u != v and set(g.neighbors(v)) <= set(g.neighbors(u))
        ]
        assert [(w.v, w.u) for w in find_folds(g)] == expected


def test_apply_fold_path():
    folded, f, i = apply_fold(path_graph(3), FoldWitness(0, 2))
    assert folded == Graph.from_edges(2, [(0, 1)])
    assert f.map == (1, 0, 1)
    assert i.map == (1, 2)
    assert i.then(f).map == (0, 1)  # retraction after inclusion is identity


def test_apply_fold_star_gives_smaller_star():
    folded, f, i = apply_fold(star(3), FoldWitness(1, 2))
    assert folded == star(2)
    assert is_homomorphism(f) and is_homomorphism(i)


def test_apply_fold_requires_domination():
    with pytest.raises(FoldError) as err:
        apply_fold(complete(3), FoldWitness(0, 1))
    assert "does not dominate" in str(err.value)
    # the offending neighbor is named
    assert "[1]" in str(err.value) or "1" in str(err.value)


def test_apply_fold_rejects_degenerate_witness():
    with pytest.raises(FoldError):
        apply_fold(path_graph(3), FoldWitness(1, 1))
    with pytest.raises(FoldError):
        apply_fold(path_graph(3), FoldWitness(5, 0))


def test_greedy_folding_reaches_stiff_core():
    g = path_graph(3)
    while find_folds(g):
        g, _, _ = apply_fold(g, find_folds(g)[0])
    assert g == complete(2)


def test_is_homomorphism():
    p3, k2 = path_graph(3), complete(2)
    assert is_homomorphism(identity_hom(k2))
    assert is_homomorphism(GraphHom(p3, k2, (0, 1, 0)))
    assert not is_homomorphism(GraphHom(p3, k2, (0, 0, 0)))
    # collapsing an edge onto a looped vertex is legal
    loopy = Graph.from_edges(1, [(0, 0)])
    assert is_homomorphism(GraphHom(k2, loopy, (0, 0)))


def test_hom_validates_totality():
    with pytest.raises(ValueError):
        GraphHom(path_graph(3), complete(2), (0, 1))
    with pytest.raises(ValueError):
        GraphHom(path_graph(3), complete(2), (0, 1, 2))


def test_fold_maps_are_homomorphisms_randomized():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), rng.random(), loops=True)
        for w in find_folds(g):
            folded, f, i = apply_fold(g, w)
            assert is_homomorphism(f)
            assert is_homomorphism(i)
            assert i.then(f).map == tuple(range(folded.n))


def test_fold_detection_is_relabel_equivariant():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, rng.random(), loops=True)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(n, [(perm[a], perm[b]) for a, b in g.edges()])
        expected = sorted((perm[w.v], perm[w.u]) for w in find_folds(g))
        assert sorted((w.v, w.u) for w in find_folds(relabeled)) == expected
