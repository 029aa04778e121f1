"""Shared graph constructors and brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own data paths: subset
enumeration over itertools, reachability by repeated squaring over cover
lists, homomorphism search over raw product loops.  The partition-lattice
fixture at the end is a worked closure example for the collapse tests.
"""

import itertools
import json

from homcollapse import FacePoset, Graph, PosetMap


def as_read(value):
    """value as a reader gets it back from a JSON file: tuples and the items
    of generators come back as lists."""
    return json.loads(json.dumps(value, default=list))


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def edgeless(n):
    return Graph.from_edges(n, [])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def k4_pendant():
    # K4 plus vertex 4 hanging off 0, which folds onto any of 1, 2, 3
    return Graph.from_edges(5, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)])


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def paw():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def diamond():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def loop_vertex():
    return Graph.from_edges(1, [(0, 0)])


def reflexive_k2():
    return Graph.from_edges(2, [(0, 1), (0, 0), (1, 1)])


def loop_fold_pair():
    # 0 -- 1 with a loop at 1; N(0) = {1} inside N(1) = {0, 1}
    return Graph.from_edges(2, [(0, 1), (1, 1)])


def random_graph(rng, n, p=0.5, loops=False):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if loops:
        edges += [(i, i) for i in range(n) if rng.random() < 0.3]
    return Graph.from_edges(n, edges)


def loopless_iso_classes(max_n=4):
    """One labeled representative per isomorphism class of simple loopless
    graphs on 1..max_n vertices, keyed by a readable name."""
    out = {}
    for n in range(1, max_n + 1):
        possible = list(itertools.combinations(range(n), 2))
        seen = set()
        for r in range(len(possible) + 1):
            for combo in itertools.combinations(possible, r):
                key = _canon(n, combo)
                if key not in seen:
                    seen.add(key)
                    name = f"g{n}_" + ("_".join(f"{a}{b}" for a, b in key) or "empty")
                    out[name] = Graph.from_edges(n, list(combo))
    return out


def _canon(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        img = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        if best is None or img < best:
            best = img
    return best


def brute_homs(g, h):
    """All graph homomorphisms g -> h as map tuples, by raw search."""
    out = []
    for m in itertools.product(range(h.n), repeat=g.n):
        if all(h.has_edge(m[a], m[b]) for a, b in g.edges()):
            out.append(m)
    return out


def brute_hom_cells(g, h):
    """All multihomomorphism cells as tuples of frozensets, by raw search
    over every assignment of nonempty subsets."""
    subsets = [frozenset(s) for r in range(1, h.n + 1)
               for s in itertools.combinations(range(h.n), r)]
    out = []
    for cell in itertools.product(subsets, repeat=g.n):
        if all(h.has_edge(a, b) for x, y in g.edges() for a in cell[x] for b in cell[y]):
            out.append(cell)
    return out


def brute_le(poset):
    """Full strict-order relation as a set of pairs, from covers alone."""
    lt = set(poset.covers)
    changed = True
    while changed:
        changed = False
        for a, b in list(lt):
            for c, d in list(lt):
                if b == c and (a, d) not in lt:
                    lt.add((a, d))
                    changed = True
    return lt


def brute_chains(poset):
    """All nonempty chains as sorted id tuples, by subset filtering."""
    lt = brute_le(poset)
    ids = sorted(poset.ids)
    out = []
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            if all((a, b) in lt or (b, a) in lt
                   for a, b in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def _connected_components(n, edges):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def disconnected_graph_fixture(n):
    """Inclusion poset of disconnected graphs with at least one edge on n
    labeled vertices, with the ascending closure completing each connected
    component to a clique.

    The closure lands on disjoint unions of at least two cliques, not all
    single vertices; those are the interior of the lattice of set
    partitions.  Elements are labeled by their sorted edge lists.
    """
    if not 3 <= n <= 6:
        raise ValueError("fixture size must be between 3 and 6")
    possible = list(itertools.combinations(range(n), 2))
    graphs = []
    for r in range(1, len(possible) + 1):
        for combo in itertools.combinations(possible, r):
            if len(_connected_components(n, combo)) >= 2:
                graphs.append(frozenset(combo))
    graphs.sort(key=lambda es: (len(es), sorted(es)))
    index = {es: k for k, es in enumerate(graphs)}
    covers = []
    for es, k in index.items():
        for e in possible:
            if e not in es:
                bigger = index.get(es | {e})
                if bigger is not None:
                    covers.append((k, bigger))
    mapping = {}
    for es, k in index.items():
        comps = _connected_components(n, es)
        hull = frozenset(
            pair for comp in comps for pair in itertools.combinations(sorted(comp), 2)
        )
        mapping[k] = index[hull]
    poset = FacePoset(
        range(len(graphs)),
        covers,
        {k: len(es) - 1 for es, k in index.items()},
        {k: tuple(sorted(es)) for es, k in index.items()},
    )
    return poset, PosetMap(poset, poset, mapping)
