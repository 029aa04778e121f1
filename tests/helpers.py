"""Shared graph constructors and brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own data paths: subset
enumeration over itertools, reachability by repeated squaring over cover
lists, homomorphism search over raw product loops, a collapse replay that
fires one step at a time.  The partition-lattice fixture at the end is a
worked closure example for the collapse tests.
"""

import itertools
import json

from homcollapse import CollapseReport, FacePoset, Graph, HomComplex, PosetMap, SimplicialComplex, cell_dim


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


def sub_complex(hom, ids):
    """The cells of hom with the given ids, a down-set, as a HomComplex of
    their own, renumbered in id order; it is read through facets() only."""
    cells = tuple(hom.cells[i] for i in sorted(ids))
    return HomComplex(hom.domain, hom.codomain, cells)


def reference_replay(ambient, seq):
    """execute_collapses step by step, as the oracle for its one-pass replay.

    Counts the remaining cofaces of every cell up front; each step checks
    its pair against the remaining cells and those counts, in the order and
    with the wording execute_collapses reports, then removes the pair and
    decrements the counts of their faces.  Returns (survivors, report).
    """
    if isinstance(ambient, SimplicialComplex):
        cells = ambient.simplices
        steps = [(tuple(free), tuple(cof)) for free, cof in seq.steps]

        def faces(s):
            return [s[:k] + s[k + 1 :] for k in range(len(s))] if len(s) > 1 else ()

        def dim(s):
            return len(s) - 1
    else:
        cells = range(len(ambient))
        steps = seq.steps
        faces = [tuple(f for f, _ in fs) for fs in ambient.facets()].__getitem__

        def dim(i):
            return cell_dim(ambient.cells[i])

    remaining = set(cells)
    up_count = dict.fromkeys(remaining, 0)
    for c in remaining:
        for f in faces(c):
            up_count[f] += 1

    def first_coface(face, skip=None):
        return min(c for c in remaining if c != skip and face in faces(c))

    dims = []
    for idx, (free, cof) in enumerate(steps):
        problem = None
        if free not in remaining:
            problem = f"free cell {free} is absent"
        elif cof not in remaining:
            problem = f"coface {cof} is absent"
        elif free not in (cof_faces := faces(cof)):
            problem = f"{cof} does not cover {free}"
        elif up_count[free] != 1:
            problem = f"cell {free} is not free: {first_coface(free, cof)} also covers it"
        elif up_count[cof] != 0:
            problem = f"coface {cof} is not maximal: {first_coface(cof)} remains"
        if problem is not None:
            return remaining, CollapseReport(False, idx, tuple(dims), f"step {idx}: {problem}")
        dims.append((dim(free), dim(cof)))
        remaining.discard(cof)
        remaining.discard(free)
        for f in (*cof_faces, *faces(free)):
            up_count[f] -= 1
    return remaining, CollapseReport(True, None, tuple(dims))


def reference_closure_steps(phi, direction):
    """collapse_sequence_from_closure's steps with each link in product form,
    as the oracle for its builder.

    Takes the non-fixed elements one at a time, the least id first among
    those with no non-fixed element left below them.  Each simplex of the
    link of x, the union of a remaining chain above x and a remaining chain
    below phi(x) (either may be empty), is paired across inserting x and
    phi(x), in falling length and then in sorted order.
    """
    p = phi.source
    above, below = (p.above, p.below) if direction == "descending" else (p.below, p.above)
    remaining = set(p.ids)
    moving = {x for x in p.ids if phi.map[x] != x}
    steps = []
    while moving:
        x = min(y for y in moving if not below(y) & moving)
        fx = phi.map[x]
        joins = [()] + p.chains(within=above(x) & remaining)
        low = [()] + p.chains(within=below(fx) & remaining)
        sims = sorted((tuple(sorted(cu + cd)) for cu in joins for cd in low), key=lambda s: (-len(s), s))
        steps += [(tuple(sorted(s + (x,))), tuple(sorted(s + (x, fx)))) for s in sims]
        remaining.discard(x)
        moving.discard(x)
    return tuple(steps)


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


def face_poset_simplices(x):
    """The simplices of x in the id order of face_poset(x): by dimension, then
    lexicographically.  For x the order complex of phi.source, these are the
    chains that the cells of morse_matching_from_closure(phi) stand for."""
    return sorted(x.simplices, key=lambda s: (len(s), s))


def disconnected_graphs(n):
    """The disconnected graphs with at least one edge on n labeled vertices,
    as sorted edge tuples: element k of disconnected_graph_fixture(n) is the
    k-th, by edge count, then lexicographically."""
    if not 3 <= n <= 6:
        raise ValueError("fixture size must be between 3 and 6")
    possible = list(itertools.combinations(range(n), 2))
    graphs = [
        combo
        for r in range(1, len(possible) + 1)
        for combo in itertools.combinations(possible, r)
        if len(_connected_components(n, combo)) >= 2
    ]
    graphs.sort(key=lambda es: (len(es), es))
    return graphs


def disconnected_graph_fixture(n):
    """Inclusion poset of disconnected graphs with at least one edge on n
    labeled vertices, with the ascending closure completing each connected
    component to a clique.

    The closure lands on disjoint unions of at least two cliques, not all
    single vertices; those are the interior of the lattice of set
    partitions.  Element k is disconnected_graphs(n)[k].
    """
    possible = list(itertools.combinations(range(n), 2))
    index = {frozenset(es): k for k, es in enumerate(disconnected_graphs(n))}
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
    poset = FacePoset(range(len(index)), covers)
    return poset, PosetMap(poset, poset, mapping)
