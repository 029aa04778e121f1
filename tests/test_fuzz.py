"""Seeded fuzzing of the readers of outside input.

Each mutant of a valid input must either read or raise a ValueError
subclass, which the CLI turns into exit 2; any other exception would end
in a traceback.  The mutations reuse the input's own numbers or draw from
small pools, so no mutant names a vertex count large enough to allocate
much.
"""

import copy
import random

import pytest

from homcollapse import (
    CollapseSequence,
    FacePoset,
    FoldWitness,
    SimplicialComplex,
    enumerate_hom_cells,
    face_poset,
    first_arg_collapse,
    format_graph,
    parse_graph,
    second_arg_collapse,
)
from helpers import as_read, complete, cycle, k4_pendant, path_graph

MUTANTS = 400
JUNK = [None, True, False, 0, 1, -1, 2, 7, 1.5, 1e400, "", "0", "id", [], [0], [0, 1], [[0, 1]],
        [0, 1, 2], {}, {"id": 0}, {"id": 0, "dim": 0}, {"free": 0, "coface": 1}]


def nodes(data):
    """Every (parent, key) position in a parsed JSON value."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in list(items):
        yield data, key
        yield from nodes(value)


def mutate_json(rng, data):
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        positions = list(nodes(data))
        if not positions:
            return rng.choice(JUNK)
        parent, key = rng.choice(positions)
        op = rng.randrange(4)
        if op == 0:
            parent[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == 1:
            del parent[key]
        elif op == 2 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:  # move a value from elsewhere in the input into this slot
            other_parent, other_key = rng.choice(positions)
            parent[key] = copy.deepcopy(other_parent[other_key])
    return data


def valid_inputs(reader):
    """Valid inputs as a reader gets them from a file, so that nodes reaches
    inside every array, tuples in to_json output included."""
    p3, k3 = path_graph(3), complete(3)
    if reader is FacePoset:
        return [
            as_read(face_poset(SimplicialComplex.from_facets([(0, 1, 2), (2, 3)])).to_json()),
            as_read(enumerate_hom_cells(p3, k3).to_json()),
        ]
    if reader is SimplicialComplex:
        return [
            as_read(SimplicialComplex.from_facets([(0, 1, 2), (2, 3)]).to_json()),
            as_read(SimplicialComplex.from_facets([(0, 1), (1, 2), (0, 2), (4,)]).to_json()),
        ]
    return [
        as_read(first_arg_collapse(p3, k3, FoldWitness(0, 2)).sequence.to_json()),
        as_read(second_arg_collapse(path_graph(2), k4_pendant(), FoldWitness(4, 1)).sequence.to_json()),
        {"mode": "cw", "steps": []},
        {"mode": "simplicial", "steps": []},
    ]


@pytest.mark.parametrize("reader", [FacePoset, SimplicialComplex, CollapseSequence],
                         ids=lambda r: r.__name__)
def test_json_readers_raise_value_errors_on_mutants(reader):
    rng = random.Random(f"fuzz:{reader.__name__}")
    inputs = valid_inputs(reader)
    for data in inputs:
        reader.from_json(data)
    read = 0
    for _ in range(MUTANTS):
        mutant = mutate_json(rng, rng.choice(inputs))
        try:
            reader.from_json(mutant)
        except ValueError:
            continue
        read += 1
    assert read < MUTANTS  # the mutations do reach the error paths


def test_mutations_reach_inside_covers_labels_and_steps():
    # an array held as a tuple would hide its items from nodes, and so from every mutant
    def reached(data, inner):
        return any(parent is inner for parent, _ in nodes(data))

    face, hom = valid_inputs(FacePoset)
    for data in (face, hom):
        assert reached(data, data["covers"][0])
    assert reached(hom, hom["elements"][-1]["label"]) and reached(hom, hom["elements"][-1]["label"][0])
    for data in valid_inputs(SimplicialComplex):
        assert reached(data, data["facets"][0])
    simplicial = valid_inputs(CollapseSequence)[0]
    assert reached(simplicial, simplicial["steps"][0]["free"])


GRAPH_TOKENS = ["n", "e", "#", "-1", "0", "1", "2", "9", "x", "1.5", "0x1", "1e3", "1_0", "٣",
                "n 2", "e 0"]


def mutate_text(rng, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        if not lines or op == 0:
            lines.insert(rng.randint(0, len(lines)), rng.choice(GRAPH_TOKENS).split())
            continue
        k = rng.randrange(len(lines))
        line = lines[k]
        if op == 1:
            del lines[k]
        elif op == 2:
            lines.insert(k, list(line))
        elif op == 3 and line:
            line[rng.randrange(len(line))] = rng.choice(GRAPH_TOKENS)
        elif op == 4 and line:
            del line[rng.randrange(len(line))]
        else:
            line.insert(rng.randint(0, len(line)), rng.choice(GRAPH_TOKENS))
    out = "\n".join(" ".join(line) for line in lines)
    if rng.random() < 0.2:  # a file cut short, possibly mid-token
        out = out[: rng.randint(0, len(out))]
    return out


def test_parse_graph_raises_value_errors_on_mutants():
    rng = random.Random("fuzz:graph")
    texts = [format_graph(g) for g in (path_graph(3), cycle(4), complete(4), k4_pendant())]
    texts.append("# a comment\nn 2\n\ne 0 0\ne 0 1\n")
    read = 0
    for _ in range(MUTANTS):
        text = mutate_text(rng, rng.choice(texts))
        try:
            g = parse_graph(text)
        except ValueError:
            continue
        assert parse_graph(format_graph(g)) == g
        read += 1
    assert 0 < read < MUTANTS
