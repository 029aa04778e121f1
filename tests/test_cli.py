import dataclasses
import hashlib
import io
import json
import random
import re
import time

import pytest

from homcollapse import (
    FacePoset,
    Graph,
    HomComplex,
    PosetMap,
    betti,
    enumerate_hom_cells,
    format_graph,
    parse_graph,
    verify_closure_operator,
)
from homcollapse import cli, folds, homology
from homcollapse.cli import main
from homcollapse.closure import MAX_RANDOM_ELEMENTS

from helpers import complete, cycle, edgeless, hom_json, k4_pendant, path_graph, random_graph, sub_complex

K2 = "n 2\ne 0 1\n"
K3 = "n 3\ne 0 1\ne 0 2\ne 1 2\n"
P3 = "n 3\ne 0 1\ne 1 2\n"
RP2_FACETS = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


@pytest.fixture
def graphs(tmp_path):
    files = {}
    for name, text in (("k2", K2), ("k3", K3), ("p3", P3)):
        path = tmp_path / f"{name}.graph"
        path.write_text(text)
        files[name] = str(path)
    return files


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hom_summary_and_json(graphs, capsys):
    code, out, err = run(capsys, ["hom", "-G", graphs["k2"], "-H", graphs["k3"]])
    assert code == 0 and err == ""
    assert "cells: 12" in out and "[6, 6]" in out

    code, out, err = run(capsys, ["hom", "-G", graphs["k2"], "-H", graphs["k3"], "--json"])
    assert code == 0
    data = json.loads(out)  # stdout must be pure JSON
    assert len(data["elements"]) == 12
    assert "cells: 12" in err  # summary moved to stderr


def test_hom_out_file(graphs, capsys, tmp_path):
    target = tmp_path / "hom.json"
    code, out, err = run(
        capsys,
        ["hom", "-G", graphs["k2"], "-H", graphs["k3"], "--json", "--out", str(target)],
    )
    assert code == 0 and err == ""
    assert "cells: 12" in out and "{" not in out  # summary on stdout, JSON in the file
    data = json.loads(target.read_text())
    assert len(data["elements"]) == 12


def test_hom_is_deterministic(graphs, capsys):
    argv = ["hom", "-G", graphs["p3"], "-H", graphs["k3"], "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_fold_list_and_apply(graphs, capsys):
    code, out, err = run(capsys, ["fold", "-G", graphs["p3"], "--json"])
    assert code == 0
    assert json.loads(out) == [[0, 2], [2, 0]]

    code, out, err = run(capsys, ["fold", "-G", graphs["p3"], "--fold-vertex", "0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("folded 0 onto 2")
    folded = parse_graph("\n".join(lines[1:]))
    assert folded.n == 2 and folded.edge_count() == 1

    code, out, err = run(
        capsys, ["fold", "-G", graphs["p3"], "--fold-vertex", "0", "--fold-onto", "2", "--json"]
    )
    data = json.loads(out)
    assert data["v"] == 0 and data["u"] == 2 and data["map"] == [1, 0, 1]
    assert parse_graph(data["graph"]).edge_count() == 1


def test_fold_errors(graphs, capsys):
    # K3 has no folds at all
    code, _, err = run(capsys, ["fold", "-G", graphs["k3"], "--fold-vertex", "0"])
    assert code == 2 and "no fold witness" in err
    # explicit bogus witness
    code, _, err = run(
        capsys, ["fold", "-G", graphs["p3"], "--fold-vertex", "0", "--fold-onto", "1"]
    )
    assert code == 2 and "does not dominate" in err
    # out-of-range vertex
    code, _, err = run(
        capsys, ["fold", "-G", graphs["p3"], "--fold-vertex", "7", "--fold-onto", "0"]
    )
    assert code == 2
    # a fold target alone names no fold, and is not ignored
    code, out, err = run(capsys, ["fold", "-G", graphs["p3"], "--fold-onto", "2"])
    assert code == 2 and "--fold-onto needs --fold-vertex" in err and not out


@pytest.mark.parametrize("command", ["fold", "verify"])
def test_fold_flags_have_no_short_aliases(graphs, capsys, command):
    # --fold-vertex and --fold-onto are the only spellings; --v and --u are gone
    argv = [command, "-G", graphs["p3"]]
    if command == "verify":
        argv += ["-H", graphs["k3"], "--side", "first", "--fold-vertex", "0"]
    for extra, rest in ((["--v", "0"], "--v 0"), (["--u", "2"], "--u 2")):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {rest}" in capsys.readouterr().err


def test_collapse_plan_payload(graphs, capsys):
    code, out, err = run(
        capsys,
        ["collapse", "-G", graphs["p3"], "-H", graphs["k3"],
         "--side", "first", "--fold-vertex", "0", "--json"],
    )
    assert code == 0
    assert "side=first" in err and "ambient_cells=30" in err
    data = json.loads(out)
    assert data["side"] == "first" and data["v"] == 0 and data["u"] == 2
    assert data["vertex_order"] is None
    assert data["sequence"]["mode"] == "simplicial"
    assert len(data["retained"]) > 0


def test_collapse_second_side_with_order(graphs, capsys):
    code, out, err = run(
        capsys,
        ["collapse", "-G", graphs["k2"], "-H", graphs["p3"],
         "--side", "second", "--fold-vertex", "0", "--order", "1,0", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["side"] == "second" and data["vertex_order"] == [1, 0]
    assert data["sequence"]["mode"] == "cw"

    code, _, err = run(
        capsys,
        ["collapse", "-G", graphs["k2"], "-H", graphs["p3"],
         "--side", "second", "--fold-vertex", "0", "--order", "0,0"],
    )
    assert code == 2 and "error" in err


def test_homology_from_graphs(graphs, capsys, monkeypatch):
    # the Betti numbers come from the cells of Hom(G, H), not from its order complex
    seen = []
    monkeypatch.setattr(cli, "betti", lambda x, ring: seen.append(x) or betti(x, ring))
    code, out, err = run(capsys, ["homology", "-G", graphs["k2"], "-H", graphs["k3"], "--json"])
    assert code == 0
    assert [type(x) for x in seen] == [HomComplex]
    data = json.loads(out)
    assert data["betti"] == [1, 1] and data["coefficients"] == "gf2"
    assert data["torsion"] is None
    assert "betti: [1, 1]" in err


def test_homology_from_complex_file(capsys, tmp_path):
    path = tmp_path / "hollow.json"
    path.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "facets": [[0, 1], [0, 2], [1, 2]],
    }))
    code, out, _ = run(capsys, ["homology", "--complex", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1]


def test_homology_from_poset_file(capsys, tmp_path):
    p = FacePoset(range(3), [(0, 1), (0, 2)])
    path = tmp_path / "vee.json"
    path.write_text(json.dumps(p.to_json()))
    code, out, _ = run(capsys, ["homology", "--complex", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1] and data["f_vector"] == [3, 2]


@pytest.mark.parametrize("dim", ["1.5", '"0"', "true"])
def test_homology_complex_rejects_a_poset_dim_that_is_not_an_integer(capsys, tmp_path, dim):
    # a poset file's dims are checked, though the poset keeps none
    path = tmp_path / "poset.json"
    path.write_text('{"elements": [{"id": 0, "dim": 0}, {"id": 1, "dim": %s}], "covers": [[0, 1]]}' % dim)
    code, out, err = run(capsys, ["homology", "--complex", str(path)])
    assert code == 2 and not out and "is not an integer" in err


@pytest.mark.parametrize("h, betti", [("k3", [1, 1]), ("k4", [1, 0, 1])])
def test_homology_of_a_hom_out_file(graphs, capsys, tmp_path, h, betti):
    # a hom --out file labels its cells with nested arrays; homology reads only its order
    (tmp_path / "k4.graph").write_text(format_graph(complete(4)))
    argv = ["-G", graphs["k2"], "-H", str(tmp_path / f"{h}.graph")]
    out_file = tmp_path / "hom.json"
    assert run(capsys, ["hom", *argv, "--out", str(out_file)])[0] == 0
    assert json.loads(out_file.read_text())["elements"][0]["label"] == [[0], [1]]
    code, out, _ = run(capsys, ["homology", "--complex", str(out_file), "--json"])
    assert code == 0 and json.loads(out)["betti"] == betti
    code, out, _ = run(capsys, ["homology", *argv, "--json"])
    assert code == 0 and json.loads(out)["betti"] == betti


def test_homology_torsion_in_integer_mode(capsys, tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"vertices": list(range(6)), "facets": RP2_FACETS}))
    code, out, err = run(
        capsys, ["homology", "--complex", str(path), "--coefficients", "integer", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1] and data["torsion"] == [[], [2]]
    assert "torsion" in err


def test_homology_integer_sphere(capsys, tmp_path):
    # Hom(K2, K5) is a 3-sphere: 4,200 chains in its order complex
    k5 = tmp_path / "k5.graph"
    k5.write_text(format_graph(complete(5)))
    k2 = tmp_path / "k2.graph"
    k2.write_text(K2)
    code, out, _ = run(
        capsys,
        ["homology", "-G", str(k2), "-H", str(k5), "--coefficients", "integer", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1, 0, 0, 1] and data["torsion"] == []


def _refuse_order_complex(poset):
    raise AssertionError("an order complex was built")


def test_homology_from_graphs_counts_chains_unbuilt(graphs, capsys, tmp_path, monkeypatch):
    # the f-vector is the order complex's, counted from the cell poset without building it
    monkeypatch.setattr(cli, "order_complex", _refuse_order_complex)
    k5 = tmp_path / "k5.graph"
    k5.write_text(format_graph(complete(5)))
    code, out, err = run(capsys, ["homology", "-G", graphs["p3"], "-H", str(k5)])
    assert code == 0 and err == ""
    assert out == "f-vector: [1710, 32070, 165360, 378120, 437520, 252000, 57600]  betti: [1, 0, 0, 1]\n"
    # Hom(K3, K2) is empty
    code, out, err = run(capsys, ["homology", "-G", graphs["k3"], "-H", graphs["k2"]])
    assert code == 0 and err == "" and out == "f-vector: []  betti: []\n"


def test_homology_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, ["homology"])
    assert code == 2 and "--complex" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["homology", "--complex", str(bad)])
    assert code == 2 and "not valid JSON" in err

    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    code, _, err = run(capsys, ["homology", "--complex", str(empty)])
    assert code == 2 and "neither" in err

    code, _, err = run(capsys, ["homology", "--complex", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err

    # -G and -H are not silently ignored next to --complex, even when they name no file
    sphere = tmp_path / "sphere.json"
    sphere.write_text(json.dumps({"vertices": [0, 1, 2], "facets": [[0, 1], [0, 2], [1, 2]]}))
    for flag in ("-G", "-H"):
        argv = ["homology", "--complex", str(sphere), flag, str(tmp_path / "missing.graph")]
        code, out, err = run(capsys, argv)
        assert code == 2 and f"{flag} cannot be combined with --complex" in err and not out

    # JSON 1e400 reads as inf, which int() would meet with OverflowError
    huge = tmp_path / "huge.json"
    huge.write_text('{"vertices": [0], "facets": [[1e400]]}')
    code, _, err = run(capsys, ["homology", "--complex", str(huge)])
    assert code == 2 and "not an integer" in err

    # the stdlib decoder raises RecursionError long before this depth
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, ["homology", "--complex", str(deep)])
    assert code == 2 and "too deeply" in err


def chain_poset(n: int) -> dict:
    return FacePoset(range(n), [(i, i + 1) for i in range(n - 1)]).to_json()


@pytest.mark.parametrize("payload, budget, code", [
    # a triangle facet closes to 7 simplices, and a 3-element chain has 7 chains
    ({"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}, 7, 0),
    ({"vertices": [0, 1, 2], "facets": [[0, 1, 2]]}, 6, 3),
    (chain_poset(3), 7, 0),
    (chain_poset(3), 6, 3),
    # 2**25 - 1 simplices and 2**22 - 1 chains: both are counted, never built
    ({"vertices": list(range(25)), "facets": [list(range(25))]}, 1_000_000, 3),
    (chain_poset(22), 1_000_000, 3),
    # two facets within the budget whose union is not
    ({"vertices": [0, 1, 2, 3], "facets": [[0, 1, 2], [1, 2, 3]]}, 11, 0),
    ({"vertices": [0, 1, 2, 3], "facets": [[0, 1, 2], [1, 2, 3]]}, 10, 3),
    # a budget below 1 is bad input, as under -G -H
    ({"vertices": [], "facets": []}, 0, 2),
    (chain_poset(1), -1, 2),
])
def test_homology_complex_honours_the_budget(capsys, tmp_path, payload, budget, code):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    started = time.perf_counter()
    got, out, err = run(capsys, ["homology", "--complex", str(path), "--max-cells", str(budget)])
    assert time.perf_counter() - started < 5
    if code == 2:
        assert got == 2 and not out and "max_cells must be positive" in err
    elif code:
        counted = "simplex" if "facets" in payload else "chain"
        assert got == 3 and not out and f"the {counted} count exceeded the budget of {budget}" in err
    else:
        assert got == 0 and "f-vector" in out


def test_homology_complex_stops_counting_chains_past_the_budget(capsys, tmp_path, monkeypatch):
    # a 400-element chain has 400, 79,800 and 10,586,800 chains of one, two
    # and three elements: the count stops at the third length, not the 400th
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_poset(400)))
    reads = []
    below = FacePoset.below
    monkeypatch.setattr(FacePoset, "below", lambda self, x: reads.append(x) or below(self, x))
    code, out, err = run(capsys, ["homology", "--complex", str(path)])
    assert code == 3 and not out and "the chain count exceeded the budget of 1000000" in err
    # from_json reads below once per cover, and each length counted once per element
    assert len(reads) <= 399 + 3 * 400


def test_homology_complex_rejects_a_cyclic_poset(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "elements": [{"id": 0, "dim": 0}, {"id": 1, "dim": 0}],
        "covers": [[0, 1], [1, 0]],
    }))
    code, out, err = run(capsys, ["homology", "--complex", str(path)])
    assert code == 2 and not out and err == "error: cover relation has a cycle: 1 < 0 < 1\n"


def test_verify_first_argument_fold(graphs, capsys):
    code, out, err = run(
        capsys,
        ["verify", "-G", graphs["p3"], "-H", graphs["k3"],
         "--side", "first", "--fold-vertex", "0", "--json"],
    )
    assert code == 0
    assert "verify: PASS" in err
    data = json.loads(out)
    assert data["verdict"]["valid"] is True
    assert data["verdict"]["remaining_matches"] is True
    assert data["ambient_cells"] == 30 and data["target_cells"] == 12
    # steps pair up chains of the order complex, not cells
    assert data["steps"] == 42


def test_verify_first_argument_fold_integer(graphs, capsys, tmp_path):
    # integer cellular homology of Hom(P3, K4) (254 cells) and of Hom(P3 - 0, K4)
    k4 = tmp_path / "k4.graph"
    k4.write_text(format_graph(complete(4)))
    code, out, _ = run(
        capsys,
        ["verify", "-G", graphs["p3"], "-H", str(k4), "--side", "first", "--fold-vertex", "0",
         "--fold-onto", "2", "--coefficients", "integer", "--json"],
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["betti_before"] == verdict["betti_after"] == [1, 0, 1]


def test_verify_first_argument_fold_integer_c4(capsys, tmp_path):
    # Hom(C4, K4) and Hom(C4 - 0, K4) = Hom(P3, K4) both have the integral homology of S^2
    c4, k4 = tmp_path / "c4.graph", tmp_path / "k4.graph"
    c4.write_text(format_graph(cycle(4)))
    k4.write_text(format_graph(complete(4)))
    code, out, err = run(
        capsys,
        ["verify", "-G", str(c4), "-H", str(k4), "--side", "first", "--fold-vertex", "0",
         "--fold-onto", "2", "--coefficients", "integer", "--json"],
    )
    assert code == 0 and "verify: PASS" in err
    verdict = json.loads(out)["verdict"]
    assert verdict["betti_before"] == verdict["betti_after"] == [1, 0, 1]


@pytest.mark.parametrize("tamper", ["drop", "add"])
def test_verify_first_fails_when_target_is_not_the_folded_complex(graphs, capsys, monkeypatch, tamper):
    build = cli.first_arg_collapse

    def tampered(*args):
        plan = build(*args)
        target = plan.target_cells
        if tamper == "drop":
            target = target[1:]
        else:
            target += (min(set(range(len(plan.hom.cells))) - set(target)),)
        return dataclasses.replace(plan, target_cells=target)

    monkeypatch.setattr(cli, "first_arg_collapse", tampered)
    code, out, err = run(
        capsys,
        ["verify", "-G", graphs["p3"], "-H", graphs["k3"],
         "--side", "first", "--fold-vertex", "0", "--json"],
    )
    assert code == 1 and "verify: FAIL" in err
    assert err.endswith("  failure: target cells do not pull back one-to-one onto Hom(G - v, H)\n")
    verdict = json.loads(out)["verdict"]
    # the replay still lands on the plan's chains; only the Hom-level check fails
    assert verdict["valid"] is True and verdict["remaining_matches"] is False


PAW = "n 4\ne 0 1\ne 0 2\ne 1 2\ne 2 3\n"  # a triangle with vertex 3 hanging off 2
PUSHFORWARD_FAILURE = "target cells are not Hom(K, G - v) pushed forward one-to-one"


@pytest.mark.parametrize("tamper", ["unfolded", "drop", "add"])
def test_verify_second_fails_when_target_is_not_the_folded_complex(graphs, capsys, monkeypatch, tmp_path, tamper):
    build = cli.second_arg_collapse

    def tampered(*args):
        plan = build(*args)
        target = plan.target_cells
        if tamper == "unfolded":  # no steps, so every cell survives and is the target
            everything = tuple(range(len(plan.hom.cells)))
            sequence = dataclasses.replace(plan.sequence, steps=())
            return dataclasses.replace(plan, sequence=sequence, target_cells=everything)
        if tamper == "drop":
            target = target[1:]
        else:
            target += (min(set(range(len(plan.hom.cells))) - set(target)),)
        return dataclasses.replace(plan, target_cells=target)

    monkeypatch.setattr(cli, "second_arg_collapse", tampered)
    paw = tmp_path / "paw.graph"
    paw.write_text(PAW)
    code, out, err = run(
        capsys,
        ["verify", "-G", graphs["k2"], "-H", str(paw), "--side", "second", "--fold-vertex", "3", "--json"],
    )
    assert code == 1 and "verify: FAIL" in err
    # with no steps every cell survives, and the survivors check comes before the pushforward's
    cause = "survivors differ from the target" if tamper == "unfolded" else PUSHFORWARD_FAILURE
    assert err.endswith(f"  failure: {cause}\n")
    verdict = json.loads(out)["verdict"]
    # the replay is legal and the Betti numbers agree; only the Hom-level check fails
    assert verdict["valid"] is True and verdict["remaining_matches"] is False
    assert verdict["betti_before"] == verdict["betti_after"]


# Per tamper: the plan's steps it expects, how it rewrites them, the step the
# replay stops at and the reason it gives.
TAMPERED_STEPS = {
    # Hom(P3, K3), fold 0 onto 2, on the order complex: 11 is the square
    # ({0, 2}, {1}, {0, 2}), and (1,) lies in (0, 1), (1, 2) and (1, 11)
    "first": (
        (((0, 1), (0, 1, 11)), ((1, 2), (1, 2, 11)), ((1,), (1, 11))),
        {
            "swap": (lambda s: s[:1] + (s[2], s[1]) + s[3:],
                     1, "step 1: cell (1,) is not free: (1, 2) also covers it"),
            "drop": (lambda s: s[1:], 1, "step 1: cell (1,) is not free: (0, 1) also covers it"),
            "retarget": (lambda s: ((s[0][0], (0, 11)),) + s[1:],
                         0, "step 0: (0, 11) does not cover (0, 1)"),
            "duplicate": (lambda s: s[:1] + s, 1, "step 1: free cell (0, 1) is absent"),
            "reverse": (lambda s: (s[0][::-1],) + s[1:], 0, "step 0: (0, 1) does not cover (0, 1, 11)"),
        },
    ),
    # Hom(K2, paw), fold 3 onto 0, on the cells: 19 = ({3}, {2}) lies in
    # 6 = ({0, 3}, {2}) and 11 = ({1, 3}, {2}); 18 = ({2}, {3}) lies in
    # 15 = ({2}, {0, 3}) and 17 = ({2}, {1, 3})
    "second": (
        ((11, 4), (19, 6), (17, 14), (18, 15)),
        {
            "swap": (lambda s: (s[1], s[0]) + s[2:], 0, "step 0: cell 19 is not free: 11 also covers it"),
            "drop": (lambda s: s[:2] + s[3:], 2, "step 2: cell 18 is not free: 17 also covers it"),
            "retarget": (lambda s: ((s[0][0], 6),) + s[1:], 0, "step 0: 6 does not cover 11"),
            "duplicate": (lambda s: s[:1] + s, 1, "step 1: free cell 11 is absent"),
            "reverse": (lambda s: (s[0][::-1],) + s[1:], 0, "step 0: 11 does not cover 4"),
        },
    ),
}


@pytest.mark.parametrize("tamper", ["swap", "drop", "retarget", "duplicate", "reverse"])
@pytest.mark.parametrize("side", ["first", "second"])
def test_verify_names_the_failed_step_of_a_tampered_plan(graphs, capsys, monkeypatch, tmp_path, side, tamper):
    expected_steps, tampers = TAMPERED_STEPS[side]
    rewrite, failed_step, failure = tampers[tamper]
    builder = f"{side}_arg_collapse"
    build = getattr(cli, builder)

    def tampered(*args):
        plan = build(*args)
        steps = plan.sequence.steps
        assert steps[: len(expected_steps)] == expected_steps
        return dataclasses.replace(plan, sequence=dataclasses.replace(plan.sequence, steps=rewrite(steps)))

    monkeypatch.setattr(cli, builder, tampered)
    if side == "first":
        argv = ["-G", graphs["p3"], "-H", graphs["k3"], "--fold-vertex", "0"]
    else:
        paw = tmp_path / "paw.graph"
        paw.write_text(PAW)
        argv = ["-G", graphs["k2"], "-H", str(paw), "--fold-vertex", "3"]
    code, out, err = run(capsys, ["verify", *argv, "--side", side, "--json"])
    assert code == 1
    verdict = json.loads(out)["verdict"]
    assert verdict["valid"] is False and verdict["failed_step"] == failed_step
    assert verdict["remaining_matches"] is False and "failure" not in verdict
    assert err.startswith("verify: FAIL") and err.endswith(f"  failure: {failure}\n")


def _refuse_sequence(phi, direction):
    raise AssertionError("a collapse sequence was built")


def test_verify_first_counts_chains_against_the_budget(graphs, capsys, tmp_path, monkeypatch):
    # Hom(P3, K4) has 254 cells and 9,098 chains; past the budget, collapse and
    # verify stop before any collapse step is built, and verify builds no
    # order complex at all: it replays on the cell poset's streamed chains
    k4 = tmp_path / "k4.graph"
    k4.write_text(format_graph(complete(4)))
    pair = ["-G", graphs["p3"], "-H", str(k4), "--side", "first", "--fold-vertex", "0", "--max-cells"]
    monkeypatch.setattr(homology, "order_complex", _refuse_order_complex)
    with monkeypatch.context() as m:
        m.setattr(folds, "collapse_sequence_from_closure", _refuse_sequence)
        for command in ("collapse", "verify"):
            code, out, err = run(capsys, [command, *pair, "9097"])
            assert code == 3 and not out and "the chain count exceeded the budget of 9097" in err, command
    target = tmp_path / "plan.json"
    code, out, err = run(capsys, ["collapse", *pair, "9098", "--out", str(target)])
    assert code == 0 and err == ""
    assert out == "plan: side=first fold=(0,2) steps=4404 ambient_cells=254 target_cells=50\n"
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "c42e46485e888a6d9d588bd7d0b17406e740b085befa5b44d88a1da85be7369a"
    code, out, err = run(capsys, ["verify", *pair, "9098"])
    assert code == 0 and out.startswith("verify: PASS") and err == ""


def test_verify_first_side_bad_fold_is_input_error(graphs, capsys):
    # the fold is checked before Hom(G, H) is enumerated, so the cell budget is never hit
    code, _, err = run(
        capsys,
        ["verify", "-G", graphs["p3"], "-H", graphs["k3"],
         "--side", "first", "--fold-vertex", "0", "--fold-onto", "1", "--max-cells", "1"],
    )
    assert code == 2 and "does not dominate" in err
    # a scan order belongs to side second only
    for command in ("collapse", "verify"):
        code, out, err = run(
            capsys,
            [command, "-G", graphs["p3"], "-H", graphs["k3"],
             "--side", "first", "--fold-vertex", "0", "--order", "9,9,9"],
        )
        assert code == 2 and "--order" in err and "side-second" in err and not out


def test_second_side_bad_order_is_checked_before_enumeration(capsys, tmp_path):
    k2, k4p = tmp_path / "k2.graph", tmp_path / "k4p.graph"
    k2.write_text(K2)
    k4p.write_text(format_graph(k4_pendant()))
    # an empty order is not the default order, and a non-integer is named as --order's
    for order, message in (("0,0", "permutation"), ("", "--order"), ("0,x", "--order")):
        code, out, err = run(
            capsys,
            ["collapse", "-G", str(k2), "-H", str(k4p), "--side", "second", "--fold-vertex", "4",
             "--order", order, "--max-cells", "1"],
        )
        assert code == 2 and message in err and not out


def test_verify_second_argument_fold(graphs, capsys):
    code, out, err = run(
        capsys,
        ["verify", "-G", graphs["k2"], "-H", graphs["p3"],
         "--side", "second", "--fold-vertex", "0", "--coefficients", "integer", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["betti_before"] == [2]
    assert data["verdict"]["betti_after"] == [2]


def test_verify_second_argument_fold_integer_projective_space(capsys, tmp_path):
    # Hom(C5, K4p) collapses onto Hom(C5, K4), which has the integral homology of RP^3
    c5, k4p = tmp_path / "c5.graph", tmp_path / "k4p.graph"
    c5.write_text(format_graph(cycle(5)))
    k4p.write_text(format_graph(k4_pendant()))
    code, out, _ = run(
        capsys,
        ["verify", "-G", str(c5), "-H", str(k4p), "--side", "second", "--fold-vertex", "4",
         "--coefficients", "integer", "--json"],
    )
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["betti_before"] == verdict["betti_after"] == [1, 0, 0, 1]


def _refuse_poset(hom):
    raise AssertionError("a Hom face poset was built")


# K4 with pendants 4 on 0 and 5 on 1
K4PP = "n 6\n" + "".join(f"e {a} {b}\n" for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 5)))


def test_verify_second_builds_no_face_poset(capsys, tmp_path, monkeypatch):
    # side second replays on the cells of Hom(K, G) and reads both Homs' Betti numbers from their facets
    monkeypatch.setattr(HomComplex, "poset", property(_refuse_poset))
    files = {}
    for name, text in (("k2", K2), ("c5", format_graph(cycle(5))), ("k4p", format_graph(k4_pendant())), ("k4pp", K4PP)):
        files[name] = tmp_path / f"{name}.graph"
        files[name].write_text(text)
    runs = (
        (["-G", files["c5"], "-H", files["k4p"]],
         "ambient_cells=2640 target_cells=2160 betti=[1, 1, 1, 1]->[1, 1, 1, 1]"),
        (["-G", files["k2"], "-H", files["k4pp"], "--coefficients", "integer"],
         "ambient_cells=82 target_cells=66 betti=[1, 0, 1]->[1, 0, 1]"),
    )
    for argv, summary in runs:
        code, out, err = run(capsys, ["verify", *map(str, argv), "--side", "second", "--fold-vertex", "4"])
        assert code == 0 and err == ""
        assert out == f"verify: PASS side=second fold=(4,1) {summary}\n"
    # nor does writing a plan, whose retained cells are its target cells
    plan_file = tmp_path / "plan.json"
    argv = ["collapse", "-G", files["c5"], "-H", files["k4p"], "--side", "second", "--fold-vertex", "4"]
    code, out, err = run(capsys, [*map(str, argv), "--out", str(plan_file)])
    assert code == 0 and err == ""
    assert out == "plan: side=second fold=(4,1) steps=240 ambient_cells=2640 target_cells=2160\n"
    assert len(json.loads(plan_file.read_text())["retained"]) == 2160


def test_missing_graph_file(graphs, capsys, tmp_path):
    code, _, err = run(capsys, ["hom", "-G", str(tmp_path / "nope"), "-H", graphs["k3"]])
    assert code == 2 and "cannot read" in err


def test_malformed_graph_file(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("n 2\ne 0 5\n")
    code, _, err = run(capsys, ["fold", "-G", str(path)])
    assert code == 2 and "line 2" in err


def test_max_cells_budget_exit(graphs, capsys, tmp_path):
    e3 = tmp_path / "e3.graph"
    e3.write_text("n 3\n")
    code, _, err = run(capsys, ["hom", "-G", str(e3), "-H", graphs["k3"], "--max-cells", "10"])
    assert code == 3 and "the cell count exceeded the budget of 10" in err


def test_hom_deep_domain_is_not_bounded_by_recursion(capsys, tmp_path):
    # 1200 domain vertices is deeper than the default recursion limit of 1000
    e1200 = tmp_path / "e1200.graph"
    e1200.write_text("n 1200\n")
    loop = tmp_path / "loop.graph"
    loop.write_text("n 1\ne 0 0\n")
    code, out, err = run(capsys, ["hom", "-G", str(e1200), "-H", str(loop)])
    assert code == 0 and err == ""
    assert "cells: 1 " in out


# SHA-256 of the --out file of each command, so that any change to the bytes
# the writer produces fails here
PINNED_OUT = {
    "hom": (["hom", "-G", "p3", "-H", "k4"],
            "fd5300bd28d59f11b0195c887faa15c8934670a459d4f02318f0c4e5b958dba8"),
    "collapse-first": (["collapse", "-G", "p3", "-H", "k4", "--side", "first", "--fold-vertex", "0"],
                       "c42e46485e888a6d9d588bd7d0b17406e740b085befa5b44d88a1da85be7369a"),
    "collapse-second": (["collapse", "-G", "c5", "-H", "k4p", "--side", "second", "--fold-vertex", "4"],
                        "5ba474eaf81556e48ba46ab8f4266448b0221c1e43b40cf234c035332efa9df4"),
    "gen": (["gen", "--seed", "5"],
            "b60367e81d2ec8ef5cf452b634080d05904e243073b90b822aabf1f11d26e6be"),
    "homology": (["homology", "-G", "p3", "-H", "k4"],
                 "81c9d83d2ff1f2b6498f03d442f9c6398c14223cb105b5bb2dc097d18c654d56"),
    # torsion [[], [2]]: Hom(C5, K4p) has the integral homology of RP^3
    "homology-integer": (["homology", "-G", "c5", "-H", "k4p", "--coefficients", "integer"],
                         "fc926d9ddc39c5d12f0b04928957ab96ea77623c6f1c4c39a219535d5603f00e"),
    "verify-first": (["verify", "-G", "p3", "-H", "k4", "--side", "first", "--fold-vertex", "0"],
                     "71cc05d9abbf6ad9350cabcad3eac4567ec1c900f77cda2060705b021999299d"),
    "verify-second-integer": (["verify", "-G", "c5", "-H", "k4p", "--side", "second", "--fold-vertex", "4",
                               "--coefficients", "integer"],
                              "c2f1d0aa7596de9c07f589df549d55f12100ffd7b4132963a1cbb1ccb4aad294"),
    # 2,640 elements and 8,100 covers: 3 and 8 chunks of 1024 in the writer.
    # Pinned from the per-item encoder that wrote each item with its own call.
    "hom-multi-chunk": (["hom", "-G", "c5", "-H", "k4p"],
                        "75123fb9174a2e0c92658907eb1c62f8dfd88f868952fc11184e90038880b69c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUT))
def test_out_file_bytes_are_pinned(capsys, tmp_path, name):
    argv, digest = PINNED_OUT[name]
    files = {}
    for graph, g in (("p3", path_graph(3)), ("k4", complete(4)), ("c5", cycle(5)), ("k4p", k4_pendant())):
        files[graph] = tmp_path / f"{graph}.graph"
        files[graph].write_text(format_graph(g))
    out = tmp_path / "out.json"
    code, _, err = run(capsys, [str(files.get(a, a)) for a in argv] + ["--out", str(out)])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_fixtures_round_trip(capsys):
    code, out, err = run(capsys, ["gen", "--seed", "5", "--count", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 5 and len(data["fixtures"]) == 4
    for fx in data["fixtures"]:
        assert fx["direction"] == "descending"
        p = FacePoset.from_json(fx["poset"])
        phi = PosetMap(p, p, {x: y for x, y in fx["closure"]})
        assert verify_closure_operator(phi, "descending").ok


def test_gen_is_seed_stable(capsys):
    _, out1, _ = run(capsys, ["gen", "--seed", "9", "--count", "3", "--json"])
    _, out2, _ = run(capsys, ["gen", "--seed", "9", "--count", "3", "--json"])
    _, out3, _ = run(capsys, ["gen", "--seed", "10", "--count", "3", "--json"])
    assert out1 == out2
    assert out1 != out3


def test_gen_rejects_bad_sizes(capsys):
    # random_poset draws one bit per pair of its n elements: n is bounded
    too_many = str(MAX_RANDOM_ELEMENTS + 1)
    for flag, value in (("--count", "-2"), ("--max-elements", "0"), ("--max-elements", too_many)):
        code, out, err = run(capsys, ["gen", "--seed", "1", flag, value, "--json"])
        assert code == 2 and flag in err and not out


def dumped(payload) -> str:
    out = io.StringIO()
    cli._dump(payload, out)
    return out.getvalue()


def oracle(payload, default=None) -> str:
    out = io.StringIO()
    json.dump(payload, out, indent=2, sort_keys=True, default=default)
    return out.getvalue() + "\n"


def random_payload(rng, depth=0):
    """Anything json.dump takes with str keys, bools inside int lists and
    text that needs escaping."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([0, -1, 7, 2**70, -(10**20), rng.randint(-999, 999)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, -2.5e-7, 1e300, float("inf"), float("-inf"), float("nan")])
    if kind == 3:
        return "".join(rng.choice('ab"\\/\n\t\x00\x1f\x7fé\u2028π😀 ') for _ in range(rng.randrange(6)))
    if kind == 4:
        ints = [rng.randint(-99, 99) for _ in range(rng.randrange(6))]
        if ints and rng.random() < 0.3:
            ints[rng.randrange(len(ints))] = rng.choice([True, False])
        return ints if rng.random() < 0.5 else tuple(ints)
    items = [random_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {rng.choice(["id", "dim", "label", "a\"b", "\\", "é", "", "😀"]) + str(i): v
            for i, v in enumerate(items)}


def long_lists(rng, size):
    """Lists of size items in the shapes the writer templates a chunk at a
    time, each with odd items that must leave the template path."""
    shared = (1, 2, 3)

    def rows(odd):
        xs = [[i, -i, 7 * i] for i in range(size)]
        xs[rng.randrange(size)][rng.randrange(3)] = odd
        return xs

    yield from (rows(odd) for odd in (True, 1.5, None, "s{0}", 2**80))
    yield [[] if i % 2 else () for i in range(size)]
    yield [tuple(range(i % 4)) for i in range(size)]
    yield [[[i, i], [i, -i]] for i in range(size)]
    yield [(shared, (i,), ()) for i in range(size)]  # label-like rows of vertex tuples
    yield [(shared, i) for i in range(size)]
    yield [{"id": i, "dim": -i, "label": (shared, (i % 3,))} for i in range(size)]
    yield [{"b": i, "a": [i]} if rng.random() < 0.5 else {"a": [i], "b": i} for i in range(size)]
    yield [{"{": i, "}": shared, '"{0}"': [i, True], "{}": {"x": i, "{y}": i}} for i in range(size)]
    yield [{"only": i} for i in range(size)]


def test_dump_matches_json_dump_on_random_payloads():
    rng = random.Random(9)
    payloads = [random_payload(rng) for _ in range(3000)]
    payloads += [7, "x", None, 1.5, True, [], {}, (), [[]], [{}], {"": []}]
    # int rows of mixed lengths, one holding a bool, at the top and below it
    payloads += [[[1, True], [2, 3, 4]], {"x": {"y": [[1, True], [2, 3, 4]]}}]
    # dicts and lists reached through dicts are streamed at any depth
    payloads.append({"plan": {
        "ints": list(range(1500)),
        "pairs": [[i, i % 2 == 0] for i in range(1100)],
        "keys": {str(i): [i] for i in range(1030)},
        "deeper": [tuple(range(i, i + 3)) for i in range(1200)],
    }})
    for payload in payloads:
        assert dumped(payload) == oracle(payload), payload
    # chunk boundaries at depths one and two (under dicts, so streamed) and
    # at depth three inside a short list (written whole, as a list item)
    for size in (1, 1023, 1024, 1025, 3000):
        for xs in long_lists(rng, size):
            for payload in ({"x": xs}, {"x": {"y": xs}}, {"x": {"y": [xs]}}):
                assert dumped(payload) == oracle(payload), (size, xs[:3])
    # json writes a bool as true, though int.__repr__(True) is "1"
    assert dumped([1, True, 0]) == "[\n  1,\n  true,\n  0\n]\n"
    with pytest.raises(TypeError):
        dumped({1: 2})
    with pytest.raises(TypeError):
        dumped({"x": [{"id": i, "dim": 0} for i in range(1499)] + [{"id": 1499, 0: 0}]})


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def test_dump_streams_long_lists_a_chunk_at_a_time():
    # shaped like hom --out, with labels that share their vertex tuples
    shared = (0, 1)
    hom = {
        "covers": [(i, i + 1) for i in range(3000)],
        "elements": [{"dim": i % 3, "id": i, "label": (shared, (i % 5,))} for i in range(3000)],
    }
    for payload, indent in ((hom, 4), ({"hom": hom}, 6)):
        stream = RecordingStream()
        cli._dump(payload, stream)
        assert "".join(stream.writes) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        # a cover or an element opens a line at this indent with [ or {
        starts = [w.count("\n" + " " * indent + "[") + w.count("\n" + " " * indent + "{") for w in stream.writes]
        assert sum(starts) == 6000 and max(starts) <= 1024, indent


def test_dump_writes_a_generator_as_the_list_it_yields():
    shared = (0, 1)
    shapes = (
        lambda size: ((i, -i) for i in range(size)),  # covers
        lambda size: ({"id": i, "dim": i % 3, "label": (shared, (i % 5,))} for i in range(size)),
        lambda size: (i * i for i in range(size)),
    )
    for size in (0, 1, 1024, 1025, 3000):
        for make in shapes:
            for wrap, indent in ((lambda xs: xs, 2), (lambda xs: {"a": 1, "x": xs}, 4)):
                stream = RecordingStream()
                cli._dump(wrap(make(size)), stream)
                assert "".join(stream.writes) == oracle(wrap(list(make(size)))), (size, indent)
                # an item opens a line at this indent with anything but a closing bracket
                starts = [sum(line[:indent].isspace() and line[indent] not in " ]}"
                              for line in w.split("\n")[1:] if len(line) > indent)
                          for w in stream.writes]
                assert sum(starts) == size and max(starts) <= 1024, (size, indent)


def test_dump_matches_json_dump_on_every_command(graphs, capsys, monkeypatch, tmp_path):
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(json.dumps({"vertices": list(range(6)), "facets": RP2_FACETS}))
    commands = {
        "fold list": ["fold", "-G", graphs["p3"]],
        "fold apply": ["fold", "-G", graphs["p3"], "--fold-vertex", "0"],
        "collapse first": ["collapse", "-G", graphs["p3"], "-H", graphs["k3"],
                           "--side", "first", "--fold-vertex", "0"],
        "collapse second": ["collapse", "-G", graphs["k2"], "-H", graphs["p3"],
                            "--side", "second", "--fold-vertex", "0", "--order", "1,0"],
        "homology torsion": ["homology", "--complex", str(rp2), "--coefficients", "integer"],
        "homology gf2": ["homology", "-G", graphs["k2"], "-H", graphs["k3"]],
        "verify": ["verify", "-G", graphs["p3"], "-H", graphs["k3"], "--side", "first", "--fold-vertex", "0"],
        "gen": ["gen", "--seed", "5", "--count", "3"],
    }
    # keep each payload as the command built it, tuples and generators
    # included; a generator reads once, so each command runs twice, one
    # payload for the writer and one for json.dump
    payloads, again = {}, {}
    for command, argv in commands.items():
        for kept in (payloads, again):
            monkeypatch.setattr(cli, "_dump", lambda payload, stream, c=command, k=kept: k.setdefault(c, payload))
            assert main(argv + ["--json"]) == 0, command
    monkeypatch.undo()
    capsys.readouterr()
    assert payloads.keys() == again.keys() == commands.keys()
    assert payloads["homology torsion"]["torsion"] == [[], [2]]
    assert payloads["homology gf2"]["torsion"] is None
    for command, payload in payloads.items():
        assert dumped(payload) == oracle(again[command], default=list), command
    # hom writes its own payload, the face poset of its cells
    code, out, _ = run(capsys, ["hom", "-G", graphs["p3"], "-H", graphs["k3"], "--json"])
    hom = enumerate_hom_cells(path_graph(3), complete(3))
    assert code == 0 and out == oracle(hom_json(hom), default=list)


def dumped_hom(hom) -> str:
    out = io.StringIO()
    cli._dump_hom(hom, out)
    return out.getvalue()


def test_dump_hom_matches_json_dump_of_the_reference():
    rng = random.Random(31)
    homs = [enumerate_hom_cells(random_graph(rng, rng.randint(1, 4), rng.random(), loops=True),
                                random_graph(rng, rng.randint(1, 4), rng.random(), loops=True))
            for _ in range(60)]
    edge_cases = [
        enumerate_hom_cells(Graph.from_edges(0, []), complete(3)),  # the empty domain: one cell (), labelled []
        enumerate_hom_cells(complete(3), complete(2)),  # an empty Hom
        enumerate_hom_cells(edgeless(2), edgeless(3)),  # an edgeless H
        enumerate_hom_cells(complete(2), complete(2)),  # cells with no covers
    ]
    assert list(map(len, edge_cases)) == [1, 0, 49, 2] and not any(edge_cases[-1].upper_covers())
    whole = enumerate_hom_cells(cycle(5), k4_pendant())
    tops = [i for i in range(len(whole)) if rng.random() < 0.05]
    down_set = sub_complex(whole, set(tops).union(*map(whole.poset.below, tops)))  # covers among kept cells only
    assert 0 < len(down_set) < len(whole)
    for hom in homs + edge_cases + [down_set]:
        assert dumped_hom(hom) == json.dumps(hom_json(hom), indent=2, sort_keys=True, default=list) + "\n"


def test_hom_json_stdout_is_the_out_file(capsys, tmp_path):
    files = {}
    for name, g in (("c5", cycle(5)), ("k4p", k4_pendant()), ("n0", Graph.from_edges(0, []))):
        files[name] = tmp_path / f"{name}.graph"
        files[name].write_text(format_graph(g))
    target = tmp_path / "hom.json"
    for g, summary in (("c5", "cells: 2640"), ("n0", "cells: 1  f-vector: [1]")):
        argv = ["hom", "-G", str(files[g]), "-H", str(files["k4p"])]
        code, out, err = run(capsys, argv + ["--json"])
        assert code == 0 and err.startswith(summary) and err.count("\n") == 1
        assert run(capsys, argv + ["--out", str(target)])[0] == 0
        assert target.read_text() == out
        # under --json and --out, only the file is written
        target.unlink()
        code, also, err = run(capsys, argv + ["--json", "--out", str(target)])
        assert code == 0 and err == "" and also.startswith(summary) and also.count("\n") == 1
        assert target.read_text() == out


def test_dump_hom_writes_a_chunk_of_cells_at_a_time():
    # Hom(C5, K4p): 2,640 cells and 8,100 covers, so both lists take several chunks
    hom = enumerate_hom_cells(cycle(5), k4_pendant())
    stream = RecordingStream()
    cli._dump_hom(hom, stream)
    assert "".join(stream.writes) == dumped_hom(hom)
    # a cell opens its cover rows with [ and its id, or its record with {
    cells = [len(set(re.findall(r"\n    \[\n      (\d+),", w))) + w.count("\n    {") for w in stream.writes]
    with_covers = sum(map(bool, hom.upper_covers()))
    assert 1024 < with_covers < len(hom) and sum(cells) == with_covers + len(hom)
    assert max(cells) <= 1024, cells
