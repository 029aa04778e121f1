import json

import pytest

from homcollapse import (
    FacePoset,
    PosetMap,
    parse_graph,
    verify_closure_operator,
)
from homcollapse.cli import main

from helpers import complete, edgeless, path_graph

K2 = "n 2\ne 0 1\n"
K3 = "n 3\ne 0 1\ne 0 2\ne 1 2\n"
P3 = "n 3\ne 0 1\ne 1 2\n"


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


def test_homology_from_graphs(graphs, capsys):
    code, out, err = run(capsys, ["homology", "-G", graphs["k2"], "-H", graphs["k3"], "--json"])
    assert code == 0
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


def test_homology_torsion_in_integer_mode(capsys, tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({
        "vertices": list(range(6)),
        "facets": [
            [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
            [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
        ],
    }))
    code, out, err = run(
        capsys, ["homology", "--complex", str(path), "--coefficients", "integer", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1] and data["torsion"] == [[], [2]]
    assert "torsion" in err


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
    assert code == 3 and "10" in err


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
