"""Workload ladders, seeded relabelling and the expected-value oracle.

Each workload is a fixed list of homcollapse CLI invocations.  A
labelling permutes the vertex ids of every graph, and the fold vertex is
mapped along the permutation.  Labelling 0 keeps the identity ids; the
others are drawn from the workload seed.  Every value pinned in EXPECT is
invariant under relabelling, so it holds for every labelling; the SHA-256
digests of --out files are pinned for labelling 0.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path


def _complete(n):
    return list(combinations(range(n), 2))


# name -> (vertex count, edges).  K4p / K5p: a pendant on vertex 0;
# K4pp: pendants 4 (on 0) and 5 (on 1); K4r: K4 with a loop at every vertex.
GRAPHS = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "K4": (4, _complete(4)),
    "K5": (5, _complete(5)),
    "K4p": (5, _complete(4) + [(4, 0)]),
    "K5p": (6, _complete(5) + [(5, 0)]),
    "K4pp": (6, _complete(4) + [(4, 0), (5, 1)]),
    "K4r": (4, _complete(4) + [(v, v) for v in range(4)]),
}


@dataclass(frozen=True)
class Instance:
    """One CLI run.  side "first" folds G's vertex v onto u; side "second"
    folds H's vertex v onto the CLI's first witness (u is None)."""

    name: str
    command: str  # hom | collapse | verify
    g: str
    h: str
    side: str | None = None
    v: int | None = None
    u: int | None = None
    coefficients: str | None = None


def _first(g, h):
    return Instance(f"verify-first {g}->{h}", "verify", g, h, "first", 0, 2)


def _second(g, h, v, coefficients=None):
    return Instance(f"verify-second {g}->{h}", "verify", g, h, "second", v, None, coefficients)


WORKLOADS = {
    "verify-first": [_first("P3", "K4"), _first("C4", "K4"), _first("P4", "K4")],
    "verify-second": [
        _second("C5", "K4p", 4),
        _second("K2", "K4pp", 4, "integer"),
        _second("K2", "K4p", 4, "integer"),
    ],
    "emit": [
        Instance("hom C5->K5", "hom", "C5", "K5"),
        Instance("hom P4->K4r", "hom", "P4", "K4r"),
        Instance("collapse-second C5->K5p", "collapse", "C5", "K5p", "second", 5),
        Instance("collapse-first P4->K4", "collapse", "P4", "K4", "first", 0, 2),
    ],
}

# The cold CLI start timed in set-up: `fold -G` on the first domain graph.
SETUP_GRAPH = "P3"
SETUP_EXPECT = "fold witnesses: 2"

def _verified(cells, target, steps, betti):
    """What a passing `verify` prints and writes to --out."""
    verdict = {
        "valid": True, "failed_step": None, "euler_invariant": True,
        "betti_before": betti, "betti_after": betti, "remaining_matches": True,
    }
    return {
        "exit": 0, "ambient_cells": cells, "target_cells": target, "steps": steps,
        "verdict": "PASS", "betti": [betti, betti], "verdict_json": verdict,
    }


# Relabelling-invariant values per instance.
EXPECT = {
    "verify-first P3->K4": _verified(254, 50, 4404, [1, 0, 1]),
    "verify-first C4->K4": _verified(674, 254, 12924, [1, 0, 1]),
    "verify-first P4->K4": _verified(1202, 254, 44700, [1, 0, 1]),
    "verify-second C5->K4p": _verified(2640, 2160, 240, [1, 1, 1, 1]),
    "verify-second K2->K4pp": _verified(82, 66, 8, [1, 0, 1]),
    "verify-second K2->K4p": _verified(66, 50, 8, [1, 0, 1]),
    "hom C5->K5": {"exit": 0, "cells": 45540, "f_vector": [1020, 5700, 13000, 15000, 8750, 2070]},
    "hom P4->K4r": {
        "exit": 0, "cells": 50625,
        "f_vector": [256, 1536, 4480, 8320, 10896, 10560, 7744, 4320, 1816, 560, 120, 16, 1],
    },
    "collapse-second C5->K5p": {"exit": 0, "ambient_cells": 49540, "target_cells": 45540, "steps": 2000},
    "collapse-first P4->K4": {"exit": 0, "ambient_cells": 1202, "target_cells": 254, "steps": 44700},
}
# SHA-256 of each --out file under the identity labelling.
DIGESTS = {
    "verify-first P3->K4": "71cc05d9abbf6ad9350cabcad3eac4567ec1c900f77cda2060705b021999299d",
    "verify-first C4->K4": "53bcc0102e059584e5c81a4a80bbfc8d11ac63993d32da3348b466f6329c2fb3",
    "verify-first P4->K4": "f1a562995969c7d133cba4eaad726b6aab8c327ffce574d3f00511ca915c68af",
    "verify-second C5->K4p": "1df5aef19a1d0c2f3501936f7e07b889a09285766e4cccf0da5c2f0dd4bdc855",
    "verify-second K2->K4pp": "31db82901d24a6801488565f3f9521b53f55e117ea37b579395ee8505473cbc4",
    "verify-second K2->K4p": "3e519ae6c7ea22b5f6209169d4ffb30b0a2f231186b4e6dc2a5c0c9e2a03b0cd",
    "hom C5->K5": "96bfe82d5b4f92ad6670332aca65b20879adbdbc9212558f80e3e19448ac47e1",
    "hom P4->K4r": "4db52f862f126075ab338cd18049282b41b02a5dd3b9b5d2b0a8219135664ec5",
    "collapse-second C5->K5p": "f16c6708675365d3a5751feb724a068c3c7488816950d4493fe072654ef9b863",
    "collapse-first P4->K4": "e9466ae2e28ff2948416df111c937a07e259329df4403c23c0e89259b7609a96",
}


def permutations(seed: int, labelling: int) -> dict[str, list[int]]:
    """Old id -> new id for every graph; labelling 0 is the identity."""
    perms = {}
    for name, (n, _) in GRAPHS.items():
        perm = list(range(n))
        if labelling:
            random.Random(f"{seed}:{labelling}:{name}").shuffle(perm)
        perms[name] = perm
    return perms


def write_graphs(directory: Path, perms) -> dict[str, Path]:
    paths = {}
    for name, (n, edges) in GRAPHS.items():
        p = perms[name]
        lines = [f"n {n}"] + [f"e {p[a]} {p[b]}" for a, b in edges]
        paths[name] = directory / f"{name}.graph"
        paths[name].write_text("\n".join(lines) + "\n")
    return paths


def argv(inst: Instance, files, perms, out: Path) -> list[str]:
    """CLI arguments (after the program name) for inst under perms."""
    args = [inst.command, "-G", str(files[inst.g]), "-H", str(files[inst.h])]
    if inst.side is not None:
        folded = perms[inst.g if inst.side == "first" else inst.h]
        args += ["--side", inst.side, "--fold-vertex", str(folded[inst.v])]
        if inst.u is not None:
            args += ["--fold-onto", str(folded[inst.u])]
    if inst.coefficients is not None:
        args += ["--coefficients", inst.coefficients]
    return args + ["--out", str(out)]


_FIELD = re.compile(r"(\w[\w-]*)(?:=|: )(\[[^\]]*\](?:->\[[^\]]*\])?|\S+)")


def _ints(text: str) -> list[int]:
    return [int(t) for t in re.findall(r"-?\d+", text)]


def observe(inst: Instance, code: int, stdout: str, out: Path) -> dict:
    """The relabelling-invariant values of one run, read from its summary
    line and its --out JSON."""
    fields = dict(_FIELD.findall(stdout))
    seen = {"exit": code}
    if inst.command == "hom":
        seen["cells"] = int(fields["cells"])
        seen["f_vector"] = _ints(fields["f-vector"])
        return seen
    seen["ambient_cells"] = int(fields["ambient_cells"])
    seen["target_cells"] = int(fields["target_cells"])
    if inst.command == "collapse":
        seen["steps"] = int(fields["steps"])
        return seen
    before, after = fields["betti"].split("->")
    seen["verdict"] = fields["verify"]
    seen["betti"] = [_ints(before), _ints(after)]
    data = json.loads(out.read_text())
    seen["steps"] = data["steps"]
    seen["verdict_json"] = data["verdict"]
    return seen


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(inst: Instance, identity: bool, code: int, stdout: str, out: Path) -> str | None:
    """None when the run matches the oracle, else what differed."""
    try:
        seen = observe(inst, code, stdout, out)
    except (KeyError, ValueError, IndexError, OSError) as exc:
        return f"{inst.name}: unreadable output (exit {code}): {exc!r}: {stdout.strip()[:200]}"
    want = EXPECT[inst.name]
    wrong = {k: (want.get(k), v) for k, v in seen.items() if want.get(k) != v}
    if wrong:
        return f"{inst.name}: expected/observed {wrong}"
    if identity and inst.name in DIGESTS:
        got = digest(out)
        if got != DIGESTS[inst.name]:
            return f"{inst.name}: --out sha256 {got} != pinned {DIGESTS[inst.name]}"
    return None
