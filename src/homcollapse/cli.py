"""Command-line front end.

Subcommands: hom (enumerate a hom complex), fold (list or apply fold
witnesses), collapse (emit a fold-induced collapse plan), homology (Betti
numbers of a complex), verify (replay a plan and cross-check it), and gen
(seeded random closure fixtures).  Human summaries go to stdout; JSON
artifacts go to --out, or to stdout under --json (the summary then moves
to stderr so stdout stays parseable).

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 resource
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections.abc import Iterator
from itertools import islice, starmap
from operator import itemgetter
from pathlib import Path

from .closure import MAX_RANDOM_ELEMENTS, random_descending_closure, random_poset
from .folds import first_arg_collapse, second_arg_collapse
from .graphs import (
    FoldError,
    FoldWitness,
    GraphParseError,
    apply_fold,
    find_folds,
    format_graph,
    parse_graph,
)
from .hom import ResourceLimitError, enumerate_hom_cells
from .homology import betti, verify_plan
from .posets import FacePoset, SimplicialComplex, order_complex

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
_CELL_BUDGET = "enumerations beyond this many cells"  # what --max-cells bounds, for --help


def _read_graph(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_graph(text)


def _dump(payload, stream) -> None:
    """Write json.dump(payload, stream, indent=2, sort_keys=True), then a newline.

    The stdlib skips its C encoder when given an indent.  texts encodes a
    column at once: exact ints go in as is; rows (lists or tuples of one
    length) and records (dicts with one tuple of str keys, such as poset
    elements) fill one str.format template column by column, except that
    rows of exact ints, such as covers and chain rows, fill it row by row
    as they are; any other column is encoded once per distinct object, since hom labels
    share their vertex tuples, and rows of several lengths (side-first
    chains) as one column per length.  one encodes a single value.  pieces
    streams every dict and list reached from the payload through dicts, a
    dict key by key and a list 1024 items at a time, so the whole text is
    never held at once.  An iterator reached from the payload through dicts,
    such as the generators of elements, covers and steps in hom and
    collapse payloads, is written as the list it yields, and only one
    chunk of its items is held at a time.  Dict keys must be strs; any
    other key raises TypeError.  The helpers are nested because perfbench's
    tracer wraps every function of this module, and a span per call would
    measure the tracer.
    """
    chunk_size = 1024
    quote = json.encoder.encode_basestring_ascii

    def texts(xs, pad: str):
        # what str.format writes for each of xs, a non-empty column, on lines starting with pad
        types = set(map(type, xs))
        if types == {int}:  # exact ints, as in one
            return xs
        inner = pad + "  "
        rows = None
        lengths = ()
        if types <= {list, tuple}:
            n, *lengths = set(map(len, xs))
            if not lengths and 0 < n <= chunk_size:
                template = "[" + inner + ("," + inner).join(["{}"] * n) + pad + "]"
                rows = xs
        elif types == {dict}:
            keys, *others = set(map(tuple, xs))
            if not others and 1 < len(keys) <= chunk_size and all(type(k) is str for k in keys):
                keys = sorted(keys)
                quoted = (quote(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys)
                template = "{{" + inner + ("," + inner).join(quoted) + pad + "}}"
                rows = list(map(itemgetter(*keys), xs))
        if rows is not None:
            columns = list(zip(*rows))
            if all(set(map(type, c)) == {int} for c in columns):  # exact ints, as covers and chain rows
                return list(starmap(template.format, rows))
            return list(starmap(template.format, zip(*[texts(c, inner) for c in columns])))
        ids = list(map(id, xs))
        distinct = dict(zip(ids, xs))
        if lengths:  # rows of several lengths, such as side-first chains: each length as a column
            groups: dict[int, dict] = {}
            for i, x in distinct.items():
                groups.setdefault(len(x), {})[i] = x
            text = {}
            for group in groups.values():
                text.update(zip(group, texts(list(group.values()), pad)))
        else:
            text = {i: one(x, pad) for i, x in distinct.items()}
        return list(map(text.__getitem__, ids))

    def one(x, pad: str) -> str:
        # x on a line starting with pad
        if type(x) is int:
            return int.__repr__(x)
        if type(x) is str:
            return quote(x)
        if x and isinstance(x, (list, tuple)):
            inner = pad + "  "
            return "[" + inner + ("," + inner).join(map(str, texts(x, inner))) + pad + "]"
        if x and isinstance(x, dict):
            return "".join(pieces(x, pad))
        return json.dumps(x)

    def pieces(x, pad: str):
        # one(x, pad) in parts
        inner = pad + "  "
        sep = inner
        if x and isinstance(x, dict):
            yield "{"
            for k, v in sorted(x.items()):
                yield sep + quote(k) + ": "
                yield from pieces(v, inner)
                sep = "," + inner
            yield pad + "}"
        elif isinstance(x, (list, tuple, Iterator)):
            items = iter(x)  # no copy of a long list
            head = "["
            while chunk := list(islice(items, chunk_size)):
                yield head + sep + ("," + inner).join(map(str, texts(chunk, inner)))
                head, sep, chunk = "", "," + inner, None  # one chunk held at a time
            yield "[]" if head else pad + "]"
        else:
            yield one(x, pad)

    stream.writelines(pieces(payload, "\n"))
    stream.write("\n")


def _emit(args, payload) -> None:
    if args.out:
        with open(args.out, "w") as f:
            _dump(payload, f)
    elif args.json:
        _dump(payload, sys.stdout)


def _summary(args, text: str) -> None:
    # keep stdout machine-readable when JSON is streaming to it
    stream = sys.stderr if (args.json and not args.out) else sys.stdout
    print(text, file=stream)


def _witness(graph, args) -> FoldWitness:
    if args.u is not None:
        return FoldWitness(args.v, args.u)
    candidates = [w for w in find_folds(graph) if w.v == args.v]
    if not candidates:
        raise FoldError(f"vertex {args.v} has no fold witness in this graph")
    return candidates[0]


def _plan(args):
    g = _read_graph(args.domain)
    h = _read_graph(args.codomain)
    if args.side == "first":
        if args.order is not None:
            raise ValueError("--order is a side-second option: side first has no scan order")
        return first_arg_collapse(g, h, _witness(g, args), args.max_cells)
    order = None
    if args.order is not None:
        try:
            order = tuple(int(t) for t in args.order.split(","))
        except ValueError:
            raise ValueError(f"--order must be comma-separated vertex ids, not {args.order!r}") from None
    return second_arg_collapse(g, h, _witness(h, args), order, args.max_cells)


def cmd_hom(args) -> int:
    g = _read_graph(args.domain)
    h = _read_graph(args.codomain)
    hom = enumerate_hom_cells(g, h, args.max_cells)
    _summary(args, f"cells: {len(hom)}  f-vector: {list(hom.f_vector())}")
    _emit(args, hom.to_json())
    return EXIT_OK


def cmd_fold(args) -> int:
    if args.v is None and args.u is not None:
        raise ValueError("--fold-onto needs --fold-vertex")
    g = _read_graph(args.graph)
    if args.v is None:
        witnesses = find_folds(g)
        _summary(args, f"fold witnesses: {len(witnesses)}")
        _emit(args, [[w.v, w.u] for w in witnesses])
        return EXIT_OK
    w = _witness(g, args)
    folded, f, _ = apply_fold(g, w)
    _summary(args, f"folded {w.v} onto {w.u}: {folded.n} vertices, {folded.edge_count()} edges")
    if args.json or args.out:
        _emit(args, {
            "v": w.v,
            "u": w.u,
            "map": list(f.map),
            "graph": format_graph(folded),
        })
    else:
        sys.stdout.write(format_graph(folded))
    return EXIT_OK


def cmd_collapse(args) -> int:
    plan = _plan(args)
    _summary(
        args,
        f"plan: side={plan.side} fold=({plan.witness.v},{plan.witness.u}) "
        f"steps={len(plan.sequence)} ambient_cells={len(plan.hom.cells)} "
        f"target_cells={len(plan.target_cells)}",
    )
    _emit(args, plan.to_json())
    return EXIT_OK


def _load_complex(path: str, max_cells: int):
    """The complex in path, or its poset's order complex; ResourceLimitError once past max_cells simplices or chains."""
    if max_cells < 1:  # as enumerate_hom_cells requires under -G -H
        raise ValueError("max_cells must be positive")
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply to read") from None
    if isinstance(data, dict) and "facets" in data:
        return SimplicialComplex.from_json(data, max_cells)
    if isinstance(data, dict) and "elements" in data:
        poset = FacePoset.from_json(data)
        poset.chain_counts(max_cells)  # ResourceLimitError past max_cells chains
        return order_complex(poset)
    raise ValueError(f"{path} holds neither a complex nor a poset")


def cmd_homology(args) -> int:
    if args.complex:
        if args.domain is not None or args.codomain is not None:
            flag = "-G" if args.domain is not None else "-H"
            raise ValueError(f"{flag} cannot be combined with --complex")
        x = _load_complex(args.complex, args.max_cells)
        fv, bv = x.f_vector(), betti(x, args.coefficients)
    else:
        if not (args.domain and args.codomain):
            raise ValueError("homology needs either --complex or both -G and -H")
        g = _read_graph(args.domain)
        h = _read_graph(args.codomain)
        hom = enumerate_hom_cells(g, h, args.max_cells)
        # the f-vector is the order complex's, counted unbuilt; the Betti numbers are cellular, the same ones
        fv, bv = hom.poset.chain_counts(), betti(hom, args.coefficients)
    line = f"f-vector: {list(fv)}  betti: {list(bv.betti)}"
    if bv.torsion:
        line += f"  torsion: {[list(t) for t in bv.torsion]}"
    _summary(args, line)
    _emit(args, {
        "f_vector": list(fv),
        "betti": list(bv.betti),
        "torsion": None if bv.torsion is None else [list(t) for t in bv.torsion],
        "coefficients": args.coefficients,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    plan = _plan(args)
    verdict = verify_plan(plan, args.coefficients)
    status = "PASS" if verdict.all_pass else "FAIL"
    line = (
        f"verify: {status} side={plan.side} fold=({plan.witness.v},{plan.witness.u}) "
        f"ambient_cells={len(plan.hom.cells)} target_cells={len(plan.target_cells)} "
        f"betti={list(verdict.betti_before)}->{list(verdict.betti_after)}"
    )
    if verdict.failure is not None:  # only a FAIL has one
        line += f"  failure: {verdict.failure}"
    _summary(args, line)
    _emit(args, {
        "verdict": verdict.to_json(),
        "side": plan.side,
        "v": plan.witness.v,
        "u": plan.witness.u,
        "ambient_cells": len(plan.hom.cells),
        "target_cells": len(plan.target_cells),
        "steps": len(plan.sequence),
    })
    return EXIT_OK if verdict.all_pass else EXIT_VERIFY


def cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, not {args.count}")
    if not 1 <= args.max_elements <= MAX_RANDOM_ELEMENTS:
        raise ValueError(f"--max-elements must be from 1 to {MAX_RANDOM_ELEMENTS}, not {args.max_elements}")
    rng = random.Random(args.seed)
    fixtures = []
    for _ in range(args.count):
        p = random_poset(rng, args.max_elements)
        phi = random_descending_closure(rng, p)
        fixtures.append({
            "poset": p.to_json(),
            "closure": sorted([x, y] for x, y in phi.map.items()),
            "direction": "descending",
        })
    _summary(args, f"generated {len(fixtures)} closure fixtures (seed {args.seed})")
    _emit(args, {"seed": args.seed, "fixtures": fixtures})
    return EXIT_OK


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="write the JSON artifact here")
    p.add_argument("--json", action="store_true", help="stream the JSON artifact to stdout")


def _add_hom_pair(p: argparse.ArgumentParser, budget: str = _CELL_BUDGET) -> None:
    p.add_argument("-G", dest="domain", required=True, metavar="FILE", help="domain graph file")
    p.add_argument("-H", dest="codomain", required=True, metavar="FILE", help="codomain graph file")
    p.add_argument("--max-cells", type=int, default=1_000_000, metavar="N",
                   help=f"abort {budget} (default 1000000)")


def _add_fold_selection(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fold-vertex", dest="v", type=int, required=True,
                   help="vertex to fold away")
    p.add_argument("--fold-onto", dest="u", type=int, default=None,
                   help="vertex to fold onto (default: first witness for the folded vertex)")


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    _add_hom_pair(p, "beyond this many cells, or order-complex chains with --side first")
    p.add_argument("--side", choices=("first", "second"), required=True,
                   help="fold in the domain (first) or the codomain (second)")
    _add_fold_selection(p)
    p.add_argument("--order", metavar="I,J,...",
                   help="domain vertex scan order for side=second (default 0,1,...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcollapse",
        description="graph homomorphism complexes, fold collapses, and homology checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="enumerate the cell poset of Hom(G, H)")
    _add_hom_pair(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("fold", help="list fold witnesses, or apply one with --fold-vertex")
    p.add_argument("-G", dest="graph", required=True, metavar="FILE", help="graph file")
    p.add_argument("--fold-vertex", dest="v", type=int, default=None,
                   help="vertex to fold away (omit to list witnesses)")
    p.add_argument("--fold-onto", dest="u", type=int, default=None,
                   help="vertex to fold onto")
    _add_output_flags(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("collapse", help="emit a fold-induced collapse plan")
    _add_plan_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("homology", help="Betti numbers of a complex or of Hom(G, H)")
    p.add_argument("--complex", metavar="FILE", help="JSON complex or poset to read instead of -G/-H")
    p.add_argument("-G", dest="domain", metavar="FILE", help="domain graph file")
    p.add_argument("-H", dest="codomain", metavar="FILE", help="codomain graph file")
    p.add_argument("--max-cells", type=int, default=1_000_000, metavar="N",
                   help="abort beyond this many cells, or simplices or chains with --complex (default 1000000)")
    p.add_argument("--coefficients", choices=("gf2", "integer"), default="gf2")
    _add_output_flags(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("verify", help="replay a fold collapse and cross-check it")
    _add_plan_flags(p)
    p.add_argument("--coefficients", choices=("gf2", "integer"), default="gf2")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit seeded random poset/closure fixtures")
    p.add_argument("--seed", type=int, required=True, help="RNG seed; everything else is deterministic")
    p.add_argument("--count", type=int, default=10, metavar="N")
    p.add_argument("--max-elements", type=int, default=10, metavar="N")
    _add_output_flags(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # parse, fold and closure errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
