"""Command-line interface over board and glue files with deterministic output.

Structured results are emitted as JSON with sorted keys; scalar queries print
a bare integer.  Errors exit with status 1 and a JSON object carrying a
stable error code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as corpus_mod
from .adjacency import black_to_white
from .cutpaste import cut_and_paste
from .diagonals import all_diagonals, canonical_good_diagonal, trace_diagonal
from .disk_core import Board, json_square, parse_board, parse_glued, render_board, render_glue, validate
from .errors import NoRationalSolution, QdiskError
from .exact_ldu import det_canonical, ldu_factorize, rank_det, solve_integer
from .oracles import det_bareiss, rank_mod2, rank_rational
from .tilings import enumerate_tilings, quasi_perfect_matching, signed_count


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _looks_like_glue(text: str) -> bool:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            return line.split()[0] in ("squares", "glue")
    return False


def _load_disk(path: str, fmt: str):
    text = _read_text(path)
    if fmt == "board" or (fmt == "auto" and not _looks_like_glue(text)):
        return parse_board(text)
    return parse_glued(text)


def _parse_corner(disk, token: str):
    """A board corner is the lattice point ``x,y``; a glued disk's is a vertex id."""
    if isinstance(disk, Board):
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"--corner of a board is x,y; got {token!r}")
        return int(parts[0]), int(parts[1])
    if "," in token:
        raise ValueError(f"--corner of a glued disk is a vertex id; got {token!r}")
    return int(token)


class _Raw(str):
    """A piece of JSON text that is already encoded."""


_encode = json.JSONEncoder(sort_keys=True).encode


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True)``, on an explicit stack.

    A surgery trace nests two JSON levels per surgery level, deeper than
    ``json.dumps`` can recurse on a long strip.  Dicts (with string keys, as
    every command emits) and lists that hold dicts are opened here; every
    other value is encoded whole.
    """
    parts = []
    todo = [obj]
    while todo:
        x = todo.pop()
        if type(x) is _Raw:
            parts.append(x)
        elif isinstance(x, dict) and x:
            items = []
            for k, v in sorted(x.items()):
                items += [_Raw(", " + _encode(k) + ": "), v]
            items[0] = _Raw("{" + items[0][2:])
            todo += reversed(items + [_Raw("}")])
        elif isinstance(x, (list, tuple)) and any(isinstance(v, dict) for v in x):
            items = []
            for v in x:
                items += [_Raw(", "), v]
            items[0] = _Raw("[")
            todo += reversed(items + [_Raw("]")])
        else:
            parts.append(_encode(x))
    return "".join(parts)


def _emit(obj) -> None:
    print(_dumps(obj))


def _diagonal_record(d) -> dict:
    return {
        "corner": json_square(d.corner),
        "length": d.length,
        "good": d.good,
        "balanced": d.balanced,
        "excellent": d.excellent,
        "squares": [json_square(s) for s in d.squares],
    }


def _cmd_validate(args) -> int:
    disk = _load_disk(args.file, args.format)
    census = validate(disk)
    _emit(census.to_json())
    return 0


def _cmd_diagonals(args) -> int:
    disk = _load_disk(args.file, args.format)
    records = [_diagonal_record(d) for d in all_diagonals(disk)]
    if args.json:
        _emit(records)
    else:
        for r in records:
            flags = f"good={r['good']} balanced={r['balanced']} excellent={r['excellent']}"
            print(f"corner={r['corner']} length={r['length']} {flags} squares={r['squares']}")
    return 0


def _pick_diagonal(disk, corner_token):
    if corner_token is None:
        return canonical_good_diagonal(disk)
    return trace_diagonal(disk, _parse_corner(disk, corner_token))


def _cmd_cutpaste(args) -> int:
    disk = _load_disk(args.file, args.format)
    d = _pick_diagonal(disk, args.corner)
    cp = cut_and_paste(disk, d, delete_side=args.side)
    components = []
    for comp in cp.components:
        if isinstance(comp, Board):
            components.append({"format": "board", "text": render_board(comp)})
        else:
            components.append({"format": "glue", "text": render_glue(comp)})
    _emit(
        {
            "balanced": cp.balanced,
            "deleted_side": cp.deleted_side,
            "removed_black": [json_square(s) for s in cp.removed_black],
            "removed_white": [json_square(s) for s in cp.removed_white],
            "merges": [
                [json_square(l), json_square(r), json_square(v)] for l, r, v in cp.merges
            ],
            "components": components,
            "square_map": sorted(
                [[json_square(s), [ci, json_square(t)]] for s, (ci, t) in cp.square_map.items()]
            ),
        }
    )
    return 0


def _cmd_matrix(args) -> int:
    disk = _load_disk(args.file, args.format)
    _emit(black_to_white(disk).to_json())
    return 0


def _cmd_ldu(args) -> int:
    disk = _load_disk(args.file, args.format)
    f = ldu_factorize(disk)
    _emit(
        {
            "L": [list(r) for r in f.lower],
            "D_ones": [list(rc) for rc in f.middle.ones],
            "D_shape": [f.middle.rows, f.middle.cols],
            "U": [list(r) for r in f.upper],
            "labeling": {
                "blacks": [json_square(s) for s in f.labeling[0]],
                "whites": [json_square(s) for s in f.labeling[1]],
            },
            "trace": f.trace,
        }
    )
    return 0


def _cmd_det(args) -> int:
    disk = _load_disk(args.file, args.format)
    print(det_canonical(disk))
    return 0


def _cmd_rank(args) -> int:
    disk = _load_disk(args.file, args.format)
    print(rank_det(ldu_factorize(disk))[0])
    return 0


def _cmd_solve(args) -> int:
    disk = _load_disk(args.file, args.format)
    v = [int(x) for x in args.rhs.split(",")] if args.rhs else []
    blacks, whites = disk.canonical_labeling()
    if len(v) != len(blacks):
        raise ValueError(f"--rhs has {len(v)} values; the disk has {len(blacks)} black squares")
    f = ldu_factorize(disk)
    pos_b = {s: i for i, s in enumerate(blacks)}
    v_f = [v[pos_b[s]] for s in f.labeling[0]]
    try:
        x_f = solve_integer(f, v_f)
    except NoRationalSolution:
        _emit({"x": None, "code": "no_rational_solution"})
        return 0
    pos_w = {s: i for i, s in enumerate(f.labeling[1])}
    x = [x_f[pos_w[s]] for s in whites]
    _emit({"x": x, "whites": [json_square(s) for s in whites]})
    return 0


def _cmd_tilings(args) -> int:
    disk = _load_disk(args.file, args.format)
    tilings = enumerate_tilings(disk)
    if args.list:
        _emit([[[json_square(a), json_square(b)] for a, b in t.dominoes] for t in tilings])
    elif args.signed:
        print(signed_count(disk))
    else:
        print(len(tilings))
    return 0


def _cmd_match(args) -> int:
    disk = _load_disk(args.file, args.format)
    m = quasi_perfect_matching(disk)
    ids = {t: i for i, t in enumerate(m.tilings)}
    _emit(
        {
            "pairs": [[ids[a], ids[b]] for a, b in m.pairs],
            "loner": None if m.loner is None else ids[m.loner],
            "trace": m.trace,
        }
    )
    return 0


def _corpus_disks(args):
    if args.all_boards:
        return corpus_mod.all_boards(args.max_cells, square_only=args.square_only)
    if args.rectangles:
        return corpus_mod.rectangles(args.max_cells)
    if args.random:
        import random as _random

        rng = _random.Random(args.seed)
        out = []
        for _ in range(args.count):
            n = rng.randrange(2, args.max_cells + 1)
            out.append(corpus_mod.random_board(rng, n))
        if args.square_only:
            out = [b for b in out if b.color_counts()[0] == b.color_counts()[1]]
        return out
    if args.glued:
        return corpus_mod.random_glued_disks(args.seed, args.count, args.max_cells)
    raise QdiskError("choose a generator: --all-boards, --rectangles, --random or --glued")


def _cmd_corpus(args) -> int:
    disks = _corpus_disks(args)
    out = []
    for d in disks:
        if isinstance(d, Board):
            out.append({"format": "board", "text": render_board(d)})
        else:
            out.append({"format": "glue", "text": render_glue(d)})
    _emit(out)
    return 0


def _cmd_crosscheck(args) -> int:
    disks = _corpus_disks(args)
    discrepancies = []
    checked = 0
    for i, disk in enumerate(disks):
        b, w = disk.color_counts()
        if b == 0 or w == 0:
            continue
        checked += 1
        name = f"disk[{i}]"
        try:
            matrix = black_to_white(disk)
            f = ldu_factorize(disk)
            rank, _ = rank_det(f)
            if rank != rank_rational(matrix.as_lists()) or rank != rank_mod2(matrix.as_lists()):
                discrepancies.append({"disk": name, "kind": "rank"})
            if b == w:
                det = det_canonical(disk, f)
                if det not in (-1, 0, 1):
                    discrepancies.append({"disk": name, "kind": "det_range"})
                if det != signed_count(disk):
                    discrepancies.append({"disk": name, "kind": "det_vs_signed"})
                if det != det_bareiss(matrix.as_lists()):
                    discrepancies.append({"disk": name, "kind": "det_vs_elimination"})
        except QdiskError as exc:
            discrepancies.append({"disk": name, "kind": "error", "message": str(exc)})
    _emit({"checked": checked, "discrepancies": discrepancies})
    return 0 if not discrepancies else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdisk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def with_file(p):
        p.add_argument("file", help="input path, or - for stdin")
        p.add_argument("--format", choices=("auto", "board", "glue"), default="auto")
        return p

    with_file(add("validate", _cmd_validate, help="census and structural identities"))
    p = with_file(add("diagonals", _cmd_diagonals, help="one line per diagonal"))
    p.add_argument("--json", action="store_true")
    p = with_file(add("cutpaste", _cmd_cutpaste, help="surgery along a good diagonal"))
    p.add_argument("--corner", help="starting corner of the diagonal (x,y or vertex id)")
    p.add_argument("--side", choices=("left", "right"), help="deleted side when unbalanced")
    with_file(add("matrix", _cmd_matrix, help="black-to-white adjacency matrix"))
    with_file(add("ldu", _cmd_ldu, help="triangular factorization"))
    with_file(add("det", _cmd_det, help="determinant under the canonical labeling"))
    with_file(add("rank", _cmd_rank, help="rank of the adjacency matrix"))
    p = with_file(add("solve", _cmd_solve, help="integer solution of B x = v"))
    p.add_argument("--rhs", required=True, help="comma-separated integer right-hand side")
    p = with_file(add("tilings", _cmd_tilings, help="domino tilings"))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--count", action="store_true")
    g.add_argument("--signed", action="store_true")
    g.add_argument("--list", action="store_true")
    with_file(add("match", _cmd_match, help="quasi-perfect matching of the tilings"))

    for name, fn in (("corpus", _cmd_corpus), ("crosscheck", _cmd_crosscheck)):
        p = add(name, fn, help=f"{name} over a generated corpus")
        p.add_argument("--all-boards", action="store_true")
        p.add_argument("--rectangles", action="store_true")
        p.add_argument("--random", action="store_true")
        p.add_argument("--glued", action="store_true")
        p.add_argument("--max-cells", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--count", type=int, default=20)
        p.add_argument("--square-only", action="store_true")
    return parser


def _join_corner_value(argv: list[str]) -> list[str]:
    """Pass ``--corner X`` on as ``--corner=X``.

    argparse takes a board corner with a negative coordinate, such as
    ``-1,0``, for an option; joined to its flag, it reaches ``_parse_corner``.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--corner":
            out[-1] = f"--corner={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_corner_value(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except QdiskError as exc:
        location = getattr(args, "file", None)
        _emit({"code": exc.code, "message": str(exc), "location": location})
        return 1
    except (ValueError, OSError) as exc:
        location = getattr(args, "file", None)
        _emit({"code": "invalid_argument", "message": str(exc), "location": location})
        return 1
    except Exception as exc:  # the boundary: no input ends in a traceback
        location = getattr(args, "file", None)
        _emit({"code": "internal", "message": f"{type(exc).__name__}: {exc}", "location": location})
        return 1


if __name__ == "__main__":
    sys.exit(main())
