"""Command-line surface: counting, listing, mapping, tree/matrix/table
rendering, and the cross-validation suite.

Each command checks only what no engine checks: count leaves its arguments, the
clamp of --h and the cross-check of the routes to counting.count, list and tree
theirs to eco.walk, and matrix its floor of --h to production_matrix, so a fault
reads the same from the shell and from the library. Each returns its exit code
and its output lines; main writes all output, to stdout or to --out, in one place.
A command whose code depends on every line it writes (map) returns the code as
a callable instead, which main calls after the lines are written.

Exit codes: 0 success, 1 verification failure, method disagreement or a
malformed map input line, 2 usage or parse errors, a closed stdout (with no
--out) or stdin (map), or an --out file that cannot be written. Output is
deterministic for fixed arguments; JSON documents carry schema_version 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import bijection, counting, dyck, eco, genfunc, prodmat
from . import perm as perm_mod
from . import verify as verify_mod

SCHEMA_VERSION = 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # `--out "$FILE"` with FILE unset: fail before any work, and never take ""
        # for stdout or for the working directory, which realpath("") names
        if args.out == "":
            raise ValueError("--out names no file")
        # CPython sets sys.stdout to None when fd 1 is closed at start (`>&-`)
        if args.out is None and sys.stdout is None:
            raise ValueError("stdout is closed")
        code, lines = args.func(args)
        _emit(lines, args.out)
        return code() if callable(code) else code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# one parser per process: a dropped parser is cyclic garbage, one lot per in-process main()
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyck312",
        description=(
            "Height-bounded Dyck paths without valleys just below the bound, "
            "their 312-avoiding permutation images, and exact counts of both."
        ),
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("count", help="count class members for sizes 0..N-MAX")
    p.add_argument("--h", type=int, required=True, help="height bound")
    p.add_argument("--n-max", type=int, required=True, help="largest size to count")
    p.add_argument("--method", choices=(*counting.ROUTES, "all"), default="all")
    p.add_argument("--k", type=int, default=2, help="valley-run bound (brute only)")
    _output_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="list the class members of one size, with labels")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("paths", "perms"), default="paths")
    _output_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("map", help="map stdin lines across the bijection")
    p.add_argument(
        "--direction",
        choices=("auto", "to-perm", "to-path"),
        default="auto",
        help="auto infers from the line's alphabet",
    )
    _output_flags(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("tree", help="print the generating tree to a depth")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kind", choices=("paths", "perms"), default="paths")
    _output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("matrix", help="print the production matrix for a bound")
    p.add_argument("--h", type=int, required=True)
    _output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("table", help="print the denominator-coefficient table")
    p.add_argument("--h-max", type=int, default=14)
    p.add_argument("--j-max", type=int, default=8)
    _output_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run the cross-validation suites")
    p.add_argument("--scope", choices=verify_mod.SCOPES, default="all")
    for name, default in verify_mod.VerifyBounds._field_defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    _output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_verify)

    return parser


def _output_flags(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    if formats:
        p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each item, one or more whole lines, ended by a newline, to stdout or
    to --out; zero items write nothing."""
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return
    # CPython appends in place when nothing else holds the line, as when a generator
    # yields it (a JSON document, a row of counts), so the longest output is not copied
    first += "\n"
    text = itertools.chain((first,), (f"{line}\n" for line in lines))
    try:
        st = None if out is None else os.stat(out)
    except FileNotFoundError:
        st = None
    # the file stdout is open on (/dev/stdout, or its name) is written as stdout, from
    # its offset, as a `>>` redirect asks; stdout None, closed or with no descriptor is no file
    with contextlib.suppress(OSError, ValueError):
        if st and sys.stdout is not None and os.path.samestat(st, os.fstat(sys.stdout.fileno())):
            out = None
    if out is None:
        try:
            sys.stdout.writelines(text)
            sys.stdout.flush()  # a closed pipe must show here, not in the flush at exit
        except BrokenPipeError:
            # the reader left (`dyck312 list ... | head`): stop writing quietly, as a filter
            # does, with stdout on devnull so that the flush at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    if st and not stat.S_ISREG(st.st_mode):
        # a device or pipe: there is no file to replace, so write through it; a
        # directory cannot be opened for writing, and the OSError exits 2
        with open(out, "w") as fh:
            fh.writelines(text)
        return
    # write beside the file a symlink resolves to and rename, so a failed write leaves
    # no partial file; the name keeps runs apart by pid, and is short whatever the target's
    target = os.path.realpath(out)
    tmp = os.path.join(os.path.dirname(target), f".dyck312-{os.getpid()}.tmp")
    made = False
    try:
        # "x" is O_EXCL: never write through a file or symlink planted at the name
        with open(tmp, "x") as fh:
            made = True
            fh.writelines(text)
        if st:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
        made = False
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from exc
    finally:
        # before the rename any exception leaves the temp file, since the lines are
        # made while they are written; remove it, and nothing this run did not make
        if made:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _json_doc(command: str, payload: dict) -> Iterator[str]:
    """The document as one line; yielded, so that _emit holds its only reference."""
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    yield json.dumps(doc, indent=2)


def _json_head(command: str, payload: dict, key: str) -> str:
    """The start of _json_doc's document for payload plus key, through
    '"key": ': key is the last key, and its value is written as it is made."""
    return next(_json_doc(command, payload))[:-2] + f',\n  "{key}": '


def _grid(rows: Iterable[Sequence], fmt: str) -> Iterable[str]:
    """Rows of cells as CSV lines, or as text lines right-aligned to the widest cell."""
    if fmt == "csv":
        return (",".join(map(str, row)) for row in rows)
    cells = [[str(cell) for cell in row] for row in rows]
    width = max(len(cell) for row in cells for cell in row)
    return [" ".join(cell.rjust(width) for cell in row) for row in cells]


# ---------------------------------------------------------------- count


def _cmd_count(args) -> tuple[int, Iterable[str]]:
    try:
        by_method = counting.count(args.h, args.n_max, args.method, args.k)
    except counting.MethodDisagreement as exc:
        print(f"method disagreement: {exc}", file=sys.stderr)
        return 1, ()
    counts = next(iter(by_method.values()))

    if args.format == "text":
        return 0, _grid([counts], "csv")  # the counts as one CSV row
    if args.format == "csv":
        rows = zip(itertools.count(), *by_method.values())
        return 0, _grid(itertools.chain((["n", *by_method],), rows), "csv")
    payload = {"h": args.h, "k": args.k, "n_max": args.n_max, "method": args.method, "counts": counts}
    if args.method == "all":
        payload["methods"] = by_method
    return 0, _json_doc("count", payload)


# ---------------------------------------------------------------- list


def _render(word: str, kind: str) -> str:
    """A class member as printed for --kind: the path word or its permutation."""
    if kind == "perms":
        return str(bijection.path_to_perm(dyck.DyckPath(word)))
    return word


def _cmd_list(args) -> tuple[int, Iterable[str]]:
    # level n is the walk's nodes of semilength n, in tree order; they stream to _emit
    nodes = eco.walk(args.h, args.n)
    rows = ((_render(word, args.kind), label) for word, label in nodes if len(word) == 2 * args.n)

    if args.format == "text":
        return 0, (f"({label}) {text}".rstrip() for text, label in rows)
    if args.format == "csv":
        return 0, _grid(itertools.chain((("object", "label"),), rows), "csv")
    head = _json_head("list", {"h": args.h, "n": args.n, "kind": args.kind}, "objects")
    return 0, _list_json(head, rows)


def _list_json(head: str, rows: Iterable[tuple[str, int]]) -> Iterator[str]:
    """The objects array, one object per item, laid out as json.dumps(indent=2)
    lays it out; each item closes the object before it, so no row is held."""
    before = head + "["  # a level is never empty: every label has a child
    for text, label in rows:
        yield f'{before}\n    {{\n      "object": {json.dumps(text)},\n      "label": {label}'
        before = "    },"
    yield "    }\n  ]\n}"


# ---------------------------------------------------------------- map


def _cmd_map(args) -> tuple[Callable[[], int], Iterator[str]]:
    if sys.stdin is None:  # fd 0 was closed at start (`<&-`)
        raise ValueError("stdin is closed")
    failed = False

    def mapped() -> Iterator[str]:
        nonlocal failed
        # one line is held at a time; a line ends at "\n" only, unlike splitlines
        for i, raw in enumerate(sys.stdin, start=1):
            line = raw.strip()
            direction = args.direction
            if direction == "auto":
                direction = "to-perm" if set(line) <= {"U", "D"} else "to-path"
            try:
                if direction == "to-perm":  # path_to_perm checks the word in the pass that maps it
                    text = str(bijection.path_to_perm(dyck.DyckPath(line)))
                else:
                    text = str(bijection.perm_to_path(perm_mod.parse_perm(line)))
            except ValueError as exc:
                print(f"line {i}: {exc}", file=sys.stderr)
                failed = True
            else:
                yield text

    lines = mapped()

    def code() -> int:
        # a reader that left (`| head`) stopped _emit early: the rest of stdin is still
        # read and mapped, so the exit code and the messages cover every line
        for _ in lines:
            pass
        return 1 if failed else 0

    return code, lines


# ---------------------------------------------------------------- tree


def _cmd_tree(args) -> tuple[int, Iterable[str]]:
    # (depth, object, label) per node, depth first; semilength d sits at depth d
    walk = (
        (len(word) // 2, _render(word, args.kind), label)
        for word, label in eco.walk(args.h, args.depth)
    )

    if args.format == "text":
        return 0, (("  " * depth + f"({label}) {text}").rstrip() for depth, text, label in walk)
    head = _json_head("tree", {"h": args.h, "depth": args.depth, "kind": args.kind}, "root")
    return 0, _tree_json(head, walk)


def _tree_json(head: str, walk: Iterable[tuple[int, str, int]]) -> Iterator[str]:
    """The root node, laid out as json.dumps(indent=2) lays it out, one item per
    node in walk order. A node's children key is written when the next node
    shows whether it has children, so only the last node's depth is held."""
    last = -1  # depth of the node written last; its children key is not written yet
    for depth, text, label in walk:
        pad = " " * (4 * depth)
        if last < 0:
            lines = [head + "{"]  # the root opens on the "root" line
        elif depth > last:  # the first child of the node before
            lines = [f'{pad}"children": [', f"{pad}  {{"]
        else:
            lines = _close_nodes(last, depth)
            lines[-1] += ","
            lines.append(f"{pad}  {{")
        lines += [f'{pad}    "label": {label},', f'{pad}    "object": {json.dumps(text)},']
        yield "\n".join(lines)
        last = depth
    yield "\n".join([*_close_nodes(last, 0), "}"])


def _close_nodes(last: int, depth: int) -> list[str]:
    """Lines that end the node at depth last, a leaf, then its ancestors down to depth."""
    pad = " " * (4 * last)
    lines = [f'{pad}    "children": []', f"{pad}  }}"]
    for d in range(last - 1, depth - 1, -1):
        pad = " " * (4 * d)
        lines += [f"{pad}    ]", f"{pad}  }}"]
    return lines


# ---------------------------------------------------------------- matrix


def _cmd_matrix(args) -> tuple[int, Iterable[str]]:
    if args.h > counting.LARGE_N_LIMIT:
        raise ValueError(f"--h above {counting.LARGE_N_LIMIT} is not supported")
    rows = prodmat.production_matrix(args.h).rows
    if args.format == "text":
        return 0, _grid(rows, "text")
    return 0, _json_doc("matrix", {"h": args.h, "rows": [list(r) for r in rows]})


# ---------------------------------------------------------------- table


def _cmd_table(args) -> tuple[int, Iterable[str]]:
    if args.h_max < 1 or args.j_max < 1:
        raise ValueError("--h-max and --j-max must be >= 1")
    if args.h_max > counting.LARGE_N_LIMIT or args.j_max > counting.LARGE_N_LIMIT:
        raise ValueError(f"--h-max and --j-max above {counting.LARGE_N_LIMIT} are not supported")
    js = range(1, args.j_max + 1)
    rows = [[genfunc.denominator_coeff(h, j) for j in js] for h in range(1, args.h_max + 1)]
    if args.format == "json":
        payload = {"h_max": args.h_max, "j_max": args.j_max, "coefficients": rows}
        return 0, _json_doc("table", payload)
    header = ["h/j" if args.format == "text" else "h", *js]
    grid = [header, *([h, *row] for h, row in enumerate(rows, start=1))]
    if args.format == "csv":
        return 0, _grid(grid, "csv")
    return 0, [*_grid(grid, "text"), "", "note: the diagonals line up with OEIS A112467"]


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> tuple[int, list[str]]:
    bounds = verify_mod.VerifyBounds(*(getattr(args, f) for f in verify_mod.VerifyBounds._fields))
    results = verify_mod.run(scope=args.scope, bounds=bounds)
    ok = all(r.passed for r in results)
    code = 0 if ok else 1
    if args.format == "json":
        payload = {
            "scope": args.scope,
            "passed": ok,
            "results": [r._asdict() for r in results],
        }
        return code, _json_doc("verify", payload)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return code, lines


if __name__ == "__main__":
    raise SystemExit(main())
