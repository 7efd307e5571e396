"""Command-line surface: counting, listing, mapping, tree/matrix/table
rendering, and the cross-validation suite.

Exit codes: 0 success, 1 verification failure or method disagreement,
2 usage or parse errors, or an --out file that cannot be written. Output is
deterministic for fixed arguments; JSON documents carry schema_version 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

from . import bijection, dyck, eco, genfunc, prodmat
from . import perm as perm_mod
from . import verify as verify_mod

SCHEMA_VERSION = 1
LARGE_N_LIMIT = 512  # sanity rail on count --n-max, matrix --h and table --h-max/--j-max
METHODS = {"recurrence": 2, "series": 1, "matrix": 2, "brute": 1, "eco": 3}  # name -> smallest --h


class UsageError(Exception):
    pass


class MethodDisagreement(Exception):
    pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MethodDisagreement as exc:
        print(f"method disagreement: {exc}", file=sys.stderr)
        return 1


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
    p.add_argument("--method", choices=(*METHODS, "all"), default="all")
    p.add_argument("--k", type=int, default=2, help="valley-run bound (brute only)")
    p.add_argument("--cap", type=int, default=None, help="enumeration/tree size cap")
    _output_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("list", help="list the class members of one size, with labels")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("paths", "perms"), default="paths")
    p.add_argument("--cap", type=int, default=None)
    _output_flags(p, ("text", "csv", "json"))
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("map", help="map stdin lines across the bijection")
    p.add_argument(
        "--direction",
        choices=("auto", "to-perm", "to-path"),
        default="auto",
        help="auto infers from the line's alphabet",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("tree", help="print the generating tree to a depth")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--kind", choices=("paths", "perms"), default="paths")
    p.add_argument("--cap", type=int, default=None)
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
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--h-max", type=int, default=5)
    p.add_argument("--identity-n-max", type=int, default=12)
    p.add_argument("--alpha-max", type=int, default=6)
    _output_flags(p, ("text", "json"))
    p.set_defaults(func=_cmd_verify)

    return parser


def _output_flags(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        # a device, pipe or directory: there is no file to replace, so write through it
        with open(out, "w") as fh:
            fh.write(text)
        return
    # write beside the file a symlink resolves to and rename, so a failed write
    # leaves no partial file; the pid keeps the temporary name private to this run
    target = os.path.realpath(out)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, out) from exc


def _json_doc(command: str, payload: dict) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------- count


def _cmd_count(args) -> int:
    h, n_max, k = args.h, args.n_max, args.k
    if h < 1:
        raise UsageError("--h must be >= 1")
    if n_max < 0:
        raise UsageError("--n-max must be >= 0")
    if k != 2 and args.method != "brute":
        raise UsageError("--k other than 2 needs --method brute")
    if args.method in ("recurrence", "series", "matrix") and n_max > LARGE_N_LIMIT:
        raise UsageError(f"--n-max above {LARGE_N_LIMIT} is not supported")

    enum_cap = args.cap if args.cap is not None else dyck.DEFAULT_CAP
    tree_cap = args.cap if args.cap is not None else eco.DEFAULT_TREE_CAP

    def compute(method: str) -> list[int]:
        if h < METHODS[method]:
            raise UsageError(f"--method {method} needs --h >= {METHODS[method]}")
        # a valley at height h-1 needs semilength >= h+1, so every count at
        # n <= h is Catalan for any --k: each bound from n_max up gives the
        # same counts, and the least one the method accepts costs the least
        bound = max(min(h, n_max), METHODS[method])
        if method == "recurrence":
            return list(genfunc.count_sequence(bound, n_max))
        if method == "series":
            return list(genfunc.series(genfunc.generating_function(bound), n_max))
        if method == "matrix":
            return list(prodmat.level_totals(prodmat.production_matrix(bound), 1, n_max))
        if method == "brute":
            return [dyck.count_brute(n, bound, k, cap=enum_cap) for n in range(n_max + 1)]
        return [len(level) for level in eco.iter_levels(bound, n_max, cap=tree_cap)]

    if args.method == "all":
        wanted = [m for m in METHODS if _applicable(m, h, n_max, enum_cap, tree_cap)]
        if not wanted:
            raise UsageError(f"no counting method can reach --n-max {n_max}")
    else:
        wanted = [args.method]
    by_method = {m: compute(m) for m in wanted}

    counts = by_method[wanted[0]]
    for m in wanted[1:]:
        if by_method[m] != counts:
            diffs = [
                f"n={i}: " + ", ".join(f"{name}={vals[i]}" for name, vals in by_method.items())
                for i in range(n_max + 1)
                if len({vals[i] for vals in by_method.values()}) > 1
            ]
            raise MethodDisagreement(diffs[0])

    if args.format == "text":
        _emit(",".join(map(str, counts)), args.out)
    elif args.format == "csv":
        lines = ["n," + ",".join(wanted)]
        lines += [f"{i}," + ",".join(str(by_method[m][i]) for m in wanted) for i in range(n_max + 1)]
        _emit("\n".join(lines), args.out)
    else:
        payload = {
            "h": h,
            "k": k,
            "n_max": n_max,
            "method": args.method,
            "counts": counts,
        }
        if args.method == "all":
            payload["methods"] = {m: by_method[m] for m in wanted}
        _emit(_json_doc("count", payload), args.out)
    return 0


def _applicable(method: str, h: int, n_max: int, enum_cap: int, tree_cap: int) -> bool:
    if h < METHODS[method]:
        return False
    if method == "brute":
        return n_max <= enum_cap
    if method == "eco":
        return n_max <= tree_cap
    return n_max <= LARGE_N_LIMIT


# ---------------------------------------------------------------- list


def _render(word: str, kind: str) -> str:
    """A class member as printed for --kind: the path word or its permutation."""
    if kind == "perms":
        return str(bijection.path_to_perm(dyck.DyckPath(word)))
    return word


def _cmd_list(args) -> int:
    if args.h < 3:
        raise UsageError("--h must be >= 3; labels come from the generating tree")
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    cap = args.cap if args.cap is not None else eco.DEFAULT_TREE_CAP
    level = eco.generate_level(args.h, args.n, cap=cap)
    rows = [(_render(word, args.kind), label) for word, label in level]

    if args.format == "text":
        _emit("\n".join(f"({label}) {text}".rstrip() for text, label in rows), args.out)
    elif args.format == "csv":
        lines = ["object,label"] + [f"{text},{label}" for text, label in rows]
        _emit("\n".join(lines), args.out)
    else:
        payload = {
            "h": args.h,
            "n": args.n,
            "kind": args.kind,
            "objects": [{"object": text, "label": label} for text, label in rows],
        }
        _emit(_json_doc("list", payload), args.out)
    return 0


# ---------------------------------------------------------------- map


def _cmd_map(args) -> int:
    out_lines: list[str] = []
    errors: list[str] = []
    for i, raw in enumerate(sys.stdin.read().splitlines(), start=1):
        line = raw.strip()
        direction = args.direction
        if direction == "auto":
            direction = "to-perm" if set(line) <= {"U", "D"} else "to-path"
        try:
            if direction == "to-perm":
                out_lines.append(str(bijection.path_to_perm(dyck.parse_path(line))))
            else:
                out_lines.append(str(bijection.perm_to_path(perm_mod.parse_perm(line))))
        except ValueError as exc:
            errors.append(f"line {i}: {exc}")
    if out_lines:
        _emit("\n".join(out_lines), args.out)
    for message in errors:
        print(message, file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------- tree


def _cmd_tree(args) -> int:
    if args.depth < 0:
        raise UsageError("--depth must be >= 0")
    cap = args.cap if args.cap is not None else eco.DEFAULT_TREE_CAP
    if args.depth > cap:
        raise dyck.CapExceeded(f"depth {args.depth} exceeds tree cap {cap}")

    def build(word: str, label: int, level: int) -> dict:
        node = {"label": label, "object": _render(word, args.kind)}
        if level < args.depth:
            node["children"] = [build(w, lab, level + 1) for w, lab in eco.grow(word, args.h)]
        else:
            node["children"] = []
        return node

    # label_of validates h and the root once; grow's children are members by construction
    root = build("", eco.label_of(dyck.EMPTY_PATH, args.h), 0)

    if args.format == "text":
        lines: list[str] = []

        def walk(node: dict, depth: int) -> None:
            lines.append(("  " * depth + f"({node['label']}) {node['object']}").rstrip())
            for child in node["children"]:
                walk(child, depth + 1)

        walk(root, 0)
        _emit("\n".join(lines), args.out)
    else:
        _emit(
            _json_doc("tree", {"h": args.h, "depth": args.depth, "kind": args.kind, "root": root}),
            args.out,
        )
    return 0


# ---------------------------------------------------------------- matrix


def _cmd_matrix(args) -> int:
    if args.h < 2:
        raise UsageError("--h must be >= 2")
    if args.h > LARGE_N_LIMIT:
        raise UsageError(f"--h above {LARGE_N_LIMIT} is not supported")
    m = prodmat.production_matrix(args.h)
    if args.format == "text":
        width = max(len(str(e)) for row in m.rows for e in row)
        lines = [" ".join(f"{e:>{width}}" for e in row) for row in m.rows]
        _emit("\n".join(lines), args.out)
    else:
        _emit(_json_doc("matrix", {"h": args.h, "rows": [list(r) for r in m.rows]}), args.out)
    return 0


# ---------------------------------------------------------------- table


def _cmd_table(args) -> int:
    if args.h_max < 1 or args.j_max < 1:
        raise UsageError("--h-max and --j-max must be >= 1")
    if args.h_max > LARGE_N_LIMIT or args.j_max > LARGE_N_LIMIT:
        raise UsageError(f"--h-max and --j-max above {LARGE_N_LIMIT} are not supported")
    rows = [
        [genfunc.denominator_coeff(h, j) for j in range(1, args.j_max + 1)]
        for h in range(1, args.h_max + 1)
    ]
    if args.format == "text":
        width = max(
            [len(str(e)) for row in rows for e in row] + [len(str(args.h_max)), 3]
        )
        header = " ".join([f"{'h/j':>{width}}"] + [f"{j:>{width}}" for j in range(1, args.j_max + 1)])
        lines = [header]
        for h, row in enumerate(rows, start=1):
            lines.append(" ".join([f"{h:>{width}}"] + [f"{e:>{width}}" for e in row]))
        lines.append("")
        lines.append("note: the diagonals line up with OEIS A112467")
        _emit("\n".join(lines), args.out)
    elif args.format == "csv":
        lines = ["h," + ",".join(str(j) for j in range(1, args.j_max + 1))]
        lines += [f"{h}," + ",".join(map(str, row)) for h, row in enumerate(rows, start=1)]
        _emit("\n".join(lines), args.out)
    else:
        _emit(
            _json_doc(
                "table",
                {"h_max": args.h_max, "j_max": args.j_max, "coefficients": rows},
            ),
            args.out,
        )
    return 0


# ---------------------------------------------------------------- verify


def _cmd_verify(args) -> int:
    bounds = verify_mod.VerifyBounds(
        n_max=args.n_max,
        h_max=args.h_max,
        identity_n_max=args.identity_n_max,
        alpha_max=args.alpha_max,
    )
    results = verify_mod.run(scope=args.scope, bounds=bounds)
    ok = all(r.passed for r in results)
    if args.format == "text":
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else "")
            for r in results
        ]
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
        _emit("\n".join(lines), args.out)
    else:
        payload = {
            "scope": args.scope,
            "passed": ok,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        _emit(_json_doc("verify", payload), args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
