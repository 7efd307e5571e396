"""The benchmark's workloads and their output oracles.

A workload is built from a seed, outside any timing. batch() makes one pass
over its operations through the public surface of dyck312 and returns the raw
outputs; it is the timed part. check() compares those outputs with what the
benchmark expects and returns (operations attempted, operations failed).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
import random
import re
import sys

import dyck312.cli
from dyck312 import dyck, perm

import gen

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class Session:
    """Runs dyck312.cli.main in-process with stdin, stdout and stderr
    redirected. op() marks the start of each operation: it numbers the
    operation for the tracer and lets the clock calibrate between operations."""

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.op_id = 0
        self.output_bytes = 0

    def op(self) -> None:
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_id
        if self.clock is not None:
            self.clock.tick()

    def cli(self, argv: list[str], stdin: str = "") -> tuple[int, str, str]:
        self.op()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
        try:
            try:
                rc = dyck312.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        self.output_bytes += len(out)  # the CLI writes ASCII only
        return rc, out, err


def digest(outputs) -> str:
    """Fingerprint of a batch's outputs, so a repeated batch with identical
    outputs reuses the verdict of the one that was fully checked."""
    h = hashlib.blake2b()
    for item in outputs:
        for part in item if isinstance(item, tuple) else (item,):
            h.update(str(part).encode())
            h.update(b"\x00")
    return h.hexdigest()


def sequence_checksum(counts) -> str:
    return hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()


@functools.cache
def golden() -> dict[str, str]:
    """Count-sequence checksums recorded by record_golden.py, keyed 'h,n_max'."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["counts"]


# ------------------------------------------------------------ count oracle

# What parsing an output that is not in the expected form can raise.
MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def applicable_methods(h: int, n_max: int) -> set[str]:
    """The methods count --method all must run, by the CLI's documented caps."""
    wanted = {"series"} if n_max <= 512 else set()
    if h >= 2 and n_max <= 512:
        wanted |= {"recurrence", "matrix"}
    if n_max <= dyck.DEFAULT_CAP:
        wanted.add("brute")
    if h >= 3 and n_max <= 12:
        wanted.add("eco")
    return wanted


def _fibonacci(n_max: int) -> list[int]:
    out = [1, 1]
    while len(out) <= n_max:
        out.append(out[-1] + out[-2])
    return out[: n_max + 1]


def check_count(h: int, n_max: int, method: str, fmt: str, result) -> bool:
    rc, out, err = result
    if rc != 0 or err:
        return False
    try:
        if fmt == "text":
            counts = [int(v) for v in out.strip().split(",")]
            methods = {}
        elif fmt == "csv":
            header, *rows = out.strip().split("\n")
            names = header.split(",")[1:]
            table = [[int(v) for v in row.split(",")] for row in rows]
            if [r[0] for r in table] != list(range(n_max + 1)):
                return False
            methods = {m: [r[i + 1] for r in table] for i, m in enumerate(names)}
            counts = methods[names[0]]
        else:
            doc = json.loads(out)
            if (doc["command"], doc["h"], doc["n_max"], doc["method"]) != ("count", h, n_max, method):
                return False
            counts = doc["counts"]
            methods = doc.get("methods", {})
        if len(counts) != n_max + 1 or any(v != counts for v in methods.values()):
            return False
    except MALFORMED:
        return False
    if fmt != "text" and method == "all" and not applicable_methods(h, n_max) <= set(methods):
        return False
    if any(counts[n] != math.comb(2 * n, n) // (n + 1) for n in range(min(h, n_max) + 1)):
        return False
    if h == 2:
        return counts == _fibonacci(n_max)
    if n_max <= h:
        return True
    return golden().get(f"{h},{n_max}") == sequence_checksum(counts)


def count_argv(h: int, n_max: int, method: str, fmt: str) -> list[str]:
    return ["count", "--h", str(h), "--n-max", str(n_max), "--method", method, "--format", fmt]


# ------------------------------------------------------------ list, tree, verify oracles

_ROW = re.compile(r"\((\d+)\)(?: (.*))?$")


def _render(word: str, kind: str) -> str:
    return word if kind == "paths" else " ".join(map(str, gen.image(word)))


@functools.cache
def expected_rows(h: int, n: int, kind: str) -> frozenset[tuple[str, int]]:
    """(object text, tree label) of every class member of size n."""
    return frozenset(
        (_render(w, kind), gen.tree_label(w, h)) for w in gen.dyck_words(n) if gen.in_class(w, h)
    )


def check_list(h: int, n: int, kind: str, fmt: str, result) -> bool:
    rc, out, err = result
    if rc != 0 or err:
        return False
    try:
        if fmt == "text":
            rows = []
            for line in out.splitlines():
                m = _ROW.match(line)
                rows.append((m.group(2) or "", int(m.group(1))))
        elif fmt == "csv":
            header, *lines = out.splitlines()
            if header != "object,label":
                return False
            rows = [(obj, int(label)) for obj, label in (line.rsplit(",", 1) for line in lines)]
        else:
            doc = json.loads(out)
            if (doc["command"], doc["h"], doc["n"], doc["kind"]) != ("list", h, n, kind):
                return False
            rows = [(o["object"], o["label"]) for o in doc["objects"]]
    except MALFORMED:
        return False
    return len(rows) == len(set(rows)) and set(rows) == expected_rows(h, n, kind)


def _is_child(kind: str, parent: str, child: str) -> bool:
    """child comes from parent by inserting a UD peak (paths), or by
    prepending a value and shifting the entries above it down by one (perms)."""
    if kind == "paths":
        return any(
            child[i:i + 2] == "UD" and child[:i] + child[i + 2:] == parent
            for i in range(len(child) - 1)
        )
    first, *rest = map(int, child.split())
    return [v - 1 if v > first else v for v in rest] == [int(v) for v in parent.split()]


def check_tree(h: int, depth: int, kind: str, fmt: str, result) -> bool:
    rc, out, err = result
    if rc != 0 or err:
        return False
    nodes = []  # (level, object, label, parent object)
    try:
        if fmt == "text":
            path: list[str] = []
            for line in out.splitlines():
                body = line.lstrip(" ")
                level = (len(line) - len(body)) // 2
                m = _ROW.match(body)
                obj = m.group(2) or ""
                nodes.append((level, obj, int(m.group(1)), path[level - 1] if level else None))
                path[level:] = [obj]
        else:
            doc = json.loads(out)
            if (doc["command"], doc["h"], doc["depth"], doc["kind"]) != ("tree", h, depth, kind):
                return False
            todo = [(doc["root"], 0, None)]
            while todo:
                node, level, parent = todo.pop()
                nodes.append((level, node["object"], node["label"], parent))
                todo += [(c, level + 1, node["object"]) for c in node["children"]]
        if not all(parent is None or _is_child(kind, parent, obj) for _, obj, _, parent in nodes):
            return False
    except MALFORMED:
        return False
    for n in range(depth + 1):
        rows = [(obj, label) for level, obj, label, _ in nodes if level == n]
        if len(rows) != len(set(rows)) or set(rows) != expected_rows(h, n, kind):
            return False
    return len(nodes) == sum(len(expected_rows(h, n, kind)) for n in range(depth + 1))


MIN_VERIFY_CHECKS = 16  # the checks dyck312 verify runs by default today


def check_verify(fmt: str, result) -> bool:
    rc, out, err = result
    if rc != 0 or err:
        return False
    try:
        if fmt == "text":
            *lines, summary = out.splitlines()
            passed = [line.startswith("PASS ") for line in lines]
            if summary != f"{len(lines)}/{len(lines)} checks passed":
                return False
        else:
            doc = json.loads(out)
            if doc["passed"] is not True:
                return False
            passed = [r["passed"] is True for r in doc["results"]]
    except MALFORMED:
        return False
    return len(passed) >= MIN_VERIFY_CHECKS and all(passed)


# ------------------------------------------------------------ workloads


class CliWorkload:
    """A seeded, shuffled list of CLI calls, each with its own oracle."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops: list[tuple[list[str], functools.partial]] = self.build(rng)
        rng.shuffle(self.ops)

    def build(self, rng: random.Random):
        raise NotImplementedError

    def batch(self, session: Session) -> list:
        return [session.cli(argv) for argv, _ in self.ops]

    def check(self, outputs: list) -> tuple[int, int]:
        failed = sum(not oracle(result) for (_, oracle), result in zip(self.ops, outputs))
        return len(self.ops), failed


class CrosscheckSmallH(CliWorkload):
    """Every route at small h: count --method all, list and tree of both kinds
    and formats, verify at its defaults. The seed sets the order of the calls
    and the formats whose choice does not change the work."""

    H = range(3, 8)
    COUNT_N = 11
    LIST_N = 9
    TREE_DEPTH = 7

    @classmethod
    def golden_keys(cls) -> list[tuple[int, int]]:
        return [(h, cls.COUNT_N) for h in cls.H]

    def build(self, rng):
        ops = []
        for h in self.H:
            fmt = rng.choice(("text", "csv", "json"))
            ops.append((count_argv(h, self.COUNT_N, "all", fmt),
                        functools.partial(check_count, h, self.COUNT_N, "all", fmt)))
            for kind in ("paths", "perms"):
                for fmt in (rng.choice(("text", "csv")), "json"):
                    argv = ["list", "--h", str(h), "--n", str(self.LIST_N), "--kind", kind, "--format", fmt]
                    ops.append((argv, functools.partial(check_list, h, self.LIST_N, kind, fmt)))
                for fmt in ("text", "json"):
                    argv = ["tree", "--h", str(h), "--depth", str(self.TREE_DEPTH), "--kind", kind,
                            "--format", fmt]
                    ops.append((argv, functools.partial(check_tree, h, self.TREE_DEPTH, kind, fmt)))
        fmt = rng.choice(("text", "json"))
        ops.append((["verify", "--format", fmt], functools.partial(check_verify, fmt)))
        return ops


class CountLargeH(CliWorkload):
    """Counts where h is large: h close to n_max with every method, n_max at
    the 512 rail, and h in the thousands with a small n_max. The seed moves h
    within narrow windows, so the work stays nearly the same."""

    NEAR_DIAGONAL = (64, 128, 192)
    RAIL = (96, 512)
    OFFSETS = (-1, 0, 1)
    DEEP = (("recurrence", 4000), ("series", 2000))

    @classmethod
    def golden_keys(cls) -> list[tuple[int, int]]:
        """Every (h, n_max) with n_max > h that build() can choose."""
        pairs = [(n + d, n) for n in cls.NEAR_DIAGONAL for d in cls.OFFSETS]
        pairs += [(cls.RAIL[0] + d, cls.RAIL[1]) for d in cls.OFFSETS]
        return [(h, n) for h, n in pairs if n > h]

    def build(self, rng):
        calls = [(n + rng.choice(self.OFFSETS), n, "all") for n in self.NEAR_DIAGONAL]
        calls.append((self.RAIL[0] + rng.choice(self.OFFSETS), self.RAIL[1], "all"))
        calls += [(h + rng.randint(-8, 8), rng.randint(2, 5), method) for method, h in self.DEEP]
        calls.append((2, rng.randint(60, 90), "all"))
        ops = []
        for h, n_max, method in calls:
            fmt = rng.choice(("text", "csv", "json"))
            ops.append((count_argv(h, n_max, method, fmt),
                        functools.partial(check_count, h, n_max, method, fmt)))
        return ops


class MapRoundtrip:
    """Long random paths and their images through map in both directions,
    with a share of malformed lines of every error kind; then membership at a
    seeded h on both sides of the bijection."""

    def __init__(self, seed: int):
        self.stream = gen.map_stream(seed)

    def batch(self, session: Session) -> list:
        s = self.stream
        to_perm = session.cli(["map", "--direction", "to-perm"], s["to-perm"]["stdin"])
        to_path = session.cli(["map", "--direction", "to-path"], s["to-path"]["stdin"])
        agree = []
        for perm_text, word, h in zip(to_perm[1].splitlines(), to_path[1].splitlines(), s["hs"]):
            session.op()
            try:
                agree.append(
                    (dyck.in_class(dyck.parse_path(word), h), perm.in_class(perm.parse_perm(perm_text), h))
                )
            except ValueError:
                agree.append(None)
        return [to_perm, to_path, agree]

    def check(self, outputs: list) -> tuple[int, int]:
        attempted = failed = 0
        for direction, (rc, out, err) in zip(("to-perm", "to-path"), outputs):
            want = self.stream[direction]
            got, got_errors = out.splitlines(), err.splitlines()
            attempted += len(want["stdout"]) + len(want["stderr"])
            failed += sum(a != b for a, b in zip(got, want["stdout"])) + abs(len(got) - len(want["stdout"]))
            failed += len(set(want["stderr"]) ^ set(got_errors))
            if rc != (1 if want["stderr"] else 0):
                failed += 1
        member = self.stream["member"]
        agree = outputs[2]
        attempted += len(member)
        failed += sum(pair != (m, m) for pair, m in zip(agree, member)) + len(member) - len(agree)
        return attempted, failed


WORKLOADS = {
    "crosscheck-small-h": CrosscheckSmallH,
    "count-large-h": CountLargeH,
    "map-roundtrip": MapRoundtrip,
}
