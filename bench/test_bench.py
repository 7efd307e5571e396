"""Self-tests of the benchmark: generators, oracles and tracer.

    python3 -m pytest bench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import dyck312  # noqa: E402
from dyck312 import bijection, dyck  # noqa: E402

import gen  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _is_dyck(word: str) -> bool:
    level = 0
    for c in word:
        level += {"U": 1, "D": -1}[c]
        if level < 0:
            return False
    return level == 0


def _contains_312_cubic(e) -> bool:
    return any(e[a] > e[c] > e[b] for a, b, c in itertools.combinations(range(len(e)), 3))


# ------------------------------------------------------------ generators


@pytest.mark.parametrize("make", [
    lambda seed: gen.map_stream(seed, count=40, mean=30),
    lambda seed: workloads.CrosscheckSmallH(seed).ops,
    lambda seed: workloads.CountLargeH(seed).ops,
])
def test_generators_are_deterministic_per_seed(make):
    def plain(x):  # partials compare by identity; compare their arguments
        return json.dumps(x, default=lambda p: [p.func.__name__, p.args], sort_keys=True)

    assert plain(make(7)) == plain(make(7))
    assert plain(make(7)) != plain(make(8))


def test_generated_paths_are_valid_and_images_avoid_312():
    s = gen.map_stream(3, count=60, mean=20)
    assert sum(len(w) for w in s["words"]) == 2 * 60 * 20
    for word, text in zip(s["words"], s["perms"]):
        assert _is_dyck(word)
        entries = [int(v) for v in text.split()]
        assert sorted(entries) == list(range(1, len(word) // 2 + 1))
        assert not gen.contains_312(entries)


def test_cycle_lemma_is_uniform_on_small_sizes():
    import random

    rng = random.Random(0)
    seen = {gen.random_dyck_word(rng, 4) for _ in range(2000)}
    assert seen == set(gen.dyck_words(4))


def test_own_checks_match_definitions_and_library():
    for n in range(7):
        for e in itertools.permutations(range(1, n + 1)):
            assert gen.contains_312(list(e)) == _contains_312_cubic(e)
    for n in range(8):
        words = gen.dyck_words(n)
        assert sorted(words) == sorted(p.word for p in dyck.enumerate_dyck(n))
        for w in words:
            p = dyck.DyckPath(w)
            assert gen.image(w) == list(bijection.path_to_perm(p).entries)
            for h in range(1, n + 2):
                assert gen.in_class(w, h) == dyck.in_class(p, h)


def test_malformed_lines_are_malformed():
    s = gen.map_stream(5, count=400, mean=10)
    good_paths, good_perms = set(s["words"]), set(s["perms"])
    bad_paths = [line for line in s["to-perm"]["stdin"].splitlines() if line not in good_paths]
    bad_perms = [line for line in s["to-path"]["stdin"].splitlines() if line not in good_perms]
    assert len(bad_paths) == len(s["to-perm"]["stderr"]) > 0
    assert len(bad_perms) == len(s["to-path"]["stderr"]) > 0
    kinds = {m.split(": ", 1)[1].split(" at ")[0].split(" ")[0] for m in s["to-perm"]["stderr"]}
    assert kinds == {"invalid", "unbalanced", "prefix"}
    for line in bad_paths:
        assert not (set(line) <= {"U", "D"} and _is_dyck(line))
    for line in bad_perms:
        e = [int(v) for v in line.split()]
        assert sorted(e) != list(range(1, len(e) + 1)) or gen.contains_312(e)


# ------------------------------------------------------------ oracles


def test_oracles_reject_wrong_outputs():
    session = workloads.Session()
    ok = session.cli(workloads.count_argv(4, 11, "all", "csv"))
    assert workloads.check_count(4, 11, "all", "csv", ok)
    assert not workloads.check_count(4, 11, "all", "csv", (ok[0], ok[1].replace("\n11,", "\n11,1"), ""))
    assert not workloads.check_count(4, 11, "all", "csv", (1, ok[1], ""))

    ok = session.cli(["list", "--h", "4", "--n", "6", "--kind", "perms"])
    assert workloads.check_list(4, 6, "perms", "text", ok)
    assert not workloads.check_list(4, 6, "perms", "text", (0, ok[1].split("\n", 1)[1], ""))

    ok = session.cli(["tree", "--h", "3", "--depth", "4"])
    assert workloads.check_tree(3, 4, "paths", "text", ok)
    swapped = ok[1].replace("(2) UDUD\n", "(2) UUDD\n", 1)
    assert not workloads.check_tree(3, 4, "paths", "text", (0, swapped, ""))

    ok = session.cli(["verify", "--scope", "matrix", "--format", "json"])
    assert not workloads.check_verify("json", ok)  # 4 checks are fewer than the full suite's 16


@pytest.mark.parametrize("oracle, garbage", [
    (lambda r: workloads.check_count(3, 3, "all", "json", r), '{"command": "count", "counts": 5}'),
    (lambda r: workloads.check_count(3, 3, "all", "csv", r), "n\n"),
    (lambda r: workloads.check_list(3, 2, "paths", "text", r), "UD\n"),
    (lambda r: workloads.check_tree(3, 1, "perms", "text", r), "(1)\n  (2)\n"),
    (lambda r: workloads.check_tree(3, 1, "paths", "json", r), '{"root": []}'),
    (lambda r: workloads.check_verify("text", r), ""),
    (lambda r: workloads.check_verify("json", r), "[]"),
])
def test_oracles_fail_unparsable_output(oracle, garbage):
    assert oracle((0, garbage, "")) is False


def test_map_oracle_counts_each_wrong_line():
    m = workloads.MapRoundtrip.__new__(workloads.MapRoundtrip)
    m.stream = gen.map_stream(2, count=100, mean=15)
    outputs = m.batch(workloads.Session())
    attempted, failed = m.check(outputs)
    assert failed == 0 and attempted == 2 * 100 + 2 * 2 + 100
    to_perm = outputs[0]
    lines = to_perm[1].splitlines()
    lines[3] = lines[4]
    outputs[0] = (to_perm[0], "\n".join(lines) + "\n", to_perm[2])
    assert m.check(outputs) == (attempted, 1)


def test_golden_covers_every_count_the_workloads_can_choose():
    keys = set(workloads.golden())
    for cls in (workloads.CrosscheckSmallH, workloads.CountLargeH):
        assert {f"{h},{n}" for h, n in cls.golden_keys()} <= keys


# ------------------------------------------------------------ tracer


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert tracer_mod.self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "dyck312" or name.startswith("dyck312.")
        for attr, value in vars(module).items()
    }


def test_tracer_catches_inner_calls_and_restores_the_package(tmp_path):
    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert dyck312.bijection.avoids_312 is not before["dyck312.bijection", "avoids_312"]
        assert dyck312.path_to_perm is not before["dyck312", "path_to_perm"]
        assert dyck312.dyck.count_brute(5, 3) == 29
        levels = list(dyck312.eco.iter_levels(3, 4))
    finally:
        t.restore()
    assert _bindings() == before

    names = [t.names[i] for i in t.span_name]
    brute = names.index("dyck.count_brute")
    in_class = [i for i, n in enumerate(names) if n == "dyck.in_class"]
    assert len(in_class) == 42 and all(t.parent[i] == brute for i in in_class)
    metrics = t.metrics(output_bytes=0)
    assert metrics["dyck.in_class.accept_ratio"] == 29 / 42
    assert metrics["dyck.enumerate_dyck.paths"] == 42
    assert metrics["eco.iter_levels.calls"] == 1
    assert metrics["eco.iter_levels.nodes"] == sum(len(level) for level in levels)
    assert names.count("eco.iter_levels") == len(levels) + 1  # one span per resumption

    path = tmp_path / "spans"
    t.dump(str(path))
    header, arrays = tracer_mod.load_spans(str(path))
    assert header["count"] == len(names)
    assert list(arrays["parent"]) == list(t.parent) and list(arrays["end"]) == list(t.end)


def test_every_per_layer_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(tracer_mod.Tracer().metrics(output_bytes=0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


# ------------------------------------------------------------ runner


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "map-roundtrip", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
