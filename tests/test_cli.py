import contextlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

import dyck312
from dyck312 import bijection, cli, dyck, eco, genfunc
from dyck312.cli import main
from dyck312.counting import ROUTES
from dyck312.verify import VerifyBounds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(*argv):
    """Exit code and tracemalloc peak, in bytes, of a command writing to os.devnull."""
    tracemalloc.start()
    try:
        code = main([*argv, "--out", os.devnull])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCount:
    def test_recurrence_text(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "2", "--n-max", "8", "--method", "recurrence")
        assert code == 0
        assert out.strip() == "1,1,2,3,5,8,13,21,34"

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "3", "--n-max", "5", "--method", "all")
        assert code == 0
        assert out.strip() == "1,1,2,5,12,29"

    def test_height_one_series(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "1", "--n-max", "4", "--method", "series")
        assert code == 0
        assert out.strip() == "1,1,0,0,0"

    def test_height_one_all(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "1", "--n-max", "4")
        assert code == 0
        assert out.strip() == "1,1,0,0,0"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "count", "--h", "3", "--n-max", "4", "--method", "all", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["counts"] == [1, 1, 2, 5, 12]
        assert doc["methods"]["brute"] == doc["methods"]["eco"] == doc["counts"]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "count", "--h", "2", "--n-max", "3", "--method", "series", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["n,series", "0,1", "1,1", "2,2", "3,3"]

    def test_brute_general_k(self, capsys):
        code, out, _ = run(
            capsys, "count", "--h", "2", "--n-max", "6", "--method", "brute", "--k", "3"
        )
        assert code == 0
        expected = ",".join(str(dyck.count_brute(n, 2, 3)) for n in range(7))
        assert out.strip() == expected

    # --method all runs each method whose least --h and largest --n-max admit the request
    @pytest.mark.parametrize(
        "argv, methods",
        [
            (["--h", "1", "--n-max", "4"], ["series", "brute"]),
            (["--h", "2", "--n-max", "4"], ["recurrence", "series", "matrix", "brute"]),
            (["--h", "3", "--n-max", "12"], list(ROUTES)),
            (["--h", "3", "--n-max", "14"], ["recurrence", "series", "matrix", "brute"]),
            (["--h", "3", "--n-max", "15"], ["recurrence", "series", "matrix"]),
        ],
    )
    def test_all_runs_the_methods_in_reach(self, capsys, monkeypatch, argv, methods):
        # brute force at its cap is 2.67 M words; only which methods run is asked here
        monkeypatch.setattr(
            dyck, "count_brute", lambda n, h, k=2: genfunc.series(genfunc.generating_function(h), n)[n]
        )
        code, out, _ = run(capsys, "count", *argv, "--format", "json")
        assert code == 0
        assert list(json.loads(out)["methods"]) == methods

    def test_all_with_no_method_in_reach(self, capsys):
        code, out, err = run(capsys, "count", "--h", "2", "--n-max", "513")
        assert (code, out) == (2, "")
        assert err == "error: no counting method can reach --n-max 513\n"

    def test_k_requires_brute(self, capsys):
        code, _, err = run(capsys, "count", "--h", "2", "--n-max", "4", "--k", "3", "--method", "series")
        assert code == 2
        assert "brute" in err

    def test_recurrence_needs_h2(self, capsys):
        code, _, _ = run(capsys, "count", "--h", "1", "--n-max", "4", "--method", "recurrence")
        assert code == 2

    def test_eco_needs_h3(self, capsys):
        code, _, _ = run(capsys, "count", "--h", "2", "--n-max", "4", "--method", "eco")
        assert code == 2

    def test_brute_cap(self, capsys):
        argv = ["count", "--h", "3", "--n-max", "15", "--method", "brute", "--k", "3", "--format", "json"]
        assert run(capsys, *argv) == (2, "", "error: semilength 15 exceeds cap 14\n")

    def test_brute_past_cap_enumerates_nothing(self, capsys, monkeypatch):
        # the cap is checked for --n-max before any smaller size is enumerated
        calls = []
        monkeypatch.setattr(dyck, "enumerate_dyck", lambda n: calls.append(n) or [])
        code, out, err = run(capsys, "count", "--h", "3", "--n-max", "15", "--method", "brute")
        assert (code, out, err) == (2, "", "error: semilength 15 exceeds cap 14\n")
        assert calls == []

    def test_large_n_polynomial_methods(self, capsys):
        code, out, _ = run(capsys, "count", "--h", "4", "--n-max", "300", "--method", "recurrence")
        assert code == 0
        values = out.strip().split(",")
        assert len(values) == 301
        assert int(values[300]) > 2**63  # exact big integers, no overflow

    @pytest.mark.parametrize(
        "method, extra",
        [pytest.param(m, (), id=m) for m in (*ROUTES, "all")]
        + [pytest.param("brute", ("--k", "3"), id="brute-k3")],
    )
    @pytest.mark.parametrize("h, n_max", [(4, 3), (7, 5), (64, 6), (1000, 3)])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_h_past_n_max_counts_as_n_max(self, capsys, method, extra, h, n_max, fmt):
        # at n <= h every count is Catalan, so any h past n_max reads as n_max
        def count(bound):
            code, out, err = run(
                capsys, "count", "--h", str(bound), "--n-max", str(n_max),
                "--method", method, "--format", fmt, *extra,
            )
            assert (code, err) == (0, "")
            return out

        out, expected = count(h), count(n_max)
        if fmt == "json":
            doc, expected_doc = json.loads(out), json.loads(expected)
            assert doc["h"] == h
            expected_doc["h"] = h
            assert doc == expected_doc
        else:
            assert out == expected

    @pytest.mark.parametrize("method", ["all", "series"])
    def test_huge_h(self, capsys, method):
        code, out, _ = run(capsys, "count", "--h", "1000000", "--n-max", "3", "--method", method)
        assert code == 0
        assert out.strip() == "1,1,2,5"

    def test_least_h_checked_before_clamp(self, capsys):
        # the clamp never lifts h: --h 2 stays too small for eco at any n_max
        code, out, err = run(capsys, "count", "--h", "2", "--n-max", "1", "--method", "eco")
        assert (code, out) == (2, "")
        assert "needs --h >= 3" in err

    def test_eco_holds_one_path_not_a_level(self, capsys):
        # level 12 alone is 208,012 (word, label) pairs, about 28 MB as a list
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "count", "--h", "12", "--n-max", "12", "--method", "eco")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.strip().split(",")[-1] == str(dyck.catalan(12))
        assert peak < 2_000_000

    def test_brute_holds_the_halves_not_the_words(self):
        # n = 12 alone is 208,012 paths, 25.7 MB traced as a list; streamed, the
        # peak measured 0.36 MB (the first halves and their mirrors)
        code, peak = traced_peak("count", "--h", "4", "--n-max", "12", "--method", "brute")
        assert code == 0
        assert peak < 1_000_000

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "count", "--h", "4", "--n-max", "10")
        _, second, _ = run(capsys, "count", "--h", "4", "--n-max", "10")
        assert first == second

    def test_method_disagreement_exits_one(self, capsys, monkeypatch, tmp_path):
        # force one route wrong and make sure the diff surfaces
        monkeypatch.setattr(
            "dyck312.cli.genfunc.count_sequence", lambda h, n: (1,) * (n + 1)
        )
        code, out, err = run(capsys, "count", "--h", "3", "--n-max", "4", "--method", "all")
        assert code == 1
        assert out == ""
        assert "disagreement" in err
        assert "n=2" in err and "recurrence=1" in err and "series=2" in err
        target = tmp_path / "counts.txt"
        argv = ["count", "--h", "3", "--n-max", "4", "--out", str(target)]
        assert run(capsys, *argv) == (1, "", err)
        assert not target.exists()


class TestList:
    def test_paths(self, capsys):
        code, out, _ = run(capsys, "list", "--h", "3", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["(2) UDUD", "(3) UUDD"]

    def test_perms(self, capsys):
        code, out, _ = run(capsys, "list", "--h", "3", "--n", "2", "--kind", "perms")
        assert code == 0
        assert out.splitlines() == ["(2) 1 2", "(3) 2 1"]

    def test_empty_path_row(self, capsys):
        code, out, _ = run(capsys, "list", "--h", "3", "--n", "0")
        assert code == 0
        assert out.strip() == "(1)"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "list", "--h", "3", "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["objects"]) == 5
        words = [entry["object"] for entry in doc["objects"]]
        assert sorted(words) == [p.word for p in dyck.enumerate_dyck(3)]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "list", "--h", "3", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["object,label", "UD,2"]

    def test_needs_h3(self, capsys):
        code, _, _ = run(capsys, "list", "--h", "2", "--n", "2")
        assert code == 2

    def test_streams(self):
        # level 12 alone is 208,012 rows, about 37 MB as a list; the walk holds one path
        code, peak = traced_peak("list", "--h", "12", "--n", "12", "--format", "csv")
        assert code == 0
        assert peak < 2_000_000

    def test_json_streams(self):
        # the document of level 12's 65,506 objects was 55.5 MB traced when built
        # whole; streamed, the peak measured 0.09 MB
        code, peak = traced_peak("list", "--h", "4", "--n", "12", "--format", "json")
        assert code == 0
        assert peak < 500_000

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_cap_writes_nothing(self, capsys, tmp_path, fmt):
        # the cap is checked before the first line, the CSV header included, is made
        argv = ["list", "--h", "3", "--n", "13", "--format", fmt]
        error = "error: level 13 exceeds tree cap 12\n"
        assert run(capsys, *argv) == (2, "", error)
        assert run(capsys, *argv, "--out", str(tmp_path / "F")) == (2, "", error)
        assert list(tmp_path.iterdir()) == []


class TestMap:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_auto_both_ways(self, capsys, monkeypatch):
        self.feed(monkeypatch, "UUDUDD\n1\n")
        code, out, _ = run(capsys, "map")
        assert code == 0
        assert out.splitlines() == ["2 3 1", "UD"]

    def test_forced_direction(self, capsys, monkeypatch):
        self.feed(monkeypatch, "2 3 1\n")
        code, out, _ = run(capsys, "map", "--direction", "to-path")
        assert code == 0
        assert out.strip() == "UUDUDD"

    def test_empty_line(self, capsys, monkeypatch):
        self.feed(monkeypatch, "\n")
        code, out, _ = run(capsys, "map")
        assert code == 0
        assert out == "\n"

    def test_error_reporting(self, capsys, monkeypatch):
        self.feed(monkeypatch, "3 1 2\n1\n")
        code, out, err = run(capsys, "map", "--direction", "to-path")
        assert code == 1
        assert "line 1" in err and "312" in err
        assert out.splitlines() == ["UD"]  # the good line still maps

    def test_token_only_int_reads(self, capsys, monkeypatch):
        # an integer is an optional sign and ASCII digits, so '1_0', which Python
        # reads as 10, is not one; the error quotes the token as written
        self.feed(monkeypatch, "2 1 3\n2 1_0 1 3 4 5 6 7 8 9\n")
        code, out, err = run(capsys, "map", "--direction", "to-path")
        assert code == 1
        assert err == "line 2: not an integer: '1_0'\n"
        assert out.splitlines() == ["UUDDUD"]

    def test_parse_error_line_number(self, capsys, monkeypatch):
        self.feed(monkeypatch, "UD\nUDX\n")
        code, out, err = run(capsys, "map")
        assert code == 1
        assert "line 2" in err

    # every separator but "\n" at which str.splitlines ends a line
    @pytest.mark.parametrize(
        "sep", ["\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_ends_at_newline_only(self, capsys, monkeypatch, sep):
        self.feed(monkeypatch, f"UD{sep}UD\nx\n")
        code, out, err = run(capsys, "map")
        assert (code, out) == (1, "")
        assert err == "line 1: not an integer: 'UD'\nline 2: not an integer: 'x'\n"

    def test_stdin_frames_lines_at_newline_only(self):
        # the process's own stdin, not a StringIO: a bare \r stays inside line 1
        cmd = [sys.executable, "-m", "dyck312", "map"]
        proc = subprocess.run(
            cmd, input=b"UD\rUD\nx\n", capture_output=True, env=SUBPROCESS_ENV, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"line 1: not an integer: 'UD'\nline 2: not an integer: 'x'\n"

    def test_streams(self, capsys, monkeypatch):
        # each line is written as it is mapped, and its message as it is read: both
        # are out before the last input line is read
        seen = []

        def stdin():
            yield "UUDUDD\n"
            yield "UDX\n"
            seen.append(capsys.readouterr())
            yield "1\n"

        monkeypatch.setattr("sys.stdin", stdin())
        code, out, err = run(capsys, "map")
        assert [tuple(s) for s in seen] == [("2 3 1\n", "line 2: not an integer: 'UDX'\n")]
        assert (code, out, err) == (1, "UD\n", "")

    @pytest.mark.parametrize(
        "direction, good, bad, mapper, error",
        [
            ("to-perm", "UUDD", "UDX", "path_to_perm", "invalid character 'X' at index 2"),
            ("to-path", "2 1", "3 1 2", "perm_to_path", "'3 1 2' contains 312"),
        ],
    )
    def test_lines_after_the_reader_left_are_checked_not_mapped(
        self, capsys, monkeypatch, tmp_path, direction, good, bad, mapper, error
    ):
        calls = []
        real = getattr(bijection, mapper)
        monkeypatch.setattr(bijection, mapper, lambda x: calls.append(x) or real(x))
        self.feed(monkeypatch, f"{good}\n{good}\n{good}\n{bad}\n{good}\n")
        with open(tmp_path / "stdout", "w") as spare:

            class ReaderLeaves(io.StringIO):
                """A stdout whose reader leaves before the first write."""

                def writelines(self, lines):
                    raise BrokenPipeError

                def fileno(self):  # _emit points this descriptor at devnull
                    return spare.fileno()

            monkeypatch.setattr("sys.stdout", ReaderLeaves())
            code = main(["map", "--direction", direction])
        # line 1 was mapped before the first write; lines 2-5 were only checked
        assert (code, len(calls)) == (1, 1)
        assert capsys.readouterr().err == f"line 4: {error}\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_pipe_leaks_no_descriptor(self, capsys, monkeypatch, tmp_path):
        # an in-process caller keeps running after the reader leaves, so pointing
        # stdout at devnull must not leave the devnull descriptor open
        with open(tmp_path / "stdout", "w") as spare:

            class ReaderLeaves(io.StringIO):
                def writelines(self, lines):
                    raise BrokenPipeError

                def fileno(self):  # the test's own descriptor, never pytest's fd 1
                    return spare.fileno()

            monkeypatch.setattr("sys.stdout", ReaderLeaves())
            before = len(os.listdir("/proc/self/fd"))
            for _ in range(5):
                self.feed(monkeypatch, "UUDD\n")
                assert main(["map"]) == 0
            assert len(os.listdir("/proc/self/fd")) == before

    def test_every_permutation_spelling(self, capsys, monkeypatch):
        # the expectation CI compares the installed script with: canonical text is
        # read as JSON, the other spellings token by token, to the same paths and errors
        data = os.path.join(os.path.dirname(__file__), "data", "map-to-path.")
        with open(data + "in") as fh:
            self.feed(monkeypatch, fh.read())
        with open(data + "out") as out, open(data + "err") as err:
            assert run(capsys, "map", "--direction", "to-path") == (1, out.read(), err.read())

    def test_every_path_fault(self, capsys, monkeypatch):
        # the expectation CI compares the installed script with: valid, empty and
        # CRLF lines, and each fault at the start, middle and end of a 1,000-step
        # word, named as parse_path names it though the mapping pass finds it
        data = os.path.join(os.path.dirname(__file__), "data", "map-to-perm.")
        with open(data + "in", newline="") as fh:
            self.feed(monkeypatch, fh.read())
        with open(data + "out") as out, open(data + "err") as err:
            assert run(capsys, "map", "--direction", "to-perm") == (1, out.read(), err.read())

    def test_crlf_maps_like_lf(self, capsys, monkeypatch):
        text = "UUDUDD\n1\n\n3 1 2\nUDX\n2 1\n"
        self.feed(monkeypatch, text)
        lf = run(capsys, "map")
        self.feed(monkeypatch, text.replace("\n", "\r\n"))
        assert run(capsys, "map") == lf
        assert lf[0] == 1 and lf[1].splitlines() == ["2 3 1", "UD", "", "UUDD"]


class TestTree:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "tree", "--h", "3", "--depth", "2")
        assert code == 0
        assert out.splitlines() == [
            "(1)",
            "  (2) UD",
            "    (2) UDUD",
            "    (3) UUDD",
        ]

    def test_perm_rendering(self, capsys):
        code, out, _ = run(capsys, "tree", "--h", "3", "--depth", "1", "--kind", "perms")
        assert code == 0
        assert out.splitlines() == ["(1)", "  (2) 1"]

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "tree", "--h", "3", "--depth", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)

        def count(node):
            return 1 + sum(count(c) for c in node["children"])

        # 1 + 1 + 2 + 5 nodes in the first four levels
        assert count(doc["root"]) == 9

    def test_json_levels_match_iter_levels(self, capsys):
        # depth 5 reaches nodes whose initial run equals h, which grow only h-1 children
        for h in (3, 4):
            code, out, _ = run(capsys, "tree", "--h", str(h), "--depth", "5", "--format", "json")
            assert code == 0
            level = [json.loads(out)["root"]]
            for expected in eco.iter_levels(h, 5):
                assert [(node["object"], node["label"]) for node in level] == expected
                level = [c for node in level for c in node["children"]]
            assert level == []

    def test_json_streams(self):
        # depth 10 at h = 5 is 26.3 MB traced as a tree of dicts; written as the
        # walk goes, the peak measured 0.07 MB
        code, peak = traced_peak("tree", "--h", "5", "--depth", "10", "--format", "json")
        assert code == 0
        assert peak < 500_000

    def test_depth_cap(self, capsys):
        # eco.walk's check, made at the call, before the first line is written
        argv = ["tree", "--h", "3", "--depth", "13", "--format", "json"]
        assert run(capsys, *argv) == (2, "", "error: level 13 exceeds tree cap 12\n")


class TestMatrix:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "matrix", "--h", "3")
        assert code == 0
        assert out.splitlines() == ["0 1 0", "0 1 1", "0 2 1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "--h", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [[0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 1, 1], [0, 1, 2, 1]]

    def test_needs_h2(self, capsys):
        code, _, _ = run(capsys, "matrix", "--h", "1")
        assert code == 2

    def test_h_above_limit(self, capsys):
        code, out, err = run(capsys, "matrix", "--h", "513")
        assert (code, out) == (2, "")
        assert err == "error: --h above 512 is not supported\n"


class TestTable:
    def test_text_contains_last_row(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        last_data_line = out.splitlines()[14]
        assert last_data_line.split() == ["14", "13", "-65", "154", "-165", "42", "42", "-20", "1"]
        assert "A112467" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--h-max", "3", "--j-max", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "h,1,2,3,4",
            "1,0,0,0,0",
            "2,1,1,0,0",
            "3,2,1,0,0",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"][13] == [13, -65, 154, -165, 42, 42, -20, 1]

    @pytest.mark.parametrize("flag", ["--h-max", "--j-max"])
    def test_side_above_limit(self, capsys, flag):
        code, out, err = run(capsys, "table", flag, "513")
        assert (code, out) == (2, "")
        assert err == "error: --h-max and --j-max above 512 are not supported\n"


class TestVerify:
    def test_identities_scope(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "identities")
        assert code == 0
        assert "PASS catalan-identity-sweep" in out
        assert "FAIL" not in out

    def test_matrix_scope_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "matrix", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(r["passed"] for r in doc["results"])

    def test_eco_scope_holds_words_and_labels(self):
        # holding a level of (word, label, image) triples and the brute-force set of
        # its words, the eco scope peaked at 2.2-2.3 MB traced; holding each level's
        # words and labels only, it measured 1.0-1.1 MB. The first run is discarded: it
        # fills the interpreter's tuple free lists, which tracemalloc counts (+0.6 MB)
        assert traced_peak("verify", "--scope", "eco")[0] == 0
        code, peak = traced_peak("verify", "--scope", "eco")
        assert code == 0
        assert peak < 1_600_000

    def test_all_small_bounds(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "5", "--h-max", "3", "--identity-n-max", "6"
        )
        assert code == 0
        assert out.splitlines()[-1].endswith("checks passed")

    @pytest.mark.parametrize(
        "flag, value, scope",
        [
            ("--n-max", "-1", "bijection"),
            ("--identity-n-max", "1", "identities"),
            ("--identity-n-max", "-3", "identities"),
            ("--h-max", "2", "eco"),
            ("--h-max", "0", "eco"),
        ],
    )
    def test_bound_with_no_case_is_usage_error(self, capsys, flag, value, scope):
        # such a bound leaves a check nothing to check; it must not read as PASS
        code, out, err = run(capsys, "verify", "--scope", scope, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be >=" in err

    @pytest.mark.parametrize(
        "flag, value, scope",
        [
            ("--n-max", "15", "bijection"),
            ("--n-max", "15", "eco"),
            ("--h-max", "33", "eco"),
            ("--identity-n-max", "129", "identities"),
        ],
    )
    def test_bound_above_ceiling_is_usage_error(self, capsys, flag, value, scope):
        code, out, err = run(capsys, "verify", "--scope", scope, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be <=" in err

    def test_bounds_at_ceiling_accepted(self):
        VerifyBounds(n_max=14, h_max=32, identity_n_max=128)

    def test_alpha_max_is_gone(self, capsys):
        # the identity sweep covers every alpha, so there is no range to set
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--alpha-max", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --alpha-max 3" in err


EVERY_FORMAT = [
    (command, fmt)
    for command, formats in [
        ("count --h 3 --n-max 6 --method all", ("text", "csv", "json")),
        ("list --h 3 --n 3 --kind perms", ("text", "csv", "json")),
        ("tree --h 3 --depth 3", ("text", "json")),
        ("matrix --h 3", ("text", "json")),
        ("table --h-max 4 --j-max 3", ("text", "csv", "json")),
        ("verify --n-max 5 --h-max 3 --identity-n-max 6", ("text", "json")),
    ]
    for fmt in formats
] + [("map", None)]


class TestOutputFile(object):
    @pytest.mark.parametrize(
        "command, fmt", EVERY_FORMAT, ids=[f"{c.split()[0]}-{f}" for c, f in EVERY_FORMAT]
    )
    def test_file_holds_stdout(self, capsys, monkeypatch, tmp_path, command, fmt):
        argv = command.split() + (["--format", fmt] if fmt else [])
        monkeypatch.setattr("sys.stdin", io.StringIO("UUDUDD\n2 3 1\nUDX\n"))
        code, out, err = run(capsys, *argv)
        assert out
        target = tmp_path / "out.txt"
        monkeypatch.setattr("sys.stdin", io.StringIO("UUDUDD\n2 3 1\nUDX\n"))
        assert run(capsys, *argv, "--out", str(target)) == (code, "", err)
        assert target.read_bytes() == out.encode()

    def test_no_lines_create_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO("UDX\n3 1 2\n"))
        code, out, err = run(capsys, "map", "--out", str(tmp_path / "out.txt"))
        assert (code, out) == (1, "")
        assert "line 1" in err and "line 2" in err
        assert list(tmp_path.iterdir()) == []

    def test_failure_while_writing_keeps_target(self, capsys, monkeypatch, tmp_path):
        # list renders its lines while they are written; the third one fails
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        calls = itertools.count()
        render = cli._render

        def failing_render(word, kind):
            if next(calls) == 2:
                raise ValueError("no image")
            return render(word, kind)

        monkeypatch.setattr("dyck312.cli._render", failing_render)
        code, out, err = run(capsys, "list", "--h", "3", "--n", "3", "--out", str(target))
        assert (code, out, err) == (2, "", "error: no image\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_map_read_failure_keeps_target(self, capsys, monkeypatch, tmp_path):
        # map writes while it reads; stdin that fails part-way, as on bytes that are
        # not UTF-8, exits 2 after two lines are written and leaves the target as it was
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def stdin():
            yield "UD\n"
            yield "UUDD\n"
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr("sys.stdin", stdin())
        code, out, err = run(capsys, "map", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_interrupt_while_writing_keeps_target(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")

        def lines():
            yield "new"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli._emit(lines(), str(target))
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "row.json"
        code = main(["matrix", "--h", "2", "--format", "json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["rows"] == [[0, 1], [1, 1]]

    @pytest.mark.parametrize("target", ["missing/x.txt", "dir"])
    def test_unwritable_target(self, capsys, tmp_path, target):
        (tmp_path / "dir").mkdir()
        code = main(["count", "--h", "3", "--n-max", "4", "--out", str(tmp_path / target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(tmp_path / target) in captured.err
        assert "Traceback" not in captured.err
        # nothing written, and no temporary file left beside the target
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]

    @pytest.mark.parametrize("command", ["count --h 3 --n-max 3", "map"])
    def test_empty_target(self, capsys, monkeypatch, tmp_path, command):
        # `--out "$FILE"` with FILE unset: an error before any count is made, not stdout
        # nor the working directory; map's empty stdin makes no line, and the name is
        # rejected all the same
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        calls = []
        monkeypatch.setattr(cli.counting, "count", lambda *a: calls.append(a))
        assert run(capsys, *command.split(), "--out", "") == (2, "", "error: --out names no file\n")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_symlink_target(self, capsys, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n")
        real.chmod(0o640)
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        code, out, _ = run(capsys, "count", "--h", "3", "--n-max", "4", "--out", str(link))
        assert (code, out) == (0, "")
        # the link is written through, and the file it names keeps its mode
        assert link.is_symlink() and link.resolve() == real
        assert real.read_text() == "1,1,2,5,12\n"
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    @pytest.mark.parametrize("victim_exists", [True, False], ids=["victim", "dangling"])
    def test_planted_temporary_symlink(self, capsys, tmp_path, victim_exists):
        # a symlink planted at the temporary name is refused, not written through
        # and renamed over the target
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        victim = tmp_path / "victim.txt"
        if victim_exists:
            victim.write_text("victim\n")
        tmp = f"{os.path.realpath(target)}.{os.getpid()}.tmp"
        os.symlink(victim, tmp)
        code, out, err = run(capsys, "count", "--h", "3", "--n-max", "3", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err
        assert not target.is_symlink() and target.read_text() == "old\n"
        if victim_exists:
            assert victim.read_text() == "victim\n"
        else:
            assert not os.path.lexists(victim)
        assert os.path.islink(tmp)  # not this run's file, so not removed

    def test_fifo_target(self, capsys, tmp_path):
        # a target that is not a regular file (a pipe here, /dev/null or /dev/stdout
        # in use) is written to directly, never replaced by a file
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run(capsys, "count", "--h", "3", "--n-max", "4", "--out", str(fifo))
            assert (code, out) == (0, "")
            assert os.read(reader, 4096) == b"1,1,2,5,12\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dyck312.__file__))}


@pytest.mark.parametrize(
    "argv, stdin, read, code, err",
    [
        # 5 MB of output: the reader leaves after 10 bytes, as `| head -c 10` does
        (["list", "--h", "6", "--n", "12"], b"", 10, 0, b""),
        # the reader has left before the first byte is written
        (["count", "--h", "3", "--n-max", "3"], b"", 0, 0, b""),
        # the exit code still reports the malformed line after the reader has left
        (["map"], b"UD\n" * 200_000 + b"UDX\n", 10, 1, b"line 200001: "),
    ],
    ids=["list-large", "count-small", "map-malformed"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_is_quiet(argv, stdin, read, code, err, unbuffered):
    cmd = [sys.executable, "-m", "dyck312", *argv]
    # buffered, stdout fails only when flushed; unbuffered, at the first write
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        cmd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        # stdin is fed from a thread: map writes while it reads, so writing all of
        # stdin before reading stdout would fill both pipes and hang
        def feed():
            with contextlib.suppress(BrokenPipeError), proc.stdin:
                proc.stdin.write(stdin)

        feeder = threading.Thread(target=feed)
        feeder.start()
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == code
        feeder.join(timeout=60)
        assert not feeder.is_alive()
    # nothing on stderr but the malformed line's own message
    assert stderr.startswith(err) and stderr.count(b"\n") == (1 if err else 0)


def test_optimized_interpreter(capsys):
    # -O strips assert statements, so the checks these commands rely on must raise instead
    def run_optimized(*argv):
        cmd = [sys.executable, "-O", "-m", "dyck312", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=SUBPROCESS_ENV)

    verified = run_optimized("verify")
    assert verified.returncode == 0, verified.stderr
    assert verified.stdout.splitlines()[-1] == "16/16 checks passed"

    argv = ["count", "--h", "300", "--n-max", "512", "--method", "recurrence"]
    counted = run_optimized(*argv)
    assert (counted.returncode, counted.stdout, counted.stderr) == run(capsys, *argv)


def test_start_up_imports():
    # each command is a new process: building the parser must not load dataclasses
    # (which brings inspect and ast) nor, without site's preloads (-S), typing
    src = os.path.dirname(os.path.dirname(dyck312.__file__))
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import dyck312.cli; dyck312.cli.build_parser(); "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # missing required flags
    assert exc.value.code == 2
