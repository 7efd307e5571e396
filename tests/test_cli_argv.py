"""The CLI's input contract over its integer and choice options: every argv
exits 0, 1 or 2 in bounded time and memory, no exception escapes main, and a
usage error (exit 2) says so in one error line. Its output contract for JSON:
every subcommand that offers --format json writes one object with
schema_version 1 and its name. Its --out contract: every subcommand writes to
a new file the bytes it writes to stdout, and exits 2 with one error line on a
directory, a missing directory or no name. map's stdin contract, drawn by
hypothesis: each line maps as it does alone, and each malformed one is named
by its own line number.

Each subcommand starts from one cheap base argv; each integer option that
build_parser() states is replaced in turn by each value below, each choice
option by each of its choices and by one value outside them, and each
subcommand whose --format choices include json is run with it, on its base
argv and again on every integer-option argv that exits 0, and every
subcommand is run with four --out values, so a new subcommand, option,
choice or format is swept with no edit here but its base argv. count runs
each route at its reach and one past it, read from ROUTES, so a new route is
swept too; brute force at its reach of 14 takes about 5 s, so it runs only in
CI's `count --h 4 --n-max 14` step. The counts at each cap stay with GOLDEN in
tests/test_cli_golden.py and with CI. CI runs the map property again under
the hypothesis profile ci (tests/conftest.py): ten times the examples, the
same ones on every run.
"""

import argparse
import contextlib
import io
import json
import signal
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyck312.cli import build_parser, main
from dyck312.counting import ROUTES

from strategies import perm_tuples
from test_equivalence import path_texts

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

BASES = {
    "count": ["count", "--h", "3", "--n-max", "5"],
    "list": ["list", "--h", "3", "--n", "3"],
    "map": ["map"],
    "tree": ["tree", "--h", "3", "--depth", "3"],
    "matrix": ["matrix", "--h", "3"],
    "table": ["table", "--h-max", "3", "--j-max", "3"],
    "verify": ["verify", "--n-max", "3", "--h-max", "3", "--identity-n-max", "4"],
}

VALUES = [
    *("-1", "0", "1", str(10**3), str(10**6)),
    pytest.param("7" * 5000, id="5000-digits"),
    *("x", "", "0x10", "1e3", "٣"),
]

OUTSIDE = "none-of-these"  # a value no choice option offers

SECONDS = 20  # a bound on one call; the slowest value here takes well under 1 s
PEAK_MB = 16  # a bound on one call's traced memory; the largest peak here is about 0.2 MB


def _subcommands():
    """(name, parser) for every subcommand, in parser order."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices.items()


SUBCOMMANDS = [name for name, _ in _subcommands()]


def _integer_options():
    """(subcommand, option) for every option of type int, in parser order."""
    for name, parser in _subcommands():
        for action in parser._actions:
            if action.type is int:
                yield name, action.option_strings[-1]


def _choice_options():
    """(subcommand, option, choices) for every option with choices, in parser order."""
    for name, parser in _subcommands():
        for action in parser._actions:
            if action.choices is not None:
                yield name, action.option_strings[-1], action.choices


def _json_subcommands():
    """Every subcommand whose --format choices include json, in parser order."""
    for name, parser in _subcommands():
        for action in parser._actions:
            if "--format" in action.option_strings and "json" in action.choices:
                yield name


JSON_SUBCOMMANDS = list(_json_subcommands())


def _with(argv: list[str], option: str, value: str) -> list[str]:
    """argv with option's value replaced by value, or with the option added."""
    if option not in argv:
        return [*argv, option, value]
    i = argv.index(option)
    return [*argv[: i + 1], value, *argv[i + 2 :]]


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout(f"no exit within {SECONDS} s")


def _call(argv: list[str]) -> int:
    """main's exit code, argparse's included, within SECONDS of wall time and
    PEAK_MB of memory traced by tracemalloc."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS)
    tracemalloc.start()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors; no command raises it
        code = exc.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert peak <= PEAK_MB * 2**20, f"{argv} peaked at {peak / 2**20:.1f} MB"
    return code


def _map(text: str) -> tuple[int, str, str]:
    """map's exit code, stdout and stderr on stdin text, with no fixture: a
    hypothesis example runs it many times within one test."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _call(["map"])
    return code, out.getvalue(), err.getvalue()


def _assert_json(capsys, name: str, argv: list[str]) -> None:
    """argv exits 0 with empty stderr and writes one JSON object naming name."""
    assert _call(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)  # one document: trailing data is an error
    assert isinstance(doc, dict)
    assert (doc["schema_version"], doc["command"]) == (1, name)


def _assert_one_error(name: str, err: str) -> None:
    """err is argparse's usage and one error line, or one error line of the command."""
    lines = err.splitlines()
    if lines[0].startswith("usage: "):
        errors = [i for i, line in enumerate(lines) if f"dyck312 {name}: error: " in line]
        assert errors == [len(lines) - 1], err
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.fixture(autouse=True)
def stdin(monkeypatch):
    # one empty line: the empty path and the empty permutation, so map succeeds in
    # every direction; the other subcommands read no stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n"))


@pytest.mark.parametrize("name", sorted(BASES))
def test_base_succeeds(capsys, name):
    assert _call(BASES[name]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("name, option", list(_integer_options()))
def test_integer_option(capsys, name, option, value):
    argv = _with(BASES[name], option, value)
    code = _call(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        _assert_one_error(name, err)
    if code == 0 and name in JSON_SUBCOMMANDS:
        _assert_json(capsys, name, _with(argv, "--format", "json"))


@pytest.mark.parametrize(
    "name, option, choice", [(n, o, c) for n, o, choices in _choice_options() for c in choices]
)
def test_choice(capsys, name, option, choice):
    assert _call(_with(BASES[name], option, choice)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, option", [(n, o) for n, o, _ in _choice_options()])
def test_outside_the_choices(capsys, name, option):
    assert _call(_with(BASES[name], option, OUTSIDE)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    _assert_one_error(name, err)


@pytest.mark.parametrize("method", [m for m in ROUTES if m != "brute"])
def test_count_at_reach(capsys, method):
    argv = _with(BASES["count"], "--method", method)
    assert _call(_with(argv, "--n-max", str(ROUTES[method].reach))) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.split(",")) == ROUTES[method].reach + 1


@pytest.mark.parametrize("method", ROUTES)
def test_count_past_reach(capsys, method):
    argv = _with(BASES["count"], "--method", method)
    assert _call(_with(argv, "--n-max", str(ROUTES[method].reach + 1))) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    _assert_one_error("count", err)


@pytest.mark.parametrize("name", JSON_SUBCOMMANDS)
def test_json_contract(capsys, name):
    _assert_json(capsys, name, [*BASES[name], "--format", "json"])


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_out_file_holds_stdout(capsys, monkeypatch, tmp_path, name):
    code = _call(BASES[name])
    out, err = capsys.readouterr()
    assert out
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n"))  # map read the first one
    target = tmp_path / "out.txt"
    assert _call([*BASES[name], "--out", str(target)]) == code
    assert capsys.readouterr() == ("", err)
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("where", ["directory", "missing-directory", "no-name"])
@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_out_cannot_be_written(capsys, monkeypatch, tmp_path, name, where):
    monkeypatch.chdir(tmp_path)  # realpath("") would name the working directory
    out = {"directory": str(tmp_path), "missing-directory": "missing/out.txt", "no-name": ""}
    assert _call([*BASES[name], "--out", out[where]]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    _assert_one_error(name, err)
    if where == "no-name":
        assert err == "error: --out names no file\n"
    assert list(tmp_path.iterdir()) == []


MALFORMED = ["UDX", "UUD", "DU", "3 1 2", "1 1", "x y"]

SEPARATORS = [" ", ", ", "\t"]

map_lines = st.one_of(
    path_texts.filter(lambda text: "\n" not in text),  # a fault may draw a newline
    st.builds(lambda t, sep: sep.join(map(str, t)), perm_tuples(), st.sampled_from(SEPARATORS)),
    st.sampled_from(MALFORMED),
)


@given(
    st.lists(map_lines, max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
def test_map_maps_each_line_as_alone(lines, newline, final):
    text = newline.join(lines)
    if lines and (final or not lines[-1]):  # an empty last line is read only if it ends
        text += newline
    alone = [_map(line + "\n") for line in lines]
    errors = []
    for i, (line, (code, out, err)) in enumerate(zip(lines, alone), start=1):
        assert code == 1 if line in MALFORMED else code in (0, 1), line
        if code:
            assert out == "" and err.startswith("line 1: ") and err.count("\n") == 1, err
            errors.append(f"line {i}: " + err.removeprefix("line 1: "))
    assert _map(text) == (
        1 if errors else 0,
        "".join(out for _, out, _ in alone),
        "".join(errors),
    )
