"""The single-scan primitives, the two-halves enumeration and the streamed
list and tree JSON writers against the formulations they replaced.

Each reference below is the earlier version of a function, kept verbatim as
an oracle: the rewrite must give the same answer, or raise the same exception
class with the same index and message.
"""

import json
import re
import tracemalloc
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyck312 import bijection, cli, dyck, eco, perm
from dyck312.bijection import Not312Avoiding
from dyck312.dyck import DEFAULT_CAP, CapExceeded, DyckPath, InvalidCharacter, NegativePrefix, Unbalanced
from dyck312.perm import NotAPermutation, Permutation, left_to_right_maxima

from strategies import dyck_words, perm_tuples


def ref_parse_path(text: str) -> DyckPath:
    level = 0
    open_ups: list[int] = []
    for i, c in enumerate(text):
        if c == "U":
            open_ups.append(i)
            level += 1
        elif c == "D":
            level -= 1
            if level < 0:
                raise NegativePrefix(i)
            open_ups.pop()
        else:
            raise InvalidCharacter(i, c)
    if level:
        raise Unbalanced(open_ups[0])
    return DyckPath(text)


def ref_in_class_scan(p: DyckPath, h: int, k: int = 2) -> bool:
    """in_class as a scan that counts the level up: the same answer on any word, valid or not."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    level = 0
    run = 0  # valleys in the current chain at h-1
    landed = False  # the last step was a down step ending at h-1
    for c in p.word:
        if c == "D":
            level -= 1
            landed = level == h - 1
        elif landed:  # climbs back to h, so it cannot exceed it
            run += 1
            if run >= k - 1:
                return False
            level += 1
            landed = False
        else:
            run = 0
            level += 1
            if level > h:
                return False
    return True


def ref_parse_perm(text: str) -> Permutation:
    values: list[int] = []
    for token in re.split(r"[\s,]+", text.strip()):
        if not token:
            continue
        try:
            values.append(int(token))
        except ValueError:
            raise NotAPermutation(f"not an integer: {token!r}", token) from None
    return Permutation(tuple(values))


def ref_in_height_class(pi: Permutation, h: int) -> bool:
    # the literal definition, not the stack scan that in_class runs
    if not perm.avoids_312_cubic(pi):
        return False
    return all(m.value - m.index <= h - 1 for m in left_to_right_maxima(pi))


def ref_in_class(pi: Permutation, h: int) -> bool:
    if not ref_in_height_class(pi, h):
        return False
    maxima = left_to_right_maxima(pi)
    for m, nxt in zip(maxima, maxima[1:]):
        if m.value - m.index == h - 1 and nxt.index == m.index + 1 and nxt.value == m.value + 1:
            return False
    return True


def ref_perm_to_path(pi: Permutation) -> DyckPath:
    # the literal definition, not the avoids_312 stack that perm_to_path checks with
    if not perm.avoids_312_cubic(pi):
        raise Not312Avoiding(f"'{pi}' contains 312")
    maxima = left_to_right_maxima(pi)
    n = len(pi.entries)
    parts: list[str] = []
    prev_value = 0
    for j, m in enumerate(maxima):
        run_end = maxima[j + 1].index if j + 1 < len(maxima) else n + 1
        parts.append("U" * (m.value - prev_value))
        parts.append("D" * (run_end - m.index))
        prev_value = m.value
    return DyckPath("".join(parts))


def ref_enumerate_dyck(n: int) -> list[DyckPath]:
    """All paths of semilength n, in lexicographic word order ('D' < 'U')."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > DEFAULT_CAP:
        raise CapExceeded(f"semilength {n} exceeds cap {DEFAULT_CAP}")
    words: list[str] = []
    _fill([], 0, n, words)
    return [DyckPath(w) for w in words]


def _fill(prefix: list[str], open_: int, ups_left: int, out: list[str]) -> None:
    # trying 'D' before 'U' yields lexicographic order
    if ups_left == 0:
        out.append("".join(prefix) + "D" * open_)
        return
    if open_:
        prefix.append("D")
        _fill(prefix, open_ - 1, ups_left, out)
        prefix.pop()
    prefix.append("U")
    _fill(prefix, open_ + 1, ups_left - 1, out)
    prefix.pop()


def outcome(fn, *args):
    """fn's value, or the class, message, index, character and value of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), *(getattr(exc, name, None) for name in ("index", "char", "value"))


avoiders = dyck_words(max_semilength=60).map(lambda w: bijection.path_to_perm(DyckPath(w)))


def test_membership_on_every_small_permutation():
    for n in range(8):
        for t in permutations(range(1, n + 1)):
            pi = Permutation(t)
            for h in range(1, n + 2):
                assert perm.in_height_class(pi, h) == ref_in_height_class(pi, h), (t, h)
                assert perm.in_class(pi, h) == ref_in_class(pi, h), (t, h)


@given(st.one_of(avoiders, perm_tuples(max_n=60).map(Permutation)), st.integers(1, 62))
def test_membership_on_long_permutations(pi, h):
    assert perm.in_height_class(pi, h) == ref_in_height_class(pi, h)
    assert perm.in_class(pi, h) == ref_in_class(pi, h)


@given(st.one_of(avoiders, perm_tuples(max_n=60).map(Permutation)))
def test_perm_to_path(pi):
    assert outcome(bijection.perm_to_path, pi) == outcome(ref_perm_to_path, pi)


def random_dyck_word(rng, n: int) -> str:
    """A uniform Dyck word of semilength n: of the rotations of a shuffle of n
    ups and n+1 downs, the one after the first lowest point, less its last down
    (the cycle lemma)."""
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    level = low = cut = 0
    for i, c in enumerate(steps):
        level += 1 if c == "U" else -1
        if level < low:
            low, cut = level, i + 1
    return "".join(steps[cut:] + steps[: cut - 1])


@st.composite
def long_words(draw):
    """A Dyck word of semilength up to 300, valid or with one fault: a bad
    character or an extra 'D' at a drawn position, a leading 'D', or its final
    'D' dropped. But for a leading 'D', parse_path's loop runs far before it
    meets the fault, and a dip or an unmatched up is then named by reading the
    levels again, as far or to the end."""
    word = random_dyck_word(draw(st.randoms(use_true_random=False)), draw(st.integers(1, 300)))
    i = draw(st.integers(0, len(word) - 1))
    fault = draw(st.sampled_from(["none", "char", "leading", "dropped", "extra"]))
    if fault == "char":
        return word[:i] + draw(st.sampled_from("xu d\n\u00dc")) + word[i + 1:]
    if fault == "leading":
        return "D" + word
    if fault == "dropped":
        return word[:-1]
    if fault == "extra":
        return word[:i] + "D" + word[i:]
    return word


path_texts = st.one_of(st.text("UD", max_size=40), st.text("UDX", max_size=40), dyck_words(20), long_words())


@given(path_texts)
def test_parse_path(text):
    assert outcome(dyck.parse_path, text) == outcome(ref_parse_path, text)


def test_parse_path_on_every_short_text():
    # each fault at each index, and the first of several: all 29,524 texts of length <= 9
    for length in range(10):
        for t in product("UDx", repeat=length):
            text = "".join(t)
            assert outcome(dyck.parse_path, text) == outcome(ref_parse_path, text), text


@pytest.mark.parametrize(
    "text, fault, index",
    [
        ("U" * 300_001 + "D" * 299_999, Unbalanced, 0),
        ("U" * 299_999 + "D" * 300_000 + "U", NegativePrefix, 599_998),
    ],
    ids=["unbalanced-mountain", "dip-near-the-end"],
)
def test_parse_path_names_a_late_fault_in_constant_memory(text, fault, index):
    # the levels are read one at a time: a list of these 600,000 would take megabytes
    tracemalloc.start()
    try:
        with pytest.raises(fault) as info:
            dyck.parse_path(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.index == index
    assert peak < 64 * 1024, peak


@given(path_texts)
def test_path_to_perm_checks_its_word(text):
    # an unchecked DyckPath maps as its parsed text does, or fails as parsing it does
    assert outcome(bijection.path_to_perm, DyckPath(text)) == outcome(
        lambda t: bijection.path_to_perm(ref_parse_path(t)), text
    )


# int() reads a token the same way under both grammars unless it has an
# underscore or a non-ASCII digit; test_perm checks those
bad_tokens = st.sampled_from(["x", "2.0", "0x1", "1e3", "--1", "+", "-", "\u00bd", "1a"])
perm_tokens = st.one_of(
    perm_tuples(max_n=12).map(lambda t: list(map(str, t))),
    st.lists(st.one_of(st.integers(-2, 12).map(str), st.integers(1, 8).map("+{}".format), bad_tokens),
             max_size=12),
)
separators = st.sampled_from([" ", ",", ", ", "\t", "  ", "\u00a0", ",,"])


@given(perm_tokens, st.data())
def test_parse_perm(tokens, data):
    text = "".join(data.draw(separators) + token for token in tokens) + data.draw(separators)
    assert outcome(perm.parse_perm, text) == outcome(ref_parse_perm, text)


# joined by single spaces, with nothing before or after: the form str() writes,
# which parse_perm reads as one JSON array unless JSON refuses a token, and
# tokens JSON reads as something other than an integer
canonical_tokens = st.one_of(
    perm_tuples(max_n=12).map(lambda t: list(map(str, t))),
    st.lists(
        st.one_of(
            st.integers(-2, 14).map(str),
            st.integers(0, 14).map("0{}".format),  # a leading zero
            st.just("7" * 4301),  # past int()'s digit limit
            st.sampled_from(["true", "null", "[1]", '"1"']),
            bad_tokens,
        ),
        max_size=12,
    ),
)


@given(canonical_tokens)
def test_parse_perm_canonical(tokens):
    text = " ".join(tokens)
    assert outcome(perm.parse_perm, text) == outcome(ref_parse_perm, text)


@given(perm_tuples(max_n=60))
def test_str_is_the_canonical_join(t):
    p = Permutation(t)
    assert str(p) == " ".join(map(str, t))
    assert perm.parse_perm(str(p)) == p


def test_equal_permutations_print_alike():
    p = Permutation((True, 2))
    assert p == Permutation((1, 2)) and str(p) == "1 2"
    assert perm.parse_perm(str(p)) == p


def test_parse_perm_past_the_digit_limit():
    # int() refuses this many digits; both versions call the token not an integer
    text = "1 " + "2" * 5000
    assert outcome(perm.parse_perm, text) == outcome(ref_parse_perm, text)


def test_in_class_on_every_short_string():
    # invalid words too (dips below the axis, unbalanced, other letters): in_class
    # trusts its input, so on any word it must answer as the level scan does
    for length in range(10):
        for t in product("UDx", repeat=length):
            p = DyckPath("".join(t))
            for h in range(1, 7):
                for k in range(2, 5):
                    assert dyck.in_class(p, h, k) == ref_in_class_scan(p, h, k), (p.word, h, k)


def test_enumerate_dyck_same_words_in_the_same_order():
    for n in range(13):
        assert list(dyck.enumerate_dyck(n)) == ref_enumerate_dyck(n), n


@pytest.mark.parametrize("n", [-1, DEFAULT_CAP + 1])
def test_enumerate_dyck_errors(n):
    assert outcome(dyck.enumerate_dyck, n) == outcome(ref_enumerate_dyck, n)
    assert isinstance(outcome(dyck.enumerate_dyck, n), tuple)


def ref_list_json(h: int, n: int, kind: str) -> str:
    """The list document built whole, then dumped: level n from the breadth-first levels."""
    *_, level = eco.iter_levels(h, n)
    objects = [{"object": cli._render(word, kind), "label": label} for word, label in level]
    doc = {"schema_version": 1, "command": "list", "h": h, "n": n, "kind": kind, "objects": objects}
    return json.dumps(doc, indent=2) + "\n"


def ref_tree_json(h: int, depth: int, kind: str) -> str:
    """The tree document built whole, then dumped: each node's children from grow."""

    def node(word: str, label: int) -> dict:
        kids = eco.grow(word, h) if len(word) < 2 * depth else []
        return {"label": label, "object": cli._render(word, kind), "children": [node(*k) for k in kids]}

    doc = {"schema_version": 1, "command": "tree", "h": h, "depth": depth, "kind": kind, "root": node("", 1)}
    return json.dumps(doc, indent=2) + "\n"


def streamed(capsys, tmp_path, *argv):
    """The document a command writes to stdout; the one it writes to --out must be the same."""
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    path = tmp_path / "doc.json"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert path.read_text() == out
    return out


@pytest.mark.parametrize("kind", ["paths", "perms"])
@pytest.mark.parametrize("h", range(3, 8))
def test_streamed_list_json(capsys, tmp_path, h, kind):
    for n in range(10):
        argv = ["list", "--h", str(h), "--n", str(n), "--kind", kind, "--format", "json"]
        assert streamed(capsys, tmp_path, *argv) == ref_list_json(h, n, kind), n


@pytest.mark.parametrize("kind", ["paths", "perms"])
@pytest.mark.parametrize("h", range(3, 8))
def test_streamed_tree_json(capsys, tmp_path, h, kind):
    for depth in range(10):
        argv = ["tree", "--h", str(h), "--depth", str(depth), "--kind", kind, "--format", "json"]
        assert streamed(capsys, tmp_path, *argv) == ref_tree_json(h, depth, kind), depth

