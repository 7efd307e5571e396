"""Dyck paths: step strings, structural queries, class membership, enumeration.

Paths are stored as their U/D words; positions are 0-based indices into the
word. All counts are exact Python integers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, repeat

DEFAULT_CAP = 14  # exhaustive-enumeration bound; semilength 14 is ~2.7M paths


class InvalidCharacter(ValueError):
    """A character other than 'U'/'D' in a path string."""

    def __init__(self, index: int, char: str):
        super().__init__(f"invalid character {char!r} at index {index}")
        self.index = index
        self.char = char


class Unbalanced(ValueError):
    """Up and down counts differ; index points at the first unmatched up step."""

    def __init__(self, index: int):
        super().__init__(f"unbalanced word: unmatched 'U' at index {index}")
        self.index = index


class NegativePrefix(ValueError):
    """Some prefix has more downs than ups; index points at the offending 'D'."""

    def __init__(self, index: int):
        super().__init__(f"prefix dips below the axis at index {index}")
        self.index = index


class CapExceeded(ValueError):
    """Requested size is beyond the enumeration cap or the tree cap."""


class DyckPath(namedtuple("DyckPath", "word")):
    """A Dyck path as its U/D word; the empty word is the empty path.

    The word is not checked here. bijection.path_to_perm checks it in the
    pass that maps it; the other queries assume it valid (balanced, no prefix
    below the axis). Use parse_path() for untrusted text.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return self.word


def parse_path(text: str) -> DyckPath:
    """Validate a U/D string and wrap it.

    Raises the first fault, with its index:
    - InvalidCharacter where the loop meets c, at text.index(c): every
      character before it is a step, and none dips below the axis, or the
      loop would have stopped there;
    - NegativePrefix at the first step whose level is -1;
    - Unbalanced at the up step after the last return to level 0, or 0 if
      there is none: no later step returns to the axis, so it is unmatched.
    """
    level = 0
    for c in text:
        if c == "U":
            level += 1
        elif c == "D":
            level -= 1
            if level < 0:
                break
        else:
            raise InvalidCharacter(text.index(c), c)
    else:
        if not level:
            return DyckPath(text)
    # read lazily up to the fault, so every character read is a step
    levels = enumerate(accumulate(map({"U": 1, "D": -1}.__getitem__, text)))
    if level < 0:
        raise NegativePrefix(next(i for i, l in levels if l < 0))
    raise Unbalanced(max((i + 1 for i, l in levels if not l), default=0))


def height(p: DyckPath) -> int:
    """Maximum ordinate reached; 0 for the empty path."""
    level = top = 0
    for c in p.word:
        level += 1 if c == "U" else -1
        if level > top:
            top = level
    return top


def in_class(p: DyckPath, h: int, k: int = 2) -> bool:
    """Height at most h, and no chain of k-1 adjacent valleys at height h-1.

    Adjacent means a contiguous DUDU... factor (whose valleys necessarily sit
    at one common height). For k=2 this forbids any valley at height h-1.

    One forward scan: an up step right after a down step that lands at h-1 is
    a valley at h-1 and extends the chain; any other up step breaks it.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    room = h  # h minus the level: the up steps left before the path exceeds h
    run = 0  # valleys in the current chain at h-1
    landed = False  # the last step was a down step ending at h-1
    for c in p.word:
        if c == "D":
            room += 1
            landed = room == 1
        elif landed:  # climbs back to h, so it cannot exceed it
            run += 1
            if run >= k - 1:
                return False
            room -= 1
            landed = False
        else:
            if not room:
                return False
            run = 0
            room -= 1
    return True


def catalan(n: int) -> int:
    """n-th Catalan number, exact."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


class DyckPaths:
    """The paths of semilength n, in lexicographic word order ('D' < 'U'):
    a sized view that makes each path as it is iterated, so an iteration
    holds the first halves and never the words.

    Each word is a first half of n steps ending at some level l, then a way
    down from l in n steps. A way down, reversed with U and D swapped, is a
    first half ending at l, so the first halves, listed once, give both.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return catalan(self.n)

    def __iter__(self) -> Iterator[DyckPath]:
        heads = [("", 0)]  # (first half, its end level), kept in lexicographic order
        for _ in range(self.n):
            heads = [(w + c, l + d) for w, l in heads for c, d in (("D", -1), ("U", 1)) if l + d >= 0]
        mirror = str.maketrans("UD", "DU")
        tails: dict[int, list[str]] = {}
        for w, l in heads:
            tails.setdefault(l, []).append(w[::-1].translate(mirror))
        for ways in tails.values():
            ways.sort()
        # DyckPath.__new__ checks nothing, so each head's words are wrapped by
        # tuple.__new__ in one C loop, with no Python frame per path
        for head, l in heads:
            yield from map(tuple.__new__, repeat(DyckPath), zip(map(head.__add__, tails[l])))


def enumerate_dyck(n: int) -> DyckPaths:
    """All paths of semilength n, as a DyckPaths view; the size is checked here."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > DEFAULT_CAP:
        raise CapExceeded(f"semilength {n} exceeds cap {DEFAULT_CAP}")
    return DyckPaths(n)


def count_brute(n: int, h: int, k: int = 2) -> int:
    """Oracle count: filter the full enumeration through in_class, one word at a time."""
    # in_class is looked up here, at call time, so a wrapper set on the module sees every word
    return sum(map(in_class, enumerate_dyck(n), repeat(h), repeat(k)))
