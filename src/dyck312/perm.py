"""Permutations in one-line notation: 312-avoidance, left-to-right maxima,
and the two restricted classes mirroring the bounded valley-avoiding paths.

Indices and values are 1-based throughout this module, so the excess of a
left-to-right maximum is literally value - index.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple


class NotAPermutation(ValueError):
    """Input is not a rearrangement of 1..n; carries the offending value."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class Permutation(namedtuple("Permutation", "entries")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, entries: tuple[int, ...]):
        entries = tuple(entries)
        n = len(entries)
        seen = [False] * (n + 1)
        for v in entries:
            if not 1 <= v <= n:
                raise NotAPermutation(f"value {v} out of range 1..{n}", v)
            if seen[v]:
                raise NotAPermutation(f"duplicate value {v}", v)
            seen[v] = True
        return super().__new__(cls, entries)

    def __str__(self) -> str:
        # one C loop; %d also prints an entry True as 1, so equal records print alike
        return ("%d " * len(self.entries) % self.entries)[:-1]


def _trusted(entries: tuple[int, ...]) -> Permutation:
    """A Permutation of a tuple known to rearrange 1..n, built without the
    range and duplicate scan; for permutations the package itself builds."""
    return tuple.__new__(Permutation, (entries,))


class LrMaximum(namedtuple("LrMaximum", "index value")):
    """A left-to-right maximum: 1-based position and the entry there."""

    __slots__ = ()


_INTEGER = re.compile(r"[+-]?[0-9]+")
_NOT_JSON = str.maketrans("", "", "0123456789 ,")  # deletes all of the text JSON reads
_DECODER = json.JSONDecoder()  # shareable: an array of integers is read without Python code


def parse_perm(text: str) -> Permutation:
    """Parse integers separated by whitespace or commas; blank input is the
    empty permutation. An integer is an optional sign and ASCII digits.

    Text of ASCII digits, spaces and commas, as str() writes it or with bare
    commas, is read as one JSON array in C. Any other text, and such text
    that JSON refuses (a doubled, leading or trailing separator, ", ", a
    leading zero, a token past int()'s digit limit), is read token by token
    with _integer; both give the same result and raise the same errors.
    """
    if not text.translate(_NOT_JSON):
        try:
            values = _DECODER.raw_decode(f"[{text.replace(' ', ',')}]")[0]
        except ValueError:  # a JSONDecodeError, or a token past int()'s digit limit
            pass
        else:
            return Permutation(values)
    return Permutation(list(map(_integer, text.replace(",", " ").split())))


def _integer(token: str) -> int:
    try:
        if _INTEGER.fullmatch(token):
            return int(token)
    except ValueError:  # a token past int()'s digit limit
        pass
    raise NotAPermutation(f"not an integer: {token!r}", token)


def avoids_312(pi: Permutation) -> bool:
    """True iff no indices a<b<c have entries[a] > entries[c] > entries[b].

    One left-to-right pass of a stack fed 1..n, which can put pi out exactly
    when pi avoids 312 (Knuth, TAOCP Vol. 1, 2.2.1, Ex. 5); avoids_312_cubic
    is the literal cubic definition kept as the cross-validation oracle.
    """
    # a new maximum pushes every value up to it and pops itself; any other
    # entry must be the one popped
    stack: list[int] = []
    top = 0  # the largest entry so far: 1..top have been pushed
    for v in pi.entries:
        if v > top:
            if v > top + 1:  # often v is top + 1, and nothing stays pushed
                stack.extend(range(top + 1, v))
            top = v
        elif stack.pop() != v:  # v < top, pushed and not yet popped: the stack holds it
            return False
    return True


def avoids_312_cubic(pi: Permutation) -> bool:
    """Literal definition, cubic time; reference oracle for small lengths."""
    e = pi.entries
    n = len(e)
    for a in range(n):
        for b in range(a + 1, n):
            if e[b] >= e[a]:
                continue
            for c in range(b + 1, n):
                if e[b] < e[c] < e[a]:
                    return False
    return True


def left_to_right_maxima(pi: Permutation) -> list[LrMaximum]:
    """All entries greater than everything before them, in position order."""
    out: list[LrMaximum] = []
    best = 0
    for i, v in enumerate(pi.entries, start=1):
        if v > best:
            out.append(LrMaximum(i, v))
            best = v
    return out


def _maxima_scan(entries, h: int) -> tuple[int, bool]:
    """The largest excess of a left-to-right maximum, and whether two maxima
    of excess h-1 sit at adjacent positions (their values are then
    consecutive too)."""
    top = best = 0
    last = -1  # position of the latest maximum of excess h-1
    pair = False
    for i, v in enumerate(entries, start=1):
        if v > best:
            best, excess = v, v - i
            if excess > top:
                top = excess
            if excess == h - 1:
                pair = pair or last == i - 1
                last = i
    return top, pair


def in_height_class(pi: Permutation, h: int) -> bool:
    """312-avoiding with every left-to-right maximum of excess at most h-1.

    This is the image of the height-bounded paths under the down-step
    labelling bijection.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    # the excess test first: it is cheaper, and a height one too low fails on it alone
    return _maxima_scan(pi.entries, h)[0] <= h - 1 and avoids_312(pi)


def in_class(pi: Permutation, h: int) -> bool:
    """in_height_class, minus permutations with a maximum of excess exactly
    h-1 immediately followed by the entry one larger.

    Such a pair is a second maximum of excess h-1 at the adjacent position
    and is exactly the image of a valley at height h-1. Adjacency matters:
    in 2 1 3 at h=2 the maxima 2 and 3 differ by one but sit apart, and the
    corresponding path UUDDUD has no valley at height 1.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    top, pair = _maxima_scan(pi.entries, h)
    return top <= h - 1 and not pair and avoids_312(pi)
