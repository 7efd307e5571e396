"""The down-step labelling bijection between Dyck paths and 312-avoiding
permutations, and the excess/height transport along it."""

from __future__ import annotations

from .dyck import DyckPath, parse_path
from .perm import LrMaximum, Permutation, _trusted, avoids_312, left_to_right_maxima


class Not312Avoiding(ValueError):
    """Operand contains the pattern 312."""


_NOT_A_STEP = str.maketrans("", "", "UD")  # deletes the steps: what is left is a fault


def path_to_perm(p: DyckPath) -> Permutation:
    """Label the ups 1..n left to right, give each down its matching up's
    label, read the down labels in order. The result avoids 312.

    The word is checked as it is mapped: a step other than U or D (one
    translate before the loop), a down step from the axis or an up step left
    unmatched sends it to parse_path, which raises the first fault. So an
    unchecked DyckPath fails as its text would."""
    word = p.word
    stack: list[int] = []
    out: list[int] = []
    label = 0
    if not word.translate(_NOT_A_STEP):
        try:
            for c in word:
                if c == "U":
                    label += 1
                    stack.append(label)
                else:
                    out.append(stack.pop())
        except IndexError:  # a down step from the axis
            pass
        else:
            if not stack:  # each label 1..n was pushed and popped once
                return _trusted(tuple(out))
    parse_path(word)  # not a Dyck word, so this raises
    raise AssertionError(f"parse_path accepted {word!r}")


def perm_to_path(pi: Permutation) -> DyckPath:
    """Inverse map: path_to_perm's stack, run from the permutation as in
    perm.avoids_312. A new maximum pushes every value up to it, one up step
    each; each entry pops itself, one down step; a pop that is not the entry
    is a 312. The steps are emitted as run lengths."""
    stack: list[int] = []
    parts: list[str] = []
    top = 0  # the largest entry so far: 1..top have been pushed
    head = 0  # position of the maximum heading the current run
    for i, v in enumerate(pi.entries):
        if v > top:
            parts.append("D" * (i - head))
            parts.append("U" * (v - top))
            if v > top + 1:
                stack.extend(range(top + 1, v))
            top, head = v, i
        elif stack.pop() != v:
            raise Not312Avoiding(_contains_312(pi))
    parts.append("D" * (len(pi.entries) - head))
    return DyckPath("".join(parts))


def lrm_heights(pi: Permutation) -> list[tuple[LrMaximum, int]]:
    """Each left-to-right maximum paired with its excess value - index, which
    equals the height reached by its down step in the corresponding path."""
    _require_avoids_312(pi)
    return [(m, m.value - m.index) for m in left_to_right_maxima(pi)]


def _contains_312(pi: Permutation) -> str:
    return f"'{pi}' contains 312"


def _require_avoids_312(pi: Permutation) -> None:
    """Raise Not312Avoiding unless pi avoids 312: the operand check of
    lrm_heights, also made on map's lines left unmapped."""
    if not avoids_312(pi):
        raise Not312Avoiding(_contains_312(pi))
