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
    """Inverse map, read off the running maximum once avoids_312 has checked
    pi: each entry is one down step, after as many up steps as it raises the
    largest entry so far (none unless it is a left-to-right maximum)."""
    _require_avoids_312(pi)
    ups: list[str] = []
    top = 0  # the largest entry so far
    for v in pi.entries:
        if v > top:
            ups.append("U" * (v - top))
            top = v
        else:
            ups.append("")
    ups.append("")  # the runs sit between the downs: n downs, n + 1 runs
    return DyckPath("D".join(ups))


def lrm_heights(pi: Permutation) -> list[tuple[LrMaximum, int]]:
    """Each left-to-right maximum paired with its excess value - index, which
    equals the height reached by its down step in the corresponding path."""
    _require_avoids_312(pi)
    return [(m, m.value - m.index) for m in left_to_right_maxima(pi)]


def _require_avoids_312(pi: Permutation) -> None:
    """Raise Not312Avoiding unless pi avoids 312: the one operand check of
    perm_to_path and lrm_heights."""
    if not avoids_312(pi):
        raise Not312Avoiding(f"'{pi}' contains 312")
