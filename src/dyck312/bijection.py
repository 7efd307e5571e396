"""The down-step labelling bijection between Dyck paths and 312-avoiding
permutations, and the excess/height transport along it."""

from __future__ import annotations

from .dyck import DyckPath
from .perm import LrMaximum, Permutation, _trusted, avoids_312, left_to_right_maxima


class Not312Avoiding(ValueError):
    """Operand contains the pattern 312."""


def path_to_perm(p: DyckPath) -> Permutation:
    """Label the ups 1..n left to right, give each down its matching up's
    label, read the down labels in order. The result avoids 312."""
    stack: list[int] = []
    out: list[int] = []
    label = 0
    for c in p.word:
        if c == "U":
            label += 1
            stack.append(label)
        else:
            out.append(stack.pop())
    if stack:  # an unmatched up: the labels are not 1..n, and Permutation names the first
        return Permutation(tuple(out))
    return _trusted(tuple(out))  # each label 1..n was pushed and popped once


def perm_to_path(pi: Permutation) -> DyckPath:
    """Inverse map via the descending-run factorization.

    Each left-to-right maximum heads a descending run; emit ups for the jump
    between consecutive maxima and downs for the run size.
    """
    _require_avoids_312(pi)
    parts: list[str] = []
    best = 0
    head = 1  # position of the maximum heading the current run
    for i, v in enumerate(pi.entries, start=1):
        if v > best:
            parts.append("D" * (i - head))
            parts.append("U" * (v - best))
            best, head = v, i
    parts.append("D" * (len(pi.entries) + 1 - head))
    return DyckPath("".join(parts))


def lrm_heights(pi: Permutation) -> list[tuple[LrMaximum, int]]:
    """Each left-to-right maximum paired with its excess value - index, which
    equals the height reached by its down step in the corresponding path."""
    _require_avoids_312(pi)
    return [(m, m.value - m.index) for m in left_to_right_maxima(pi)]


def _require_avoids_312(pi: Permutation) -> None:
    """Raise Not312Avoiding unless pi avoids 312: the operand check of
    perm_to_path and lrm_heights, also made on map's lines left unmapped."""
    if not avoids_312(pi):
        raise Not312Avoiding(f"'{pi}' contains 312")
