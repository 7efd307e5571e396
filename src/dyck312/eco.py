"""Generating-tree machinery: the peak-insertion growth operator on paths,
the matching prepend-and-rescale step on permutations, succession rules, and
pure label-level counting.

A label is a plain positive int. Rules are finite maps from a label to the
ordered tuple of its children's labels; a label (k) always has k children.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator

from . import dyck, perm
from .dyck import CapExceeded, DyckPath
from .perm import Permutation, _trusted

Label = int

DEFAULT_TREE_CAP = 12


class NotInClass(ValueError):
    """Operand is outside the class the growth operator is defined on."""


class SuccessionRule(namedtuple("SuccessionRule", "axiom productions")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, axiom: Label, productions: dict[Label, tuple[Label, ...]]):
        for label, prod in productions.items():
            if len(prod) != label:
                raise ValueError(
                    f"label ({label}) must produce {label} children, got {len(prod)}"
                )
        return super().__new__(cls, axiom, productions)


def _require_h(h: int) -> None:
    if h < 3:
        raise ValueError(f"the growth operator needs h >= 3, got {h}")


def _require_member(p: DyckPath, h: int) -> None:
    _require_h(h)
    if not dyck.in_class(p, h, 2):
        raise NotInClass(f"path {p.word!r} is not in the height-{h} class")


def _require_perm_member(pi: Permutation, h: int) -> None:
    _require_h(h)
    if not perm.in_class(pi, h):
        raise NotInClass(f"permutation '{pi}' is not in the height-{h} class")


def _initial_ups(word: str) -> int:
    return len(word) - len(word.lstrip("U"))


def _label(run: int, h: int) -> Label:
    """Label of a path whose initial up-run has length run: run+1, except h-1
    when the run reaches h. The empty path (run 0) gets 1."""
    return h - 1 if run == h else run + 1


def _sites(t: int, h: int) -> int:
    """The number of active sites, so of children, of a class member whose word
    starts with t ups, or whose permutation starts with t (0 when it is empty):
    one before each up of the run and one right after it (t+1 sites) when
    t < h, and only the sites before the first h-1 ups when t = h."""
    return t + 1 if t < h else h - 1


def grow(word: str, h: int) -> list[tuple[str, Label]]:
    """One peak-insertion step: (child word, child label) per active site
    (see _sites), in site order.

    Inserting UD at site i gives the child an initial run of i+1. The empty
    word grows into UD. The word must be a class member and h >= 3;
    children() and label_of() check both.
    """
    sites = _sites(_initial_ups(word), h)
    return [(word[:i] + "UD" + word[i:], _label(i + 1, h)) for i in range(sites)]


def children(p: DyckPath, h: int) -> list[DyckPath]:
    """Insert a UD peak at each active site, in site order (see grow)."""
    _require_member(p, h)
    return [DyckPath(w) for w, _ in grow(p.word, h)]


def label_of(p: DyckPath, h: int) -> Label:
    """Tree label: 1 for the empty path, t+1 for t <= h-1 initial ups, h-1
    when the initial run has length exactly h."""
    _require_member(p, h)
    return _label(_initial_ups(p.word), h)


def succession_rule(h: int) -> SuccessionRule:
    """The rule of the height-h generating tree, for h >= 2.

    Axiom (1); (1) -> (2); (k) -> (2)(3)...(k)(k+1) for 2 <= k < h; and
    (h) -> (2)(3)...(h-1)(h-1)(h). For h >= 3 it is the rule the growth
    operator induces; at h = 2 it reads (2) -> (1)(2), whose level sizes are
    the Fibonacci numbers.
    """
    if h < 2:
        raise ValueError(f"a succession rule needs h >= 2, got {h}")
    productions: dict[Label, tuple[Label, ...]] = {1: (2,)}
    for k in range(2, h):
        productions[k] = tuple(range(2, k + 1)) + (k + 1,)
    productions[h] = tuple(range(2, h)) + (h - 1, h)
    return SuccessionRule(axiom=1, productions=productions)


def symbolic_counts(rule: SuccessionRule, n: int) -> tuple[int, dict[Label, int]]:
    """Size and label multiset of level n of the pure generating tree."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counts: Counter[Label] = Counter({rule.axiom: 1})
    for _ in range(n):
        nxt: Counter[Label] = Counter()
        for label, c in counts.items():
            for child in rule.productions[label]:
                nxt[child] += c
        counts = nxt
    return sum(counts.values()), dict(counts)


def _require_depth(name: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    if n > DEFAULT_TREE_CAP:
        raise CapExceeded(f"level {n} exceeds tree cap {DEFAULT_TREE_CAP}")


def iter_levels(h: int, n_max: int) -> Iterator[list[tuple[str, Label]]]:
    """Yield levels 0..n_max of the path generating tree, breadth-first, each
    a list of (word, label) pairs as grow() returns them; level 0 is the root
    ("", 1).

    Children appear in parent order then site order, so output is
    reproducible. Parents are class members by construction, so grow() runs
    without the per-node membership check of children(). This is the
    breadth-first reference that the tests compare walk() against.
    """
    _require_h(h)
    _require_depth("n_max", n_max)
    level = [("", 1)]
    yield level
    for _ in range(n_max):
        level = [child for word, _ in level for child in grow(word, h)]
        yield level


def walk(h: int, depth: int) -> Iterator[tuple[str, Label]]:
    """Yield the (word, label) nodes of levels 0..depth of the path generating
    tree depth first: a node, then its children's subtrees in site order, so
    each level's nodes come in iter_levels()'s order. Only the pending
    siblings along one root-to-node path are held, O(depth * h) nodes rather
    than a level. The checks run at the call, before any node is asked for."""
    _require_h(h)
    _require_depth("depth", depth)
    return _walk(h, depth)


def _walk(h: int, depth: int) -> Iterator[tuple[str, Label]]:
    stack = [("", 1)]
    while stack:
        node = stack.pop()
        yield node
        word = node[0]
        if len(word) < 2 * depth - 2:
            stack.extend(reversed(grow(word, h)))
        elif len(word) < 2 * depth:  # the children are leaves: no need to stack them
            yield from grow(word, h)


def level_sizes(h: int, n_max: int) -> list[int]:
    """The sizes of levels 0..n_max of the path generating tree: the nodes
    walk(h, n_max) yields, counted by semilength. The walk stops a level
    short and each node of level n_max-1 adds its site count to level n_max,
    so the last level, the largest, is counted but never made."""
    _require_h(h)
    _require_depth("n_max", n_max)
    sizes = [0] * (n_max + 1)
    last = 2 * n_max - 2  # the length of a word on level n_max-1
    for word, _ in _walk(h, n_max - 1):
        n = len(word) // 2
        sizes[n] += 1
        if len(word) == last:
            sizes[n_max] += _sites(_initial_ups(word), h)
    return sizes


def perm_children(pi: Permutation, h: int) -> list[Permutation]:
    """Prepend each value 1.._sites(f, h) in ascending order, f the first entry
    (0 when empty), shifting the entries >= it up by one: 1..f+1 when f < h,
    1..h-1 when f = h, and the empty permutation grows into the singleton."""
    _require_perm_member(pi, h)
    e = pi.entries
    out: list[Permutation] = []
    # ell before 1..n shifted past it rearranges 1..n+1
    for ell in range(1, _sites(e[0] if e else 0, h) + 1):
        rescaled = tuple(v + 1 if v >= ell else v for v in e)
        out.append(_trusted((ell,) + rescaled))
    return out


def perm_label(pi: Permutation, h: int) -> Label:
    """Tree label of a permutation: 1 when empty, first entry + 1, except h-1
    when the first entry is h. Agrees with grow()'s labels across the bijection."""
    _require_perm_member(pi, h)
    return _label(pi.entries[0] if pi.entries else 0, h)
