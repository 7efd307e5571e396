"""Production matrices for the succession rules: explicit block construction,
construction from a rule, and level counting by a matrix-vector product read
from the differences between adjacent rows."""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import accumulate, compress
from operator import mul, sub

from .eco import Label, SuccessionRule

# counts per label at one tree level; index i holds the count for label i+1
LevelVector = tuple[int, ...]


class NonContiguousLabels(ValueError):
    """Rule labels must form the range 1..d to index a square matrix."""


class ProductionMatrix(namedtuple("ProductionMatrix", "rows")):
    """Square nonnegative integer matrix; row and column i (0-based) stand for
    label i+1. Row k lists how many children of each label a (k+1)-labelled
    node produces."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(r) for r in rows)
        d = len(rows)
        for r in rows:
            if len(r) != d:
                raise ValueError("matrix must be square")
            if min(r) < 0:  # r is not empty: d >= 1 when there is a row
                raise ValueError("entries must be nonnegative")
        return super().__new__(cls, rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)


def production_matrix(h: int) -> ProductionMatrix:
    """Block-recursive matrix of the height-h rule.

    Base [[0, 1], [1, 1]] for h = 2; each step borders the previous matrix
    with a unit row on top, a zero column on the left, and adds one to the
    first column of the inner block.
    """
    if h < 2:
        raise ValueError(f"defined for h >= 2, got {h}")
    # rows bottom-up, each reversed, so the new top row and the new left
    # column are appends and each step costs O(d)
    rows = [[1, 1], [1, 0]]
    for d in range(3, h + 1):
        for r in rows:
            r[-1] += 1
            r.append(0)
        rows.append([0] * (d - 2) + [1, 0])
    return ProductionMatrix(tuple(tuple(reversed(r)) for r in reversed(rows)))


def matrix_from_rule(rule: SuccessionRule) -> ProductionMatrix:
    """Entry (i, j) counts occurrences of label j in the production of label i."""
    labels = sorted(rule.productions)
    d = len(labels)
    if labels != list(range(1, d + 1)):
        raise NonContiguousLabels(f"labels {labels} do not form 1..{d}")
    for label in labels:
        for child in rule.productions[label]:
            if not 1 <= child <= d:
                raise NonContiguousLabels(
                    f"production of ({label}) emits ({child}) outside 1..{d}"
                )
    tallies = [Counter(rule.productions[label]) for label in labels]
    return ProductionMatrix(tuple(tuple(t[j] for j in labels) for t in tallies))


def _check(matrix: ProductionMatrix, axiom: Label, n_max: int) -> int:
    """The matrix's dimension, once the axiom and the level are known valid."""
    d = matrix.dimension
    if not 1 <= axiom <= d:
        raise ValueError(f"axiom ({axiom}) outside 1..{d}")
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    return d


def _sweep(rows: tuple[tuple[int, ...], ...], vec: list[int], n_max: int) -> Iterator[list[int]]:
    """vec, then M vec, M M vec, ...: n_max products with the matrix M of rows.

    Row i is row i-1 (row -1 is zero) plus its difference, so (M x)[i] is a
    running sum over rows 0..i of each difference times x. The nonzero
    differences, and one of weight 0 for a row with none, are gathered once; a
    level is one accumulate over them, read at each row's last entry. The
    height-h matrix's rows each differ from the row above in one entry, by 1."""
    d = len(rows)
    cols, weights, last = [], [], []  # type: list[int], list[int], list[bool]
    for prev, row in zip(((0,) * d, *rows), rows):
        steps = list(map(sub, row, prev))
        nonzero = list(compress(range(d), steps)) or [0]
        cols += nonzero
        weights += map(steps.__getitem__, nonzero)
        last += [False] * (len(nonzero) - 1) + [True]
    unit = weights.count(1) == len(weights)
    yield vec
    for _ in range(n_max):
        terms = map(vec.__getitem__, cols)
        vec = list(compress(accumulate(terms if unit else map(mul, weights, terms)), last))
        yield vec


def level_count(matrix: ProductionMatrix, axiom: Label, n: int) -> tuple[int, LevelVector]:
    """Level-n label counts, plus their sum: the axiom's unit row vector times
    the matrix n times, swept as the transpose times the column vector."""
    vec = [int(i == axiom - 1) for i in range(_check(matrix, axiom, n))]
    for vec in _sweep(tuple(zip(*matrix.rows)), vec, n):
        pass
    return sum(vec), tuple(vec)


def level_totals(matrix: ProductionMatrix, axiom: Label, n_max: int) -> tuple[int, ...]:
    """Level sizes 0..n_max in one sweep, by subtree sizes: entry i of
    S_m = M S_(m-1), from S_0 all ones, counts the level-m descendants of a
    node labelled i+1, so the axiom's entry is the size of level m."""
    ones = [1] * _check(matrix, axiom, n_max)
    return tuple(vec[axiom - 1] for vec in _sweep(matrix.rows, ones, n_max))
