"""Production matrices for the succession rules: explicit block construction,
construction from a rule, and level counting by a row-vector product read
from the differences between adjacent columns."""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import compress
from operator import sub

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


def _level_vectors(matrix: ProductionMatrix, axiom: Label, n_max: int) -> Iterator[list[int]]:
    """Label counts of levels 0..n_max: the axiom's unit row vector, then one
    row-vector product with the matrix per level.

    The product runs right to left over the columns: new[j] = new[j+1] +
    sum_i vec[i] * (M[i][j] - M[i][j+1]), with M[i][d] = 0. Only the nonzero
    differences are kept, so a level costs O(d + their number): O(d) for the
    height-h matrix, whose rows are runs of equal entries.
    """
    d = matrix.dimension
    if not 1 <= axiom <= d:
        raise ValueError(f"axiom ({axiom}) outside 1..{d}")
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    diffs: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for i, row in enumerate(matrix.rows):
        steps = list(map(sub, row, row[1:] + (0,)))
        for j in compress(range(d), steps):
            diffs[j].append((i, steps[j]))
    vec = [0] * d
    vec[axiom - 1] = 1
    yield vec
    for _ in range(n_max):
        new = [0] * d
        acc = 0
        for j in range(d - 1, -1, -1):
            for i, delta in diffs[j]:
                acc += vec[i] * delta
            new[j] = acc
        vec = new
        yield vec


def level_count(matrix: ProductionMatrix, axiom: Label, n: int) -> tuple[int, LevelVector]:
    """Level-n label counts: the axiom's unit row vector times the matrix n
    times, each product read from the column differences, plus its entry
    sum."""
    for vec in _level_vectors(matrix, axiom, n):
        pass
    return sum(vec), tuple(vec)


def level_totals(matrix: ProductionMatrix, axiom: Label, n_max: int) -> tuple[int, ...]:
    """Level sizes 0..n_max in one sweep."""
    return tuple(sum(vec) for vec in _level_vectors(matrix, axiom, n_max))
