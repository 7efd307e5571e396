"""Production matrices for the succession rules: the height-h block
construction, unrolled into a rule for each row, and the construction from a
rule. A generic matrix is counted by a dense row-vector product, which verify
runs at small dimension. Only the height-h route, height_totals, reads the
matrix's structure: it builds no matrix, and a level is one prefix sum of a
slice of the level before, cut to the rows that later levels read."""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from itertools import accumulate, islice
from operator import mul

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
    first column of the inner block. Unrolled, row i < h - 1 is 1 at columns
    1..i+1, and the last row is row h - 2 plus 1 at column h - 2.
    """
    if h < 2:
        raise ValueError(f"the production matrix needs h >= 2, got {h}")
    rows = [[0] + [1] * (i + 1) + [0] * (h - 2 - i) for i in range(h - 1)]
    rows.append(rows[-1][:])
    rows[-1][h - 2] += 1
    return ProductionMatrix(rows)


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


def _levels(matrix: ProductionMatrix, axiom: Label, n_max: int) -> Iterator[list[int]]:
    """The axiom's unit row vector, then that vector times the matrix, n_max
    times: entry j of a level is the level before times column j."""
    d = matrix.dimension
    if not 1 <= axiom <= d:
        raise ValueError(f"axiom ({axiom}) outside 1..{d}")
    if n_max < 0:
        raise ValueError(f"level must be >= 0, got {n_max}")
    cols = list(zip(*matrix.rows))
    vec = [int(i == axiom - 1) for i in range(d)]
    yield vec
    for _ in range(n_max):
        vec = [sum(map(mul, col, vec)) for col in cols]
        yield vec


def level_count(matrix: ProductionMatrix, axiom: Label, n: int) -> tuple[int, LevelVector]:
    """Level-n label counts, plus their sum: the axiom's unit row vector
    times the matrix n times, the last level of _levels."""
    for vec in _levels(matrix, axiom, n):
        pass
    return sum(vec), tuple(vec)


def level_totals(matrix: ProductionMatrix, axiom: Label, n_max: int) -> tuple[int, ...]:
    """Level sizes 0..n_max, the sums of the levels of _levels. The dense
    product costs O(n_max * d^2) for dimension d, which suits verify's small
    matrices; height_totals counts the height-h matrix from its structure."""
    return tuple(map(sum, _levels(matrix, axiom, n_max)))


def height_totals(h: int, n_max: int) -> tuple[int, ...]:
    """level_totals(production_matrix(h), 1, n_max) with no matrix built. By
    production_matrix's row rule, (M x)[i] = x[1] + ... + x[i+1] is a prefix
    sum of a slice of x, and the last row adds x[h - 2] once more. The level
    t steps before the last is read at rows 0..t only, so its slice ends at
    min(t + 2, h)."""
    if h < 2:
        raise ValueError(f"the production matrix needs h >= 2, got {h}")
    if n_max < 0:
        raise ValueError(f"level must be >= 0, got {n_max}")
    vec = [1] * h
    totals = [1]
    for t in range(n_max - 1, -1, -1):
        row = list(accumulate(islice(vec, 1, min(t + 2, h))))
        if t + 1 >= h:  # every row is kept
            row.append(row[-1] + vec[h - 2])
        totals.append(row[0])
        vec = row
    return tuple(totals)
