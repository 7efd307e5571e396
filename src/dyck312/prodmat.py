"""Production matrices for the succession rules: explicit block construction,
construction from a rule, and level counting by iterated row-vector products."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .eco import Label, SuccessionRule

# counts per label at one tree level; index i holds the count for label i+1
LevelVector = tuple[int, ...]


class NonContiguousLabels(ValueError):
    """Rule labels must form the range 1..d to index a square matrix."""


@dataclass(frozen=True, slots=True)
class ProductionMatrix:
    """Square nonnegative integer matrix; row and column i (0-based) stand for
    label i+1. Row k lists how many children of each label a (k+1)-labelled
    node produces."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        d = len(rows)
        for r in rows:
            if len(r) != d:
                raise ValueError("matrix must be square")
            if any(e < 0 for e in r):
                raise ValueError("entries must be nonnegative")

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
    rows: tuple[tuple[int, ...], ...] = ((0, 1), (1, 1))
    for d in range(3, h + 1):
        inner = tuple((r[0] + 1,) + r[1:] for r in rows)
        rows = ((0, 1) + (0,) * (d - 2),) + tuple((0,) + r for r in inner)
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
    rows = tuple(
        tuple(rule.productions[i].count(j) for j in range(1, d + 1))
        for i in range(1, d + 1)
    )
    return ProductionMatrix(rows)


def _level_vectors(matrix: ProductionMatrix, axiom: Label, n_max: int) -> Iterator[list[int]]:
    """Label counts of levels 0..n_max: the axiom's unit row vector, then one
    row-vector product with the matrix per level."""
    d = matrix.dimension
    if not 1 <= axiom <= d:
        raise ValueError(f"axiom ({axiom}) outside 1..{d}")
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    rows = matrix.rows
    vec = [0] * d
    vec[axiom - 1] = 1
    yield vec
    for _ in range(n_max):
        vec = [sum(vec[i] * rows[i][j] for i in range(d)) for j in range(d)]
        yield vec


def level_count(matrix: ProductionMatrix, axiom: Label, n: int) -> tuple[int, LevelVector]:
    """Level-n label counts: the axiom's unit row vector times the matrix n
    times, plus its entry sum."""
    for vec in _level_vectors(matrix, axiom, n):
        pass
    return sum(vec), tuple(vec)


def level_totals(matrix: ProductionMatrix, axiom: Label, n_max: int) -> tuple[int, ...]:
    """Level sizes 0..n_max in one sweep."""
    return tuple(sum(vec) for vec in _level_vectors(matrix, axiom, n_max))
