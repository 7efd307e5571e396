from itertools import accumulate, compress
from operator import mul, sub

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from dyck312 import dyck, eco, genfunc, prodmat
from dyck312.eco import SuccessionRule
from dyck312.prodmat import NonContiguousLabels, ProductionMatrix


class TestProductionMatrix:
    def test_base(self):
        assert prodmat.production_matrix(2).rows == ((0, 1), (1, 1))

    def test_h3(self):
        assert prodmat.production_matrix(3).rows == (
            (0, 1, 0),
            (0, 1, 1),
            (0, 2, 1),
        )

    def test_h4(self):
        assert prodmat.production_matrix(4).rows == (
            (0, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (0, 1, 2, 1),
        )

    def test_dimension_is_h(self):
        for h in range(2, 12):
            assert prodmat.production_matrix(h).dimension == h

    def test_row_sums_equal_labels(self):
        for h in range(2, 9):
            for i, row in enumerate(prodmat.production_matrix(h).rows, start=1):
                assert sum(row) == i

    def test_rejects_h_below_two(self):
        for h in (1, 0, -3):
            with pytest.raises(ValueError, match=rf"^the production matrix needs h >= 2, got {h}$"):
                prodmat.production_matrix(h)

    @pytest.mark.parametrize("h", [*range(2, 65), 512])
    def test_block_recursion(self, h):
        # the construction as the docstring states it: from the h = 2 base,
        # border with a zero column on the left, add one to the inner block's
        # first column, and put the unit row on top
        rows = [[0, 1], [1, 1]]
        for d in range(3, h + 1):
            rows = [[0, r[0] + 1, *r[1:]] for r in rows]
            rows.insert(0, [0, 1] + [0] * (d - 2))
        assert prodmat.production_matrix(h).rows == tuple(map(tuple, rows))

    def test_type_validation(self):
        with pytest.raises(ValueError):
            ProductionMatrix(((0, 1),))
        with pytest.raises(ValueError):
            ProductionMatrix(((0, -1), (1, 1)))


class TestMatrixFromRule:
    def test_height_two_rule(self):
        m = prodmat.matrix_from_rule(eco.succession_rule(2))
        assert m.rows == ((0, 1), (1, 1))

    def test_h3_rule(self):
        m = prodmat.matrix_from_rule(eco.succession_rule(3))
        assert m.rows == ((0, 1, 0), (0, 1, 1), (0, 2, 1))

    def test_matches_block_construction(self):
        for h in [*range(3, 11), 50, 200, 512]:
            assert (
                prodmat.matrix_from_rule(eco.succession_rule(h)).rows
                == prodmat.production_matrix(h).rows
            )

    def test_rejects_non_contiguous(self):
        rule = SuccessionRule(axiom=1, productions={1: (3,), 3: (1, 3, 3)})
        with pytest.raises(NonContiguousLabels):
            prodmat.matrix_from_rule(rule)

    def test_rejects_out_of_range_child(self):
        rule = SuccessionRule(axiom=1, productions={1: (2,), 2: (1, 3)})
        with pytest.raises(NonContiguousLabels):
            prodmat.matrix_from_rule(rule)


def _dense_levels(rows, axiom, n):
    """Oracle: the unit row vector of the axiom times the matrix, n times,
    entry by entry."""
    d = len(rows)
    vec = [int(i == axiom - 1) for i in range(d)]
    levels = [vec]
    for _ in range(n):
        vec = [sum(vec[i] * rows[i][j] for i in range(d)) for j in range(d)]
        levels.append(vec)
    return levels


def ref_difference_sweep(rows, vec, n_max):
    """Oracle: vec, then M vec, M M vec, ...: n_max products with M, read
    from its row differences. Row i of M sums the differences in rows 0..i,
    so a level is one running sum of each nonzero difference times x, read
    at each row's last; a row with none gets one difference of weight 0."""
    d = len(rows)
    cols, weights, last = [], [], []
    for prev, row in zip(((0,) * d, *rows), rows):
        steps = list(map(sub, row, prev))
        nonzero = list(compress(range(d), steps)) or [0]
        cols += nonzero
        weights += map(steps.__getitem__, nonzero)
        last += [False] * (len(nonzero) - 1) + [True]
    yield vec
    for _ in range(n_max):
        vec = list(compress(accumulate(map(mul, weights, map(vec.__getitem__, cols))), last))
        yield vec


def _swept_totals(rows, axiom, n_max):
    """Level sizes by subtree sizes: entry i of S_m = M S_(m-1), from S_0 all
    ones, counts the level-m descendants of a node labelled i+1."""
    return tuple(s[axiom - 1] for s in ref_difference_sweep(rows, [1] * len(rows), n_max))


@st.composite
def matrix_axiom_n(draw):
    d = draw(st.integers(1, 8))
    entries = st.integers(0, 5)
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    return rows, draw(st.integers(1, d)), draw(st.integers(0, 12))


class TestLevelCount:
    @given(matrix_axiom_n())
    @example(([[1, 2], [0, 0]], 1, 6))  # a label with no children
    @example(([[0, 0, 1], [2, 1, 1], [1, 0, 3]], 2, 6))  # rows below smaller rows
    @example(([[0]], 1, 3))  # d = 1, no children
    @example(([[3]], 1, 6))  # d = 1
    @example(([[0, 1, 0], [0, 1, 1], [0, 2, 1]], 3, 6))  # axiom = d
    @example(([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 3, 2))  # every row zero
    @example(([[1, 0, 0], [1, 0, 0], [1, 0, 0]], 3, 6))  # reach falls below the axiom
    @example(([[0, 0, 1], [0, 0, 1], [1, 1, 1]], 1, 6))  # row 0 reaches the last column
    def test_matches_dense_product(self, case):
        rows, axiom, n = case
        m = ProductionMatrix(rows)
        levels = _dense_levels(rows, axiom, n)
        totals = tuple(sum(v) for v in levels)
        assert prodmat.level_totals(m, axiom, n) == totals
        assert prodmat.level_count(m, axiom, n) == (sum(levels[n]), tuple(levels[n]))
        # the difference sweep, the oracle for larger matrices, both ways round
        assert _swept_totals(rows, axiom, n) == totals
        unit = [int(i == axiom - 1) for i in range(len(rows))]
        assert list(ref_difference_sweep(list(zip(*rows)), unit, n)) == levels

    def test_height_route_matches_the_matrix(self):
        for h in range(2, 65):
            m = prodmat.production_matrix(h)
            for n in (0, 1, h - 1, h, h + 1, 3 * h):
                totals = prodmat.height_totals(h, n)
                assert totals == _swept_totals(m.rows, 1, n), (h, n)
                if h <= 12:  # the dense product costs O(n h^2)
                    assert totals == prodmat.level_totals(m, 1, n), (h, n)
                    assert totals == tuple(sum(v) for v in _dense_levels(m.rows, 1, n)), (h, n)

    def test_height_route_arguments(self):
        with pytest.raises(ValueError, match=r"^the production matrix needs h >= 2, got 1$"):
            prodmat.height_totals(1, 2)
        with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
            prodmat.height_totals(3, -1)

    def test_level_zero(self):
        m = prodmat.production_matrix(4)
        assert prodmat.level_count(m, 1, 0) == (1, (1, 0, 0, 0))

    def test_fibonacci_total(self):
        m = prodmat.production_matrix(2)
        assert prodmat.level_count(m, 1, 6)[0] == 13

    def test_h3_level_four(self):
        m = prodmat.production_matrix(3)
        assert prodmat.level_count(m, 1, 4)[0] == 12

    def test_totals_helper(self):
        m = prodmat.production_matrix(2)
        assert prodmat.level_totals(m, 1, 6) == (1, 1, 2, 3, 5, 8, 13)

    def test_matches_recurrence(self):
        for h in range(2, 8):
            m = prodmat.production_matrix(h)
            assert prodmat.level_totals(m, 1, 16) == genfunc.count_sequence(h, 16)

    @pytest.mark.parametrize("h, n", [(64, 64), (97, 512), (128, 128), (192, 192), (512, 512)])
    def test_exact_routes_agree_at_workload_sizes(self, h, n):
        totals = _swept_totals(prodmat.production_matrix(h).rows, 1, n)
        assert totals == prodmat.height_totals(h, n)
        assert totals == genfunc.count_sequence(h, n)
        assert totals == genfunc.series(genfunc.generating_function(h), n)

    def test_matches_brute(self):
        for h in range(2, 6):
            m = prodmat.production_matrix(h)
            totals = prodmat.level_totals(m, 1, 8)
            for n in range(9):
                assert totals[n] == dyck.count_brute(n, h, 2)

    def test_per_label_matches_symbolic(self):
        for h in range(3, 7):
            rule = eco.succession_rule(h)
            m = prodmat.matrix_from_rule(rule)
            for n in range(11):
                total, vec = prodmat.level_count(m, rule.axiom, n)
                sym_total, sym = eco.symbolic_counts(rule, n)
                assert total == sym_total
                assert {i + 1: v for i, v in enumerate(vec) if v} == sym

    def test_axiom_range(self):
        m = prodmat.production_matrix(3)
        with pytest.raises(ValueError):
            prodmat.level_count(m, 0, 2)
        with pytest.raises(ValueError):
            prodmat.level_count(m, 4, 2)

    @pytest.mark.parametrize("fn", [prodmat.level_count, prodmat.level_totals])
    def test_argument_messages(self, fn):
        m = prodmat.production_matrix(3)
        with pytest.raises(ValueError, match=r"^axiom \(0\) outside 1\.\.3$"):
            fn(m, 0, 2)
        with pytest.raises(ValueError, match=r"^axiom \(4\) outside 1\.\.3$"):
            fn(m, 4, 2)
        with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
            fn(m, 1, -1)
