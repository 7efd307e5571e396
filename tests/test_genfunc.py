import pytest

from dyck312 import dyck, genfunc
from dyck312.genfunc import NonUnitConstantTerm, _binom

# coefficient table for h = 1..14, j = 1..8; frozen reference values
COEFF_TABLE = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [2, 1, 0, 0, 0, 0, 0, 0],
    [3, 0, -1, 0, 0, 0, 0, 0],
    [4, -2, -2, 0, 0, 0, 0, 0],
    [5, -5, -2, 1, 0, 0, 0, 0],
    [6, -9, 0, 3, 0, 0, 0, 0],
    [7, -14, 5, 5, -1, 0, 0, 0],
    [8, -20, 14, 5, -4, 0, 0, 0],
    [9, -27, 28, 0, -9, 1, 0, 0],
    [10, -35, 48, -14, -14, 5, 0, 0],
    [11, -44, 75, -42, -14, 14, -1, 0],
    [12, -54, 110, -90, 0, 28, -6, 0],
    [13, -65, 154, -165, 42, 42, -20, 1],
]

FIBONACCI = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597)


class TestBinom:
    def test_zero_conventions(self):
        assert _binom(-1, 2) == 0
        assert _binom(3, -1) == 0
        assert _binom(2, 5) == 0
        assert _binom(5, 2) == 10


class TestDenominatorPoly:
    def test_seeds(self):
        assert genfunc.denominator_poly(1) == (1,)
        assert genfunc.denominator_poly(2) == (1, -1, -1)

    def test_recurrence_values(self):
        assert genfunc.denominator_poly(3) == (1, -2, -1)
        assert genfunc.denominator_poly(4) == (1, -3, 0, 1)
        assert genfunc.denominator_poly(5) == (1, -4, 2, 2)

    def test_degree_law(self):
        for h in range(2, 21):
            assert len(genfunc.denominator_poly(h)) - 1 == (h + 2) // 2

    def test_recurrence_relation(self):
        # d(h) = d(h-1) - x * d(h-2), coefficient by coefficient
        for h in range(3, 16):
            lhs = genfunc.denominator_poly(h)
            a = genfunc.denominator_poly(h - 1)
            b = genfunc.denominator_poly(h - 2)
            rhs = [
                (a[i] if i < len(a) else 0) - (b[i - 1] if 0 < i <= len(b) else 0)
                for i in range(max(len(a), len(b) + 1))
            ]
            while rhs[-1] == 0:
                rhs.pop()
            assert lhs == tuple(rhs)


class TestDenominatorCoeff:
    def test_spot_values(self):
        assert genfunc.denominator_coeff(8, 3) == 5
        assert genfunc.denominator_coeff(14, 4) == -165
        assert genfunc.denominator_coeff(5, 2) == -2

    def test_out_of_range_is_zero(self):
        assert genfunc.denominator_coeff(4, 4) == 0
        assert genfunc.denominator_coeff(1, 2) == 0

    def test_table(self):
        for h in range(1, 15):
            for j in range(1, 9):
                assert genfunc.denominator_coeff(h, j) == COEFF_TABLE[h - 1][j - 1]

    def test_matches_polynomials(self):
        for h in range(2, 15):
            poly = genfunc.denominator_poly(h)
            assert poly[0] == 1
            for j in range(1, len(poly) + 2):
                assert (poly[j] if j < len(poly) else 0) == -genfunc.denominator_coeff(h, j)

    def test_two_case_recurrence(self):
        for h in range(2, 15):
            assert (
                genfunc.denominator_coeff(h, 1)
                == genfunc.denominator_coeff(h - 1, 1) + 1
            )
        for h in range(3, 15):
            for j in range(2, (h + 2) // 2 + 1):
                assert genfunc.denominator_coeff(h, j) == genfunc.denominator_coeff(
                    h - 1, j
                ) - genfunc.denominator_coeff(h - 2, j - 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            genfunc.denominator_coeff(0, 1)
        with pytest.raises(ValueError):
            genfunc.denominator_coeff(3, 0)


class TestGeneratingFunction:
    def test_height_one(self):
        assert genfunc.generating_function(1) == ((1, 1), (1,))

    def test_height_two(self):
        assert genfunc.generating_function(2) == ((1,), (1, -1, -1))

    def test_numerator_is_previous_denominator(self):
        for h in range(2, 10):
            numerator, denominator = genfunc.generating_function(h)
            assert numerator == genfunc.denominator_poly(h - 1)
            assert denominator == genfunc.denominator_poly(h)

    # the sweep's one h check guards both ways into it
    @pytest.mark.parametrize("fn", [genfunc.generating_function, genfunc.denominator_poly])
    @pytest.mark.parametrize("h", [0, -1])
    def test_rejects_height_below_one(self, fn, h):
        with pytest.raises(ValueError, match="h must be >= 1"):
            fn(h)


class TestSeries:
    def test_height_one(self):
        assert genfunc.series(genfunc.generating_function(1), 3) == (1, 1, 0, 0)
        assert genfunc.series(genfunc.generating_function(1), 10) == (1, 1) + (0,) * 9

    def test_fibonacci(self):
        assert genfunc.series(genfunc.generating_function(2), 16) == FIBONACCI

    def test_height_three(self):
        assert genfunc.series(genfunc.generating_function(3), 5) == (1, 1, 2, 5, 12, 29)

    def test_non_unit_constant_term(self):
        with pytest.raises(NonUnitConstantTerm):
            genfunc.series(((1,), (2, 1)), 3)

    def test_negative_unit_allowed(self):
        assert genfunc.series(((-1,), (-1, 1, 1)), 6) == FIBONACCI[:7]

    def test_continued_fraction_chain(self):
        # rebuild each level's series as 1/(1 - x * previous) starting from
        # the literal height-1 coefficients, independent of the closed form
        n = 12
        prev = [1, 1] + [0] * (n - 1)
        for h in range(2, 8):
            cur = [1]
            for m in range(1, n + 1):
                cur.append(sum(prev[i - 1] * cur[m - i] for i in range(1, m + 1)))
            assert tuple(cur) == genfunc.series(genfunc.generating_function(h), n)
            prev = cur


class TestCountRecurrence:
    def test_examples(self):
        assert genfunc.count_sequence(3, 4)[4] == 12
        assert genfunc.count_sequence(2, 6)[6] == 13
        for n in range(6):
            assert genfunc.count_sequence(5, n)[n] == dyck.catalan(n)

    def test_catalan_cutoff(self):
        for h in range(2, 13):
            for n in range(h + 1):
                assert genfunc.count_sequence(h, n)[n] == dyck.catalan(n)

    def test_matches_series(self):
        # at n = 200 the correction term runs on both sides of the numerator's
        # degree (25 at h = 50, 151 at h = 301); h = 301 > n is all Catalan
        for h, n in [*((h, 12) for h in range(2, 8)), (50, 200), (301, 200)]:
            seq = genfunc.count_sequence(h, n)
            assert seq == genfunc.series(genfunc.generating_function(h), n)

    def test_matches_brute(self):
        for h in range(2, 6):
            for n in range(9):
                assert genfunc.count_sequence(h, n)[n] == dyck.count_brute(n, h, 2)

    def test_rejects_height_one(self):
        with pytest.raises(ValueError):
            genfunc.count_sequence(1, 3)

    def test_reads_only_the_coefficients_it_uses(self, monkeypatch):
        # d(999) and d(1000) have degree 500 and 501; sizes 0..3 read them through x^3
        calls = []
        real = genfunc._coeff

        def counted(h, j):
            calls.append((h, j))
            return real(h, j)

        monkeypatch.setattr(genfunc, "_coeff", counted)
        assert genfunc.count_sequence(1000, 3) == (1, 1, 2, 5)
        assert sorted(calls) == [(h, j) for h in (999, 1000) for j in (1, 2, 3)]
        calls.clear()
        assert genfunc.count_sequence(1000, 0) == (1,)
        assert calls == []


class TestCatalanIdentity:
    def test_examples(self):
        assert genfunc.catalan_identity(1, 0)
        assert genfunc.catalan_identity(5, 2)

    def test_sweep(self):
        for n in range(1, 13):
            for alpha in range(n + 1):
                assert genfunc.catalan_identity(n, alpha)

    def test_terms_are_polynomials_in_alpha(self):
        # the premise of verify's sweep: _coeff(n + alpha, j) has degree j in
        # alpha, and _coeff(n + alpha - 1, n) degree n, so the next finite
        # difference vanishes
        def vanishes(values, order):
            for _ in range(order):
                values = [b - a for a, b in zip(values, values[1:])]
            return not any(values)

        for n in range(1, 17):
            alphas = range(2 * n + 4)
            for j in range(1, n + 1):
                assert vanishes([genfunc._coeff(n + a, j) for a in alphas], j + 1), (n, j)
            assert vanishes([genfunc._coeff(n + a - 1, n) for a in alphas], n + 1), n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            genfunc.catalan_identity(0, 0)
        with pytest.raises(ValueError):
            genfunc.catalan_identity(3, -1)
