from operator import add

import pytest

from dyck312 import dyck, genfunc
from dyck312.genfunc import NonUnitConstantTerm

FIBONACCI = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597)


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

    def test_leading_coefficient_is_never_zero(self):
        # (-1)^m at h = 2m, (-1)^m * m at h = 2m + 1: at even h the top term is
        # -x*d(h-2)'s alone, at odd h the two tops have opposite signs and add in
        # size, so the sweep never has a zero top coefficient to trim
        for h in range(2, 513):
            denominator = genfunc.generating_function(h)[1]
            m = h // 2
            assert len(denominator) == m + 2
            assert denominator[-1] == (-1) ** m * (m if h % 2 else 1)

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

    def test_division_by_j_is_exact(self):
        # the paper's form for h in 0..1000, j in 1..h + 2, the seed h = 0
        # included, against the integer (-1)^j * (C(m, j - 1) - C(m, j)) with
        # m = h - j + 1, read off Pascal's row m, built by addition alone and
        # zero past its end; at m = -1 (j = h + 2) both binomials vanish
        row = [1] + [0] * 1001  # C(0, 0..1001)
        for m in range(1001):
            for j in range(1, 1002 - m):  # h = m + j - 1 runs m..1000
                assert genfunc._coeff(m + j - 1, j) == (-1) ** j * (row[j - 1] - row[j]), (m, j)
            row = [1, *map(add, row[1:], row)]
        assert not any(genfunc._coeff(h, h + 2) for h in range(1001))

    def test_matches_polynomials(self):
        for h in range(2, 15):
            poly = genfunc.denominator_poly(h)
            assert poly[0] == 1
            for j in range(1, len(poly) + 2):
                assert (poly[j] if j < len(poly) else 0) == -genfunc.denominator_coeff(h, j)

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

    def test_lists_are_read_as_their_values(self):
        # the memo keys on tuples of the coefficients, never on the caller's lists
        p, q = [1], [1, -1]
        assert genfunc.series((p, q), 4) == (1, 1, 1, 1, 1)
        q[1] = -2
        assert genfunc.series((p, q), 4) == (1, 2, 4, 8, 16)
        p.append(1)
        assert genfunc.series((p, q), 4) == (1, 3, 6, 12, 24)


@pytest.mark.parametrize(
    "h, n_max", [*((h, h) for h in range(3, 65)), *((h, 512) for h in (97, 192, 511, 512))]
)
def test_both_routes_build_one_pair(h, n_max):
    # the premise of series()' memo: from h = 3 on, the closed form and the
    # h-recurrence give the same tuples, so the second expansion is a lookup
    genfunc._expand.cache_clear()
    genfunc.count_sequence(h, n_max)
    assert genfunc._expand.cache_info()[:2] == (0, 1)
    genfunc.series(genfunc.generating_function(h), n_max)
    assert genfunc._expand.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("h", [1, 2])
def test_low_heights_build_two_pairs(h):
    # the closed form's d(1) is (1, 0) and the h-recurrence's is (1,): d(1) is
    # h = 1's denominator and h = 2's numerator, so both pairs are expanded
    genfunc._expand.cache_clear()
    assert genfunc.count_sequence(h, h) == genfunc.series(genfunc.generating_function(h), h)
    assert genfunc._expand.cache_info()[:2] == (0, 2)


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
        for h, n in [*((h, 12) for h in range(1, 8)), (50, 200), (301, 200)]:
            seq = genfunc.count_sequence(h, n)
            assert seq == genfunc.series(genfunc.generating_function(h), n)

    def test_matches_brute(self):
        for h in range(1, 6):
            for n in range(9):
                assert genfunc.count_sequence(h, n)[n] == dyck.count_brute(n, h, 2)

    def test_rejects_height_zero(self):
        with pytest.raises(ValueError, match="^h must be >= 1, got 0$"):
            genfunc.count_sequence(0, 3)
        # the size is series' check, made once, with series' message
        with pytest.raises(ValueError, match="^n_max must be >= 0, got -1$"):
            genfunc.count_sequence(3, -1)

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
