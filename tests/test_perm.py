import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyck312 import dyck, perm
from dyck312.perm import LrMaximum, NotAPermutation, Permutation, _trusted

from strategies import perm_tuples


class TestParse:
    def test_spaces(self):
        assert perm.parse_perm("2 3 1") == Permutation((2, 3, 1))

    def test_commas(self):
        assert perm.parse_perm("2,3,1") == Permutation((2, 3, 1))

    def test_empty(self):
        assert perm.parse_perm("") == Permutation(())
        assert perm.parse_perm("   ") == Permutation(())

    def test_duplicate(self):
        with pytest.raises(NotAPermutation) as exc:
            perm.parse_perm("1 1")
        assert exc.value.value == 1

    def test_gap(self):
        with pytest.raises(NotAPermutation) as exc:
            perm.parse_perm("1 3")
        assert exc.value.value == 3

    def test_non_integer(self):
        with pytest.raises(NotAPermutation):
            perm.parse_perm("1 x 2")

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff12", "+1_0"])
    def test_only_ascii_digits(self, token):
        # int() reads each of these; the format is an optional sign and 0-9
        with pytest.raises(NotAPermutation) as exc:
            perm.parse_perm(f"2 {token} 1")
        assert str(exc.value) == f"not an integer: {token!r}"
        assert exc.value.value == token

    def test_signs_and_unicode_separators(self):
        assert perm.parse_perm("+2\u00a0+1,3") == Permutation((2, 1, 3))

    # digits with bare commas are read as JSON; what JSON refuses, token by token
    @pytest.mark.parametrize(
        "text, entries",
        [
            ("1,2", (1, 2)),
            (",1", (1,)),
            ("1,", (1,)),
            ("1,,2", (1, 2)),
            ("1 ,2", (1, 2)),
            (",", ()),
            ("+1,2", (1, 2)),
            ("2\t1", (2, 1)),
            ("2,1 3", (2, 1, 3)),
        ],
    )
    def test_separators(self, text, entries):
        assert perm.parse_perm(text) == Permutation(entries)

    @pytest.mark.parametrize(
        "text, message, value",
        [
            ("1,1", "duplicate value 1", 1),
            ("0,1", "value 0 out of range 1..2", 0),
            ("1,01", "duplicate value 1", 1),
            (f"2,{'7' * 4301},1", f"not an integer: '{'7' * 4301}'", "7" * 4301),
        ],
        ids=["duplicate", "out-of-range", "leading-zero", "digit-limit"],
    )
    def test_comma_errors(self, text, message, value):
        with pytest.raises(NotAPermutation) as exc:
            perm.parse_perm(text)
        assert (str(exc.value), exc.value.value) == (message, value)

    def test_long_permutation_in_each_spelling(self):
        entries = random.Random(312).sample(range(1, 100_001), 100_000)
        expected = Permutation(entries)
        for sep in (" ", ",", ", "):
            assert perm.parse_perm(sep.join(map(str, entries))) == expected

    def test_constructor_validates(self):
        with pytest.raises(NotAPermutation):
            Permutation((0, 1))
        with pytest.raises(NotAPermutation):
            Permutation((2, 2))


class TestAvoids312:
    def test_examples(self):
        assert not perm.avoids_312(Permutation((3, 5, 2, 1, 6, 4)))
        assert perm.avoids_312(Permutation((3, 4, 2, 5, 1)))
        assert perm.avoids_312(Permutation(()))
        assert not perm.avoids_312(Permutation((3, 1, 2)))

    @given(perm_tuples(max_n=7))
    def test_stack_matches_cubic(self, t):
        pi = Permutation(t)
        assert perm.avoids_312(pi) == perm.avoids_312_cubic(pi)

    def test_avoider_counts_are_catalan(self, avoiders_by_n):
        for n, pis in avoiders_by_n.items():
            assert len(pis) == dyck.catalan(n)

    def test_avoider_count_n10(self):
        # full 10! sweep; each tuple is wrapped unchecked to keep it quick
        count = sum(
            1 for t in permutations(range(1, 11)) if perm.avoids_312(_trusted(t))
        )
        assert count == dyck.catalan(10)


class TestLeftToRightMaxima:
    def test_examples(self):
        assert perm.left_to_right_maxima(Permutation((2, 3, 1))) == [
            LrMaximum(1, 2),
            LrMaximum(2, 3),
        ]
        assert perm.left_to_right_maxima(Permutation((1, 2, 3))) == [
            LrMaximum(1, 1),
            LrMaximum(2, 2),
            LrMaximum(3, 3),
        ]
        assert perm.left_to_right_maxima(Permutation((3, 2, 1))) == [LrMaximum(1, 3)]
        assert perm.left_to_right_maxima(Permutation(())) == []

    @given(perm_tuples())
    def test_first_entry_is_maximum(self, t):
        pi = Permutation(t)
        maxima = perm.left_to_right_maxima(pi)
        if pi.entries:
            assert maxima[0] == LrMaximum(1, pi.entries[0])
        values = [m.value for m in maxima]
        assert values == sorted(values)


class TestHeightClass:
    def test_examples(self):
        assert perm.in_height_class(Permutation((2, 3, 1)), 2)
        assert not perm.in_height_class(Permutation((3, 1, 2)), 2)
        for n in range(5):
            assert perm.in_height_class(Permutation(tuple(range(1, n + 1))), 1)

    def test_excess_is_the_discriminator(self):
        # 3 2 1 avoids 312; its only maximum has excess 2
        assert not perm.in_height_class(Permutation((3, 2, 1)), 2)
        assert perm.in_height_class(Permutation((3, 2, 1)), 3)

    @given(perm_tuples(), st.integers(1, 9))
    def test_monotone_in_h(self, t, h):
        pi = Permutation(t)
        if perm.in_height_class(pi, h):
            assert perm.in_height_class(pi, h + 1)


class TestValleyFreeClass:
    def test_examples(self):
        # 3 4 2 1: first maximum has excess 2 = h-1 and 4 follows right after
        assert not perm.in_class(Permutation((3, 4, 2, 1)), 3)
        assert perm.in_class(Permutation((3, 4, 2, 1)), 4)
        # 3 1 4 2 and 3 1 2 4 contain 312 outright
        assert not perm.in_class(Permutation((3, 1, 4, 2)), 3)
        assert not perm.in_class(Permutation((3, 1, 2, 4)), 3)
        assert perm.in_class(Permutation(()), 1)
        assert perm.in_class(Permutation(()), 5)

    def test_adjacency_is_required(self):
        # maxima 2 and 3 differ by one but are not adjacent; the matching
        # path UUDDUD only has a valley at height 0, so h=2 keeps it
        assert perm.in_class(Permutation((2, 1, 3)), 2)
        assert not perm.in_class(Permutation((2, 3, 1)), 2)

    @given(perm_tuples(), st.integers(1, 9))
    def test_implies_height_class(self, t, h):
        pi = Permutation(t)
        if perm.in_class(pi, h):
            assert perm.in_height_class(pi, h)
