import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyck312 import dyck
from dyck312.dyck import (
    CapExceeded,
    DyckPath,
    InvalidCharacter,
    NegativePrefix,
    Unbalanced,
)

from strategies import dyck_words


def valleys(word: str) -> list[tuple[int, int]]:
    """(D index, height) of each DU factor: the D at index i ends at 2*ups - (i + 1)."""
    return [
        (i, 2 * word[: i + 1].count("U") - (i + 1))
        for i in range(len(word) - 1)
        if word[i : i + 2] == "DU"
    ]


def valley_heights(word: str) -> set[int]:
    return {height for _, height in valleys(word)}


def longest_chain(indices: list[int]) -> int:
    """The most valleys in one chain, two valleys adjacent when their D indices differ by 2."""
    best = run = 0
    prev = None
    for i in indices:
        run = run + 1 if prev is not None and i == prev + 2 else 1
        best = max(best, run)
        prev = i
    return best


class TestParse:
    def test_empty(self):
        assert dyck.parse_path("") == DyckPath("")

    def test_simple(self):
        p = dyck.parse_path("UUDUDD")
        assert p.word == "UUDUDD"

    def test_negative_prefix(self):
        with pytest.raises(NegativePrefix) as exc:
            dyck.parse_path("UDD")
        assert exc.value.index == 2

    def test_dip_at_start(self):
        with pytest.raises(NegativePrefix) as exc:
            dyck.parse_path("DU")
        assert exc.value.index == 0

    def test_unbalanced(self):
        with pytest.raises(Unbalanced) as exc:
            dyck.parse_path("UUD")
        assert exc.value.index == 0  # the first U stays unmatched

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacter) as exc:
            dyck.parse_path("UXD")
        assert exc.value.index == 1
        assert exc.value.char == "X"

    @given(dyck_words())
    def test_round_trip(self, word):
        assert dyck.parse_path(word).word == word
        assert str(dyck.parse_path(word)) == word


class TestHeight:
    def test_empty(self):
        assert dyck.height(DyckPath("")) == 0

    def test_examples(self):
        assert dyck.height(DyckPath("UUDUDD")) == 2
        assert dyck.height(DyckPath("UUUDDD")) == 3

    @given(dyck_words())
    def test_bounded_by_semilength(self, word):
        p = DyckPath(word)
        assert 0 <= dyck.height(p) <= len(p.word) // 2


class TestInClass:
    def test_examples(self):
        assert not dyck.in_class(DyckPath("UUUDUDDD"), 3, 2)
        assert dyck.in_class(DyckPath("UUUDDD"), 3, 2)
        assert dyck.in_class(DyckPath(""), 1, 2)
        assert dyck.in_class(DyckPath(""), 7, 5)

    def test_consecutive_valley_runs(self):
        assert not dyck.in_class(DyckPath("UDUD"), 1, 2)
        assert not dyck.in_class(DyckPath("UDUDUD"), 1, 3)
        # a lone valley at h-1 is fine for k=3; two chained ones are not,
        # and a valley at another height in between breaks the chain
        assert dyck.in_class(DyckPath("UUDUDD"), 2, 3)
        assert not dyck.in_class(DyckPath("UUDUDUDD"), 2, 3)
        assert dyck.in_class(DyckPath("UUDUDDUUDUDD"), 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyck.in_class(DyckPath(""), 0, 2)
        with pytest.raises(ValueError):
            dyck.in_class(DyckPath(""), 3, 1)

    @given(dyck_words(), st.integers(1, 10), st.integers(2, 5))
    def test_monotone_in_k(self, word, h, k):
        p = DyckPath(word)
        if dyck.in_class(p, h, k):
            assert dyck.in_class(p, h, k + 1)

    @given(dyck_words())
    def test_tall_bound_always_in(self, word):
        p = DyckPath(word)
        assert dyck.in_class(p, len(p.word) // 2 + 1, 2)

    @given(dyck_words(), st.integers(1, 10))
    def test_matches_definition(self, word, h):
        p = DyckPath(word)
        expected = dyck.height(p) <= h and h - 1 not in valley_heights(word)
        assert dyck.in_class(p, h, 2) == expected

    def test_matches_definition_at_every_k(self, paths_by_n):
        # every path with n <= 10 at h 1..7 and k 2..5: out when taller than h or when
        # some chain of valleys at h-1 has k-1 of them
        for paths in paths_by_n.values():
            for p in paths:
                top = dyck.height(p)
                found = valleys(p.word)
                for h in range(1, 8):
                    chain = longest_chain([i for i, height in found if height == h - 1])
                    for k in range(2, 6):
                        expected = top <= h and chain < k - 1
                        assert dyck.in_class(p, h, k) == expected, (p.word, h, k)


class TestEnumerate:
    def test_base(self):
        assert list(dyck.enumerate_dyck(0)) == [DyckPath("")]
        assert sum(1 for _ in dyck.enumerate_dyck(3)) == 5

    def test_matches_catalan(self, paths_by_n):
        # counted by iterating: len() of the view states C_n without making a path
        for n, paths in paths_by_n.items():
            assert len(paths) == dyck.catalan(n)
        for n in (11, 12):
            assert sum(1 for _ in dyck.enumerate_dyck(n)) == dyck.catalan(n)

    def test_view_is_sized_and_iterates_again(self, paths_by_n):
        for n in (0, 1, 7):
            view = dyck.enumerate_dyck(n)
            assert len(view) == len(paths_by_n[n])
            assert list(view) == list(view) == paths_by_n[n]
            assert view.n == n
            assert all(p in view for p in paths_by_n[n])
            assert DyckPath("UD" * (n + 1)) not in view
            with pytest.raises(AttributeError):
                view.n = n + 1

    def test_lexicographic(self, paths_by_n):
        for paths in paths_by_n.values():
            words = [p.word for p in paths]
            assert words == sorted(words)
            assert len(set(words)) == len(words)

    def test_records_are_dyck_paths(self):
        # the paths are built without DyckPath's constructor; each must still be one
        for n in range(10):
            for p in dyck.enumerate_dyck(n):
                assert type(p) is DyckPath
                assert p == DyckPath(p.word) and hash(p) == hash(DyckPath(p.word))
                assert str(p) == p.word

    def test_cap(self):
        assert len(dyck.enumerate_dyck(dyck.DEFAULT_CAP)) == dyck.catalan(14)
        with pytest.raises(CapExceeded, match="^semilength 15 exceeds cap 14$"):
            dyck.enumerate_dyck(dyck.DEFAULT_CAP + 1)
        with pytest.raises(ValueError):
            dyck.enumerate_dyck(-1)


class TestCatalan:
    def test_values(self):
        assert dyck.catalan(0) == 1
        assert dyck.catalan(3) == 5
        assert dyck.catalan(10) == 16796
        assert dyck.catalan(14) == 2674440

    def test_recurrence(self):
        for n in range(20):
            assert dyck.catalan(n + 1) == sum(
                dyck.catalan(i) * dyck.catalan(n - i) for i in range(n + 1)
            )

    def test_exceeds_64_bits(self):
        assert dyck.catalan(40) > 2**63


class TestCountBrute:
    def test_examples(self):
        assert dyck.count_brute(4, 3, 2) == 12
        assert dyck.count_brute(2, 1, 2) == 0

    def test_catalan_below_bound(self):
        for n in range(7):
            assert dyck.count_brute(n, 7, 2) == dyck.catalan(n)

    def test_height_one_sequence(self):
        assert [dyck.count_brute(n, 1, 2) for n in range(5)] == [1, 1, 0, 0, 0]

    def test_one_in_class_call_per_word(self, monkeypatch):
        # in_class is looked up on the module at each call, so a wrapper sees every
        # word: the 42 paths of semilength 5, of which 29 are in the class at h = 3
        real = dyck.in_class
        results = []

        def counting(p, h, k=2):
            results.append(real(p, h, k))
            return results[-1]

        monkeypatch.setattr(dyck, "in_class", counting)
        assert dyck.count_brute(5, 3) == 29
        assert (len(results), results.count(True)) == (42, 29)

    def test_cap(self):
        with pytest.raises(CapExceeded, match="^semilength 15 exceeds cap 14$"):
            dyck.count_brute(dyck.DEFAULT_CAP + 1, 3, 2)
