from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyck312 import bijection, dyck, eco, perm
from dyck312.bijection import Not312Avoiding
from dyck312.dyck import DyckPath, InvalidCharacter, NegativePrefix, Unbalanced
from dyck312.perm import LrMaximum, Permutation

from strategies import dyck_words


class TestPathToPerm:
    def test_examples(self):
        assert bijection.path_to_perm(DyckPath("UD")) == Permutation((1,))
        assert bijection.path_to_perm(DyckPath("UUDUDD")) == Permutation((2, 3, 1))
        assert bijection.path_to_perm(DyckPath("UUUDUDDD")) == Permutation((3, 4, 2, 1))
        assert bijection.path_to_perm(DyckPath("")) == Permutation(())

    @given(dyck_words())
    def test_image_avoids_312(self, word):
        assert perm.avoids_312(bijection.path_to_perm(DyckPath(word)))

    def test_image_avoids_312_exhaustive(self, paths_by_n):
        for paths in paths_by_n.values():
            for p in paths:
                assert perm.avoids_312(bijection.path_to_perm(p))

    @given(dyck_words(max_semilength=12), st.integers(min_value=0, max_value=2))
    def test_built_unchecked_like_checked(self, word, extra):
        # path_to_perm and perm_children skip Permutation's scan: what they build
        # passes it, and equals and hashes like the record the scan builds
        p = DyckPath(word)
        pi = bijection.path_to_perm(p)
        h = max(3, dyck.height(p) + 1) + extra  # a path below height h-1 is a member
        for built in [pi, *eco.perm_children(pi, h)]:
            checked = Permutation(built.entries)
            assert type(built) is Permutation and type(built.entries) is tuple
            assert built == checked and hash(built) == hash(checked)

    def test_unmatched_up_keeps_the_check(self):
        # DyckPath does not validate its word; path_to_perm checks it in the pass
        # that maps it, and an unmatched up fails as parse_path names it
        with pytest.raises(Unbalanced) as exc:
            bijection.path_to_perm(DyckPath("UUD"))
        assert str(exc.value) == "unbalanced word: unmatched 'U' at index 0"

    @pytest.mark.parametrize(
        "word, error, message",
        [
            ("UUXD", InvalidCharacter, "invalid character 'X' at index 2"),
            ("DU", NegativePrefix, "prefix dips below the axis at index 0"),
        ],
    )
    def test_other_faults_fail_as_their_text(self, word, error, message):
        # the stack loop alone maps UUXD to (2, 1) and pops an empty stack on DU
        with pytest.raises(error) as exc:
            bijection.path_to_perm(DyckPath(word))
        assert str(exc.value) == message


class TestPermToPath:
    def test_examples(self):
        assert bijection.perm_to_path(Permutation((1,))) == DyckPath("UD")
        assert bijection.perm_to_path(Permutation((2, 3, 1))) == DyckPath("UUDUDD")
        assert bijection.perm_to_path(Permutation(())) == DyckPath("")

    def test_rejects_pattern(self):
        with pytest.raises(Not312Avoiding):
            bijection.perm_to_path(Permutation((3, 1, 2)))

    def test_one_avoids_312_check(self, monkeypatch):
        # the 312 check is avoids_312's stack alone: one call per permutation, and
        # perm_to_path's own loop only reads the running maximum
        calls = []

        def counted(pi):
            calls.append(pi)
            return perm.avoids_312(pi)

        monkeypatch.setattr(bijection, "avoids_312", counted)
        for n in range(7):
            for t in permutations(range(1, n + 1)):
                pi = Permutation(t)
                calls.clear()
                try:
                    bijection.perm_to_path(pi)
                except Not312Avoiding:
                    pass
                assert calls == [pi]
        calls.clear()
        with pytest.raises(Not312Avoiding) as exc:
            bijection.perm_to_path(Permutation((3, 1, 2)))
        assert str(exc.value) == "'3 1 2' contains 312" and len(calls) == 1


class TestRoundTrips:
    @given(dyck_words(max_semilength=10))
    def test_path_round_trip(self, word):
        p = DyckPath(word)
        assert bijection.perm_to_path(bijection.path_to_perm(p)) == p

    def test_path_round_trip_exhaustive(self, paths_by_n):
        for paths in paths_by_n.values():
            for p in paths:
                assert bijection.perm_to_path(bijection.path_to_perm(p)) == p

    def test_perm_round_trip_exhaustive(self, avoiders_by_n):
        for avoiders in avoiders_by_n.values():
            for pi in avoiders:
                assert bijection.path_to_perm(bijection.perm_to_path(pi)) == pi


class TestLrmHeights:
    def test_examples(self):
        assert bijection.lrm_heights(Permutation((1,))) == [(LrMaximum(1, 1), 0)]
        assert bijection.lrm_heights(Permutation((2, 3, 1))) == [
            (LrMaximum(1, 2), 1),
            (LrMaximum(2, 3), 1),
        ]
        assert bijection.lrm_heights(Permutation((1, 2, 3))) == [
            (LrMaximum(1, 1), 0),
            (LrMaximum(2, 2), 0),
            (LrMaximum(3, 3), 0),
        ]

    def test_rejects_pattern(self):
        with pytest.raises(Not312Avoiding):
            bijection.lrm_heights(Permutation((3, 1, 2)))

    @given(dyck_words())
    def test_excess_equals_down_step_height(self, word):
        # height of the first down step of each run, read off the path itself
        p = DyckPath(word)
        level = 0
        heights = []
        prev = ""
        for c in word:
            level += 1 if c == "U" else -1
            if c == "D" and prev != "D":
                heights.append(level)
            prev = c
        pairs = bijection.lrm_heights(bijection.path_to_perm(p))
        assert [h for _, h in pairs] == heights


class TestImageCharacterization:
    def test_sets_match(self, paths_by_n, avoiders_by_n):
        for n in range(8):
            paths = paths_by_n[n]
            for h in range(1, n + 2):
                height_image = {
                    bijection.path_to_perm(p) for p in paths if dyck.height(p) <= h
                }
                valley_image = {
                    bijection.path_to_perm(p) for p in paths if dyck.in_class(p, h, 2)
                }
                assert height_image == {
                    pi for pi in avoiders_by_n[n] if perm.in_height_class(pi, h)
                }
                assert valley_image == {
                    pi for pi in avoiders_by_n[n] if perm.in_class(pi, h)
                }
