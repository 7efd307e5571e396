from collections import Counter

import pytest

from dyck312 import bijection, dyck, eco, perm
from dyck312.dyck import CapExceeded, DyckPath
from dyck312.eco import NotInClass, SuccessionRule
from dyck312.perm import Permutation


class TestChildren:
    def test_axiom(self):
        assert [c.word for c in eco.children(DyckPath(""), 3)] == ["UD"]

    def test_short_run(self):
        assert [c.word for c in eco.children(DyckPath("UD"), 3)] == ["UDUD", "UUDD"]

    def test_run_below_bound(self):
        assert [c.word for c in eco.children(DyckPath("UUDD"), 3)] == [
            "UDUUDD",
            "UUDUDD",
            "UUUDDD",
        ]

    def test_run_at_bound(self):
        # t = h: only the sites before the first h-1 ups stay active
        assert [c.word for c in eco.children(DyckPath("UUUDDD"), 3)] == [
            "UDUUUDDD",
            "UUDUUDDD",
        ]

    def test_rejects_non_members(self):
        with pytest.raises(NotInClass):
            eco.children(DyckPath("UUUDUDDD"), 3)
        with pytest.raises(ValueError):
            eco.children(DyckPath(""), 2)

    def test_children_are_members(self):
        for n in range(7):
            for h in (3, 4):
                for p in dyck.enumerate_dyck(n):
                    if not dyck.in_class(p, h, 2):
                        continue
                    for c in eco.children(p, h):
                        assert len(c.word) == 2 * n + 2
                        assert dyck.in_class(c, h, 2)


class TestLabelOf:
    def test_examples(self):
        assert eco.label_of(DyckPath(""), 3) == 1
        assert eco.label_of(DyckPath("UUDD"), 3) == 3
        assert eco.label_of(DyckPath("UUUDDD"), 3) == 2

    def test_rejects_non_members(self):
        with pytest.raises(NotInClass):
            eco.label_of(DyckPath("UUUDUDDD"), 3)


class TestSuccessionRule:
    def test_h3(self):
        rule = eco.succession_rule(3)
        assert rule.axiom == 1
        assert rule.productions == {1: (2,), 2: (2, 3), 3: (2, 2, 3)}

    def test_h4_top_production(self):
        assert eco.succession_rule(4).productions[4] == (2, 3, 3, 4)

    def test_production_sizes(self):
        for h in range(2, 9):
            for label, prod in eco.succession_rule(h).productions.items():
                assert len(prod) == label

    def test_h_below_three_rejected(self):
        with pytest.raises(ValueError, match="h >= 2"):
            eco.succession_rule(1)

    def test_size_invariant_enforced(self):
        with pytest.raises(ValueError):
            SuccessionRule(axiom=1, productions={1: (1, 1)})

    def test_height_two_rule(self):
        rule = eco.succession_rule(2)
        assert rule.productions == {1: (2,), 2: (1, 2)}


class TestSymbolicCounts:
    def test_axiom_level(self):
        assert eco.symbolic_counts(eco.succession_rule(3), 0) == (1, {1: 1})

    def test_level_three(self):
        total, _ = eco.symbolic_counts(eco.succession_rule(3), 3)
        assert total == 5

    def test_fibonacci(self):
        rule = eco.succession_rule(2)
        totals = [eco.symbolic_counts(rule, n)[0] for n in range(7)]
        assert totals == [1, 1, 2, 3, 5, 8, 13]
        assert eco.symbolic_counts(rule, 10)[0] == 89

    def test_matches_brute(self):
        for h in (3, 4, 5):
            rule = eco.succession_rule(h)
            for n in range(8):
                assert eco.symbolic_counts(rule, n)[0] == dyck.count_brute(n, h, 2)

    def test_height_two_matches_brute(self):
        rule = eco.succession_rule(2)
        for n in range(9):
            assert eco.symbolic_counts(rule, n)[0] == dyck.count_brute(n, 2, 2)


class TestGenerateLevel:
    """Levels of the generating tree, as the breadth-first iter_levels yields them."""

    def test_level_zero(self):
        assert list(eco.iter_levels(3, 0)) == [[("", 1)]]

    def test_level_two(self):
        assert list(eco.iter_levels(3, 2))[2] == [("UDUD", 2), ("UUDD", 3)]

    def test_level_four_count(self):
        assert len(list(eco.iter_levels(3, 4))[4]) == 12

    def test_levels_match_children_and_labels(self):
        for h in (3, 4):
            levels = list(eco.iter_levels(h, 6))
            for depth, (parents, kids) in enumerate(zip(levels, levels[1:]), start=1):
                rebuilt = [
                    (c.word, eco.label_of(c, h))
                    for word, _ in parents
                    for c in eco.children(DyckPath(word), h)
                ]
                grown = [pair for word, _ in parents for pair in eco.grow(word, h)]
                assert kids == rebuilt == grown
                assert all(len(word) == 2 * depth for word, _ in kids)

    def test_cap(self):
        with pytest.raises(CapExceeded, match="^level 13 exceeds tree cap 12$"):
            next(eco.iter_levels(3, eco.DEFAULT_TREE_CAP + 1))

    def test_disjoint_and_complete(self):
        for h in (3, 4, 5):
            for n in range(7):
                parents = [
                    p for p in dyck.enumerate_dyck(n) if dyck.in_class(p, h, 2)
                ]
                produced = [c for p in parents for c in eco.children(p, h)]
                assert len(produced) == len(set(produced))
                assert set(produced) == {
                    p for p in dyck.enumerate_dyck(n + 1) if dyck.in_class(p, h, 2)
                }

    def test_label_coherence(self):
        for h in (3, 4, 5):
            rule = eco.succession_rule(h)
            for n in range(7):
                for p in dyck.enumerate_dyck(n):
                    if not dyck.in_class(p, h, 2):
                        continue
                    got = Counter(eco.label_of(c, h) for c in eco.children(p, h))
                    assert got == Counter(rule.productions[eco.label_of(p, h)])

    def test_per_label_counts_match_initial_run_statistic(self):
        for h in (3, 4):
            for n, level in enumerate(eco.iter_levels(h, 7)):
                by_label = Counter(label for _, label in level)
                _, symbolic = eco.symbolic_counts(eco.succession_rule(h), n)
                assert dict(by_label) == symbolic


class TestWalk:
    def test_levels_in_walk_order(self):
        for h in range(3, 8):
            nodes = list(eco.walk(h, 9))
            for n, level in enumerate(eco.iter_levels(h, 9)):
                assert [node for node in nodes if len(node[0]) == 2 * n] == level

    def test_depth_first(self):
        assert list(eco.walk(3, 2)) == [("", 1), ("UD", 2), ("UDUD", 2), ("UUDD", 3)]
        assert list(eco.walk(3, 0)) == [("", 1)]

    @pytest.mark.parametrize(
        "h, depth, error, message",
        [
            (2, 3, ValueError, "the growth operator needs h >= 3, got 2"),
            (3, -1, ValueError, "level must be >= 0, got -1"),
            (3, 13, CapExceeded, "level 13 exceeds tree cap 12"),
        ],
    )
    def test_errors(self, h, depth, error, message):
        # raised at the call, before a node is asked for, so a caller can check
        # its arguments before it writes any output
        with pytest.raises(error) as info:
            eco.walk(h, depth)
        assert str(info.value) == message


class TestLevelSizes:
    def test_matches_the_walk(self):
        for h in range(3, 9):
            sizes = Counter(len(word) // 2 for word, _ in eco.walk(h, 10))
            for n_max in range(11):
                assert eco.level_sizes(h, n_max) == [sizes[n] for n in range(n_max + 1)]

    @pytest.mark.parametrize(
        "h, n_max, error, message",
        [
            (2, 3, ValueError, "the growth operator needs h >= 3, got 2"),
            (3, -1, ValueError, "level must be >= 0, got -1"),
            (3, 13, CapExceeded, "level 13 exceeds tree cap 12"),
        ],
    )
    def test_errors(self, h, n_max, error, message):
        # the walk's checks, so the CLI's eco route reports what it reported
        with pytest.raises(error) as info:
            eco.level_sizes(h, n_max)
        assert str(info.value) == message


class TestPermChildren:
    def test_axiom(self):
        assert eco.perm_children(Permutation(()), 3) == [Permutation((1,))]

    def test_singleton(self):
        assert eco.perm_children(Permutation((1,)), 3) == [
            Permutation((1, 2)),
            Permutation((2, 1)),
        ]

    def test_first_entry_at_bound(self):
        # first entry h produces h-1 children
        kids = eco.perm_children(Permutation((3, 2, 1)), 3)
        assert kids == [Permutation((1, 4, 3, 2)), Permutation((2, 4, 3, 1))]

    def test_rejects_non_members(self):
        with pytest.raises(NotInClass):
            eco.perm_children(Permutation((3, 1, 2)), 3)

    def test_labels(self):
        assert eco.perm_label(Permutation(()), 3) == 1
        assert eco.perm_label(Permutation((1,)), 3) == 2
        assert eco.perm_label(Permutation((3, 2, 1)), 3) == 2
        assert eco.perm_label(Permutation((2, 1)), 3) == 3

    def test_children_in_class(self):
        for h in (3, 4):
            for n in range(6):
                for p in dyck.enumerate_dyck(n):
                    if not dyck.in_class(p, h, 2):
                        continue
                    pi = bijection.path_to_perm(p)
                    for kid in eco.perm_children(pi, h):
                        assert perm.in_class(kid, h)

    def test_commutes_with_bijection(self):
        for h in (3, 4):
            for n in range(7):
                for p in dyck.enumerate_dyck(n):
                    if not dyck.in_class(p, h, 2):
                        continue
                    mapped = [bijection.path_to_perm(c) for c in eco.children(p, h)]
                    grown = eco.perm_children(bijection.path_to_perm(p), h)
                    assert mapped == grown

    def test_label_agrees_across_bijection(self):
        for h in (3, 4):
            for n in range(7):
                for p in dyck.enumerate_dyck(n):
                    if not dyck.in_class(p, h, 2):
                        continue
                    assert eco.label_of(p, h) == eco.perm_label(
                        bijection.path_to_perm(p), h
                    )
