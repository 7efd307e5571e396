"""Acceptance suite, every comparison exact.

The structural claims (round trips, image characterizations, growth-operator
soundness, rule/matrix coherence, the Catalan identities) are stated once, as
the checks of `dyck312 verify`; this module runs each verify scope once at
larger bounds than the CLI default, and the named criterion tests read their
checks from those runs. The remaining tests compare against literal
oracles that verify does not hold. Each check prints one [acceptance]
PASS/FAIL line (visible with -s or -rA) in addition to the usual pytest
outcome.
"""

import functools

import pytest

from dyck312 import dyck, eco, genfunc, prodmat, verify

from test_dyck import valley_heights
from test_genfunc import FIBONACCI

# covers paths n<=10, avoiders n<=9, the cubic oracle n<=8, eco h=3..5 up to
# level 10, the matrix at h=3..10 with per-label counts at n<=10, and the
# identities at n<=12, alpha<=n, which settles every alpha>=0
ACCEPTANCE_BOUNDS = verify.VerifyBounds(n_max=10)

# reference coefficient table, rows h = 1..14, columns j = 1..8
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


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] FAIL {name}")
                raise
            print(f"[acceptance] PASS {name}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def scope_results():
    """`verify.run` at the acceptance bounds, run at most once per scope."""
    return functools.cache(lambda scope: verify.run(scope, ACCEPTANCE_BOUNDS))


def assert_checks_pass(results, names=None):
    """Print one line per verify check (all, or those named) and require that
    each named check ran and passed."""
    picked = [r for r in results if names is None or r.name in names]
    for r in picked:
        print(f"[acceptance] {'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})")
    if names is not None:
        assert sorted(r.name for r in picked) == sorted(names)
    assert [r.name for r in picked if not r.passed] == []


@pytest.mark.parametrize("scope", ["eco", "matrix"])
def test_verify_scope(scope, scope_results):
    assert_checks_pass(scope_results(scope))


@criterion("bijection round trips (paths n<=10, avoiders n<=9, cubic n<=8)")
def test_bijection_round_trips(scope_results):
    assert_checks_pass(
        scope_results("bijection"),
        ["path-round-trip", "perm-round-trip", "stack-matches-cubic"],
    )


@criterion("maximum excess equals first-down-step height, n<=10")
def test_lrm_excess_equals_step_height(scope_results):
    assert_checks_pass(scope_results("bijection"), ["lrm-excess-heights"])


@criterion("image characterizations n<=9, h<=n+1")
def test_image_characterizations(scope_results):
    assert_checks_pass(scope_results("bijection"), ["image-characterizations"])


@criterion("catalan cutoff for n <= h <= 12")
def test_catalan_cutoff(scope_results):
    assert_checks_pass(scope_results("identities"), ["catalan-cutoff"])


@criterion("catalan identity sweep n<=12, every alpha>=0")
def test_catalan_identity_sweep(scope_results):
    assert_checks_pass(scope_results("identities"), ["catalan-identity-sweep"])


@criterion("coefficient-table h=1..14, j=1..8")
def test_coefficient_table_regression():
    for h in range(1, 15):
        for j in range(1, 9):
            assert genfunc.denominator_coeff(h, j) == COEFF_TABLE[h - 1][j - 1], (h, j)


@criterion("fibonacci series at h=2")
def test_fibonacci_series():
    assert genfunc.series(genfunc.generating_function(2), 16) == FIBONACCI


@criterion("degenerate series at h=1")
def test_degenerate_height_series():
    assert genfunc.series(genfunc.generating_function(1), 10) == (1, 1) + (0,) * 9


@criterion("four-way count agreement h=2..7, n<=12")
def test_four_way_count_agreement():
    n_max = 12
    heights = range(2, 8)
    formula = {}
    for h in heights:
        rec = genfunc.count_sequence(h, n_max)
        ser = genfunc.series(genfunc.generating_function(h), n_max)
        mat = prodmat.level_totals(prodmat.production_matrix(h), 1, n_max)
        assert rec == ser == mat, h
        if h >= 3:
            tree = tuple(len(level) for level in eco.iter_levels(h, n_max))
            assert tree == rec, h
        formula[h] = rec

    brute = {h: [0] * (n_max + 1) for h in heights}
    for n in range(n_max + 1):
        paths = dyck.enumerate_dyck(n)
        for p in paths:
            top = dyck.height(p)
            valleys = valley_heights(p.word)
            for h in heights:
                if top <= h and h - 1 not in valleys:
                    brute[h][n] += 1
            if n <= 9:  # cross-check the packaged predicate against the raw filter
                for h in heights:
                    assert dyck.in_class(p, h, 2) == (
                        top <= h and h - 1 not in valleys
                    )
    for h in heights:
        assert tuple(brute[h]) == formula[h], h


@criterion("coefficient recurrence h<=14")
def test_coefficient_recurrence():
    for h in range(2, 15):
        assert (
            genfunc.denominator_coeff(h, 1) == genfunc.denominator_coeff(h - 1, 1) + 1
        ), h
    for h in range(3, 15):
        for j in range(2, (h + 2) // 2 + 1):
            assert genfunc.denominator_coeff(h, j) == genfunc.denominator_coeff(
                h - 1, j
            ) - genfunc.denominator_coeff(h - 2, j - 1), (h, j)
