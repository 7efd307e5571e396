import pytest

from dyck312 import dyck, eco, genfunc, prodmat
from dyck312.counting import ROUTES, MethodDisagreement, count


@pytest.mark.parametrize("name", ROUTES)
def test_least_h_is_the_engines_own(name):
    # each row restates its engine's precondition; the engine must agree with it
    route = ROUTES[name]
    with pytest.raises(ValueError):
        route.engine(route.least_h - 1, 4, 2)
    counts = list(route.engine(route.least_h, 4, 2))
    assert len(counts) == 5
    assert counts[: route.least_h + 1] == [dyck.catalan(n) for n in range(route.least_h + 1)]


@pytest.fixture
def bounds(monkeypatch):
    """route -> the h its engine was called with, spied on the engines' modules."""
    seen = {}

    def spy(module, attr, route, h_arg=0):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            seen.setdefault(route, set()).add(args[h_arg])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    spy(genfunc, "count_sequence", "recurrence")
    spy(genfunc, "generating_function", "series")
    spy(prodmat, "height_totals", "matrix")
    spy(dyck, "count_brute", "brute", h_arg=1)
    spy(eco, "level_sizes", "eco")
    return seen


def test_library_call_clamps_h(bounds):
    # at n <= h every count is Catalan, so h = 10**6 runs each route at n_max = 3
    assert count(10**6, 3) == {name: [1, 1, 2, 5] for name in ROUTES}
    assert bounds == {name: {max(3, route.least_h)} for name, route in ROUTES.items()}


def test_matrix_route_builds_no_matrix(monkeypatch):
    def refuse(h):
        raise AssertionError(f"production_matrix({h}) built on the count route")

    monkeypatch.setattr(prodmat, "production_matrix", refuse)
    assert count(512, 512, "matrix") == {"matrix": list(genfunc.count_sequence(512, 512))}


def test_clamp_never_lifts_h_past_least(bounds):
    assert count(1, 0) == {"recurrence": [1], "series": [1], "brute": [1]}
    assert bounds == {"recurrence": {1}, "series": {1}, "brute": {1}}
    with pytest.raises(ValueError, match="--method eco needs --h >= 3"):
        count(2, 1, "eco")


@pytest.mark.parametrize("name", ROUTES)
def test_reach_is_checked_before_any_engine(bounds, name):
    reach = ROUTES[name].reach
    with pytest.raises(dyck.CapExceeded) as info:
        count(3, reach + 1, name)
    assert str(info.value) == f"--n-max above {reach} is not supported"
    assert bounds == {}


def test_cap_sets_the_reach_of_brute_and_eco(monkeypatch):
    assert (ROUTES["brute"].reach, ROUTES["eco"].reach) == (dyck.DEFAULT_CAP, eco.DEFAULT_TREE_CAP)
    # brute force at its cap is 2.67 M words; only which routes run is asked here
    monkeypatch.setattr(
        dyck, "count_brute", lambda n, h, k=2: genfunc.series(genfunc.generating_function(h), n)[n]
    )
    assert list(count(3, dyck.DEFAULT_CAP + 1)) == ["recurrence", "series", "matrix"]
    assert list(count(3, dyck.DEFAULT_CAP)) == ["recurrence", "series", "matrix", "brute"]
    assert list(count(3, eco.DEFAULT_TREE_CAP)) == list(ROUTES)


@pytest.mark.parametrize(
    "h, n_max, method, hits",
    [(97, 512, "all", 1), (193, 192, "all", 1), (97, 512, "series", 0)],
)
def test_equal_pairs_are_expanded_once(h, n_max, method, hits):
    # the recurrence route expands first; the series route's equal pair (h = 193
    # is clamped to 192) is a hit, and a lone series route has nothing to reuse
    genfunc._expand.cache_clear()
    count(h, n_max, method)
    assert genfunc._expand.cache_info()[:2] == (hits, 1)


def test_unknown_method_names_the_routes():
    with pytest.raises(ValueError) as info:
        count(3, 4, "nope")
    assert str(info.value) == "unknown method 'nope'; choose from recurrence, series, matrix, brute, eco or all"


def test_disagreement(monkeypatch):
    monkeypatch.setattr(genfunc, "count_sequence", lambda h, n: (1,) * (n + 1))
    with pytest.raises(MethodDisagreement) as info:
        count(3, 4)
    exc = info.value
    assert not isinstance(exc, ValueError)
    assert isinstance(exc, ArithmeticError)
    assert exc.n == 2
    assert exc.values == {"recurrence": 1, "series": 2, "matrix": 2, "brute": 2, "eco": 2}
    assert str(exc) == "n=2: recurrence=1, series=2, matrix=2, brute=2, eco=2"


def test_eco_route_counts_the_labels(monkeypatch):
    # a fault in the tree's labels alone, each child labelled h read as h+1: the
    # eco route sums the labels of the level before the last, so it disagrees
    grow = eco.grow
    monkeypatch.setattr(eco, "grow", lambda w, h: [(c, k + (k == h)) for c, k in grow(w, h)])
    with pytest.raises(MethodDisagreement) as info:
        count(4, 10)
    assert info.value.n == 10
    assert info.value.values == {m: 7901 for m in ROUTES} | {"eco": 8523}


def _bump(terms, i):
    """terms with term i one larger."""
    return (*terms[:i], terms[i] + 1, *terms[i + 1 :])


@pytest.mark.parametrize(
    "attr, mutant, n, wrong, misses",
    [
        # the recurrence's own input: the closed form's x^2 term, in d(h-1) and d(h) alike
        ("_coeff", lambda real: lambda h, j: real(h, j) + (j == 2), 3, {"recurrence": 6}, 2),
        # the series route's own input: d(h)'s x^2 term from the h-recurrence
        (
            "generating_function",
            lambda real: lambda h: (real(h)[0], _bump(real(h)[1], 2)),
            2,
            {"series": 1},
            2,
        ),
        # the expansion loop both series routes share
        (
            "series",
            lambda real: lambda f, n: _bump(real(f, n), 3),
            3,
            {"recurrence": 6, "series": 6},
            1,
        ),
    ],
    ids=["closed form", "h-recurrence", "shared loop"],
)
def test_each_input_and_the_shared_loop_is_cross_checked(
    monkeypatch, attr, mutant, n, wrong, misses
):
    # the matrix, brute and eco routes read none of these, so they keep the true count
    monkeypatch.setattr(genfunc, attr, mutant(getattr(genfunc, attr)))
    genfunc._expand.cache_clear()
    with pytest.raises(MethodDisagreement) as info:
        count(5, 8)
    assert info.value.n == n
    assert info.value.values == {m: dyck.catalan(n) for m in ROUTES} | wrong
    # a mutated input makes its route's pair differ, so that pair is expanded on its own
    assert genfunc._expand.cache_info().misses == misses
