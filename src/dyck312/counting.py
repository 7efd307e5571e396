"""The five counting routes and the rules for running them: each route's least
h and reach, the clamp of h, and the cross-check of the routes' counts.

count() alone makes the checks of `dyck312 count`, so its messages use the --flag
spelling (tests/test_cli_golden.py pins them). A route reaches its engine through
the engine's module at call time, so a wrapper set on the module sees the call.
"""

from __future__ import annotations

from collections import namedtuple

from . import dyck, eco, genfunc, prodmat

LARGE_N_LIMIT = 512  # sanity rail on count --n-max, matrix --h and table --h-max/--j-max

# least_h: the smallest h the engine accepts; cap: the largest n_max, None for the
# exact routes, which reach LARGE_N_LIMIT; engine(h, n_max, k) -> the counts
Route = namedtuple("Route", "least_h cap engine")


def _brute(h: int, n_max: int, k: int) -> list[int]:
    dyck.require_size(n_max)  # before any smaller size is enumerated
    return [dyck.count_brute(n, h, k) for n in range(n_max + 1)]


ROUTES = {
    "recurrence": Route(2, None, lambda h, n, *_: genfunc.count_sequence(h, n)),
    "series": Route(1, None, lambda h, n, *_: genfunc.series(genfunc.generating_function(h), n)),
    "matrix": Route(2, None, lambda h, n, *_: prodmat.height_totals(h, n)),
    "brute": Route(1, dyck.DEFAULT_CAP, _brute),
    "eco": Route(3, eco.DEFAULT_TREE_CAP, lambda h, n, *_: eco.level_sizes(h, n)),
}


class MethodDisagreement(ArithmeticError):
    """Two routes count size n differently; values maps each route to its count."""

    def __init__(self, n: int, values: dict[str, int]):
        super().__init__(f"n={n}: " + ", ".join(f"{m}={v}" for m, v in values.items()))
        self.n, self.values = n, values


def count(h: int, n_max: int, method: str = "all", k: int = 2) -> dict[str, list[int]]:
    """Counts for sizes 0..n_max by route: the route named, or for "all" each
    route whose least h and reach admit the request, in ROUTES order. A k other
    than 2 needs brute. Raises ValueError (CapExceeded past a cap, or for a
    method not in ROUTES) and MethodDisagreement."""
    if h < 1:
        raise ValueError("--h must be >= 1")
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if k != 2 and method != "brute":
        raise ValueError("--k other than 2 needs --method brute")

    def reach(route: Route) -> int:
        return LARGE_N_LIMIT if route.cap is None else route.cap

    if method == "all":
        wanted = {m: r for m, r in ROUTES.items() if r.least_h <= h and n_max <= reach(r)}
        if not wanted:
            raise ValueError(f"no counting method can reach --n-max {n_max}")
    elif method in ROUTES:
        route = ROUTES[method]
        if route.cap is None and n_max > reach(route):
            raise ValueError(f"--n-max above {LARGE_N_LIMIT} is not supported")
        if h < route.least_h:
            raise ValueError(f"--method {method} needs --h >= {route.least_h}")
        wanted = {method: route}
    else:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(ROUTES)} or all")
    # a valley at height h-1 needs semilength >= h+1, so every count at n <= h is
    # Catalan for any k: each bound from n_max up gives the same counts, and the
    # least one the route accepts costs the least
    by_route = {}
    for m, r in wanted.items():
        by_route[m] = list(r.engine(max(min(h, n_max), r.least_h), n_max, k))
    counts = list(by_route.values())
    if counts.count(counts[0]) < len(counts):  # walk the sizes only to name the first n
        for n, values in enumerate(zip(*counts)):
            if len(set(values)) > 1:
                raise MethodDisagreement(n, dict(zip(by_route, values)))
    return by_route
