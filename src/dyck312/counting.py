"""The five counting routes and the rules for running them: each route's least
h and reach, the clamp of h, and the cross-check of the routes' counts.

count() alone makes every check of `dyck312 count`, before any engine runs, so
its messages use the --flag spelling (tests/test_cli_golden.py pins them). A
route reaches its engine through the engine's module at call time, so a wrapper
set on the module sees the call.
"""

from __future__ import annotations

from collections import namedtuple

from . import dyck, eco, genfunc, prodmat

LARGE_N_LIMIT = 512  # sanity rail on count --n-max, matrix --h and table --h-max/--j-max

# least_h: the smallest h the engine accepts; reach: the largest n_max count() lets
# it run at; engine(h, n_max, k) -> the counts
Route = namedtuple("Route", "least_h reach engine")

ROUTES = {
    "recurrence": Route(1, LARGE_N_LIMIT, lambda h, n, *_: genfunc.count_sequence(h, n)),
    "series": Route(
        1, LARGE_N_LIMIT, lambda h, n, *_: genfunc.series(genfunc.generating_function(h), n)
    ),
    "matrix": Route(2, LARGE_N_LIMIT, lambda h, n, *_: prodmat.height_totals(h, n)),
    "brute": Route(
        1, dyck.DEFAULT_CAP, lambda h, n, k: [dyck.count_brute(m, h, k) for m in range(n + 1)]
    ),
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
    than 2 needs brute. Raises ValueError (CapExceeded for an n_max past the
    named route's reach) and MethodDisagreement."""
    if h < 1:
        raise ValueError("--h must be >= 1")
    if n_max < 0:
        raise ValueError("--n-max must be >= 0")
    if k < 2:
        raise ValueError("--k must be >= 2")
    if k != 2 and method != "brute":
        raise ValueError("--k other than 2 needs --method brute")
    if method == "all":
        wanted = {m: r for m, r in ROUTES.items() if r.least_h <= h and n_max <= r.reach}
        if not wanted:
            raise ValueError(f"no counting method can reach --n-max {n_max}")
    elif method in ROUTES:
        route = ROUTES[method]
        if n_max > route.reach:
            raise dyck.CapExceeded(f"--n-max above {route.reach} is not supported")
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
