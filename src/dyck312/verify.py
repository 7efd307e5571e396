"""Cross-validation suites behind the CLI verify subcommand.

Each check re-derives one of the package's structural claims from scratch
(exhaustive enumeration, factorial filtering, level-by-level tree walks) and
reports a named pass/fail result. This module is the one statement of these
checks: `dyck312 verify` runs them from the shell, and the acceptance tests
run them at larger bounds.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import permutations as iter_permutations

from . import bijection, dyck, eco, genfunc, prodmat
from . import perm as perm_mod

class VerifyBounds(namedtuple("VerifyBounds", "n_max h_max identity_n_max", defaults=(8, 5, 12))):
    # n_max: largest size of the bijection sweep; the eco sweep's levels run to n_max + 1
    # h_max: largest height of the eco sweep
    # identity_n_max: largest n of the identity sweep and largest h of the cutoff
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # A bound under its floor leaves a check no case and would report a
        # vacuous PASS; a ceiling keeps a check's time bounded. Measured on a
        # 2-vCPU machine: the catalan cutoff grows about as identity_n_max**3
        # (128: 0.2 s, 256: 2 s, 512: 24 s) and the identity sweep over
        # alpha <= n about as identity_n_max**4 (64: 0.1 s, 128: 1.5 s).
        # Each eco height costs ~0.6 s at n_max 9, and from h = 10 on every
        # level it checks (n <= 10) is the whole Catalan family, so 32 is
        # ample. n_max stops at the enumeration cap, before any work, rather
        # than after every smaller size has been checked.
        for name, least, most in (
            ("n_max", 0, dyck.DEFAULT_CAP),
            ("h_max", 3, 32),
            ("identity_n_max", 2, 128),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            if value > most:
                raise ValueError(f"{name} must be <= {most}, got {value}")
        return self


CheckResult = namedtuple("CheckResult", "name passed detail covered", defaults=("", None))


def run(scope: str = "all", bounds: VerifyBounds = VerifyBounds()) -> list[CheckResult]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    results: list[CheckResult] = []
    for name, checks in _CHECKS.items():
        if scope in ("all", name):
            results.extend(checks(bounds))
    return results


def _result(name: str, bad: list, **covered) -> CheckResult:
    """Fail on the first bad case, or pass with detail k=lo..hi per keyword k: the
    range the check runs, or (lo, hi), hi perhaps a bound that moves ("n+1")."""
    covered = {k: (v[0], v[-1]) for k, v in covered.items()}
    detail = ", ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in covered.items())
    return CheckResult(name, not bad, f"first failure: {bad[0]}" if bad else detail, covered)


def _bijection_checks(bounds: VerifyBounds) -> list[CheckResult]:
    """One pass per size n: each path's image is built once and feeds the
    path-side checks and the image sets; for n <= perm_n one sweep of the n!
    permutations feeds the permutation round trip, the sets the images are
    compared with and, for n <= cubic_n, the cubic oracle."""
    sizes = range(bounds.n_max + 1)
    perm_n, cubic_n = min(bounds.n_max, 9), min(bounds.n_max, 8)
    path_bad: list[str] = []
    perm_bad: list[str] = []
    cubic_bad: list[str] = []
    lrm_bad: list[str] = []
    image_bad: list[str] = []
    for n in sizes:
        images = []  # (image, height, path), kept only where the image sets are compared
        for p in dyck.enumerate_dyck(n):
            pi = bijection.path_to_perm(p)
            # an image containing 312 fails both checks; lrm_heights would raise on it
            avoids = perm_mod.avoids_312(pi)
            if not avoids or bijection.perm_to_path(pi) != p:
                path_bad.append(repr(p.word))
            if not avoids or bijection.lrm_heights(pi) != _down_run_trace(p):
                lrm_bad.append(repr(p.word))
            if n <= perm_n:
                images.append((pi, dyck.height(p), p))
        if n > perm_n:
            continue

        avoiders = []
        for t in iter_permutations(range(1, n + 1)):
            pi = perm_mod._trusted(t)
            avoids = perm_mod.avoids_312(pi)
            if n <= cubic_n and avoids != perm_mod.avoids_312_cubic(pi):
                cubic_bad.append(str(pi))
            if avoids:
                avoiders.append(pi)
        if len(avoiders) != dyck.catalan(n):
            perm_bad.append(f"count at n={n}")
        for pi in avoiders:
            try:
                if bijection.path_to_perm(bijection.perm_to_path(pi)) != pi:
                    perm_bad.append(str(pi))
            except bijection.Not312Avoiding:  # bijection's avoids_312 saw a 312 that perm's did not
                perm_bad.append(str(pi))

        for h in range(1, n + 2):
            height_image = {pi for pi, top, _ in images if top <= h}
            valley_image = {pi for pi, _, p in images if dyck.in_class(p, h, 2)}
            height_set = {pi for pi in avoiders if perm_mod.in_height_class(pi, h)}
            valley_set = {pi for pi in avoiders if perm_mod.in_class(pi, h)}
            if height_image != height_set or valley_image != valley_set:
                image_bad.append(f"n={n}, h={h}")

    return [
        _result("path-round-trip", path_bad, n=sizes),
        _result("perm-round-trip", perm_bad, n=(0, perm_n)),
        _result("stack-matches-cubic", cubic_bad, n=(0, cubic_n)),
        _result("lrm-excess-heights", lrm_bad, n=sizes),
        _result("image-characterizations", image_bad, n=(0, perm_n), h=(1, "n+1")),
    ]


def _down_run_trace(p: dyck.DyckPath) -> list[tuple[perm_mod.LrMaximum, int]]:
    """Trace the path directly: for the first down step of each maximal down
    run, record (position among downs, matching up label, height reached)."""
    stack: list[int] = []
    trace: list[tuple[perm_mod.LrMaximum, int]] = []
    label = 0
    downs = 0
    prev = ""
    for c in p.word:
        if c == "U":
            label += 1
            stack.append(label)
        else:
            downs += 1
            matched = stack.pop()
            if prev != "D":  # the height reached is the number of ups still open
                trace.append((perm_mod.LrMaximum(downs, matched), len(stack)))
        prev = c
    return trace


def _identity_checks(bounds: VerifyBounds) -> list[CheckResult]:
    """For fixed n, catalan_identity(n, alpha)'s left side minus C_n is a
    polynomial in alpha of degree <= n: with alpha >= 0 every binomial top
    stays >= 0, so _coeff's m < 0 cut never fires, each _coeff(n + alpha, j),
    j <= n, has degree j in alpha, and _coeff(n + alpha - 1, n) is
    comb(alpha, n - 1) times a linear factor. Its zeros at alpha = 0..n make
    it zero for every alpha >= 0 (the "N_0 suffices" argument of Petkovsek,
    Wilf and Zeilberger, A = B)."""
    sweep_ns, cutoff_hs = range(1, bounds.identity_n_max + 1), range(2, bounds.identity_n_max + 1)
    sweep_bad = [
        (n, alpha)
        for n in sweep_ns
        for alpha in range(n + 1)
        if not genfunc.catalan_identity(n, alpha)
    ]
    cutoff_bad = [
        (h, n)
        for h in cutoff_hs
        for n, count in enumerate(genfunc.count_sequence(h, h))
        if count != dyck.catalan(n)
    ]
    return [
        _result("catalan-identity-sweep", sweep_bad, n=sweep_ns, alpha=(0, "n")),
        _result("catalan-cutoff", cutoff_bad, h=cutoff_hs, n=(0, "h")),
    ]


def _eco_checks(bounds: VerifyBounds) -> list[CheckResult]:
    """grow()'s tree, a level at a time. A level holds the (word, label) pairs
    grow() returned for its members, nothing else: a parent's image is made
    when it is grown, and its children's images only for the commutation
    check. Each child is tested once and grown only if it is a member; the
    cover check streams the level's brute-force members past one set of its
    words."""
    levels = range(1, min(bounds.n_max, 9) + 2)
    h_range = range(3, bounds.h_max + 1)

    membership_bad: list[str] = []
    cover_bad: list[str] = []
    label_bad: list[str] = []
    commute_bad: list[str] = []
    count_bad: list[str] = []
    for h in h_range:
        rule = eco.succession_rule(h)
        level = [("", rule.axiom)]
        for n in levels:
            members = []
            for word, label in level:
                kids = eco.grow(word, h)
                paths = [dyck.DyckPath(w) for w, _ in kids]
                grown = [kid for kid, p in zip(kids, paths) if dyck.in_class(p, h, 2)]
                members.extend(grown)
                if len(grown) < len(kids):
                    membership_bad.append(f"h={h}, parent {word!r}")
                if sorted(k for _, k in kids) != sorted(rule.productions.get(label, ())):
                    label_bad.append(f"h={h}, parent {word!r}")
                image = bijection.path_to_perm(dyck.DyckPath(word))
                images = [bijection.path_to_perm(p) for p in paths]
                try:
                    commutes = images == eco.perm_children(image, h) and all(
                        eco.perm_label(pi, h) == k for pi, (_, k) in zip(images, kids)
                    )
                except eco.NotInClass:
                    commutes = False
                if not commutes:
                    commute_bad.append(f"h={h}, parent {word!r}")
            level = members  # the parents are dropped before the level's checks
            words = {w for w, _ in level}
            if len(words) != len(level):
                cover_bad.append(f"h={h}, level {n} has duplicates")
            size = found = 0  # the class members of size n, and those the level holds
            for p in dyck.enumerate_dyck(n):
                if dyck.in_class(p, h, 2):
                    size += 1
                    found += p.word in words
            if not found == size == len(words):
                cover_bad.append(f"h={h}, level {n} misses members")
            total, per_label = eco.symbolic_counts(rule, n)
            if total != len(level) or per_label != dict(Counter(k for _, k in level)):
                count_bad.append(f"h={h}, level {n}")

    return [
        _result("eco-children-in-class", membership_bad, h=h_range, n=levels),
        _result("eco-disjoint-and-complete", cover_bad, h=h_range, n=levels),
        _result("eco-label-coherence", label_bad, h=h_range, n=levels),
        _result("eco-perm-commutation", commute_bad, h=h_range, n=levels),
        _result("eco-symbolic-agreement", count_bad, h=h_range, n=levels),
    ]


def _matrix_checks(bounds: VerifyBounds) -> list[CheckResult]:
    rule_hs, row_hs, label_hs, label_ns, fib_n = range(3, 11), range(2, 9), range(3, 7), range(11), 16
    out: list[CheckResult] = []

    bad = [
        f"h={h}"
        for h in rule_hs
        if prodmat.matrix_from_rule(eco.succession_rule(h)).rows
        != prodmat.production_matrix(h).rows
    ]
    out.append(_result("rule-matrix-equality", bad, h=rule_hs))

    bad = []
    for h in row_hs:
        m = prodmat.production_matrix(h)
        for i, row in enumerate(m.rows, start=1):
            if sum(row) != i:
                bad.append(f"h={h}, row ({i})")
    out.append(_result("row-sums-match-labels", bad, h=row_hs))

    bad = []
    for h in label_hs:
        rule = eco.succession_rule(h)
        m = prodmat.matrix_from_rule(rule)
        for n in label_ns:
            total, vec = prodmat.level_count(m, rule.axiom, n)
            sym_total, sym_labels = eco.symbolic_counts(rule, n)
            as_dict = {i + 1: v for i, v in enumerate(vec) if v}
            if total != sym_total or as_dict != sym_labels:
                bad.append(f"h={h}, n={n}")
    out.append(_result("per-label-level-counts", bad, h=label_hs, n=label_ns))

    fib = genfunc.series(genfunc.generating_function(2), fib_n)
    routes = {  # h = 2 is where height_totals' last row adds x[0]
        "level_totals": prodmat.level_totals(prodmat.production_matrix(2), 1, fib_n),
        "height_totals": prodmat.height_totals(2, fib_n),
    }
    bad = [f"{route}: {totals} != {fib}" for route, totals in routes.items() if totals != fib]
    out.append(_result("fibonacci-level-counts", bad, n=(0, fib_n)))
    return out


_CHECKS = {  # scope -> its checks, in the order verify runs and reports them
    "bijection": _bijection_checks,
    "identities": _identity_checks,
    "eco": _eco_checks,
    "matrix": _matrix_checks,
}
SCOPES = ("all", *_CHECKS)
