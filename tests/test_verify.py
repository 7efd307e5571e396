"""verify's failure reporting: with one piece of the bijection, of the
generating tree or of the matrix product broken, each check must fail on the
same first case and leave the others passing, and report it as a failure
rather than raise."""

from collections import Counter, defaultdict
from itertools import permutations
from operator import mul

import pytest

from dyck312 import bijection, dyck, eco, genfunc, perm, prodmat, verify
from dyck312.cli import main
from dyck312.dyck import DyckPath
from dyck312.perm import Permutation

_in_class = dyck.in_class
_enumerate_dyck = dyck.enumerate_dyck
_avoids_312_cubic = perm.avoids_312_cubic
_catalan_identity = genfunc.catalan_identity
_count_sequence = genfunc.count_sequence
_succession_rule = eco.succession_rule
_height = dyck.height
_path_to_perm = bijection.path_to_perm
_grow = eco.grow
_label = eco._label
_perm_children = eco.perm_children
_coeff = genfunc._coeff
_level_totals = prodmat.level_totals


def _image_312(p):
    """path_to_perm, with UUUDDD sent to 3 1 2, which contains 312 and is outside every class."""
    return Permutation((3, 1, 2)) if p.word == "UUUDDD" else _path_to_perm(p)


# (module, attribute, replacement) per scenario, with the checks that fail and
# the first failure each reports
BREAKS = {
    "wrong-perm-to-path": (
        [(bijection, "perm_to_path", lambda pi: DyckPath("UD" * len(pi.entries)))],
        {
            "path-round-trip": "first failure: 'UUDD'",
            "perm-round-trip": "first failure: 2 1",
        },
    ),
    "avoids-312-always-true": (
        [(perm, "avoids_312", lambda pi: True), (bijection, "avoids_312", lambda pi: True)],
        {
            "perm-round-trip": "first failure: count at n=3",
            "stack-matches-cubic": "first failure: 3 1 2",
            "image-characterizations": "first failure: n=3, h=3",
        },
    ),
    "no-lrm-heights": (
        [(bijection, "lrm_heights", lambda pi: [])],
        {"lrm-excess-heights": "first failure: 'UD'"},
    ),
    "valleys-ignored": (
        [(perm, "in_class", perm.in_height_class)],
        {"image-characterizations": "first failure: n=2, h=1"},
    ),
    "height-off-by-one": (
        # the height half of the image check alone: UD counts as height 2
        [(dyck, "height", lambda p: _height(p) + 1)],
        {"image-characterizations": "first failure: n=1, h=1"},
    ),
    "image-contains-312": (
        [
            (bijection, "path_to_perm", _image_312)
        ],
        {
            "path-round-trip": "first failure: 'UUUDDD'",
            "perm-round-trip": "first failure: 3 2 1",
            "lrm-excess-heights": "first failure: 'UUUDDD'",
            "image-characterizations": "first failure: n=3, h=3",
        },
    ),
}


@pytest.mark.parametrize("name", BREAKS)
def test_broken_bijection_reports_first_failure(monkeypatch, name):
    patches, failures = BREAKS[name]
    for module, attr, replacement in patches:
        monkeypatch.setattr(module, attr, replacement)
    results = verify.run("bijection", verify.VerifyBounds(n_max=6))
    assert [r.name for r in results] == [
        "path-round-trip",
        "perm-round-trip",
        "stack-matches-cubic",
        "lrm-excess-heights",
        "image-characterizations",
    ]
    assert {r.name: r.detail for r in results if not r.passed} == failures


def _grow_non_member(word, h):
    """grow(), with each child whose initial run reaches h lifted one level, out of the class."""
    return [("U" + w + "D" if w.startswith("U" * h) else w, k) for w, k in _grow(word, h)]


def _grow_duplicate(word, h):
    """grow(), with its first child again in place of the second."""
    kids = _grow(word, h)
    return [kids[0], kids[0], *kids[2:]] if len(kids) > 1 else kids


def _grow_labels_only(word, h):
    """grow(), with each child's label k read as k + 1 where k = h."""
    return [(w, k + (k == h)) for w, k in _grow(word, h)]


# the same, for the tree that eco.grow makes and the permutation side of it
ECO_BREAKS = {
    "grow-non-member": (
        [(eco, "grow", _grow_non_member)],
        {
            "eco-children-in-class": "first failure: h=3, parent 'UUDD'",
            "eco-disjoint-and-complete": "first failure: h=3, level 3 misses members",
            "eco-perm-commutation": "first failure: h=3, parent 'UUDD'",
            "eco-symbolic-agreement": "first failure: h=3, level 3",
        },
    ),
    "grow-duplicates": (
        [(eco, "grow", _grow_duplicate)],
        {
            "eco-disjoint-and-complete": "first failure: h=3, level 2 has duplicates",
            "eco-label-coherence": "first failure: h=3, parent 'UD'",
            "eco-perm-commutation": "first failure: h=3, parent 'UD'",
            "eco-symbolic-agreement": "first failure: h=3, level 2",
        },
    ),
    "label-off-by-one": (
        # a run of h-1 ups labelled h+1, a label the rule does not have; the label
        # is the site count too, so such a node also grows one child too many
        [(eco, "_label", lambda t, h: _label(t, h) + (t == h - 1))],
        {
            "eco-disjoint-and-complete": "first failure: h=3, level 3 has duplicates",
            "eco-label-coherence": "first failure: h=3, parent 'UD'",
            "eco-perm-commutation": "first failure: h=3, parent 'UUDD'",
            "eco-symbolic-agreement": "first failure: h=3, level 2",
        },
    ),
    "grow-labels-only": (
        # the children are right, but a child labelled h is labelled h+1
        [(eco, "grow", _grow_labels_only)],
        {
            "eco-label-coherence": "first failure: h=3, parent 'UD'",
            "eco-perm-commutation": "first failure: h=3, parent 'UD'",
            "eco-symbolic-agreement": "first failure: h=3, level 2",
        },
    ),
    "perm-children-reversed": (
        [(eco, "perm_children", lambda pi, h: _perm_children(pi, h)[::-1])],
        {"eco-perm-commutation": "first failure: h=3, parent 'UD'"},
    ),
    "image-outside-class": (
        # UUUDDD is grown, and perm_children raises on its image
        [(bijection, "path_to_perm", _image_312)],
        {"eco-perm-commutation": "first failure: h=3, parent 'UUDD'"},
    ),
    "perm-label-uncapped": (
        # first entry + 1 even when the first entry is h, where the label is h-1
        [(eco, "perm_label", lambda pi, h: pi.entries[0] + 1 if pi.entries else 1)],
        {"eco-perm-commutation": "first failure: h=3, parent 'UUDD'"},
    ),
}


@pytest.mark.parametrize("name", ECO_BREAKS)
def test_broken_tree_reports_first_failure(monkeypatch, name):
    patches, failures = ECO_BREAKS[name]
    for module, attr, replacement in patches:
        monkeypatch.setattr(module, attr, replacement)
    results = verify.run("eco", verify.VerifyBounds(n_max=6))
    assert [r.name for r in results] == [
        "eco-children-in-class",
        "eco-disjoint-and-complete",
        "eco-label-coherence",
        "eco-perm-commutation",
        "eco-symbolic-agreement",
    ]
    assert {r.name: r.detail for r in results if not r.passed} == failures


def test_broken_tree_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(eco, "grow", _grow_non_member)
    assert main(["verify", "--scope", "eco"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL eco-children-in-class (first failure: h=3, parent 'UUDD')" in out.splitlines()
    assert err == ""


def _level_count_by_rows(matrix, axiom, n):
    """level_count, with each level taken against the rows, not the columns:
    the transposed product."""
    vec = [int(i == axiom - 1) for i in range(matrix.dimension)]
    for _ in range(n):
        vec = [sum(map(mul, row, vec)) for row in matrix.rows]
    return sum(vec), tuple(vec)


def _level_totals_last_plus_one(matrix, axiom, n_max):
    """level_totals, with one added to its last total."""
    *totals, last = _level_totals(matrix, axiom, n_max)
    return (*totals, last + 1)


# the same, for the generic matrix product that the matrix scope checks
MATRIX_BREAKS = {
    "level-count-transposed": (
        ("level_count", _level_count_by_rows),
        {"per-label-level-counts": "first failure: h=3, n=1"},
    ),
    "level-totals-last-plus-one": (
        ("level_totals", _level_totals_last_plus_one),
        {
            "fibonacci-level-counts": "first failure: level_totals: "
            "(1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1598) "
            "!= (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597)"
        },
    ),
}


@pytest.mark.parametrize("name", MATRIX_BREAKS)
def test_broken_matrix_product_reports_first_failure(monkeypatch, name):
    (attr, replacement), failures = MATRIX_BREAKS[name]
    monkeypatch.setattr(prodmat, attr, replacement)
    results = verify.run("matrix")
    assert [r.name for r in results] == [
        "rule-matrix-equality",
        "row-sums-match-labels",
        "per-label-level-counts",
        "fibonacci-level-counts",
    ]
    assert {r.name: r.detail for r in results if not r.passed} == failures


def _swept(result, var):
    """The values of var that result reports it covered, both ends included."""
    lo, hi = result.covered[var]
    return range(lo, hi + 1)


def test_eco_scope_tests_each_path_once(monkeypatch):
    # one membership test per tree child and one per enumerated path for the cover check
    calls = []
    monkeypatch.setattr(dyck, "in_class", lambda p, h, k=2: calls.append(p) or _in_class(p, h, k))
    results = verify.run("eco")
    assert all(r.passed for r in results)
    heights, levels = _swept(results[0], "h"), _swept(results[0], "n")
    children = sum(eco.symbolic_counts(eco.succession_rule(h), n)[0] for h in heights for n in levels)
    enumerated = len(heights) * sum(dyck.catalan(n) for n in levels)
    assert len(calls) == children + enumerated


@pytest.mark.parametrize(
    "bounds",
    # at n_max = 11 every clamp binds: the n! sweep stops at 9, the cubic oracle at 8
    # and the tree's levels at 10
    [verify.VerifyBounds(), verify.VerifyBounds(n_max=11, h_max=3)],
    ids=["defaults", "n_max=11"],
)
def test_reported_ranges_are_the_ranges_run(monkeypatch, bounds):
    # each check's covered ranges against the arguments its loops hand to the engines
    asked = defaultdict(list)

    def record(key, fn, arg=lambda *args: args):
        return lambda *args: asked[key].append(arg(*args)) or fn(*args)

    monkeypatch.setattr(dyck, "enumerate_dyck", record("paths", _enumerate_dyck, lambda n: n))
    monkeypatch.setattr(verify, "iter_permutations", record("perms", permutations, len))
    monkeypatch.setattr(perm, "avoids_312_cubic", record("cubic", _avoids_312_cubic, lambda p: len(p.entries)))
    monkeypatch.setattr(eco, "succession_rule", record("heights", _succession_rule, lambda h: h))
    monkeypatch.setattr(genfunc, "catalan_identity", record("sweep", _catalan_identity))
    monkeypatch.setattr(genfunc, "count_sequence", record("cutoff", _count_sequence))

    results = verify.run("bijection", bounds)
    assert all(result.passed for result in results)
    sizes = {result.name: list(_swept(result, "n")) for result in results}
    paths, perms, cubic = (sorted(set(asked.pop(key))) for key in ("paths", "perms", "cubic"))
    assert paths == sizes["path-round-trip"] == sizes["lrm-excess-heights"]
    assert perms == sizes["perm-round-trip"] == sizes["image-characterizations"]
    assert cubic == sizes["stack-matches-cubic"]
    assert (paths[-1], perms[-1], cubic[-1]) == (bounds.n_max, min(bounds.n_max, 9), min(bounds.n_max, 8))
    assert results[-1].covered["h"] == (1, "n+1")

    results = verify.run("eco", bounds)
    assert all(result.passed for result in results)
    assert all(result.covered == results[0].covered for result in results)
    heights, levels = _swept(results[0], "h"), _swept(results[0], "n")
    assert asked.pop("heights") == list(heights)
    # the cover check enumerates each level once per height
    assert Counter(asked.pop("paths")) == {n: len(heights) for n in levels}
    assert levels[-1] == min(bounds.n_max, 9) + 1

    sweep, cutoff = verify.run("identities", bounds)
    assert sweep.passed and cutoff.passed
    assert asked.pop("sweep") == [(n, alpha) for n in _swept(sweep, "n") for alpha in range(n + 1)]
    assert sweep.covered["alpha"] == (0, "n")
    assert asked.pop("cutoff") == [(h, h) for h in _swept(cutoff, "h")]
    assert cutoff.covered["n"] == (0, "h")
    assert sweep.covered["n"][1] == cutoff.covered["h"][1] == bounds.identity_n_max


def test_identity_sweep_reaches_every_height_it_proves(monkeypatch):
    # a wrong x^1 term from h = 19 on: alpha <= n reaches h = 2n, while a sweep
    # stopped at alpha <= 6 (h <= 18) and the cutoff (h <= 12) both miss it
    monkeypatch.setattr(genfunc, "_coeff", lambda h, j: _coeff(h, j) + (j == 1 and h >= 19))
    results = verify.run("identities")
    assert [r.name for r in results] == ["catalan-identity-sweep", "catalan-cutoff"]
    assert {r.name: r.detail for r in results if not r.passed} == {
        "catalan-identity-sweep": "first failure: (10, 9)"
    }
