"""verify's failure reporting: with one piece of the bijection broken, each
check must fail on the same first case and leave the others passing."""

import pytest

from dyck312 import bijection, perm, verify
from dyck312.dyck import DyckPath

# (module, attribute, replacement) per scenario, with the checks that fail and
# the first failure each reports
BREAKS = {
    "wrong-perm-to-path": (
        [(bijection, "perm_to_path", lambda pi: DyckPath("UD" * len(pi)))],
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
