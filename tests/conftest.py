from itertools import permutations

import pytest
from hypothesis import settings

from dyck312 import dyck, perm

# CI's fixed-seed run: `pytest --hypothesis-profile=ci` draws the same examples on every
# run, ten times as many as the default profile that tier-1 keeps
settings.register_profile("ci", derandomize=True, max_examples=10 * settings.default.max_examples)


@pytest.fixture(scope="session")
def paths_by_n():
    """All Dyck paths of semilength 0..10, keyed by semilength, as lists."""
    return {n: list(dyck.enumerate_dyck(n)) for n in range(11)}


@pytest.fixture(scope="session")
def avoiders_by_n():
    """All 312-avoiding permutations of length 0..9, filtered from the full
    factorial sweep with the stack-based check."""
    out = {}
    for n in range(10):
        out[n] = [
            pi
            for pi in (perm.Permutation(t) for t in permutations(range(1, n + 1)))
            if perm.avoids_312(pi)
        ]
    return out
