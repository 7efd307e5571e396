"""The package's records are named tuples: they compare, hash and print by
their fields, refuse assignment, and check their fields when built. The
DyckPaths view, which is not a record, is tested in test_dyck."""

import pytest

from dyck312.dyck import DyckPath
from dyck312.eco import SuccessionRule
from dyck312.perm import LrMaximum, NotAPermutation, Permutation
from dyck312.prodmat import ProductionMatrix
from dyck312.verify import CheckResult, VerifyBounds

# (record type, constructor arguments, repr of the record they build)
RECORDS = [
    (DyckPath, ("UD",), "DyckPath(word='UD')"),
    (Permutation, ((2, 1),), "Permutation(entries=(2, 1))"),
    (LrMaximum, (1, 2), "LrMaximum(index=1, value=2)"),
    (
        SuccessionRule,
        (1, {1: (2,), 2: (1, 2)}),
        "SuccessionRule(axiom=1, productions={1: (2,), 2: (1, 2)})",
    ),
    (ProductionMatrix, (((0, 1), (1, 1)),), "ProductionMatrix(rows=((0, 1), (1, 1)))"),
    (VerifyBounds, (), "VerifyBounds(n_max=8, h_max=5, identity_n_max=12)"),
    (
        CheckResult,
        ("name", True, "n=0..1", {"n": (0, 1)}),
        "CheckResult(name='name', passed=True, detail='n=0..1', covered={'n': (0, 1)})",
    ),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, args, text", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(record, args, text):
    a, b = record(*args), record(*args)
    assert a is not b
    assert a == b
    assert repr(a) == text
    if record in (SuccessionRule, CheckResult):  # its productions, or what it covered, are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("record, args, text", RECORDS, ids=IDS)
def test_records_refuse_assignment(record, args, text):
    r = record(*args)
    for name in r._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
    with pytest.raises(AttributeError):  # no __dict__ to take a new attribute
        r.extra = 1


def test_records_are_tuples_of_their_fields():
    bounds = VerifyBounds(n_max=3)
    assert bounds == (3, 5, 12) and bounds[0] == bounds.n_max == 3
    assert bounds._replace(h_max=4) == VerifyBounds(3, 4)
    assert CheckResult("name", False)._asdict() == dict(name="name", passed=False, detail="", covered=None)
    assert Permutation([2, 1]).entries == (2, 1)  # any iterable, held as a tuple
    assert ProductionMatrix([[0, 1], [1, 1]]).rows == ((0, 1), (1, 1))
    assert ProductionMatrix([[0, 1], [1, 1]]).dimension == 2


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Permutation((0, 1)), NotAPermutation, "value 0 out of range 1..2"),
        (lambda: Permutation((1, 3)), NotAPermutation, "value 3 out of range 1..2"),
        (lambda: Permutation((2, 2)), NotAPermutation, "duplicate value 2"),
        (
            lambda: SuccessionRule(1, {1: (2,), 2: (1, 2, 2)}),
            ValueError,
            "label (2) must produce 2 children, got 3",
        ),
        (lambda: ProductionMatrix(((0, 1),)), ValueError, "matrix must be square"),
        (lambda: ProductionMatrix(((0, 1), (1,))), ValueError, "matrix must be square"),
        (lambda: ProductionMatrix(((0, 1), (-1, 1))), ValueError, "entries must be nonnegative"),
        (lambda: VerifyBounds(n_max=-1), ValueError, "n_max must be >= 0, got -1"),
        (lambda: VerifyBounds(15), ValueError, "n_max must be <= 14, got 15"),
        (lambda: VerifyBounds(h_max=2), ValueError, "h_max must be >= 3, got 2"),
        (lambda: VerifyBounds(h_max=33), ValueError, "h_max must be <= 32, got 33"),
        (lambda: VerifyBounds(identity_n_max=1), ValueError, "identity_n_max must be >= 2, got 1"),
        (lambda: VerifyBounds(8, 5, 129), ValueError, "identity_n_max must be <= 128, got 129"),
        # _replace builds through _make, which runs the same checks
        (lambda: Permutation((1, 2))._replace(entries=(1, 1)), NotAPermutation, "duplicate value 1"),
        (
            lambda: SuccessionRule(1, {1: (2,)})._replace(productions={1: ()}),
            ValueError,
            "label (1) must produce 1 children, got 0",
        ),
        (
            lambda: ProductionMatrix(((1,),))._replace(rows=((-1,),)),
            ValueError,
            "entries must be nonnegative",
        ),
        (lambda: VerifyBounds()._replace(h_max=33), ValueError, "h_max must be <= 32, got 33"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message

