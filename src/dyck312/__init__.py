"""Height-bounded Dyck paths without valleys just below the bound, their
312-avoiding permutation images, and exact machinery counting both.

All public values are immutable and every operation is a pure function, so
everything here is safe to call concurrently. The records (DyckPath,
Permutation, LrMaximum, SuccessionRule, ProductionMatrix, VerifyBounds,
CheckResult) are named tuples: indexable, iterable and equal to a plain tuple
of their fields. Copy one with _replace and read it as a dict with _asdict.
"""

from . import bijection, counting, dyck, eco, genfunc, perm, prodmat
from .bijection import path_to_perm, perm_to_path
from .dyck import DyckPath, catalan, parse_path
from .perm import Permutation, parse_perm

__version__ = "0.1.0"

__all__ = [
    "DyckPath",
    "Permutation",
    "__version__",
    "bijection",
    "catalan",
    "counting",
    "dyck",
    "eco",
    "genfunc",
    "parse_path",
    "parse_perm",
    "path_to_perm",
    "perm",
    "perm_to_path",
    "prodmat",
]
