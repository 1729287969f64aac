"""Resource guards.

All enumeration limits live here so that desk-scale defaults can be raised
explicitly (CLI flags or SPECHTKIT_* environment variables) instead of being
hard-coded at call sites.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

from .errors import DomainError


@dataclass(frozen=True)
class Limits:
    # specht matrices
    max_matrix_cells: int = 4_000_000
    # matroids
    max_ground: int = 128
    max_circuit_ground: int = 20
    tutte_subset_limit: int = 20  # subset-sum strategy bound on |E|
    max_flats: int = 100_000  # flats one lattice may find; bounds its down-sets and residue dicts
    # polytopes
    max_polytope_points: int = 64
    max_polytope_dim: int = 8
    max_box_volume: int = 2_000_000
    # coefficient matrices
    max_group_order: int = 10_000
    max_coefficient_n: int = 5
    # conjecture checks
    max_funny_sum_n: int = 6
    max_derangement_n: int = 9

    def require(self, name: str, value: int) -> None:
        bound = getattr(self, name)
        if value > bound:
            from .errors import ResourceLimitError

            # str() of an int past 4,300 digits raises ValueError, and a
            # shorter huge one says nothing a bit length does not
            bits = value.bit_length()
            shown = value if bits <= 1024 else f"a {bits}-bit number"
            raise ResourceLimitError(
                f"{name}: requested {shown} exceeds limit {bound}"
            )


def resolve_limits(flags: Mapping[str, int | None]) -> Limits:
    """The default guards overridden by SPECHTKIT_<FIELD> environment
    variables and then by *flags*, a mapping from guard name to value (None
    where unset) such as the parsed CLI arguments.

    A value that is not a positive integer, and a SPECHTKIT_ variable that
    names no guard, raise ``DomainError`` naming the variable or the guard.
    """
    names = {"SPECHTKIT_" + f.name.upper(): f.name for f in fields(Limits)}
    for var in sorted(os.environ):
        if var.startswith("SPECHTKIT_") and var not in names:
            raise DomainError(f"{var} names no guard")

    def given():
        for var, name in names.items():
            raw = os.environ.get(var)
            if raw is not None:
                try:
                    value = int(raw)
                except ValueError:
                    raise DomainError(f"{var}={raw!r} is not an integer") from None
                yield name, value, var
        for f in fields(Limits):
            value = flags.get(f.name)
            if value is not None:
                yield f.name, value, f"guard {f.name}"

    overrides = {}
    for name, value, source in given():
        if value <= 0:
            raise DomainError(f"{source} must be positive")
        overrides[name] = value
    return replace(Limits(), **overrides)


DEFAULT_LIMITS = Limits()
