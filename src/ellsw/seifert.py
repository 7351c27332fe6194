"""Euler number and normalized Seifert invariant of the canonical fibration.

The quotient of the Hopf fibration gives each family a Seifert fibration
with three exceptional fibers; its Euler number is 4m^2/|G| and the leg
data (a_i, b_i) is pinned by one linear relation per family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cyclo import frac_str
from .errors import InternalInvariantError
from .groups import BINARY, BINARY_KIND, GroupSpec


@dataclass(frozen=True)
class SeifertInvariant:
    b: int
    legs: tuple  # three pairs (a_i, b_i), 0 < b_i < a_i, gcd = 1

    def __post_init__(self):
        if len(self.legs) != 3:
            raise InternalInvariantError(
                "expected exactly three exceptional fibers", witness={"legs": self.legs}
            )
        for a, b in self.legs:
            if not (0 < b < a) or gcd(a, b) != 1:
                raise InternalInvariantError(
                    f"leg ({a},{b}) is not normalized", witness={"legs": self.legs, "leg": (a, b)}
                )

    @property
    def euler_number(self) -> Fraction:
        return Fraction(*_euler_ratio(self.b, self.legs))

    def to_dict(self) -> dict:
        return {
            "e": frac_str(self.euler_number),
            "b": self.b,
            "legs": [list(leg) for leg in self.legs],
        }


def _euler_ratio(b: int, legs) -> tuple:
    """b + sum b_i/a_i as (numerator, a1 a2 a3), not in lowest terms."""
    den = 1
    for a, _ in legs:
        den *= a
    return b * den + sum(bi * (den // ai) for ai, bi in legs), den


def euler_number(spec: GroupSpec) -> Fraction:
    """4 m^2 / |G|."""
    return Fraction(4 * spec.m * spec.m, spec.order)


def normalized_invariant(spec: GroupSpec) -> SeifertInvariant:
    m = spec.m
    family = spec.family
    if family not in BINARY_KIND:
        n = spec.n
        # b1 = b2 = 1, m = (b+1)n + b3 with 0 < b3 < n.
        b3 = m % n
        b = (m - b3) // n - 1
        inv = SeifertInvariant(b, ((2, 1), (2, 1), (n, b3)))
    else:
        # e = m/lead = b + 1/2 + b2/3 + b3/a3 with lead = |binary group|/4, so
        # m = lead*b + lead/2 + coef2*b2 + coef3*b3 with coef_i = lead/a_i.
        order, a3 = BINARY[BINARY_KIND[family]]
        a2, lead = 3, order // 4
        coef2, coef3 = lead // a2, lead // a3
        solutions = [
            (b2, b3)
            for b2 in range(1, a2)
            if gcd(b2, a2) == 1
            for b3 in range(1, a3)
            if gcd(b3, a3) == 1
            and (lead // 2 + coef2 * b2 + coef3 * b3) % lead == m % lead
        ]
        # The tetrahedral pair is only constrained through b2 + b3; collapse
        # the symmetric duplicates to the ascending representative.
        if a2 == a3:
            solutions = sorted({tuple(sorted(s)) for s in solutions})
        if len(solutions) != 1:
            raise InternalInvariantError(
                f"leg congruence for {spec} has {len(solutions)} solutions",
                witness={"spec": spec, "solutions": solutions},
            )
        b2, b3 = solutions[0]
        b = (m - lead // 2 - coef2 * b2 - coef3 * b3) // lead
        inv = SeifertInvariant(b, ((2, 1), (a2, b2), (a3, b3)))
    # b + sum b_i/a_i == 4m^2/|G|, cross-multiplied.
    num, den = _euler_ratio(inv.b, inv.legs)
    if num * spec.order != 4 * m * m * den:
        raise InternalInvariantError(
            f"Seifert data for {spec} misses the Euler number",
            witness={"spec": spec, "b": inv.b, "legs": inv.legs},
        )
    return inv
