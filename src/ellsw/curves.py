"""Adjunction and intersection arithmetic for orbifold curves.

A calculator over user-supplied combinatorial curve data: virtual genus,
orbifold genus, lower bounds for the local singularity contributions, the
intersection with the central curve, and the Fredholm index of the
parametrized moduli problem.  No curves are constructed here; a negative
adjunction slack certifies that a configuration is impossible.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import frac_str
from .errors import DomainError, input_errors

@dataclass(frozen=True)
class OrbifoldPointRecord:
    """Local data of a curve branch at an orbifold point of the domain.

    `l` is the winding of the transverse coordinate, `l_prime` the winding
    of the tangential one (None when the local representative has no first
    component; then l = 1 and the point order matches the ambient order).
    """

    order: int
    l: int
    l_prime: int | None = None
    ambient: int = 1

    def __post_init__(self):
        if self.order < 1 or self.l < 1 or self.ambient < 1:
            raise DomainError("point record entries must be positive")
        if self.l_prime is not None and self.l_prime < 1:
            raise DomainError("defined winding l' must be positive")


@dataclass(frozen=True)
class CurveClassData:
    self_intersection: Fraction
    canonical_pairing: Fraction


def virtual_genus(data: CurveClassData) -> Fraction:
    """g(C) = (C.C + K.C)/2 + 1."""
    return (Fraction(data.self_intersection) + Fraction(data.canonical_pairing)) / 2 + 1


def orbifold_genus(underlying_genus: int, point_orders) -> Fraction:
    """Genus of the underlying surface plus (1 - 1/m)/2 per orbifold point."""
    if underlying_genus < 0:
        raise DomainError("underlying genus must be >= 0")
    if any(m < 1 for m in point_orders):
        raise DomainError("orbifold point orders must be >= 1")
    return underlying_genus + sum(Fraction(m - 1, 2 * m) for m in point_orders)


def kz_min_at_p0(point_order: int, group_order: int) -> Fraction:
    """The least possible cone-point defect: (|G|/m0 - 1) / (2 m0)."""
    if group_order < 1:
        raise DomainError("group order must be positive")
    if point_order < 1 or group_order % point_order:
        raise DomainError("point order must divide the group order")
    return Fraction(group_order // point_order - 1, 2 * point_order)


def kz_lower_bound(rec: OrbifoldPointRecord, n_ambient: int) -> Fraction:
    """((l-1)(l'-1) + (n/m - 1) l l') / (2m) at one point of order m."""
    if rec.l_prime is None:
        if rec.l != 1 or rec.order != n_ambient:
            raise DomainError(
                "undefined l' requires l = 1 and point order equal to the ambient order"
            )
        return Fraction(0)
    m, l, lp = rec.order, rec.l, rec.l_prime
    return Fraction((l - 1) * (lp - 1), 2 * m) + Fraction(n_ambient - m, m) * Fraction(l * lp, 2 * m)


def kpair_lower_bound(
    rec_i: OrbifoldPointRecord, rec_j: OrbifoldPointRecord, n_ambient: int
) -> Fraction:
    """(1/n)(n/m_i)(n/m_j) min(l_i l'_j, l_j l'_i), over the products whose l' is defined."""
    crosses = [a.l * b.l_prime for a, b in ((rec_i, rec_j), (rec_j, rec_i)) if b.l_prime is not None]
    if not crosses:
        raise DomainError("at least one branch pairing must be finite")
    return Fraction(n_ambient, rec_i.order * rec_j.order) * min(crosses)


def intersection_with_c0(records) -> Fraction:
    """Sum of l_i / m_i over the branches meeting the central curve."""
    return sum((Fraction(r.l, r.order) for r in records), Fraction(0))


def adjunction_slack(lhs_genus: Fraction, rhs_terms) -> Fraction:
    """Virtual genus minus the accumulated right-hand side; negative means
    the configuration violates the adjunction identity."""
    return Fraction(lhs_genus) - sum((Fraction(t) for t in rhs_terms), Fraction(0))


def fredholm_index(c1TX_pairing: Fraction, underlying_genus: int, weights) -> int:
    """Index 2d with d = c1(TX).[f] + 2 - 2g - sum (m_i1 + m_i2)/m_i.

    `weights` lists (m_i, m_i1, m_i2) per orbifold point of the domain.
    A non-integer d means the weight data is inconsistent.
    """
    d = Fraction(c1TX_pairing) + 2 - 2 * underlying_genus
    for m, w1, w2 in weights:
        if m < 1 or not (0 <= w1 < m and 0 <= w2 < m):
            raise DomainError("rotation weights must satisfy 0 <= w < m")
        d -= Fraction(w1 + w2, m)
    if d.denominator != 1:
        raise DomainError(f"index is not an integer: d = {d}")
    return 2 * int(d)


# ---------------------------------------------------------------------------
# audit documents


def _integer(value) -> int:
    """A JSON integer field: a float or a bool is malformed, not truncated."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def _rational(value) -> Fraction:
    """A JSON rational field: an integer, or a string such as "2/3" or "0.1"
    read exactly.  A float or a bool is malformed, not rounded; so is an
    exponent past the integer digit limit, before 10**exponent is formed."""
    if type(value) not in (int, str):
        raise TypeError(f"expected an integer or a string, not {value!r}")
    limit = sys.get_int_max_str_digits()  # 0: no limit
    exponent = type(value) is str and re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value)
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"the exponent of {value!r} exceeds the limit of {limit} digits")
    return Fraction(value)


def run_audit(document: dict) -> dict:
    """Evaluate an adjunction audit document; see the schema in the README.

    Returns lhs, every rhs term, and the slack (all exact "p/q" strings).
    """
    # ArithmeticError: "1/0" (ZeroDivisionError).
    with input_errors("malformed audit document",
                      (KeyError, ValueError, TypeError, IndexError, AttributeError, ArithmeticError)):
        cls = document["class"]
        data = CurveClassData(_rational(cls["CC"]), _rational(cls["KC"]))
        lhs = virtual_genus(data)
        g0 = _integer(document.get("underlying_genus", 0))
        points = [
            OrbifoldPointRecord(
                order=_integer(p["order"]),
                l=_integer(p.get("l", 1)),
                l_prime=None if p.get("lp") is None else _integer(p["lp"]),
                ambient=_integer(p.get("ambient", p["order"])),
            )
            for p in document.get("points", [])
        ]
        detail = [("orbifold_genus", orbifold_genus(g0, [p.order for p in points]))]
        for i, (p, doc) in enumerate(zip(points, document.get("points", []))):
            if doc.get("cone_point"):
                term = kz_min_at_p0(p.order, _integer(doc["group_order"]))
            else:
                term = kz_lower_bound(p, p.ambient)
            detail.append((f"k_z{i}", term))
        for pair in document.get("pairs", []):
            i, j = _integer(pair["i"]), _integer(pair["j"])
            if not (0 <= i < len(points) and 0 <= j < len(points)):
                raise IndexError(f"pair indices ({i}, {j}) are not in range({len(points)})")
            amb = _integer(pair.get("ambient", points[i].ambient))
            detail.append((f"k_pair_{i}_{j}", kpair_lower_bound(points[i], points[j], amb)))
        for extra in document.get("extra_terms", []):
            detail.append(("extra", _rational(extra)))
        rhs = [t for _, t in detail]
        slack = adjunction_slack(lhs, rhs)
        return {  # frac_str raises ValueError past sys.get_int_max_str_digits(): "1e5000"
            "lhs": frac_str(lhs),
            "rhs_terms": [[name, frac_str(v)] for name, v in detail],
            "rhs_total": frac_str(sum(rhs, Fraction(0))),
            "slack": frac_str(slack),
            "feasible": slack >= 0,
        }
