"""Good/bad and finite/infinite classification of 2-orbifold signatures.

Badness is read straight off the signature by the closed-form bad list
of Scott (*The geometries of 3-manifolds*, Bull. LMS 1983, section 2;
Thurston's notes, ch. 13): the teardrop, the spindle, and the mirror
disk with one corner or with two corners of different orders.  Nothing
non-orientable, punctured or with a manifold boundary circle is bad.
Group finiteness is decided by the sign of the exact orbifold Euler
characteristic.  Every finite group's order is read off the signature
too (:func:`group_order_if_finite`): 2/chi for a good signature, or 1/chi
when it has an end (a puncture or a manifold circle); 1 for the teardrop,
gcd(p, q) for the spindle (p, q), and twice the order of its double for a
bad mirror disk.  Presentations and the Smith form live in
:mod:`~orb2d.group`, which the classifier does not load.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .signature import (
    MIRROR,
    InternalInconsistencyError,
    PreconditionError,
    Signature,
    format_rational,
    format_signature,
    orbifold_euler,
    printable_integer,
)


class Geometry(str, Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"
    BAD_NO_GEOMETRY = "bad_no_geometry"
    OPEN_OR_BOUNDED = "open_or_bounded"


class Classification(NamedTuple):
    signature: Signature
    euler: Fraction
    good: bool
    group_finite: bool
    group_order: int | None
    geometry: Geometry

    @property
    def reduced(self) -> Signature:
        """The reduced signature, computed by :func:`~orb2d.reduce.reduce_final`
        on each access."""
        from .reduce import reduce_final  # loaded on first use, not by import orb2d

        return reduce_final(self.signature)

    def to_record(self) -> dict:
        """Serializable record with the fixed field order of the catalog."""
        return {
            "sig": format_signature(self.signature),
            "euler": format_rational(self.euler),
            "good": self.good,
            "finite": self.group_finite,
            "order": None if self.group_order is None else printable_integer(self.group_order),
            "geometry": self.geometry.value,
        }

    def to_json(self) -> str:
        import json  # loaded on first use, not by import orb2d

        return json.dumps(self.to_record())


def bad_list_orders(sig: Signature) -> tuple[int, ...] | None:
    """Cone orders of the sphere that a bad ``sig`` is or doubles to, else None.

    The bad list: a sphere with one cone or two cones of different orders,
    or a mirror disk with one corner or two corners of different orders,
    whose corners become the cones of its doubled sphere.
    """
    if not sig.orientable or sig.genus or sig.punctures:
        return None
    if not sig.boundary:
        orders = sig.cones
    elif len(sig.boundary) == 1 and sig.boundary[0].kind == MIRROR and not sig.cones:
        orders = sig.boundary[0].corners
    else:
        return None
    return orders if len(orders) == 1 or (len(orders) == 2 and orders[0] != orders[1]) else None


def group_order_if_finite(sig: Signature, chi: Fraction, good: bool) -> int:
    """Order of the orbifold fundamental group of any signature with chi > 0.

    A good signature has order 2/chi, or 1/chi when it has an end (a
    puncture or a manifold circle).  A bad one is on the bad list: the
    teardrop's group is trivial and the spindle (p, q) has order gcd(p, q);
    a bad mirror disk has twice the order of its double, so r(p) gives 2
    and r(p, q) gives 2 gcd(p, q).
    """
    if chi <= 0:
        raise PreconditionError("group order is defined only for chi > 0")
    if good:
        order = Fraction(1 if sig.has_end else 2) / chi
        if order.denominator != 1:
            raise InternalInconsistencyError(
                f"good signature {sig} has non-integral order {order}"
            )
        return int(order)
    orders = bad_list_orders(sig)
    if orders is None:
        raise InternalInconsistencyError(f"{sig} is not in the bad list")
    base = gcd(*orders) if len(orders) == 2 else 1
    return 2 * base if sig.boundary else base


def is_bad_closed(sig: Signature) -> bool:
    """The bad list (:func:`bad_list_orders`) on a closed orientable
    cone-only signature."""
    if not sig.is_reduced:
        raise PreconditionError("bad list applies to closed orientable cone-only signatures")
    return bad_list_orders(sig) is not None


def classify(sig: Signature) -> Classification:
    """Full verdict, read straight off the signature with no reduction:
    exact Euler characteristic, goodness (the bad list), finiteness, the
    order of a finite group, and geometry tag."""
    chi = orbifold_euler(sig)
    good = bad_list_orders(sig) is None
    # The sign tests read the numerator directly (denominators are positive).
    sign = chi.numerator
    finite = sign > 0
    order = group_order_if_finite(sig, chi, good) if finite else None
    if not good:
        geometry = Geometry.BAD_NO_GEOMETRY
    elif sig.boundary or sig.punctures:
        geometry = Geometry.OPEN_OR_BOUNDED
    elif sign > 0:
        geometry = Geometry.SPHERICAL
    elif sign == 0:
        geometry = Geometry.EUCLIDEAN
    else:
        geometry = Geometry.HYPERBOLIC
    return Classification(sig, chi, good, finite, order, geometry)


def theorem_check(sig: Signature) -> Classification:
    """The classification of ``sig``, once it passes the clauses the
    classifier must satisfy on every signature:

    (a) chi <= 0 (infinite group) implies good;
    (b) punctures or manifold boundary imply good (mirror circles are
        excluded: a mirror disk with one corner, or two corners of
        different orders, doubles to a bad closed orbifold);
    (c) good, closed, chi > 0 implies 2/chi is a positive integer.

    A violated clause is a bug, not bad input: it raises
    :class:`InternalInconsistencyError` naming the signature and the clauses.
    """
    cls = classify(sig)
    failed = []
    if cls.euler <= 0 and not cls.good:
        failed.append("a:infinite-implies-good")
    if sig.has_end and not cls.good:
        failed.append("b:open-or-manifold-bounded-implies-good")
    if cls.good and sig.is_closed and cls.euler > 0 and (Fraction(2) / cls.euler).denominator != 1:
        failed.append("c:spherical-order-integral")
    if failed:
        raise InternalInconsistencyError(
            f"theorem check failed for {format_signature(sig)}: {', '.join(failed)}"
        )
    return cls
