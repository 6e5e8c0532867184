"""Finite enumeration of canonical signatures and catalog generation."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from operator import itemgetter
from typing import Iterator

from .classify import theorem_check
from .group import InternalInconsistencyError
from .signature import (
    MANIFOLD,
    MIRROR,
    BoundaryCircle,
    Signature,
    format_signature,
    min_rotation,
)


@dataclass(frozen=True)
class CatalogBounds:
    max_genus: int = 0
    max_cones: int = 0
    max_order: int = 2
    max_boundary: int = 0
    max_corners_per_circle: int = 0
    max_punctures: int = 0
    orientable_only: bool = False


def circle_types(
    max_corners: int, max_corner_order: int
) -> list[BoundaryCircle]:
    """All boundary circle types, in canonical sort order.

    Mirror corner sequences are cyclic; one representative per necklace
    (the lexicographically minimal rotation).
    """
    types = [BoundaryCircle(MANIFOLD)]
    mirrors = set()
    for length in range(max_corners + 1):
        for corners in product(range(2, max_corner_order + 1), repeat=length):
            mirrors.add(min_rotation(corners))
    types.extend(BoundaryCircle(MIRROR, corners) for corners in sorted(mirrors))
    return types


def enumerate_signatures(
    bounds: CatalogBounds, max_corner_order: int | None = None
) -> Iterator[Signature]:
    """Every canonical signature within the bounds, each exactly once.

    ``max_corner_order`` defaults to ``bounds.max_order`` (one bound for
    cones and corners) but may be set separately.
    """
    if max_corner_order is None:
        max_corner_order = bounds.max_order
    circles = (
        circle_types(bounds.max_corners_per_circle, max_corner_order)
        if bounds.max_boundary
        else []
    )
    boundaries: list[tuple[BoundaryCircle, ...]] = [()]
    for count in range(1, bounds.max_boundary + 1):
        boundaries.extend(combinations_with_replacement(circles, count))
    cone_sets: list[tuple[int, ...]] = [()]
    for count in range(1, bounds.max_cones + 1):
        cone_sets.extend(
            combinations_with_replacement(range(2, bounds.max_order + 1), count)
        )
    orientations = [True] if bounds.orientable_only else [True, False]
    for orientable in orientations:
        genus_range = range(0 if orientable else 1, bounds.max_genus + 1)
        for genus in genus_range:
            for punctures in range(bounds.max_punctures + 1):
                for boundary in boundaries:
                    for cones in cone_sets:
                        yield Signature(orientable, genus, punctures, boundary, cones)


def catalog_records(bounds: CatalogBounds) -> tuple[list[dict], dict]:
    """Classification records in canonical-text order, plus summary counts.

    Every record must pass theorem_check; a failure names the violating
    signature (it signals an implementation bug, not bad input).
    """
    records = []
    summary = {"total": 0, "good": 0, "bad": 0, "finite": 0, "infinite": 0}
    for sig in enumerate_signatures(bounds):
        report = theorem_check(sig)
        if not report.ok:
            failed = ", ".join(c.clause for c in report.failures())
            raise InternalInconsistencyError(
                f"theorem check failed for {format_signature(sig)}: {failed}"
            )
        record = report.classification.to_record()
        records.append(record)
        summary["total"] += 1
        summary["good" if record["good"] else "bad"] += 1
        summary["finite" if record["finite"] else "infinite"] += 1
    # Canonical text is unique, so sorting on it alone fixes the order.
    records.sort(key=itemgetter("sig"))
    return records, summary
