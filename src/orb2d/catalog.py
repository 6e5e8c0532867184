"""Finite enumeration of canonical signatures and catalog generation."""
from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterator, NamedTuple

from .classify import theorem_check
from .signature import MANIFOLD, MIRROR, BoundaryCircle, PreconditionError, Signature, min_rotation


class CatalogBounds(NamedTuple):
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
    cones and corners) but may be set separately.  A bound below 0 raises
    PreconditionError.
    """
    if max_corner_order is None:
        max_corner_order = bounds.max_order
    for name, value in [*zip(CatalogBounds._fields, bounds[:-1]), ("max_corner_order", max_corner_order)]:
        if value < 0:
            raise PreconditionError(f"catalog bound {name} must be at least 0, not {value}")
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


def catalog_records(bounds: CatalogBounds) -> tuple[list[str], dict]:
    """Classification records as JSON lines in canonical-text order, plus
    summary counts.

    Each line is a record's :meth:`~orb2d.classify.Classification.to_json`
    text and a newline.  Every record goes through theorem_check, which
    raises on a violated clause (an implementation bug, not bad input).
    """
    lines = []
    good = finite = 0
    for sig in enumerate_signatures(bounds):
        cls = theorem_check(sig)
        lines.append(cls.to_json() + "\n")
        good += cls.good
        finite += cls.group_finite
    # Each line begins '{"sig": "' and the canonical text, whose closing '"'
    # (0x22) sorts below every character canonical text uses; so sorting the
    # lines sorts by the text, which is unique and so fixes the order.
    lines.sort()
    total = len(lines)
    summary = dict(total=total, good=good, bad=total - good, finite=finite, infinite=total - finite)
    return lines, summary
