"""Reduction pipeline to a closed orientable cone-only signature.

Four transforms, applied in a fixed order when applicable:

1. orientation double (non-orientable input; 2-sheeted orbifold cover),
2. double along mirror boundary (2-sheeted orbifold cover; corner
   reflectors of order n fold to cone points of order n),
3. end truncation (punctures become manifold boundary circles; same
   orbifold, recompactified),
4. double along manifold boundary (the input sits inside the double as a
   suborbifold; cone points are duplicated).

Every doubling step doubles the orbifold Euler characteristic exactly;
end truncation preserves it.
"""
from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import NamedTuple

from .signature import (
    MANIFOLD,
    MIRROR,
    BoundaryCircle,
    PreconditionError,
    Signature,
)

_M_CIRCLE = BoundaryCircle(MANIFOLD)


class StepKind(str, Enum):
    ORIENTATION_DOUBLE = "OrientationDouble"
    MIRROR_DOUBLE = "MirrorDouble"
    END_CUT = "EndCut"
    MANIFOLD_DOUBLE = "ManifoldDouble"


class Relationship(str, Enum):
    TWO_SHEETED_ORBIFOLD_COVER = "TwoSheetedOrbifoldCover"
    SAME_ORBIFOLD_RECOMPACTIFIED = "SameOrbifoldRecompactified"
    SUBORBIFOLD_OF_DOUBLE = "SuborbifoldOfDouble"


_RELATIONSHIP = {
    StepKind.ORIENTATION_DOUBLE: Relationship.TWO_SHEETED_ORBIFOLD_COVER,
    StepKind.MIRROR_DOUBLE: Relationship.TWO_SHEETED_ORBIFOLD_COVER,
    StepKind.END_CUT: Relationship.SAME_ORBIFOLD_RECOMPACTIFIED,
    StepKind.MANIFOLD_DOUBLE: Relationship.SUBORBIFOLD_OF_DOUBLE,
}


class ReductionStep(NamedTuple):
    kind: StepKind
    result: Signature

    @property
    def relationship(self) -> Relationship:
        """How the result relates to the step's input, fixed by the kind."""
        return _RELATIONSHIP[self.kind]


class ReductionTrace(NamedTuple):
    start: Signature
    steps: tuple[ReductionStep, ...]

    @property
    def final(self) -> Signature:
        return self.steps[-1].result if self.steps else self.start


def orientation_double(sig: Signature) -> ReductionStep:
    """Pass to the orientation double: crosscap count h gives genus h-1.

    Boundary circles and cone points are duplicated, punctures doubled.
    """
    if sig.orientable:
        raise PreconditionError("orientation double needs non-orientable input")
    result = Signature(
        orientable=True,
        genus=sig.genus - 1,
        punctures=2 * sig.punctures,
        boundary=tuple(chain.from_iterable((c, c) for c in sig.boundary)),
        cones=tuple(chain.from_iterable((p, p) for p in sig.cones)),
    )
    return ReductionStep(StepKind.ORIENTATION_DOUBLE, result)


def mirror_double(sig: Signature) -> ReductionStep:
    """Double along all mirror circles.

    With r mirror circles the genus becomes 2g + r - 1; manifold circles
    and punctures double; each corner reflector of order n contributes a
    cone point of order n alongside the duplicated original cones.
    """
    if not sig.orientable:
        raise PreconditionError("mirror double needs orientable input")
    manifold_count = 0
    cones = list(sig.cones) + list(sig.cones)
    for circle in sig.boundary:
        if circle.kind == MANIFOLD:
            manifold_count += 1
        else:
            cones.extend(circle.corners)
    mirror_count = len(sig.boundary) - manifold_count
    if not mirror_count:
        raise PreconditionError("mirror double needs at least one mirror circle")
    cones.sort()
    result = Signature(
        orientable=True,
        genus=2 * sig.genus + mirror_count - 1,
        punctures=2 * sig.punctures,
        boundary=(_M_CIRCLE,) * (2 * manifold_count),
        cones=tuple(cones),
    )
    return ReductionStep(StepKind.MIRROR_DOUBLE, result)


def end_cut(sig: Signature) -> ReductionStep:
    """Truncate the ends: punctures become manifold boundary circles."""
    if sig.punctures == 0:
        raise PreconditionError("end cut needs at least one puncture")
    result = Signature(
        orientable=sig.orientable,
        genus=sig.genus,
        punctures=0,
        boundary=(_M_CIRCLE,) * sig.punctures + sig.boundary,
        cones=sig.cones,
    )
    return ReductionStep(StepKind.END_CUT, result)


def manifold_double(sig: Signature) -> ReductionStep:
    """Double along all manifold boundary circles.

    With b circles the genus becomes 2g + b - 1 and the cone multiset is
    duplicated; the result is closed.
    """
    if not sig.orientable:
        raise PreconditionError("manifold double needs orientable input")
    if sig.boundary and sig.boundary[-1].kind == MIRROR:
        raise PreconditionError("manifold double needs mirror-free input")
    if sig.punctures:
        raise PreconditionError("manifold double needs puncture-free input")
    b = len(sig.boundary)
    if b == 0:
        raise PreconditionError("manifold double needs at least one boundary circle")
    result = Signature(
        orientable=True,
        genus=2 * sig.genus + b - 1,
        punctures=0,
        boundary=(),
        cones=tuple(chain.from_iterable((p, p) for p in sig.cones)),
    )
    return ReductionStep(StepKind.MANIFOLD_DOUBLE, result)


def reduce_to_closed(sig: Signature) -> ReductionTrace:
    """Run the full pipeline; already-reduced input yields an empty trace."""
    steps = []
    current = sig
    if not current.orientable:
        step = orientation_double(current)
        steps.append(step)
        current = step.result
    # Canonical order puts manifold circles first, so a mirror circle is
    # present exactly when the last circle is one.
    if current.boundary and current.boundary[-1].kind == MIRROR:
        step = mirror_double(current)
        steps.append(step)
        current = step.result
    if current.punctures:
        step = end_cut(current)
        steps.append(step)
        current = step.result
    if current.boundary:
        step = manifold_double(current)
        steps.append(step)
        current = step.result
    return ReductionTrace(sig, tuple(steps))


def reduce_final(sig: Signature) -> Signature:
    """The closed signature :func:`reduce_to_closed` ends with; the trace is dropped."""
    return reduce_to_closed(sig).final
