"""Reduction pipeline to a closed orientable cone-only signature.

Four transforms, applied in a fixed order when applicable:

1. orientation double (non-orientable input; 2-sheeted orbifold cover),
2. double along mirror boundary (2-sheeted orbifold cover),
3. end truncation (punctures become manifold boundary circles; same
   orbifold, recompactified),
4. double along manifold boundary (the input sits inside the double as a
   suborbifold).

The three doubles follow one rule (Scott 1983, section 2). The circles
doubled along vanish, and each of their corner reflectors of order n folds
into one cone point of order n. Every other circle, every cone point and
every puncture is duplicated. The double is orientable, of genus h - 1 for
h crosscaps, or 2g + c - 1 for orientable genus g with c circles folded.

Every doubling step doubles the orbifold Euler characteristic exactly;
end truncation preserves it.
"""
from __future__ import annotations

from enum import Enum
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


def _double(sig: Signature, kind: StepKind, along: str | None = None) -> ReductionStep:
    """The double along every circle of kind ``along`` (none if ``None``)."""
    kept = []
    cones = list(sig.cones) * 2
    for circle in sig.boundary:
        if circle.kind == along:
            cones += circle.corners
        else:
            kept += circle, circle
    cones.sort()
    folded = len(sig.boundary) - len(kept) // 2
    genus = 2 * sig.genus + folded - 1 if sig.orientable else sig.genus - 1
    return ReductionStep(kind, Signature(True, genus, 2 * sig.punctures, tuple(kept), tuple(cones)))


def orientation_double(sig: Signature) -> ReductionStep:
    """Pass to the orientation double, along no circle."""
    if sig.orientable:
        raise PreconditionError("orientation double needs non-orientable input")
    return _double(sig, StepKind.ORIENTATION_DOUBLE)


def mirror_double(sig: Signature) -> ReductionStep:
    """Double along all mirror circles; manifold circles are duplicated."""
    if not sig.orientable:
        raise PreconditionError("mirror double needs orientable input")
    if not sig.has_mirror:
        raise PreconditionError("mirror double needs at least one mirror circle")
    return _double(sig, StepKind.MIRROR_DOUBLE, MIRROR)


def end_cut(sig: Signature) -> ReductionStep:
    """Truncate the ends: punctures become manifold boundary circles."""
    if sig.punctures == 0:
        raise PreconditionError("end cut needs at least one puncture")
    result = Signature(
        sig.orientable, sig.genus, 0, (_M_CIRCLE,) * sig.punctures + sig.boundary, sig.cones
    )
    return ReductionStep(StepKind.END_CUT, result)


def manifold_double(sig: Signature) -> ReductionStep:
    """Double along all manifold circles, which must be the whole boundary
    of a puncture-free input; the result is closed."""
    if not sig.orientable:
        raise PreconditionError("manifold double needs orientable input")
    if sig.has_mirror:
        raise PreconditionError("manifold double needs mirror-free input")
    if sig.punctures:
        raise PreconditionError("manifold double needs puncture-free input")
    if not sig.boundary:
        raise PreconditionError("manifold double needs at least one boundary circle")
    return _double(sig, StepKind.MANIFOLD_DOUBLE, MANIFOLD)


def reduce_to_closed(sig: Signature) -> ReductionTrace:
    """Run the full pipeline; already-reduced input yields an empty trace."""
    steps = []
    current = sig
    if not current.orientable:
        step = orientation_double(current)
        steps.append(step)
        current = step.result
    if current.has_mirror:
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
