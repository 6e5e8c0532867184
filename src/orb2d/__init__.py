"""Exact classification of finite-type 2-orbifold signatures.

Decide whether a 2-orbifold is good or bad, whether its orbifold
fundamental group is finite or infinite, which geometry it carries, and
exhibit a finite manifold orbifold-cover as a constructive certificate
of goodness.

Importing the package loads only the classifier layers (``signature`` and
``classify``). The group, cover and reduce names load their module on
first use and are looked up in it on every access, never stored here, so
a patch of ``orb2d.group.<name>``, ``orb2d.cover.<name>`` or
``orb2d.reduce.<name>`` shows through ``orb2d.<name>``.
"""
import sys
from importlib import import_module
from types import ModuleType

from .classify import Classification, Geometry, classify, group_order_if_finite, is_bad_closed, theorem_check
from .signature import (
    BoundaryCircle,
    PreconditionError,
    Signature,
    SignatureSyntaxError,
    SignatureValueError,
    format_signature,
    orbifold_euler,
    parse_signature,
    underlying_euler,
)

_LAZY = {
    **dict.fromkeys(
        (
            "AbelianInvariants",
            "IntegerMatrix",
            "Presentation",
            "SmithForm",
            "abelianization",
            "presentation_of_closed",
            "relation_matrix",
            "smith_normal_form",
        ),
        "orb2d.group",
    ),
    **dict.fromkeys(("CoverWitness", "manifold_cover_search", "verify_witness"), "orb2d.cover"),
    **dict.fromkeys(
        (
            "ReductionStep",
            "ReductionTrace",
            "end_cut",
            "manifold_double",
            "mirror_double",
            "orientation_double",
            "reduce_final",
            "reduce_to_closed",
        ),
        "orb2d.reduce",
    ),
}


def _lazy(module: str, name: str) -> property:
    # sys.modules first: import_module on a loaded module nearly doubles a lookup.
    return property(lambda _: getattr(sys.modules.get(module) or import_module(module), name))


# Each lazy name is a property of the package's class, so the normal
# attribute lookup finds it. A module __getattr__ runs only after that
# lookup fails, which on Python 3.11 builds and clears an AttributeError on
# every access.
sys.modules[__name__].__class__ = type(
    "_Package", (ModuleType,), {name: _lazy(module, name) for name, module in _LAZY.items()}
)


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "AbelianInvariants",
    "BoundaryCircle",
    "Classification",
    "CoverWitness",
    "Geometry",
    "IntegerMatrix",
    "PreconditionError",
    "Presentation",
    "ReductionStep",
    "ReductionTrace",
    "Signature",
    "SignatureSyntaxError",
    "SignatureValueError",
    "SmithForm",
    "abelianization",
    "classify",
    "end_cut",
    "format_signature",
    "group_order_if_finite",
    "is_bad_closed",
    "manifold_cover_search",
    "manifold_double",
    "mirror_double",
    "orbifold_euler",
    "orientation_double",
    "parse_signature",
    "presentation_of_closed",
    "reduce_final",
    "reduce_to_closed",
    "relation_matrix",
    "smith_normal_form",
    "theorem_check",
    "underlying_euler",
    "verify_witness",
]

__version__ = "0.1.0"
