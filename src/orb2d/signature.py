"""Combinatorial signatures of finite-type 2-orbifolds.

A signature records orientability, genus (orientable genus, or crosscap
count for non-orientable surfaces), a puncture count, boundary circles
(plain manifold circles, or mirror circles carrying a cyclic sequence of
corner-reflector orders), and a multiset of cone-point orders.  All
arithmetic on signatures is exact: integers and rationals in lowest
terms, no floating point anywhere.

Signatures are kept in a canonical form so that equality is decidable by
value comparison: cone orders sorted ascending, boundary circles sorted
with manifold circles first, and each corner sequence rotated to its
lexicographically minimal rotation.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

MANIFOLD = "m"
MIRROR = "r"


class SignatureSyntaxError(ValueError):
    """Malformed signature text; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SignatureValueError(ValueError):
    """Structurally well-formed but semantically invalid signature data."""


class PreconditionError(ValueError):
    """An operation was applied to a signature outside its domain."""


def min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal rotation of a cyclic sequence."""
    if len(seq) < 2:
        return seq
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


class BoundaryCircle(NamedTuple):
    """One boundary circle: wholly manifold, or wholly mirror with corners."""

    kind: str
    corners: tuple[int, ...] = ()


class Signature(NamedTuple):
    """Canonical signature of a finite-type 2-orbifold.

    Construct through :meth:`make` (or :func:`parse_signature`), which
    validates and canonicalizes; the raw tuple constructor assumes
    already-canonical data.
    """

    orientable: bool
    genus: int
    punctures: int
    boundary: tuple[BoundaryCircle, ...]
    cones: tuple[int, ...]

    @classmethod
    def make(
        cls,
        orientable: bool,
        genus: int,
        punctures: int = 0,
        boundary: Iterable[BoundaryCircle] = (),
        cones: Iterable[int] = (),
    ) -> "Signature":
        if genus < 0:
            raise SignatureValueError("genus must be nonnegative")
        if not orientable and genus == 0:
            raise SignatureValueError("non-orientable signature needs genus >= 1")
        if punctures < 0:
            raise SignatureValueError("punctures must be nonnegative")
        cone_tuple = tuple(sorted(cones))
        for p in cone_tuple:
            if p < 2:
                raise SignatureValueError(f"cone order {p} < 2")
        circles = []
        for circle in boundary:
            if circle.kind == MANIFOLD:
                if circle.corners:
                    raise SignatureValueError("manifold circle cannot carry corners")
                circles.append(circle)
            elif circle.kind == MIRROR:
                for n in circle.corners:
                    if n < 2:
                        raise SignatureValueError(f"corner order {n} < 2")
                circles.append(BoundaryCircle(MIRROR, min_rotation(tuple(circle.corners))))
            else:
                raise SignatureValueError(f"unknown boundary kind {circle.kind!r}")
        circles.sort(key=lambda c: (c.kind != MANIFOLD, c.corners))
        return cls(orientable, genus, punctures, tuple(circles), cone_tuple)

    @property
    def is_closed(self) -> bool:
        """No boundary circles of either kind and no punctures."""
        return not self.boundary and self.punctures == 0

    @property
    def is_reduced(self) -> bool:
        """Closed, orientable, cone-only: the reduction pipeline's target."""
        return self.orientable and self.is_closed

    @property
    def manifold_circle_count(self) -> int:
        return sum(1 for c in self.boundary if c.kind == MANIFOLD)

    def corners(self) -> Iterator[int]:
        """All corner-reflector orders across mirror circles."""
        for circle in self.boundary:
            yield from circle.corners

    def __str__(self) -> str:
        return format_signature(self)


def underlying_euler(sig: Signature) -> int:
    """Euler characteristic of the underlying surface (punctures count as ends)."""
    surface = 2 - 2 * sig.genus if sig.orientable else 2 - sig.genus
    return surface - len(sig.boundary) - sig.punctures


def orbifold_euler(sig: Signature) -> Fraction:
    """Exact orbifold Euler characteristic.

    Underlying Euler characteristic minus ``1 - 1/p`` per cone of order
    ``p`` and half that per corner reflector.
    """
    # Accumulate the singular corrections over a running denominator to
    # avoid per-term Fraction normalization.
    num, den = 0, 1
    for p in sig.cones:
        num = num * p + (p - 1) * den
        den *= p
    for circle in sig.boundary:
        for n in circle.corners:
            num = num * 2 * n + (n - 1) * den
            den *= 2 * n
    return Fraction(underlying_euler(sig) * den - num, den)


_GRAMMAR_FIELDS = ("g", "pun", "cones", "bdry")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise SignatureSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SignatureSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def read_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos], start


def _parse_int_list(cur: _Cursor) -> list[int]:
    values = [cur.read_int()]
    while cur.peek() == ",":
        cur.pos += 1
        values.append(cur.read_int())
    return values


def _parse_circle(cur: _Cursor) -> BoundaryCircle:
    name, start = cur.read_name()
    if name == "m":
        return BoundaryCircle(MANIFOLD)
    if name == "r":
        cur.expect("(")
        corners: list[int] = []
        if cur.peek() != ")":
            corners = _parse_int_list(cur)
        cur.expect(")")
        return BoundaryCircle(MIRROR, tuple(corners))
    raise SignatureSyntaxError("expected boundary circle 'm' or 'r(...)'", start)


def parse_signature(text: str) -> Signature:
    """Parse signature text into a canonical :class:`Signature`.

    Grammar (whitespace ignored, fields in any order, each at most once)::

        sig    := orient (';' field)*
        orient := 'O' | 'N'
        field  := 'g=' INT | 'pun=' INT | 'cones=' INT (',' INT)*
                | 'bdry=' bc (',' bc)*
        bc     := 'm' | 'r(' [INT (',' INT)*] ')'

    The ``g`` field is mandatory.
    """
    cur = _Cursor(text)
    orient = cur.peek()
    if orient not in ("O", "N"):
        raise SignatureSyntaxError("expected orientation token 'O' or 'N'", cur.pos)
    cur.pos += 1

    seen: dict[str, object] = {}
    while not cur.at_end():
        cur.expect(";")
        name, start = cur.read_name()
        if name not in _GRAMMAR_FIELDS:
            raise SignatureSyntaxError(f"unknown field {name!r}", start)
        if name in seen:
            raise SignatureSyntaxError(f"duplicate field {name!r}", start)
        cur.expect("=")
        if name == "g" or name == "pun":
            seen[name] = cur.read_int()
        elif name == "cones":
            seen[name] = _parse_int_list(cur)
        else:
            circles = [_parse_circle(cur)]
            while cur.peek() == ",":
                cur.pos += 1
                circles.append(_parse_circle(cur))
            seen[name] = circles
    if "g" not in seen:
        raise SignatureSyntaxError("missing mandatory field 'g'", len(text))

    return Signature.make(
        orientable=(orient == "O"),
        genus=seen["g"],  # type: ignore[arg-type]
        punctures=seen.get("pun", 0),  # type: ignore[arg-type]
        boundary=seen.get("bdry", ()),  # type: ignore[arg-type]
        cones=seen.get("cones", ()),  # type: ignore[arg-type]
    )


def format_signature(sig: Signature) -> str:
    """Canonical text for a signature; ``parse_signature`` inverts it."""
    parts = ["O" if sig.orientable else "N", f"g={sig.genus}"]
    if sig.punctures:
        parts.append(f"pun={sig.punctures}")
    if sig.cones:
        parts.append("cones=" + ",".join(map(str, sig.cones)))
    if sig.boundary:
        rendered = []
        for circle in sig.boundary:
            if circle.kind == MANIFOLD:
                rendered.append("m")
            else:
                rendered.append("r(" + ",".join(map(str, circle.corners)) + ")")
        parts.append("bdry=" + ",".join(rendered))
    return ";".join(parts)
