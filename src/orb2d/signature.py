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

Text is parsed in one of two ways.  Well-formed text, which is nearly all
of it, is confirmed by one match of the whole grammar and its values are
read with ``str.split``.  Only text that the match refuses, or that
repeats a field, omits ``g`` or holds an integer that ``int()`` refuses,
goes through a token walk, which finds the first fault and reports it
with its position.  Either way :meth:`Signature.make` validates the values
and builds the canonical form.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache, lru_cache
from operator import index
from typing import Iterable, NamedTuple

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


class InternalInconsistencyError(RuntimeError):
    """A computed value contradicts a structural guarantee; a bug, not input."""


def min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically minimal rotation of a cyclic sequence, in linear
    time (Booth 1980; Shiloach 1981): where starts ``i < j`` first differ,
    after ``k`` equal items, the larger and the ``k`` starts after it drop out."""
    n = len(seq)
    if n < 2:
        return seq
    twice = seq + seq
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = twice[i + k], twice[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return twice[i : i + n]


class BoundaryCircle(NamedTuple):
    """One boundary circle: wholly manifold, or wholly mirror with corners."""

    kind: str
    corners: tuple[int, ...] = ()


_MANIFOLD_CIRCLE = BoundaryCircle(MANIFOLD)


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
        boundary: Iterable[tuple[str, Iterable[int]]] = (),
        cones: Iterable[int] = (),
    ) -> "Signature":
        """Validated, canonical signature.  Each boundary circle is read as
        a ``(kind, corners)`` pair, such as a :class:`BoundaryCircle`.
        ``orientable`` must be a bool; anything else raises TypeError.  The
        genus, the punctures and each order are read with
        ``operator.index``: a float raises TypeError, and a bool reads as 0
        or 1."""
        if not isinstance(orientable, bool):
            raise TypeError(f"orientable must be a bool, not {type(orientable).__name__}")
        genus = index(genus)
        if genus < 0:
            raise SignatureValueError("genus must be nonnegative")
        if not orientable and genus == 0:
            raise SignatureValueError("non-orientable signature needs genus >= 1")
        punctures = index(punctures)
        if punctures < 0:
            raise SignatureValueError("punctures must be nonnegative")
        cone_tuple = tuple(sorted(map(index, cones)))
        if cone_tuple and cone_tuple[0] < 2:
            raise SignatureValueError(f"cone order {cone_tuple[0]} < 2")
        circles = []
        for kind, corners in boundary:
            if kind == MANIFOLD:
                if corners:
                    raise SignatureValueError("manifold circle cannot carry corners")
                circles.append(_MANIFOLD_CIRCLE)
            elif kind == MIRROR:
                corners = tuple(map(index, corners))
                for n in corners:
                    if n < 2:
                        raise SignatureValueError(f"corner order {n} < 2")
                circles.append(BoundaryCircle(MIRROR, min_rotation(corners)))
            else:
                raise SignatureValueError(f"unknown boundary kind {kind!r}")
        circles.sort()  # by kind, and "m" < "r": manifold circles first
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
    def has_end(self) -> bool:
        """A puncture or a manifold circle; canonical order puts manifold circles first."""
        return self.punctures > 0 or (bool(self.boundary) and self.boundary[0].kind == MANIFOLD)

    @property
    def has_mirror(self) -> bool:
        """A mirror circle; canonical order puts mirror circles last."""
        return bool(self.boundary) and self.boundary[-1].kind == MIRROR

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
    _, cone_num, cone_den = _cone_part(sig.cones)
    _, corner_num, corner_den = _boundary_part(sig.boundary)
    den = cone_den * corner_den
    return Fraction(underlying_euler(sig) * den - cone_num * corner_den - corner_num * cone_den, den)


# A catalog's records share few cone multisets and boundary multisets (the
# acceptance suite's 521,640 signatures have 126 and 276), so each part's
# text and Euler defect is built once and kept, keyed by the part alone: keyed
# by the pair, the suite's 34,776 pairs would cycle through any small memo.
# Each memo keeps its 512 most recent parts, so its worst-case memory is 512
# times the largest part passed in, with its text. The defect is summed over
# a running denominator to avoid per-term Fraction normalization; it grows
# only by an order that does not divide it, so repeated orders keep it small
# and the time linear. A part with an order past the interpreter's digit cap
# has a defect but no text (None), which format_signature refuses.
@lru_cache(maxsize=512)
def _cone_part(cones: tuple[int, ...]) -> tuple[str | None, int, int]:
    """``;cones=`` text (empty for no cones) and defect ``(num, den)``: ``1 - 1/p`` per cone."""
    num, den = 0, 1
    for p in cones:
        if den % p:
            num = num * p + (p - 1) * den
            den *= p
        else:
            num += (p - 1) * (den // p)
    try:
        return ";cones=" + ",".join(map(str, cones)) if cones else "", num, den
    except ValueError:
        return None, num, den


@lru_cache(maxsize=512)
def _boundary_part(boundary: tuple[BoundaryCircle, ...]) -> tuple[str | None, int, int]:
    """``;bdry=`` text (empty for no circles) and defect ``(num, den)``: ``(1 - 1/n)/2`` per corner."""
    num, den = 0, 1
    for circle in boundary:
        for n in circle.corners:
            if den % (2 * n):
                num = num * 2 * n + (n - 1) * den
                den *= 2 * n
            else:
                num += (n - 1) * (den // (2 * n))
    rendered = ("m" if c.kind == MANIFOLD else "r(" + ",".join(map(str, c.corners)) + ")" for c in boundary)
    try:
        return ";bdry=" + ",".join(rendered) if boundary else "", num, den
    except ValueError:
        return None, num, den


def format_rational(value: Fraction) -> str:
    """``numerator/denominator`` text, with the denominator always written.

    An interpreter that caps the digits of an integer it converts to text
    raises ValueError past the cap; that is refused as a precondition.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise _unprintable("a rational") from None


def printable_integer(value: int) -> int:
    """``value`` itself, once it is known to convert to text; past the
    interpreter's digit cap it is refused as in :func:`format_rational`."""
    try:
        str(value)
    except ValueError:
        raise _unprintable("an integer") from None
    return value


def _unprintable(what: str) -> PreconditionError:
    limit = sys.get_int_max_str_digits()
    return PreconditionError(f"{what} with over {limit} digits cannot be printed")


@cache
def _grammar() -> re.Pattern[str]:
    """The grammar of accepted text, compiled on first use, so that a
    program that parses nothing (``orb2d catalog``) does not pay for it.

    Whitespace (``\\s``, what str.split drops) may stand only between
    tokens; an INT is a run of ``\\d``, the characters that str.isdecimal
    and int() take.
    """
    s = r"\s*"
    ints = rf"\d+(?:{s},{s}\d+)*"
    circle = rf"(?:m|r{s}\({s}(?:{ints}{s})?\))"
    field = rf"(?:g|pun){s}={s}\d+|cones{s}={s}{ints}|bdry{s}={s}{circle}(?:{s},{s}{circle})*"
    return re.compile(rf"{s}[ON](?:{s};{s}(?:{field}))*{s}")


@cache
def _token() -> re.Pattern[str]:
    """One token of :func:`_token_walk`, compiled on first use, since only
    refused text is walked.

    A token is grammar punctuation (the commonest, so tried first), a run
    of decimal digits, a run of letters or one other character.  No
    alternative matches whitespace, so findall skips it between tokens.
    """
    return re.compile(r"[;=,()]|\d+|[^\W\d_]+|\S")


_FIELDS = ("g", "pun", "cones", "bdry")


def parse_signature(text: str) -> Signature:
    """Parse signature text into a canonical :class:`Signature`.

    Grammar (fields in any order, each at most once)::

        sig    := orient (';' field)*
        orient := 'O' | 'N'
        field  := 'g=' INT | 'pun=' INT | 'cones=' INT (',' INT)*
                | 'bdry=' bc (',' bc)*
        bc     := 'm' | 'r(' [INT (',' INT)*] ')'

    The ``g`` field is mandatory.  Whitespace may separate tokens but not
    split an integer or a name.  An INT is a run of any Unicode decimal
    digits, read as ``int()`` reads them.  A parse error is a
    :class:`SignatureSyntaxError` that reports its position.

    Well-formed text is confirmed by one match of the grammar and read
    with ``str.split``.  Text the match refuses, and text with a repeated
    or missing field or an integer ``int()`` refuses, goes to
    :func:`_token_walk`, which finds and reports the fault.
    """
    if _grammar().fullmatch(text):
        compact = "".join(text.split())
        flat = compact[2:].replace(";", "=").split("=")  # name, value, name, value, ...
        fields = dict(zip(flat[::2], flat[1::2]))
        if "g" in fields and 2 * len(fields) == len(flat):
            try:
                cones = list(map(int, fields["cones"].split(","))) if "cones" in fields else ()
                circles = _circles(fields["bdry"]) if "bdry" in fields else ()
                genus, punctures = int(fields["g"]), int(fields.get("pun", 0))
            except ValueError:
                pass  # past int()'s digit limit: the walk raises int()'s error where it meets it
            else:
                return Signature.make(compact[0] == "O", genus, punctures, circles, cones)
    return _token_walk(text)


def _circles(bdry: str) -> list[tuple[str, tuple[int, ...]]]:
    """``(kind, corners)`` of each circle in a well-formed ``bdry`` value,
    manifold circles first; :meth:`Signature.make` builds the circles."""
    circles = [_MANIFOLD_CIRCLE] * bdry.count("m")
    for piece in bdry.split("(")[1:]:
        corners = piece[: piece.index(")")]
        circles.append((MIRROR, tuple(map(int, corners.split(","))) if corners else ()))
    return circles


def _token_walk(text: str) -> Signature:
    """:func:`parse_signature` one token at a time, raising the first fault
    with its position."""
    tokens = _token().findall(text)
    tokens += "", ""  # end marks: a list scan reads one token past a last ','
    if not text.isascii():  # [^\W\d_] also takes numerals that isalpha refuses
        tokens = [part for token in tokens for part in _split_name(token)]
    if tokens[0][1:]:  # a name such as 'ON': its first letter is the orientation
        tokens[0:1] = tokens[0][0], tokens[0][1:]
    orient = tokens[0]
    if orient not in ("O", "N"):
        raise _error("expected orientation token 'O' or 'N'", text, tokens, 0)
    fields: dict[str, object] = {}
    i = 1
    while tokens[i]:
        name = tokens[i + 1]
        if tokens[i] != ";":
            raise _error("expected ';'", text, tokens, i)
        if name not in _FIELDS:  # the name read is the run of letters there, or ''
            raise _error(f"unknown field {(name if name.isalpha() else '')!r}", text, tokens, i + 1)
        if name in fields:
            raise _error(f"duplicate field {name!r}", text, tokens, i + 1)
        if tokens[i + 2] != "=":
            raise _error("expected '='", text, tokens, i + 2)
        if name != "bdry":
            value, i = _integers(text, tokens, i + 3, name == "cones")
            fields[name] = value if name == "cones" else value[0]
            continue
        fields[name] = circles = []
        i += 2
        while not circles or tokens[i] == ",":  # i is at the '=' or ',' before a circle
            if tokens[i + 1] == "m":
                circles.append(BoundaryCircle(MANIFOLD))
                i += 2
                continue
            if tokens[i + 1] != "r":
                raise _error("expected boundary circle 'm' or 'r(...)'", text, tokens, i + 1)
            if tokens[i + 2] != "(":
                raise _error("expected '('", text, tokens, i + 2)
            corners, i = ([], i + 3) if tokens[i + 3] == ")" else _integers(text, tokens, i + 3, True)
            if tokens[i] != ")":
                raise _error("expected ')'", text, tokens, i)
            circles.append(BoundaryCircle(MIRROR, tuple(corners)))
            i += 1
    if "g" not in fields:
        raise SignatureSyntaxError("missing mandatory field 'g'", len(text))
    return Signature.make(orient == "O", fields["g"], fields.get("pun", 0),
                          fields.get("bdry", ()), fields.get("cones", ()))


def _integers(text: str, tokens: list[str], i: int, many: bool) -> tuple[list[int], int]:
    """The integer at token ``i`` (``many``: the ','-list from there) and the next index."""
    end = i + 1
    while many and tokens[end] == ",":
        end += 2
    try:
        return list(map(int, tokens[i:end:2])), end
    except ValueError:
        for k in range(i, end, 2):
            if not tokens[k].isdecimal():
                raise _error("expected an integer", text, tokens, k) from None
            int(tokens[k])  # a run past int()'s digit limit raises int()'s own error


def _split_name(token: str) -> tuple[str, ...]:
    """``token`` cut where a name that begins it stops being ``isalpha``."""
    k = next((k for k, char in enumerate(token) if not char.isalpha()), 0)
    return (token[:k], token[k:]) if k else (token,)


def _error(message: str, text: str, tokens: list[str], k: int) -> SignatureSyntaxError:
    """A syntax error at token ``k``, or at the end of ``text`` for an end mark."""
    position = 0
    for token in tokens[:k]:
        position = text.index(token, position) + len(token)
    return SignatureSyntaxError(message, text.index(tokens[k], position) if tokens[k] else len(text))


def format_signature(sig: Signature) -> str:
    """Canonical text for a signature; ``parse_signature`` inverts it.

    An order past the interpreter's digit cap is refused as in
    :func:`format_rational`.
    """
    cones, boundary = _cone_part(sig.cones)[0], _boundary_part(sig.boundary)[0]
    if cones is None or boundary is None:
        raise _unprintable("an order")
    punctures = f";pun={sig.punctures}" if sig.punctures else ""
    return f"{'O' if sig.orientable else 'N'};g={sig.genus}{punctures}{cones}{boundary}"
