"""The character-at-a-time signature parser, kept as a reference.

``orb2d.signature.parse_signature`` reads the same grammar another way:
one regex match of the whole grammar accepts well-formed text, and a token
walk runs only on text the match refuses, to find and report its fault.
``test_signature.TestParserOracle`` checks that both parsers give an equal
``Signature`` or the same exception (type, message and position) on every
text.  This module needs neither pytest nor hypothesis, so the seed
texts can be compared on any interpreter::

    PYTHONPATH=src:tests python -c "import cursor_parser as c; print(c.check_seed_texts())"
"""
from __future__ import annotations

from typing import Callable, TypeVar

from orb2d.signature import (
    MANIFOLD,
    MIRROR,
    BoundaryCircle,
    Signature,
    SignatureSyntaxError,
    parse_signature,
)

_Item = TypeVar("_Item")

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
        # isdecimal, not isdigit: int() rejects superscripts and the like.
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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


def _parse_list(cur: _Cursor, read_item: Callable[[_Cursor], _Item]) -> list[_Item]:
    items = [read_item(cur)]
    while cur.peek() == ",":
        cur.pos += 1
        items.append(read_item(cur))
    return items


def _parse_circle(cur: _Cursor) -> BoundaryCircle:
    name, start = cur.read_name()
    if name == "m":
        return BoundaryCircle(MANIFOLD)
    if name == "r":
        cur.expect("(")
        corners: list[int] = []
        if cur.peek() != ")":
            corners = _parse_list(cur, _Cursor.read_int)
        cur.expect(")")
        return BoundaryCircle(MIRROR, tuple(corners))
    raise SignatureSyntaxError("expected boundary circle 'm' or 'r(...)'", start)


def cursor_parse(text: str) -> Signature:
    """Parse ``text`` one character at a time, as ``parse_signature`` did."""
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
            seen[name] = _parse_list(cur, _Cursor.read_int)
        else:
            seen[name] = _parse_list(cur, _parse_circle)
    if "g" not in seen:
        raise SignatureSyntaxError("missing mandatory field 'g'", len(text))

    return Signature.make(
        orientable=(orient == "O"),
        genus=seen["g"],  # type: ignore[arg-type]
        punctures=seen.get("pun", 0),  # type: ignore[arg-type]
        boundary=seen.get("bdry", ()),  # type: ignore[arg-type]
        cones=seen.get("cones", ()),  # type: ignore[arg-type]
    )


def outcome(parse: Callable[[str], Signature], text: str) -> object:
    """The signature ``parse`` returns, or the type, message and position
    of what it raises."""
    try:
        return parse(text)
    except Exception as err:
        return type(err), str(err), getattr(err, "position", None)


# Characters the grammar uses, characters where str.isspace, isdecimal or
# isalpha and the regexes could part ways, glued runs and an integer past
# int()'s 4,300-digit limit.
PIECES = (
    *"ONgpuncosbdrym=;,()0123456789 ",
    "\t", "\n", "\xa0", "\u2003", "\x1c", "\x85", "\u3000", "\u0663", "\uff11",
    "\xb2", "\xbd", "\xe9", "_",
    "ON", "g2", "m2", "r2", "O;", ";g=", ";pun=", ";cones=", ";bdry=", "r(",
    "7" * 5000,
)

SEED_TEXTS = (
    "", " ", "O", "N", "ON", "O;", "O;g=0", " O ; g = 0 ; cones = 2 , 3 ",
    "O;g=0;cones=2,3,7", "N;g=1;pun=2;bdry=m,r(2,3)", "O;g=0;bdry=r()",
    "O;g=1 0", "O;g=10", "O;g2=1", "O;g=0;cones=1 2", "O;g=0;cones=2,",
    "O;g=0;cones=", "O;g=0;cones=,2", "O;g=0;;", "O;g=0;g=1", "O;x=1",
    "O;g=0; Cones=2", "O;cones=2", "X;g=0", "o;g=0", "O;g=x",
    "O;g=0;bdry=r", "O;g=0;bdry=r(", "O;g=0;bdry=r(2", "O;g=0;bdry=r(,)",
    "O;g=0;bdry=q", "O;g=0;bdry=mm", "O;g=0;bdry=m2", "O;g=0;bdry=r2(2)",
    "O;g=0;bdry=m,", "O;g=0;bdry=m;", "O\t;\ng=\xa00\u2003", "O;g=\u0663",
    "O;g=1\u0663", "O;g=\xb2", "O;g=2\xb2", "O;g\xb2=1", "O\xb2;g=1",
    "O;g=0;bdry=m\xb2", "O;g=0;bdry=r\xb2(2)", "O;g=0;bdry=\xbdm",
    "O;\xbdg=1", "O;g\xe9=1", "O\xe9;g=1", "\xe9;g=1", "O;g=0;cones=2_3",
    "O;_g=0", "O;g=0;cones=" + "7" * 5000,
    "O;g=0;cones=" + "7" * 5000 + ",x", "O;g=0;cones=x," + "7" * 5000,
    "O;g=0;bdry=r(2,3,2,3)", "O;g=0;cones=1", "N;g=0", "O;g=0;bdry=r(1)",
    # Valid but for whitespace inside a name or an integer.
    "O;g=0;pu n=1", "O;g=0;co nes=2", "O;g=0;bdry=r(2 3)", "O;g=0;bdry=m m",
    "O;g=0;cones=2,3 ,4 5",
    "O ; g = 0 ; g = 1", "O;g=0;cones=" + "7" * 5000 + " ,x",
    "O;pun=" + "7" * 5001 + ";g=" + "7" * 5000,
)


def check_seed_texts() -> int:
    """Assert that both parsers agree on every seed text; return their count."""
    for text in SEED_TEXTS:
        expected, got = outcome(cursor_parse, text), outcome(parse_signature, text)
        assert got == expected, (text[:40], expected, got)
    return len(SEED_TEXTS)
