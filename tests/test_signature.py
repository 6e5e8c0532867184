import hashlib
import random
import re
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signatures
from cursor_parser import PIECES, check_seed_texts, cursor_parse, outcome
from test_acceptance import suite
from orb2d import signature
from orb2d.cli import main
from orb2d.signature import (
    MANIFOLD,
    MIRROR,
    BoundaryCircle,
    PreconditionError,
    Signature,
    SignatureSyntaxError,
    SignatureValueError,
    _boundary_part,
    _cone_part,
    format_rational,
    format_signature,
    min_rotation,
    orbifold_euler,
    parse_signature,
    underlying_euler,
)


class TestParse:
    def test_sphere_with_cones(self):
        sig = parse_signature("O;g=0;cones=2,3,5")
        assert sig.orientable and sig.genus == 0
        assert sig.cones == (2, 3, 5)

    def test_projective_plane(self):
        sig = parse_signature("N;g=1")
        assert not sig.orientable and sig.genus == 1

    def test_teardrop(self):
        sig = parse_signature("O;g=0;cones=2")
        assert sig.cones == (2,)

    def test_whitespace_ignored(self):
        assert parse_signature(" O ; g = 0 ; cones = 2 , 3 ") == parse_signature("O;g=0;cones=2,3")

    def test_fields_any_order(self):
        assert parse_signature("O;cones=2;g=1;pun=1") == parse_signature("O;g=1;pun=1;cones=2")

    def test_missing_g_rejected(self):
        with pytest.raises(SignatureSyntaxError):
            parse_signature("O;cones=2")

    def test_duplicate_field_rejected(self):
        with pytest.raises(SignatureSyntaxError):
            parse_signature("O;g=0;g=1")

    def test_syntax_error_reports_position(self):
        with pytest.raises(SignatureSyntaxError) as err:
            parse_signature("O;g=x")
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text,message,position",
        [("O;x=1", "unknown field 'x'", 2), ("O;g=0; Cones=2", "unknown field 'Cones'", 7)],
    )
    def test_unknown_field_reports_name_and_position(self, text, message, position):
        with pytest.raises(SignatureSyntaxError, match=f"^{message} \\(at position {position}\\)$") as err:
            parse_signature(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "genus,punctures,boundary,message",
        [
            (-1, 0, (), "genus must be nonnegative"),
            (0, -1, (), "punctures must be nonnegative"),
            (0, 0, (BoundaryCircle(MANIFOLD, (2,)),), "manifold circle cannot carry corners"),
            (0, 0, (BoundaryCircle("q"),), "unknown boundary kind 'q'"),
        ],
    )
    def test_make_rejects_out_of_domain_fields(self, genus, punctures, boundary, message):
        with pytest.raises(SignatureValueError, match=f"^{message}$"):
            Signature.make(True, genus, punctures, boundary)

    @pytest.mark.parametrize(
        "genus,punctures,boundary,cones",
        [
            (1.5, 0, (), ()),
            (1, 0.0, (), ()),
            (1, 0, (), (2.5, 3)),
            (1, 0, (BoundaryCircle(MIRROR, (2, 3.0)),), ()),
            (True, 1.5, (), (2.5, 3)),
        ],
    )
    def test_make_refuses_non_integers(self, genus, punctures, boundary, cones):
        with pytest.raises(TypeError):
            Signature.make(True, genus, punctures, boundary, cones)

    def test_make_reads_bools_as_integers(self):
        sig = Signature.make(False, True, True, [BoundaryCircle(MIRROR, (3, 2))], [3, 2])
        assert format_signature(sig) == "N;g=1;pun=1;cones=2,3;bdry=r(2,3)"
        assert type(sig.genus) is type(sig.punctures) is int
        assert format_signature(Signature.make(True, True)) == "O;g=1"
        with pytest.raises(SignatureValueError, match="^cone order 1 < 2$"):
            Signature.make(True, 0, cones=[True, 3])
        with pytest.raises(SignatureValueError, match="^corner order 1 < 2$"):
            Signature.make(True, 0, boundary=[BoundaryCircle(MIRROR, (2, True))])

    @pytest.mark.parametrize("orientable", [2, "yes", None])
    def test_make_refuses_non_bool_orientable(self, orientable):
        # Kept as given, 2 would print O;g=0 yet compare unequal to the
        # signature made from True.  The type is checked before the genus.
        with pytest.raises(TypeError, match="^orientable must be a bool"):
            Signature.make(orientable, -1)

    @pytest.mark.parametrize("orientable,text", [(True, "O;g=1;cones=2"), (False, "N;g=1;cones=2")])
    def test_make_takes_bool_orientable(self, orientable, text):
        sig = Signature.make(orientable, 1, cones=[2])
        assert sig.orientable is orientable
        assert sig == parse_signature(text) and format_signature(sig) == text

    def test_bad_orientation_token(self):
        with pytest.raises(SignatureSyntaxError):
            parse_signature("X;g=0")

    def test_cone_order_below_two(self):
        with pytest.raises(SignatureValueError):
            parse_signature("O;g=0;cones=1")

    def test_corner_order_below_two(self):
        with pytest.raises(SignatureValueError):
            parse_signature("O;g=0;bdry=r(1)")

    def test_nonorientable_genus_zero(self):
        with pytest.raises(SignatureValueError):
            parse_signature("N;g=0")

    def test_mirror_circle_empty_corners(self):
        sig = parse_signature("O;g=0;bdry=r()")
        assert sig.boundary == (BoundaryCircle(MIRROR, ()),)


class TestParserOracle:
    """The token parser against the character-at-a-time parser it replaced:
    an equal signature, or the same exception type, message and position."""

    def test_seed_texts(self):
        assert check_seed_texts() > 0

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
    def test_joined_pieces(self, text):
        assert outcome(parse_signature, text) == outcome(cursor_parse, text)

    @settings(max_examples=500)
    @given(signatures(), st.lists(st.tuples(st.integers(0, 200), st.sampled_from(PIECES)), max_size=4))
    def test_canonical_text_with_pieces_inserted(self, sig, insertions):
        text = format_signature(sig)
        for at, piece in insertions:
            at %= len(text) + 1
            text = text[:at] + piece + text[at:]
        assert outcome(parse_signature, text) == outcome(cursor_parse, text)


    @settings(max_examples=300)
    @given(signatures(), st.data())
    def test_loose_spellings_take_the_grammar_match(self, sig, data):
        text = data.draw(loose_spellings(sig))
        refuse = AssertionError(f"{text!r} fell to the token walk")
        with mock.patch.object(signature, "_token_walk", side_effect=refuse):
            assert parse_signature(text) == sig
        assert cursor_parse(text) == sig

    def test_character_classes_agree(self):
        """The grammar's \\s and \\d take what str.split, str.isspace,
        str.isdecimal and int() take, over every code point."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.sub(r"\s", "", every) == "".join(every.split())
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        digits = re.findall(r"\d", every)
        assert digits == [c for c in every if c.isdecimal()]
        numerals = [c for c in every if c.isnumeric()]
        assert [c for c in numerals if _reads_as_int(c)] == digits


def _reads_as_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# Whitespace that requests put at token boundaries, and digits in other scripts.
_BLANKS = " \t\n\xa0\x1c\x85\u3000"
_DIGIT_SCRIPTS = [str.maketrans("0123456789", "".join(map(chr, range(zero, zero + 10))))
                  for zero in (ord("0"), 0x0660, 0xFF10)]


@st.composite
def loose_spellings(draw, sig):
    """``sig`` spelled as requests spell it: fields, cones and circles
    shuffled, corners rotated, an explicit ``pun=0`` now and then,
    whitespace at token boundaries and some digits in another script."""
    fields = [("g", str(sig.genus))]
    if sig.punctures or draw(st.booleans()):
        fields.append(("pun", str(sig.punctures)))
    if sig.cones:
        fields.append(("cones", ",".join(map(str, draw(st.permutations(sig.cones))))))
    circles = []
    for circle in sig.boundary:
        turn = draw(st.integers(0, max(len(circle.corners) - 1, 0)))
        corners = circle.corners[turn:] + circle.corners[:turn]
        circles.append("m" if circle.kind == MANIFOLD else "r(" + ",".join(map(str, corners)) + ")")
    if circles:
        fields.append(("bdry", ",".join(draw(st.permutations(circles)))))
    text = ("O" if sig.orientable else "N") + "".join(f";{n}={v}" for n, v in draw(st.permutations(fields)))
    tokens = re.findall(r"[;=,()]|\d+|[a-zA-Z]+", text)
    tokens = [t.translate(draw(st.sampled_from(_DIGIT_SCRIPTS))) if t.isdigit() else t for t in tokens]
    blanks = draw(st.lists(st.text(_BLANKS, max_size=2), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(b + t for b, t in zip(blanks, tokens + [""]))


class TestFormat:
    def test_cones_sorted(self):
        sig = Signature.make(True, 0, cones=[5, 3, 2])
        assert format_signature(sig) == "O;g=0;cones=2,3,5"

    def test_disk(self):
        sig = Signature.make(True, 0, boundary=[BoundaryCircle(MANIFOLD)])
        assert format_signature(sig) == "O;g=0;bdry=m"

    def test_minimal_rotation(self):
        sig = Signature.make(True, 0, boundary=[BoundaryCircle(MIRROR, (3, 2))])
        assert format_signature(sig) == "O;g=0;bdry=r(2,3)"

    def test_manifold_circles_sort_first(self):
        sig = parse_signature("O;g=0;bdry=r(2),m")
        assert format_signature(sig) == "O;g=0;bdry=m,r(2)"

    def test_punctures_omitted_when_zero(self):
        assert format_signature(parse_signature("O;g=1;pun=0")) == "O;g=1"


class TestCanonicalization:
    def test_min_rotation(self):
        assert min_rotation((3, 2, 2)) == (2, 2, 3)
        assert min_rotation(()) == ()
        assert min_rotation((4,)) == (4,)

    def test_rotation_is_cyclic_not_sorted(self):
        # (3, 2, 4) rotates to (2, 4, 3), not to the sorted (2, 3, 4).
        assert min_rotation((3, 2, 4)) == (2, 4, 3)

    @given(st.lists(st.integers(2, 4), max_size=12).map(tuple))
    def test_min_rotation_is_least_of_all_rotations(self, seq):
        rotations = (seq[i:] + seq[:i] for i in range(len(seq)))
        assert min_rotation(seq) == min(rotations, default=seq)

    def test_long_mirror_circle_parses_in_linear_time(self):
        corners = (3,) + (2,) * 99_999
        text = "O;g=0;bdry=r(" + ",".join(map(str, corners)) + ")"
        start = time.perf_counter()
        sig = parse_signature(text)
        assert time.perf_counter() - start < 1.0
        assert sig.boundary[0].corners == corners[1:] + corners[:1]

    @given(signatures())
    def test_round_trip(self, sig):
        assert parse_signature(format_signature(sig)) == sig

    @given(signatures())
    def test_make_idempotent(self, sig):
        again = Signature.make(sig.orientable, sig.genus, sig.punctures, sig.boundary, sig.cones)
        assert again == sig

    @given(signatures())
    def test_invariant_under_input_reordering(self, sig):
        rng = random.Random(0)
        cones = list(sig.cones)
        rng.shuffle(cones)
        boundary = [
            BoundaryCircle(c.kind, c.corners[1:] + c.corners[:1]) for c in sig.boundary
        ]
        rng.shuffle(boundary)
        shuffled = Signature.make(sig.orientable, sig.genus, sig.punctures, boundary, cones)
        assert shuffled == sig
        assert orbifold_euler(shuffled) == orbifold_euler(sig)

    def test_has_end_reads_the_first_circle(self):
        # has_end reads only the first circle, which canonical order makes
        # a manifold circle whenever there is one.
        for sig in suite():
            assert sig.has_end == (sig.punctures > 0 or any(c.kind == MANIFOLD for c in sig.boundary))

    def test_has_mirror_reads_the_last_circle(self):
        # has_mirror reads only the last circle, which canonical order makes
        # a mirror circle whenever there is one.
        for sig in suite():
            assert sig.has_mirror == any(c.kind == MIRROR for c in sig.boundary)


class TestEuler:
    @pytest.mark.parametrize(
        "text,expected",
        [("O;g=0", 2), ("O;g=1", 0), ("N;g=1;bdry=m", 0), ("O;g=2", -2), ("N;g=2", 0)],
    )
    def test_underlying(self, text, expected):
        assert underlying_euler(parse_signature(text)) == expected

    # Expected values computed term by term with Fraction, independently
    # of the accumulation in orbifold_euler.
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("O;g=0;cones=2,3,5", Fraction(1, 30)),
            ("O;g=0;bdry=r()", Fraction(1)),
            ("O;g=0;bdry=r(2,2,2)", Fraction(1, 4)),
            ("O;g=0;cones=2", Fraction(3, 2)),
        ],
    )
    def test_orbifold_examples(self, text, expected):
        assert orbifold_euler(parse_signature(text)) == expected

    @given(signatures())
    def test_matches_termwise_oracle(self, sig):
        chi = Fraction(underlying_euler(sig))
        for p in sig.cones:
            chi -= 1 - Fraction(1, p)
        for n in (n for c in sig.boundary for n in c.corners):
            chi -= Fraction(1, 2) * (1 - Fraction(1, n))
        assert orbifold_euler(sig) == chi

    @given(signatures())
    def test_at_most_underlying(self, sig):
        chi = orbifold_euler(sig)
        assert chi <= underlying_euler(sig)
        singular = sig.cones or tuple(n for c in sig.boundary for n in c.corners)
        assert (chi == underlying_euler(sig)) == (not singular)

    def test_many_cones_in_linear_time(self):
        # A denominator multiplied by every order, divisor or not, would
        # grow with the cone count and make χ quadratic in it.
        sig = Signature(True, 0, 0, (), (7,) * 128_000)
        start = time.perf_counter()
        chi = orbifold_euler(sig)
        assert time.perf_counter() - start < 0.5
        assert chi == 2 - 128_000 * Fraction(6, 7)

    def test_classical_surface_spot_table(self):
        assert orbifold_euler(parse_signature("O;g=0")) == 2
        assert orbifold_euler(parse_signature("O;g=1")) == 0
        assert orbifold_euler(parse_signature("O;g=2")) == -2


def _plain_format(sig):
    """The canonical text built field by field and circle by circle, with no memo."""
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


def _plain_defects():
    """χ's defect per cone multiset and per boundary multiset as a plain
    Fraction sum, each part summed once."""
    cones, boundaries = {}, {}

    def defects(sig):
        if sig.cones not in cones:
            cones[sig.cones] = sum((Fraction(p - 1, p) for p in sig.cones), Fraction(0))
        if sig.boundary not in boundaries:
            corners = (n for circle in sig.boundary for n in circle.corners)
            boundaries[sig.boundary] = sum((Fraction(n - 1, 2 * n) for n in corners), Fraction(0))
        return cones[sig.cones], boundaries[sig.boundary]

    return defects


class TestPartMemo:
    """format_signature and orbifold_euler read each signature's cone and
    boundary parts through bounded memos; the memos change no answer."""

    MEMOS = (_cone_part, _boundary_part)
    SUITE_DIGEST = "2a21e93593c04de948bde70bcf3ff3a2dd1792ee5d06a5d948388756dc42b868"

    def _digest(self, sigs, check=None):
        digest = hashlib.sha256()
        for sig in sigs:
            text, chi = format_signature(sig), orbifold_euler(sig)
            if check:
                check(sig, text, chi)
            digest.update(f"{text} {format_rational(chi)}\n".encode())
        return digest.hexdigest()

    def test_cold_and_warm_match_plain_oracles_over_suite(self):
        defects = _plain_defects()

        def check(sig, text, chi):
            cone_defect, corner_defect = defects(sig)
            assert text == _plain_format(sig)
            assert chi == underlying_euler(sig) - cone_defect - corner_defect, text

        sigs = list(suite())
        for memo in self.MEMOS:
            memo.cache_clear()
        # Cleared, every part is built on its first signature and checked
        # there; warm, every part is read back, and the digest shows the
        # same text and χ for every signature.
        assert self._digest(sigs, check) == self.SUITE_DIGEST
        assert self._digest(sigs) == self.SUITE_DIGEST

    def test_memos_stay_within_their_bound(self):
        for sig in suite():
            orbifold_euler(sig)
        for memo in self.MEMOS:
            info = memo.cache_info()
            assert 0 < info.currsize <= info.maxsize, info

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter prints integers of any length",
    )
    def test_unprintable_order_has_euler_but_no_text(self):
        order = 10 ** sys.get_int_max_str_digits()
        sig = Signature(True, 0, 0, (BoundaryCircle(MIRROR, (order,)),), (order,))
        assert orbifold_euler(sig) == underlying_euler(sig) - Fraction(order - 1, order) - Fraction(order - 1, 2 * order)
        with pytest.raises(PreconditionError, match="cannot be printed"):
            format_signature(sig)

    def test_benchmark_catalog_records_file(self, capsys, tmp_path):
        target = tmp_path / "catalog.jsonl"
        bounds = ["--max-genus", "1", "--max-cones", "2", "--max-order", "4",
                  "--max-boundary", "2", "--max-corners", "2", "--max-punctures", "2"]
        assert main(["catalog", *bounds, "--out", str(target)]) == 0
        assert capsys.readouterr().out == "total=7020 good=7008 bad=12 finite=39 infinite=6981\n"
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == "bb032eb7a04719e8da6419ada1acd35f5b5f4ff8a6ef1d08783ee671bc41c574"
