import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import signatures
from cursor_parser import PIECES, check_seed_texts, cursor_parse, outcome
from test_acceptance import suite
from orb2d.signature import (
    MANIFOLD,
    MIRROR,
    BoundaryCircle,
    Signature,
    SignatureSyntaxError,
    SignatureValueError,
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
