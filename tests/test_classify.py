import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given

from conftest import signatures
from orb2d.catalog import CatalogBounds, catalog_records, enumerate_signatures
from orb2d.classify import Geometry, classify, is_bad_closed, theorem_check
from orb2d.group import InternalInconsistencyError, abelianization, presentation_of_closed
from orb2d.reduce import StepKind, reduce_to_closed
from orb2d.signature import PreconditionError, Signature, orbifold_euler, parse_signature
from test_acceptance import CONE_BOUNDS, suite


def sig(text):
    return parse_signature(text)


def order_along_reduction(s):
    """Group order of a finite ``s``, propagated back along its reduction.

    The closed end has order 2/chi when good, and is the teardrop (trivial)
    or the spindle (gcd of its cones) when bad.  Each 2-sheeted cover step
    doubles the order (index-2 subgroup).  With chi > 0 a manifold double
    only ever starts from a disk with at most one cone, whose group is
    cyclic of that cone's order.
    """
    trace = reduce_to_closed(s)
    final = trace.final
    if is_bad_closed(final):
        order = gcd(*final.cones) if len(final.cones) == 2 else 1
    else:
        two_over_chi = Fraction(2) / orbifold_euler(final)
        assert two_over_chi.denominator == 1, final
        order = int(two_over_chi)
    inputs = (s,) + tuple(step.result for step in trace.steps[:-1])
    for step, pre in zip(reversed(trace.steps), reversed(inputs)):
        if step.kind is StepKind.MANIFOLD_DOUBLE:
            assert pre.genus == 0 and len(pre.boundary) == 1 and len(pre.cones) <= 1, pre
            order = pre.cones[0] if pre.cones else 1
        elif step.kind is not StepKind.END_CUT:
            order *= 2
    return order


class TestBadList:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("O;g=0;cones=7", True),
            ("O;g=0;cones=2,3", True),
            ("O;g=0;cones=3,3", False),
            ("O;g=1;cones=5", False),
            ("O;g=0", False),
            ("O;g=0;cones=2,2,2", False),
        ],
    )
    def test_examples(self, text, expected):
        assert is_bad_closed(sig(text)) is expected

    def test_rejects_non_reduced(self):
        with pytest.raises(PreconditionError):
            is_bad_closed(sig("O;g=0;bdry=m"))


class TestClassify:
    def test_hyperbolic_triangle(self):
        c = classify(sig("O;g=0;cones=2,3,7"))
        assert c.euler == Fraction(-1, 42)
        assert c.good and not c.group_finite and c.group_order is None
        assert c.geometry is Geometry.HYPERBOLIC

    def test_bad_spindle(self):
        c = classify(sig("O;g=0;cones=2,3"))
        assert c.euler == Fraction(5, 6)
        assert not c.good and c.group_finite and c.group_order == 1
        assert c.geometry is Geometry.BAD_NO_GEOMETRY

    def test_cyclic_disk_quotient(self):
        c = classify(sig("O;g=0;bdry=m;cones=5"))
        assert c.euler == Fraction(1, 5)
        assert c.good and c.group_finite and c.group_order == 5
        assert c.geometry is Geometry.OPEN_OR_BOUNDED

    def test_torus(self):
        c = classify(sig("O;g=1"))
        assert c.euler == 0 and c.good and not c.group_finite
        assert c.geometry is Geometry.EUCLIDEAN

    def test_projective_plane_through_double(self):
        c = classify(sig("N;g=1"))
        assert c.good and c.group_finite and c.group_order == 2
        assert c.geometry is Geometry.SPHERICAL

    def test_nonorientable_with_cone(self):
        c = classify(sig("N;g=1;cones=3"))
        assert c.group_finite and c.group_order == 6

    def test_plane_trivial_group(self):
        c = classify(sig("O;g=0;pun=1"))
        assert c.good and c.group_finite and c.group_order == 1

    def test_bad_mirror_disks(self):
        # A mirror disk with one corner, or two corners of different
        # orders, doubles to a bad closed orbifold and is itself bad.
        one = classify(sig("O;g=0;bdry=r(3)"))
        assert not one.good and one.group_order == 2
        two = classify(sig("O;g=0;bdry=r(2,3)"))
        assert not two.good and two.group_order == 2
        equal = classify(sig("O;g=0;bdry=r(4,4)"))
        assert equal.good and equal.group_order == 8

    def test_spherical_triangle_disk(self):
        c = classify(sig("O;g=0;bdry=r(2,3,5)"))
        assert c.good and c.group_finite and c.group_order == 120

    @given(signatures())
    def test_finiteness_is_chi_sign(self, s):
        c = classify(s)
        assert c.group_finite == (orbifold_euler(s) > 0)

    @given(signatures())
    def test_reduced_field_matches_pipeline(self, s):
        c = classify(s)
        assert c.reduced.is_reduced
        assert c.good == (not is_bad_closed(c.reduced))

    def test_closed_form_matches_reduction_over_suite(self):
        # The closed-form verdict against the bad list of the reduced
        # signature, and the closed-form order of every finite group against
        # the order propagated back along the reduction, on every
        # acceptance-suite signature (no time bound).
        total = finite = 0
        for s in suite():
            total += 1
            c = classify(s)
            assert c.good == (not is_bad_closed(reduce_to_closed(s).final)), s
            if c.group_finite:
                finite += 1
                assert c.group_order == order_along_reduction(s), s
        assert (total, finite) == (521640, 72)

    @given(signatures(max_genus=2, max_cones=3, max_order=6))
    def test_abelianization_cross_check(self, s):
        # A positive free rank forces an infinite group, hence chi <= 0.
        inv = abelianization(presentation_of_closed(classify(s).reduced))
        if inv.free_rank > 0:
            assert orbifold_euler(s) <= 0

    @given(signatures())
    def test_geometry_tags(self, s):
        c = classify(s)
        if c.geometry in (Geometry.SPHERICAL, Geometry.EUCLIDEAN, Geometry.HYPERBOLIC):
            assert s.is_closed and c.good
            sign = {Geometry.SPHERICAL: 1, Geometry.EUCLIDEAN: 0, Geometry.HYPERBOLIC: -1}
            assert sign[c.geometry] == (c.euler > 0) - (c.euler < 0)
        elif c.geometry is Geometry.BAD_NO_GEOMETRY:
            assert not c.good
        else:
            assert c.good and not s.is_closed

    @given(signatures())
    def test_finite_good_orders_defined(self, s):
        # The order is read off the signature, so every finite verdict
        # comes with a concrete order and no infinite one has an order.
        c = classify(s)
        if c.group_finite:
            assert c.group_order is not None and c.group_order >= 1
        else:
            assert c.group_order is None


def test_answers_invariant_under_mirror_images():
    # A mirror image reverses corner sequences: every mirror circle at once
    # on an orientable surface, any one of them on a non-orientable surface.
    # It is the same orbifold seen in a mirror, so no answer may tell the
    # two apart.
    reversals = {}

    def reversal(circle):
        """The circle with its corners reversed, or None where that is a
        rotation of it, as it is for at most two corners."""
        if circle not in reversals:
            image = Signature.make(True, 0, 0, [circle._replace(corners=circle.corners[::-1])]).boundary[0]
            reversals[circle] = None if image == circle else image
        return reversals[circle]

    def answers(s):
        c = classify(s)
        return c.euler, c.good, c.group_finite, c.group_order, c.geometry, reduce_to_closed(s).final

    signatures = pairs = 0
    for s in suite():
        flips = [i for i, circle in enumerate(s.boundary) if reversal(circle) is not None]
        if not flips:
            continue
        images = set()
        for chosen in [flips] if s.orientable else [[i] for i in flips]:
            circles = list(s.boundary)
            for i in chosen:
                circles[i] = reversal(circles[i])
            images.add(Signature.make(s.orientable, s.genus, s.punctures, circles, s.cones))
        images.discard(s)  # reversing r(2,3,4) and r(2,4,3) together swaps them
        signatures += bool(images)
        pairs += len(images)
        # Each image is in the suite and has s among its own images, so
        # every pair is checked once, from its lesser signature.
        later = [image for image in images if image > s]
        if later:
            expected = answers(s)
            for image in later:
                assert answers(image) == expected, (s, image)
    assert (signatures, pairs) == (83_916, 84_672)


class TestSerialization:
    def test_record_field_order(self):
        record = classify(sig("O;g=0;cones=2,3")).to_record()
        assert list(record) == ["sig", "euler", "good", "finite", "order", "geometry"]

    def test_rational_always_with_denominator(self):
        assert classify(sig("O;g=0")).to_record()["euler"] == "2/1"

    def test_json_round_trip(self):
        c = classify(sig("N;g=2;pun=1;cones=2,4;bdry=r(3),m"))
        parsed = json.loads(c.to_json())
        assert parse_signature(parsed["sig"]) == c.signature
        assert parsed["geometry"] == c.geometry.value


# The benchmark's catalog (7,020 records) and the installed-command check's
# (80,325 records).
BENCHMARK_BOUNDS = CatalogBounds(
    max_genus=1, max_cones=2, max_order=4, max_boundary=2, max_corners_per_circle=2, max_punctures=2
)
CI_BOUNDS = CatalogBounds(
    max_genus=2, max_cones=3, max_order=5, max_boundary=2, max_corners_per_circle=2, max_punctures=2
)


def assert_template_is_json_dumps(c):
    line = c.to_json()
    assert line == json.dumps(c.to_record())
    assert "\\" not in line and json.dumps(json.loads(line)) == line


class TestJsonTemplate:
    @pytest.mark.parametrize("bounds", [BENCHMARK_BOUNDS, CONE_BOUNDS], ids=["benchmark", "cones"])
    def test_every_catalog_record(self, bounds):
        for s in enumerate_signatures(bounds):
            assert_template_is_json_dumps(classify(s))

    @pytest.mark.parametrize(
        "text",
        [
            "O;g=0;cones=4,6",  # bad: the spindle, of order gcd(4, 6)
            "O;g=1",  # chi = 0
            "O;g=2",  # order None
            "O;g=1000000",
            "N;g=1;cones=" + "9" * 300,  # order 2n, of 301 digits
            "N;g=3;pun=2;cones=2,5;bdry=m,r(2,3),r()",
        ],
        ids=["spindle", "chi-zero", "order-none", "genus-1e6", "order-301-digits", "every-part"],
    )
    def test_edge_cases(self, text):
        assert_template_is_json_dumps(classify(sig(text)))

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter prints integers of any length",
    )
    def test_unprintable_order_raises_as_the_record_does(self):
        past_cap = 10 ** sys.get_int_max_str_digits()
        # A cone order past the cap, and a printable cone order n whose
        # group order 4n is past it.
        for cones in [(past_cap,), (2, 2, past_cap - 1)]:
            c = classify(Signature(True, 0, 0, (), cones))
            with pytest.raises(PreconditionError, match="cannot be printed") as record:
                c.to_record()
            with pytest.raises(PreconditionError) as line:
                c.to_json()
            assert str(line.value) == str(record.value)

    @pytest.mark.parametrize("bounds", [BENCHMARK_BOUNDS, CI_BOUNDS], ids=["benchmark", "ci"])
    def test_catalog_lines_are_in_text_order(self, bounds):
        lines, summary = catalog_records(bounds)
        assert len(lines) == summary["total"]
        assert lines == sorted(lines, key=lambda line: json.loads(line)["sig"])


class TestTheoremCheck:
    @pytest.mark.parametrize(
        "text", ["O;g=0;cones=2,2,2,2", "O;g=0;pun=2", "O;g=0;cones=9", "N;g=1", "O;g=2"]
    )
    def test_representative_examples_pass(self, text):
        assert theorem_check(sig(text)) == classify(sig(text))

    @given(signatures())
    def test_always_consistent(self, s):
        # Any failure would be an implementation bug.
        assert theorem_check(s) == classify(s)

    @pytest.mark.parametrize(
        "text,good,clause",
        [
            ("O;g=1", False, "a:infinite-implies-good"),
            ("O;g=0;pun=1", False, "b:open-or-manifold-bounded-implies-good"),
            # chi = 5/6, so 2/chi = 12/5 is not an integer.
            ("O;g=0;cones=2,3", True, "c:spherical-order-integral"),
        ],
    )
    def test_violated_clause_raises(self, monkeypatch, text, good, clause):
        # The package attribute orb2d.classify is the function, not the module.
        module = sys.modules["orb2d.classify"]
        monkeypatch.setattr(module, "classify", lambda s: classify(s)._replace(good=good))
        with pytest.raises(InternalInconsistencyError) as info:
            theorem_check(sig(text))
        assert str(info.value) == f"theorem check failed for {text}: {clause}"

    def test_spherical_integrality_not_a_badness_test(self):
        # 2/chi can be integral for a bad orbifold: cones (3, 6).
        c = classify(sig("O;g=0;cones=3,6"))
        assert not c.good
        assert (Fraction(2) / c.euler).denominator == 1
