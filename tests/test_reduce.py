import hashlib
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import signatures
from orb2d.catalog import CatalogBounds, enumerate_signatures
from orb2d.reduce import (
    Relationship,
    StepKind,
    end_cut,
    manifold_double,
    mirror_double,
    orientation_double,
    reduce_final,
    reduce_to_closed,
)
from orb2d.signature import (
    PreconditionError,
    format_signature,
    orbifold_euler,
    parse_signature,
)


def sig(text):
    return parse_signature(text)


class TestOrientationDouble:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("N;g=1", "O;g=0"),
            ("N;g=2", "O;g=1"),
            ("N;g=1;cones=3", "O;g=0;cones=3,3"),
            ("N;g=1;pun=1;bdry=r(4),m", "O;g=0;pun=2;bdry=m,m,r(4),r(4)"),
        ],
    )
    def test_examples(self, source, expected):
        step = orientation_double(sig(source))
        assert step.result == sig(expected)
        assert step.kind is StepKind.ORIENTATION_DOUBLE
        assert step.relationship is Relationship.TWO_SHEETED_ORBIFOLD_COVER

    def test_rejects_orientable(self):
        with pytest.raises(PreconditionError):
            orientation_double(sig("O;g=0"))

    def test_chi_doubles(self):
        source = sig("N;g=1;cones=3")
        assert orbifold_euler(orientation_double(source).result) == 2 * orbifold_euler(source)


class TestMirrorDouble:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("O;g=0;bdry=r(2,3)", "O;g=0;cones=2,3"),
            ("O;g=0;bdry=r()", "O;g=0"),
            ("O;g=0;bdry=r(2,2,2)", "O;g=0;cones=2,2,2"),
            ("O;g=1;pun=1;cones=5;bdry=m,r(4),r()", "O;g=3;pun=2;cones=4,5,5;bdry=m,m"),
        ],
    )
    def test_examples(self, source, expected):
        step = mirror_double(sig(source))
        assert step.result == sig(expected)
        assert step.relationship is Relationship.TWO_SHEETED_ORBIFOLD_COVER

    def test_rejects_nonorientable(self):
        with pytest.raises(PreconditionError):
            mirror_double(sig("N;g=1;bdry=r()"))

    def test_rejects_mirrorless(self):
        with pytest.raises(PreconditionError):
            mirror_double(sig("O;g=0;bdry=m"))


class TestEndCut:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("O;g=0;pun=1;cones=3", "O;g=0;cones=3;bdry=m"),
            ("O;g=1;pun=2", "O;g=1;bdry=m,m"),
            ("O;g=0;pun=1", "O;g=0;bdry=m"),
        ],
    )
    def test_examples(self, source, expected):
        step = end_cut(sig(source))
        assert step.result == sig(expected)
        assert step.relationship is Relationship.SAME_ORBIFOLD_RECOMPACTIFIED

    def test_chi_preserved(self):
        source = sig("N;g=2;pun=3;cones=2,7")
        assert orbifold_euler(end_cut(source).result) == orbifold_euler(source)

    def test_rejects_unpunctured(self):
        with pytest.raises(PreconditionError):
            end_cut(sig("O;g=0"))


class TestManifoldDouble:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("O;g=0;cones=5;bdry=m", "O;g=0;cones=5,5"),
            ("O;g=0;bdry=m,m", "O;g=1"),
            ("O;g=0;bdry=m", "O;g=0"),
        ],
    )
    def test_examples(self, source, expected):
        step = manifold_double(sig(source))
        assert step.result == sig(expected)
        assert step.relationship is Relationship.SUBORBIFOLD_OF_DOUBLE

    @pytest.mark.parametrize(
        "source", ["N;g=1;bdry=m", "O;g=0;bdry=r()", "O;g=0;pun=1;bdry=m", "O;g=1"]
    )
    def test_rejects_out_of_domain(self, source):
        with pytest.raises(PreconditionError):
            manifold_double(sig(source))


class TestPipeline:
    def test_already_reduced(self):
        trace = reduce_to_closed(sig("O;g=0;cones=2,3,7"))
        assert trace.steps == ()
        assert trace.final == trace.start

    def test_mirror_example(self):
        trace = reduce_to_closed(sig("N;g=1;bdry=r(4)"))
        assert [s.kind for s in trace.steps] == [
            StepKind.ORIENTATION_DOUBLE,
            StepKind.MIRROR_DOUBLE,
        ]
        assert format_signature(trace.final) == "O;g=1;cones=4,4"
        assert orbifold_euler(trace.start) == Fraction(-3, 8)
        assert orbifold_euler(trace.final) == Fraction(-3, 2)

    def test_puncture_example(self):
        trace = reduce_to_closed(sig("O;g=0;pun=1;cones=2,2"))
        assert [s.kind for s in trace.steps] == [StepKind.END_CUT, StepKind.MANIFOLD_DOUBLE]
        assert format_signature(trace.final) == "O;g=0;cones=2,2,2,2"
        assert orbifold_euler(trace.start) == 0 == orbifold_euler(trace.final)

    @given(signatures())
    def test_final_is_reduced(self, start):
        trace = reduce_to_closed(start)
        final = trace.final
        assert final.is_reduced
        assert not final.boundary and final.punctures == 0

    @given(signatures())
    def test_chi_transfer(self, start):
        trace = reduce_to_closed(start)
        chi = orbifold_euler(start)
        for step in trace.steps:
            result_chi = orbifold_euler(step.result)
            if step.kind is StepKind.END_CUT:
                assert result_chi == chi
            else:
                assert result_chi == 2 * chi
            chi = result_chi

    @given(signatures())
    def test_sign_preserved(self, start):
        trace = reduce_to_closed(start)
        a, b = orbifold_euler(start), orbifold_euler(trace.final)
        assert (a > 0) == (b > 0) and (a == 0) == (b == 0)

    @given(signatures())
    def test_idempotent_on_outputs(self, start):
        final = reduce_to_closed(start).final
        again = reduce_to_closed(final)
        assert again.steps == () and again.final == final

    @given(signatures())
    def test_relationship_tags(self, start):
        for step in reduce_to_closed(start).steps:
            if step.kind in (StepKind.ORIENTATION_DOUBLE, StepKind.MIRROR_DOUBLE):
                assert step.relationship is Relationship.TWO_SHEETED_ORBIFOLD_COVER
            elif step.kind is StepKind.END_CUT:
                assert step.relationship is Relationship.SAME_ORBIFOLD_RECOMPACTIFIED
            else:
                assert step.relationship is Relationship.SUBORBIFOLD_OF_DOUBLE

    @given(signatures())
    def test_fast_path_matches_trace(self, start):
        assert reduce_final(start) == reduce_to_closed(start).final

    @given(signatures())
    def test_even_cone_count_after_duplication(self, start):
        trace = reduce_to_closed(start)
        duplicating = {StepKind.MANIFOLD_DOUBLE, StepKind.ORIENTATION_DOUBLE}
        if trace.steps and trace.steps[-1].kind in duplicating:
            assert len(trace.final.cones) % 2 == 0


# Every step of every signature in these bounds, one line per step.  A
# double that keeps χ but not the signature (four order-2 corners turned
# into one more handle, say) passes the χ tests above and fails here.
TRACE_BOUNDS = CatalogBounds(
    max_genus=1,
    max_cones=2,
    max_order=4,
    max_boundary=2,
    max_corners_per_circle=3,
    max_punctures=1,
)
TRACE_DIGEST = "f99dc3516c5650e6c373bc25646f757f5fa83d37dd8fb13c001b6a552a18efc0"


def test_pinned_traces():
    digest = hashlib.sha256()
    count = 0
    for start in enumerate_signatures(TRACE_BOUNDS, max_corner_order=4):
        count += 1
        for step in reduce_to_closed(start).steps:
            digest.update(f"{step.kind.value} {format_signature(step.result)}\n".encode())
    assert count == 16_560
    assert digest.hexdigest() == TRACE_DIGEST
