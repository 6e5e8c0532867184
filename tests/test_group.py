import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from orb2d.catalog import enumerate_signatures
from orb2d.classify import group_order_if_finite
from orb2d.group import (
    AbelianInvariants,
    IntegerMatrix,
    InternalInconsistencyError,
    Presentation,
    SmithForm,
    _check_smith,
    abelianization,
    presentation_of_closed,
    relation_matrix,
    render_presentation,
    smith_normal_form,
)
from orb2d.signature import PreconditionError, orbifold_euler, parse_signature
from test_acceptance import CONE_BOUNDS
import snf_reference


def sig(text):
    return parse_signature(text)


class TestPresentation:
    def test_triangle_orbifold(self):
        p = presentation_of_closed(sig("O;g=0;cones=2,3,5"))
        assert p.handle_pairs == 0
        assert p.cone_gens == (("x1", 2), ("x2", 3), ("x3", 5))
        assert p.relators == (
            (("x1", 1),) * 2,
            (("x2", 1),) * 3,
            (("x3", 1),) * 5,
            (("x1", 1), ("x2", 1), ("x3", 1)),
        )

    def test_torus(self):
        p = presentation_of_closed(sig("O;g=1"))
        assert p.generators == ("a1", "b1")
        assert p.relators == ((("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)),)

    def test_teardrop(self):
        p = presentation_of_closed(sig("O;g=0;cones=2"))
        assert p.relators == ((("x1", 1), ("x1", 1)), (("x1", 1),))

    def test_sphere(self):
        p = presentation_of_closed(sig("O;g=0"))
        assert p.generators == () and p.relators == ()

    @pytest.mark.parametrize("text", ["N;g=1", "O;g=0;bdry=m", "O;g=0;pun=1"])
    def test_rejects_non_reduced(self, text):
        with pytest.raises(PreconditionError):
            presentation_of_closed(sig(text))

    @pytest.mark.parametrize("text", ["O;g=0;cones=2,9999997", "O;g=2499999;cones=4"])
    def test_refuses_past_letter_ceiling(self, text):
        # One letter past MAX_RELATOR_LETTERS: 4g + k + the sum of the orders.
        with pytest.raises(PreconditionError):
            presentation_of_closed(sig(text))

    def test_rendering(self):
        assert render_presentation(presentation_of_closed(sig("O;g=1"))) == "<a1,b1 | [a1,b1]>"
        assert (
            render_presentation(presentation_of_closed(sig("O;g=1;cones=2")))
            == "<a1,b1,x1 | x1^2, [a1,b1] x1>"
        )
        assert render_presentation(presentation_of_closed(sig("O;g=0"))) == "< | >"


class TestRelationMatrix:
    def test_triangle(self):
        m = relation_matrix(presentation_of_closed(sig("O;g=0;cones=2,3,5")))
        assert list(m) == [(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 1, 1)]

    def test_torus_commutator_vanishes(self):
        m = relation_matrix(presentation_of_closed(sig("O;g=1")))
        assert list(m) == [(0, 0)]

    def test_genus_one_with_cones(self):
        m = relation_matrix(presentation_of_closed(sig("O;g=1;cones=2,2")))
        assert list(m) == [(0, 0, 2, 0), (0, 0, 0, 2), (0, 0, 1, 1)]


def brute_force_snf_2x2(m):
    """Oracle: search small unimodular transforms for a 2x2 Smith form."""
    unimodular = [
        sympy.Matrix(2, 2, entries)
        for entries in product(range(-3, 4), repeat=4)
        if abs(entries[0] * entries[3] - entries[1] * entries[2]) == 1
    ]
    matrix = sympy.Matrix(2, 2, [x for row in m for x in row])
    found = set()
    for left in unimodular:
        for right in unimodular:
            d = left * matrix * right
            if d[0, 1] == 0 and d[1, 0] == 0 and d[0, 0] >= 0 and d[1, 1] >= 0:
                if d[1, 1] == 0 or (d[0, 0] and d[1, 1] % d[0, 0] == 0):
                    found.add((d[0, 0], d[1, 1]))
    return found


class TestIntegerMatrix:
    @pytest.mark.parametrize("entry", [2.7, 2.0, "2", Fraction(2), None])
    def test_non_integer_entry_refused(self, entry):
        # A truncated or parsed entry would give the Smith form of another matrix.
        with pytest.raises(TypeError):
            IntegerMatrix([[entry, 1]])

    def test_bool_entry_reads_as_int(self):
        m = IntegerMatrix([[True, False]])
        assert m == ((1, 0),) and [type(x) for x in m[0]] == [int, int]

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError, match="ragged rows"):
            IntegerMatrix([[1, 2], [3]])


class TestSmithNormalForm:
    def test_identity(self):
        form = smith_normal_form(IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert form.diagonal == (1, 1, 1)

    @pytest.mark.parametrize("m,expected", [([[2, 0], [0, 3]], (1, 6)), ([[4, 0], [0, 6]], (2, 12))])
    def test_against_brute_force_oracle(self, m, expected):
        assert smith_normal_form(IntegerMatrix(m)).diagonal == expected
        assert expected in brute_force_snf_2x2(m)

    def test_zero_matrix(self):
        assert smith_normal_form(IntegerMatrix([[0, 0], [0, 0]])).diagonal == (0, 0)

    def test_empty_matrix(self):
        # No rows: the transforms are 0 x 0, whose determinant is 1.
        assert smith_normal_form(IntegerMatrix([])) == SmithForm((), (), ())

    def test_rectangular(self):
        form = smith_normal_form(IntegerMatrix([[2, 4, 4]]))
        assert form.diagonal == (2,)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_random_matrices_round_trip(self, rows, cols, data):
        entries = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        m = IntegerMatrix(entries)
        form = smith_normal_form(m)  # re-multiplication is verified internally
        chain = form.diagonal
        # The transforms, checked outside the module: left * m * right is the
        # diagonal, and both are unimodular.
        left = sympy.Matrix(form.left_transform)
        right = sympy.Matrix(form.right_transform)
        assert left * sympy.Matrix(entries) * right == sympy.diag(*chain, rows=rows, cols=cols)
        assert abs(left.det()) == 1 and abs(right.det()) == 1
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]) if a)
        assert all(d >= 0 for d in chain)
        # Independent implementation: sympy's Smith normal form.
        reference = sympy_snf(sympy.Matrix(entries), domain=sympy.ZZ)
        ref_diag = sorted(
            abs(reference[i, i]) for i in range(min(rows, cols))
        )
        assert sorted(chain) == ref_diag

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_invariant_factor_product_is_determinant(self, n, data):
        entries = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        det = sympy.Matrix(entries).det()
        diag = smith_normal_form(IntegerMatrix(entries)).diagonal
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det)


I2 = [[1, 0], [0, 1]]


class TestCheckSmith:
    """Each failure branch of the Smith form's self-check, on a hand-built form."""

    @pytest.mark.parametrize(
        "m,diagonal,left,right,message",
        [
            ([[1]], (2,), [[1]], [[1]], "does not re-multiply"),
            ([[2, 0], [0, 3]], (2, 3), I2, I2, "not a divisibility chain"),
            ([[0, 0], [0, 1]], (0, 1), I2, I2, "zero before nonzero"),
            ([[1]], (2,), [[2]], [[1]], "not unimodular"),
            # A left transform with a zero column re-multiplies the zero matrix.
            ([[0, 0], [0, 0]], (0, 0), [[0, 1], [0, 1]], I2, "not unimodular"),
        ],
        ids=["product", "chain", "zero-first", "unimodular", "unimodular-zero-column"],
    )
    def test_failure_branch(self, m, diagonal, left, right, message):
        form = SmithForm(diagonal, IntegerMatrix(left), IntegerMatrix(right))
        with pytest.raises(InternalInconsistencyError, match=message):
            _check_smith(IntegerMatrix(m), form)


class TestAbelianization:
    def test_spherical_triangle_trivial(self):
        p = presentation_of_closed(sig("O;g=0;cones=2,3,5"))
        assert abelianization(p) == AbelianInvariants(0, ())

    def test_genus_two(self):
        p = presentation_of_closed(sig("O;g=2"))
        assert abelianization(p) == AbelianInvariants(4, ())

    def test_four_cones_of_order_two(self):
        p = presentation_of_closed(sig("O;g=0;cones=2,2,2,2"))
        assert abelianization(p) == AbelianInvariants(0, (2, 2, 2))

    def test_sphere_trivial(self):
        assert abelianization(presentation_of_closed(sig("O;g=0"))) == AbelianInvariants(0, ())

    def test_torus(self):
        assert abelianization(presentation_of_closed(sig("O;g=1"))) == AbelianInvariants(2, ())

    @pytest.mark.parametrize("text", ["O;g=0;cones=2,3,5", "O;g=1;cones=2,4", "O;g=2;cones=3,3,3", "O;g=0;cones=6,6"])
    def test_shape_matches_free_rank_and_torsion_bound(self, text):
        s = sig(text)
        inv = abelianization(presentation_of_closed(s))
        assert inv.free_rank == 2 * s.genus
        assert len(inv.torsion) <= max(len(s.cones) - 1, 0)

    def test_monotone_in_cones_and_genus(self):
        # Growing the signature never shrinks (free rank, torsion count).
        for genus in range(3):
            previous = (-1, -1)
            for cones in ["", ";cones=2", ";cones=2,2", ";cones=2,2,3", ";cones=2,2,3,3"]:
                inv = abelianization(presentation_of_closed(sig(f"O;g={genus}{cones}")))
                key = (inv.free_rank, len(inv.torsion))
                assert key >= previous
                previous = key
        for cones in ["", ";cones=2,3", ";cones=5,5,5"]:
            previous = (-1, -1)
            for genus in range(4):
                inv = abelianization(presentation_of_closed(sig(f"O;g={genus}{cones}")))
                key = (inv.free_rank, len(inv.torsion))
                assert key >= previous
                previous = key


def whole_matrix_abelianization(p):
    """Oracle: the Smith form of the whole relation matrix, zero rows and columns included."""
    matrix = relation_matrix(p)
    if matrix.cols == 0:
        return AbelianInvariants(0, ())
    if matrix.rows == 0:
        return AbelianInvariants(matrix.cols, ())
    diagonal = smith_normal_form(matrix).diagonal
    free_rank = matrix.cols - len(diagonal) + sum(1 for d in diagonal if d == 0)
    return AbelianInvariants(free_rank, tuple(d for d in diagonal if d > 1))


class TestLiveBlock:
    def test_matches_whole_matrix_over_cone_bounds(self):
        count = 0
        for s in enumerate_signatures(CONE_BOUNDS):
            p = presentation_of_closed(s)
            assert abelianization(p) == whole_matrix_abelianization(p), str(s)
            count += 1
        assert count == 378

    def test_zero_column_in_the_middle_and_zero_row(self):
        # Columns a1, b1, x1, x2: b1 is in no relator, and a1 a1^-1 is a zero row.
        p = Presentation(
            1,
            (("x1", 4), ("x2", 6)),
            (
                (("a1", 1), ("a1", 1), ("x1", 1), ("x1", 1)),
                (("a1", 1), ("a1", -1)),
                (("x1", 1),) * 4,
                (("x2", 1),) * 6 + (("x1", 1), ("x1", 1)),
            ),
        )
        assert list(relation_matrix(p)) == [(2, 0, 2, 0), (0, 0, 0, 0), (0, 0, 4, 0), (0, 0, 2, 6)]
        assert abelianization(p) == AbelianInvariants(1, (2, 2, 12))
        assert abelianization(p) == whole_matrix_abelianization(p)

    def test_generators_without_relators_are_free(self):
        assert abelianization(Presentation(2, (), ())) == AbelianInvariants(4, ())

    def test_block_does_not_grow_with_genus(self, monkeypatch):
        import orb2d.group as group

        shapes = []
        snf = group.smith_normal_form
        monkeypatch.setattr(group, "smith_normal_form", lambda m: shapes.append((m.rows, m.cols)) or snf(m))
        inv = abelianization(presentation_of_closed(sig("O;g=1000;cones=2,3,5,7")))
        assert inv == AbelianInvariants(2000, ())
        assert shapes == [(5, 4)]

    def test_live_block_ceiling(self, monkeypatch):
        import orb2d.group as group

        def sphere(cones):
            return presentation_of_closed(sig("O;g=0;cones=" + ",".join(["7"] * cones)))

        def refused(m):
            raise AssertionError("the Smith form ran past the ceiling")

        with monkeypatch.context() as patch:
            patch.setattr(group, "smith_normal_form", refused)
            with pytest.raises(PreconditionError, match=str(group.MAX_LIVE_COLUMNS)):
                abelianization(sphere(group.MAX_LIVE_COLUMNS + 1))
        # The ceiling itself answers: k cones of order 7 on the sphere give (Z/7)^(k-1).
        inv = abelianization(sphere(group.MAX_LIVE_COLUMNS))
        assert inv == AbelianInvariants(0, (7,) * (group.MAX_LIVE_COLUMNS - 1))


class TestSmithReference:
    """The one-pass kernel returns the same diagonal and transforms as the
    kernel it replaced (``tests/snf_reference.py``)."""

    @pytest.mark.parametrize("zero_share", [0.0, 0.7])
    def test_seeded_random_matrices(self, zero_share):
        rng = random.Random(2018)
        for rows, cols in product(range(1, 7), repeat=2):
            for _ in range(25):
                m = IntegerMatrix(
                    [[0 if rng.random() < zero_share else rng.randint(-9, 9) for _ in range(cols)]
                     for _ in range(rows)]
                )
                assert smith_normal_form(m) == snf_reference.smith_normal_form(m), m

    def test_live_blocks_over_cone_bounds(self, monkeypatch):
        import orb2d.group as group

        blocks = []
        snf = group.smith_normal_form
        monkeypatch.setattr(group, "smith_normal_form", lambda m: blocks.append(m) or snf(m))
        count = 0
        for s in enumerate_signatures(CONE_BOUNDS):
            abelianization(presentation_of_closed(s))
            count += 1
        # O;g=0, O;g=1 and O;g=2 have no live block: no relator uses a generator.
        assert (count, len(blocks)) == (378, 375)
        for m in blocks:
            assert snf(m) == snf_reference.smith_normal_form(m), m


class TestGroupOrder:
    @pytest.mark.parametrize(
        "text,good,expected",
        [
            ("O;g=0;cones=3,3", True, 3),
            ("O;g=0;cones=2,3,5", True, 60),
            ("O;g=0;cones=2", False, 1),
            ("O;g=0;cones=4,6", False, 2),
            ("O;g=0", True, 1),
            # Not reduced: an end gives 1/chi, a bad mirror disk twice its double.
            ("O;g=0;bdry=m;cones=5", True, 5),
            ("O;g=0;pun=1", True, 1),
            ("N;g=1;cones=3", True, 6),
            ("O;g=0;bdry=r(4,4)", True, 8),
            ("O;g=0;bdry=r(2,3)", False, 2),
        ],
    )
    def test_examples(self, text, good, expected):
        s = sig(text)
        assert group_order_if_finite(s, orbifold_euler(s), good) == expected

    def test_rejects_nonpositive_chi(self):
        s = sig("O;g=1")
        with pytest.raises(PreconditionError):
            group_order_if_finite(s, orbifold_euler(s), True)

    def test_good_with_nonintegral_order_is_a_bug(self):
        s = sig("O;g=0;cones=2,3")  # bad; passing good=True must be caught
        with pytest.raises(InternalInconsistencyError):
            group_order_if_finite(s, orbifold_euler(s), True)

    def test_bad_off_the_list_is_a_bug(self):
        s = sig("O;g=0;cones=2,2")  # good; passing good=False must be caught
        with pytest.raises(InternalInconsistencyError, match="is not in the bad list"):
            group_order_if_finite(s, orbifold_euler(s), False)

    def test_abelian_cross_check(self):
        # Where the group is abelian, the abelianization order equals the
        # group order: S^2(3,3) -> Z/3, S^2(2,2,2) -> Z/2 x Z/2.
        for text, expected in [("O;g=0;cones=3,3", 3), ("O;g=0;cones=2,2,2", 4)]:
            s = sig(text)
            inv = abelianization(presentation_of_closed(s))
            order = 1
            for d in inv.torsion:
                order *= d
            assert inv.free_rank == 0
            assert order == expected == group_order_if_finite(s, orbifold_euler(s), True)
