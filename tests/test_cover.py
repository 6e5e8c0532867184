from dataclasses import replace
from fractions import Fraction

import pytest

from orb2d.cover import (
    CoverWitness,
    VerifyResult,
    compose,
    cycles,
    degree_schedule,
    identity,
    inverse,
    manifold_cover_search,
    search_at_degree,
    verify_witness,
)
from orb2d.group import InternalInconsistencyError
from orb2d.signature import PreconditionError, orbifold_euler, parse_signature


def sig(text):
    return parse_signature(text)


def perm_of_cycles(n, cycle_list):
    images = list(range(n))
    for cycle in cycle_list:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


class TestPermutationHelpers:
    def test_compose_left_to_right(self):
        p = perm_of_cycles(3, [[0, 1]])
        q = perm_of_cycles(3, [[1, 2]])
        assert compose(p, q) == (2, 0, 1)  # 0 -> 1 -> 2

    def test_inverse(self):
        p = perm_of_cycles(4, [[0, 1, 2]])
        assert compose(p, inverse(p)) == identity(4)

    def test_cycles_sorted_by_least_element(self):
        p = perm_of_cycles(6, [[4, 5], [0, 2, 1]])
        assert cycles(p) == [[0, 2, 1], [4, 5]]


class TestDegreeSchedule:
    def test_spherical_degree_forced(self):
        assert degree_schedule(sig("O;g=0;cones=2,2,3"), 12) == [6]

    def test_spherical_nonintegral_degree_empty(self):
        assert degree_schedule(sig("O;g=0;cones=2,3"), 12) == []
        assert degree_schedule(sig("O;g=0;cones=5"), 100) == []

    def test_euclidean_multiples_of_lcm(self):
        assert degree_schedule(sig("O;g=0;cones=2,4,4"), 12) == [4, 8, 12]

    def test_hyperbolic_even_cover_euler(self):
        # chi = -1/6: degree 6 gives odd cover Euler characteristic.
        assert degree_schedule(sig("O;g=0;cones=2,2,2,3"), 12) == [12]

    def test_max_degree_below_lcm(self):
        assert degree_schedule(sig("O;g=0;cones=2,2,2,2"), 1) == []

    def test_rejects_non_reduced(self):
        with pytest.raises(PreconditionError):
            degree_schedule(sig("O;g=0;bdry=m"), 12)


class TestSearch:
    @pytest.mark.parametrize(
        "text,degree",
        [
            ("O;g=0;cones=2,2,2,2", 2),
            ("O;g=0;cones=3,3,3", 3),
            ("O;g=0;cones=2,4,4", 4),
            ("O;g=0;cones=2,3,6", 6),
            ("O;g=0;cones=2,2,3", 6),
            ("O;g=1", 1),
        ],
    )
    def test_known_witnesses(self, text, degree):
        s = sig(text)
        witness = manifold_cover_search(s, 12)
        assert witness is not None and witness.degree == degree
        assert verify_witness(s, witness).ok

    def test_degree_two_witness_shape(self):
        s = sig("O;g=0;cones=2,2,2,2")
        witness = manifold_cover_search(s, 4)
        transposition = perm_of_cycles(2, [[0, 1]])
        assert witness.cone_images == (transposition,) * 4
        assert witness.cover_euler == 0 and witness.cover_genus == 1

    def test_bad_orbifolds_have_no_witness(self):
        assert manifold_cover_search(sig("O;g=0;cones=5"), 12) is None
        assert manifold_cover_search(sig("O;g=0;cones=2,3"), 12) is None

    def test_teardrop_forced_identity(self):
        # Unit fact: with a single cone the long relator forces the cone
        # image to be the identity, which has cycle length 1, not p.
        assert search_at_degree(sig("O;g=0;cones=3"), 3) is None
        assert search_at_degree(sig("O;g=0;cones=3"), 6) is None

    def test_spindle_forced_equal_cycle_types(self):
        # Unit fact: x1 x2 = 1 forces X2 = X1^{-1}, whose cycle type
        # equals X1's, so orders 2 and 3 cannot both be uniform.
        assert search_at_degree(sig("O;g=0;cones=2,3"), 6) is None
        two_cycles = perm_of_cycles(6, [[0, 1], [2, 3], [4, 5]])
        assert {len(c) for c in cycles(inverse(two_cycles))} == {2}

    def test_determinism(self):
        s = sig("O;g=0;cones=2,2,3,3")
        assert manifold_cover_search(s, 12) == manifold_cover_search(s, 12)

    def test_invalid_witness_is_internal_inconsistency(self, monkeypatch):
        import orb2d.cover as cover

        monkeypatch.setattr(cover, "verify_witness", lambda s, w: VerifyResult(False, "stub"))
        with pytest.raises(InternalInconsistencyError, match="invalid witness: stub"):
            search_at_degree(sig("O;g=0;cones=2,4,4"), 4)

    def test_good_small_signatures_all_covered(self):
        # Desk-scale completeness: every good signature in the bounds
        # whose first feasible degree is at most 6 has a witness there.
        from orb2d.catalog import CatalogBounds, enumerate_signatures
        from orb2d.classify import classify

        bounds = CatalogBounds(max_genus=2, max_cones=4, max_order=6, orientable_only=True)
        checked = 0
        for s in enumerate_signatures(bounds):
            schedule = degree_schedule(s, 6)
            if not schedule or not classify(s).good:
                continue
            witness = manifold_cover_search(s, schedule[0])
            assert witness is not None, f"no witness for {s}"
            assert verify_witness(s, witness).ok
            checked += 1
        assert checked > 50

    def test_riemann_hurwitz_on_returned_witnesses(self):
        for text in ["O;g=0;cones=2,2,2,3", "O;g=1;cones=2", "O;g=2", "O;g=0;cones=2,3,6"]:
            s = sig(text)
            witness = manifold_cover_search(s, 12)
            assert witness is not None
            cover_chi = witness.degree * orbifold_euler(s)
            assert cover_chi == 2 - 2 * witness.cover_genus
            assert cover_chi.denominator == 1 and int(cover_chi) % 2 == 0


class TestVerifyWitness:
    def setup_method(self):
        self.sig = sig("O;g=0;cones=2,2,2,2")
        self.witness = manifold_cover_search(self.sig, 4)

    def test_valid(self):
        assert verify_witness(self.sig, self.witness).ok

    def test_cycle_type_failure(self):
        broken = replace(
            self.witness, cone_images=self.witness.cone_images[:3] + (identity(2),)
        )
        result = verify_witness(self.sig, broken)
        assert not result.ok and result.failure.startswith("cycle type")

    def test_relator_failure(self):
        flip = perm_of_cycles(2, [[0, 1]])
        broken = CoverWitness(2, (), (flip, flip, flip, inverse(flip)), Fraction(0), 1)
        # All cycle types fine, but the product is a transposition.
        result = verify_witness(sig("O;g=0;cones=2,2,2,3"), broken)
        assert not result.ok

    def test_transitivity_failure(self):
        torus = sig("O;g=1")
        padded = CoverWitness(2, ((identity(2), identity(2)),), (), Fraction(0), 1)
        result = verify_witness(torus, padded)
        assert not result.ok and result.failure.startswith("transitivity")

    def test_euler_failure(self):
        broken = replace(self.witness, cover_genus=2, cover_euler=Fraction(-2))
        result = verify_witness(self.sig, broken)
        assert not result.ok and result.failure.startswith("euler")

    def test_degree_mismatch_raises(self):
        broken = replace(self.witness, cone_images=self.witness.cone_images[:3] + (identity(3),))
        with pytest.raises(ValueError):
            verify_witness(self.sig, broken)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_witness(sig("O;g=0;cones=2,2"), self.witness)
