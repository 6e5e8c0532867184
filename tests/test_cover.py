import collections
import hashlib
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from orb2d.cover import (
    MAX_DEGREE,
    CoverWitness,
    VerifyResult,
    _cycle_type,
    _orbit_size,
    _relator_product,
    _Search,
    compose,
    cycles,
    degree_schedule,
    identity,
    inverse,
    manifold_cover_search,
    search_at_degree,
    verify_witness,
)
from orb2d.group import InternalInconsistencyError, presentation_of_closed, render_presentation
from orb2d.signature import PreconditionError, orbifold_euler, parse_signature
from test_acceptance import CONE_BOUNDS


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

    def test_orbit_size(self):
        # Tables a = (0 1)(2 3) and b: the orbit of 0 is {0, 1} under a
        # alone, and all four points once b joins 0 to 2.
        a = [1, 0, 3, 2]
        assert _orbit_size(4, [a]) == 2
        assert _orbit_size(4, [a, [2, 1, 0, 3]]) == 4
        # An unset entry (-1) read on the way gives 0; one outside the orbit
        # is never read.
        assert _orbit_size(4, [a, [2, 1, -1, 3]]) == 0
        assert _orbit_size(4, [a, [0, 1, -1, 3]]) == 2
        assert _orbit_size(4, []) == 1


@pytest.fixture
def built(monkeypatch):
    """The arguments of every _Search built, in place of the search."""
    import orb2d.cover as cover

    calls = []
    monkeypatch.setattr(cover, "_Search", lambda *args: calls.append(args))
    return calls


def reference_schedule(s, max_degree):
    """The degrees n <= max_degree that every cone order divides and with
    n * chi in {2, 0, -2, ...}, the Euler characteristic of a closed
    orientable surface."""
    chi = orbifold_euler(s)
    return [
        n
        for n in range(1, max_degree + 1)
        if all(n % p == 0 for p in s.cones)
        and (n * chi).denominator == 1
        and n * chi <= 2
        and n * chi % 2 == 0
    ]


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

    def test_matches_its_definition(self):
        from orb2d.catalog import enumerate_signatures

        compared = 0
        for s in enumerate_signatures(CONE_BOUNDS):
            reference = reference_schedule(s, 60)
            for max_degree in range(1, 61):
                assert degree_schedule(s, max_degree) == [n for n in reference if n <= max_degree], s
                compared += 1
        assert compared == 378 * 60
        for text in ["O;g=0", "O;g=1", "O;g=2;cones=2,3"]:
            s = sig(text)
            assert degree_schedule(s, MAX_DEGREE) == reference_schedule(s, MAX_DEGREE), text

    def test_rejects_non_reduced(self):
        with pytest.raises(PreconditionError):
            degree_schedule(sig("O;g=0;bdry=m"), 12)

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("N;g=1;cones=3", 3),
            ("O;g=0;pun=1;cones=2", 2),
            ("O;g=0;bdry=m;cones=2,2", 2),
            ("O;g=0;bdry=r(2)", 2),
        ],
    )
    def test_search_at_degree_rejects_non_reduced(self, built, text, degree):
        # The tables read only the genus and the cones, so a search would
        # answer for another signature; it is refused before one is built.
        with pytest.raises(PreconditionError):
            search_at_degree(sig(text), degree)
        assert built == []

    @pytest.mark.parametrize("search", [search_at_degree, manifold_cover_search, degree_schedule])
    @pytest.mark.parametrize("degree", [0, -1, MAX_DEGREE + 1, 10**6])
    def test_degree_out_of_range_refused(self, built, search, degree):
        with pytest.raises(PreconditionError, match=f"must be between 1 and {MAX_DEGREE}"):
            search(sig("O;g=1"), degree)
        assert built == []

    def test_non_divisible_degree_ends_before_the_search(self, built):
        # A cone generator of order p has only p-cycles, so p divides n;
        # every cone is tested, not only the first, whose blocks run sets.
        from orb2d.catalog import enumerate_signatures

        calls = 0
        for s in enumerate_signatures(CONE_BOUNDS):
            for n in range(1, 13):
                if any(n % p for p in s.cones):
                    assert search_at_degree(s, n) is None
                    calls += 1
        assert calls == 4017 and built == []


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
        from orb2d.catalog import enumerate_signatures
        from orb2d.classify import classify

        checked = 0
        for s in enumerate_signatures(CONE_BOUNDS):
            schedule = degree_schedule(s, 6)
            if not schedule or not classify(s).good:
                continue
            witness = manifold_cover_search(s, schedule[0])
            assert witness is not None, f"no witness for {s}"
            assert verify_witness(s, witness).ok
            # The first cone acts as the blocks of m consecutive points.
            if s.cones:
                m, n = s.cones[0], witness.degree
                blocks = [list(range(b, b + m)) for b in range(0, n, m)]
                assert witness.cone_images[0] == perm_of_cycles(n, blocks)
            checked += 1
        assert checked > 50

    def test_first_frame_finds_only_the_first_cone_set(self, monkeypatch):
        # run starts counting the points in use at 0, which holds if x_1
        # and what it deduces set no entry of another generator whenever
        # a slot is left open.  The first _next_slot call of each search is
        # made as run starts, before any frame opens.
        from orb2d.catalog import enumerate_signatures

        next_slot = _Search._next_slot
        started, opened = [], []

        def checked(search, gen, p):
            slot = next_slot(search, gen, p)
            if not started or started[-1] is not search:
                started.append(search)
                assert (gen, p) == (0, 0)
                assert slot is None or all(g == 0 for g, _, _ in search.trail), (search.n, slot)
                opened.append(slot is not None)
            return slot

        monkeypatch.setattr(_Search, "_next_slot", checked)
        for s in enumerate_signatures(CONE_BOUNDS):
            for n in degree_schedule(s, 12):
                search_at_degree(s, n)
        assert opened.count(True) > 100

    def test_riemann_hurwitz_on_returned_witnesses(self):
        for text in ["O;g=0;cones=2,2,2,3", "O;g=1;cones=2", "O;g=2", "O;g=0;cones=2,3,6"]:
            s = sig(text)
            witness = manifold_cover_search(s, 12)
            assert witness is not None
            cover_chi = witness.degree * orbifold_euler(s)
            assert cover_chi == 2 - 2 * witness.cover_genus
            assert cover_chi.denominator == 1 and int(cover_chi) % 2 == 0

    def test_max_degree_ceiling(self):
        assert manifold_cover_search(sig("O;g=1"), MAX_DEGREE).degree == 1
        with pytest.raises(PreconditionError):
            manifold_cover_search(sig("O;g=1"), MAX_DEGREE + 1)

    def test_depth_beyond_the_recursion_limit(self):
        # At degree 2 nearly every one of the 4g handle slots is its own
        # branch, so the search is deeper than Python's recursion limit.
        s = sig(f"O;g={sys.getrecursionlimit()}")
        witness = search_at_degree(s, 2)
        assert witness is not None and witness.degree == 2
        assert verify_witness(s, witness).ok

    def test_degree_one_builds_no_search_tables(self):
        # The one permutation of one point is the witness; a search would
        # hold 4g tables and a trail of 2g entries, about 29 MB at g = 20,000.
        s = sig("O;g=20000")
        tracemalloc.start()
        try:
            witness = search_at_degree(s, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness is not None and witness.degree == 1
        assert peak < 10_000_000

    def test_degree_one_in_linear_time_in_the_genus(self):
        # Degree 1 runs no search; the witness and its check are linear.
        start = time.perf_counter()
        witness = manifold_cover_search(sig("O;g=8000"), 1)
        assert time.perf_counter() - start < 5
        assert witness is not None and witness.degree == 1

    def test_degree_two_in_linear_time_in_the_genus(self):
        # Every handle entry's scans would cross the earlier handle letters,
        # a cost quadratic in the genus (25 s with the skip taken out, Python
        # 3.11 on 2 CPUs); no scan runs before b_g has an entry.
        start = time.perf_counter()
        witness = search_at_degree(sig("O;g=8000"), 2)
        assert time.perf_counter() - start < 5
        assert witness is not None and witness.degree == 2


# The brute force has its own cycle and orbit walks, so that a fault in the
# ones the search and the verifier share cannot hide from it.
def is_uniform(p, order):
    """Every point, fixed points included, returns after exactly order steps."""
    for start in range(len(p)):
        x, steps = p[start], 1
        while x != start:
            x, steps = p[x], steps + 1
        if steps != order:
            return False
    return True


def is_transitive(n, perms):
    """Whether the orbit of 0, grown until no generator adds a point, has n points."""
    orbit = {0}
    while (grown := orbit | {p[x] for p in perms for x in orbit}) != orbit:
        orbit = grown
    return len(orbit) == n


def uniform_perms(n, order):
    return [p for p in itertools.permutations(range(n)) if is_uniform(p, order)]


def brute_force_has_witness(s, n):
    """Whether any transitive representation of degree n has uniform cone
    cycle types: every choice of handle images and of all cone images but
    the last, with the last cone the inverse of their product."""
    k = 2 * s.genus
    choices = [list(itertools.permutations(range(n)))] * k
    choices += [uniform_perms(n, order) for order in s.cones[:-1]]
    for picks in itertools.product(*choices):
        prod = identity(n)
        for a, b in zip(picks[0:k:2], picks[1:k:2]):
            for factor in (a, b, inverse(a), inverse(b)):
                prod = compose(prod, factor)
        for x in picks[k:]:
            prod = compose(prod, x)
        if s.cones:
            last = inverse(prod)
            if not is_uniform(last, s.cones[-1]):
                continue
            picks += (last,)
        elif prod != identity(n):
            continue
        if is_transitive(n, picks):
            return True
    return False


def commutator_times(a, b, t):
    """a b a^-1 b^-1 t, composed left to right as the search reads it."""
    prod = a
    for factor in (b, inverse(a), inverse(b), t):
        prod = compose(prod, factor)
    return prod


class TestSearchAgainstBruteForce:
    def test_pruning_loses_no_witness(self):
        # Genus 0 up to degree 6, genus 1 up to 4 and genus 2 up to 3, with
        # every multiset of up to 4 cone orders in 2..6 dividing the degree;
        # genus 1 at degree 5 with at most one cone, where the last handle's
        # cycle-type cut fires; and two signatures whose first cone order
        # does not divide the degree, so the first cone has no image.
        cases = []
        for genus, top in ((0, 6), (1, 4), (2, 3)):
            for n in range(1, top + 1):
                orders = [p for p in range(2, 7) if n % p == 0]
                for size in range(5):
                    for cones in itertools.combinations_with_replacement(orders, size):
                        field = ";cones=" + ",".join(map(str, cones)) if cones else ""
                        cases.append((sig(f"O;g={genus}{field}"), n))
        cases += [(sig("O;g=1"), 5), (sig("O;g=1;cones=5"), 5)]
        cases += [(sig("O;g=1;cones=4"), 5), (sig("O;g=0;cones=3,3"), 4)]
        assert len(cases) == 107
        mismatches = []
        for s, n in cases:
            if (search_at_degree(s, n) is not None) != brute_force_has_witness(s, n):
                mismatches.append((s, n))
        assert mismatches == []


class TestHandleSlotCuts:
    def test_cycle_type_criterion_over_s4(self):
        # Some b solves a b a^-1 b^-1 T = 1 exactly when a and T a have the
        # same cycle type, for every a and T in S_4.
        perms = list(itertools.permutations(range(4)))
        fired = 0
        for a in perms:
            for t in perms:
                exists = any(commutator_times(a, b, t) == identity(4) for b in perms)
                fits = _cycle_type(a) == _cycle_type(compose(t, a))
                assert exists == fits, (a, t)
                fired += not fits
        assert 0 < fired < len(perms) ** 2

    def test_dead_end_at_the_last_handle(self):
        # Fill every table but b_2's at random; the search's cut must say
        # "dead end" exactly when no b_2 in S_4 satisfies the relator.
        rng = random.Random(10)
        perms = list(itertools.permutations(range(4)))
        outcomes = set()
        for _ in range(100):
            search = _Search(sig("O;g=2;cones=2,2"), 4)
            x1, x2, a1, b1, a2 = (rng.choice(perms) for _ in range(5))
            for gen, perm in enumerate((x1, x2, a1, b1, a2)):
                search.img[gen][:] = perm
                search.pre[gen][:] = inverse(perm)
            t = compose(compose(x1, x2), commutator_times(a1, b1, identity(4)))
            exists = any(commutator_times(a2, b, t) == identity(4) for b in perms)
            assert search._dead_end(5) == (not exists)
            outcomes.add(exists)
        assert outcomes == {True, False}

    def test_closed_short_orbit_is_a_dead_end(self):
        # a = identity and b(0) = 0 close the orbit {0} of a torus at
        # degree 3, so no completion is transitive; b(0) = 1 leaves it open.
        for b0, dead in ((0, True), (1, False)):
            search = _Search(sig("O;g=1"), 3)
            search.img[0][:] = search.pre[0][:] = [0, 1, 2]
            assert search._assign(1, 0, b0)
            assert search._dead_end(1) == dead


# perfbench's cover_certify and cover_refute ladders, copied so that the
# tests do not import the benchmark.  Each rung is a signature and a degree,
# the calls of _Search._next_slot and _Search._dead_end while that degree is
# searched, and the first 12 hex digits of the SHA-256 of the witness
# record, or None where theory rules out a witness.  The two counts pin the
# search tree: a node opens one frame or reaches a leaf, so a change that
# tries another image, or skips one, moves them.  _dead_end is asked at
# handle slots only, so never at genus 0, and degree 1 runs no search.
LADDER_RUNGS = (
    ("O;g=0;cones=2,2,2,2", 2, 3, 0, "3cc089965250"),
    ("O;g=0;cones=3,3,3", 3, 3, 0, "cac3b002366b"),
    ("O;g=0;cones=2,4,4", 4, 4, 0, "409b228716fc"),
    ("O;g=0;cones=2,3,6", 6, 5, 0, "635fad4dcc1e"),
    ("O;g=0;cones=2,2,3", 6, 3, 0, "fafb66c02ccb"),
    ("O;g=1", 1, 0, 0, "695bcf7bc61d"),
    ("O;g=1;cones=2", 4, 10, 9, "192f05f552f8"),
    ("O;g=0;cones=2,5,5", 20, 16, 0, "12fcfc3f7787"),
    ("O;g=0;cones=3,3,4", 24, 13, 0, "e2bc9447ff80"),
    ("O;g=0;cones=2,3,4", 24, 14, 0, "9f284f3b41ae"),
    ("O;g=0;cones=3,4,4", 12, 12, 0, "d3654bd285f7"),
    ("O;g=0;cones=3,3,7", 21, 14, 0, "610c1252e33b"),
    ("O;g=0;cones=4,5,5", 40, 27, 0, "2455ebb88981"),
    ("O;g=0;cones=2,3,10", 30, 22, 0, "3db411293340"),
    ("O;g=0;cones=2,3,12", 24, 16, 0, "2908a596b3ae"),
    ("O;g=0;cones=2,5,6", 30, 24, 0, "992928921940"),
    ("O;g=0;cones=2,7,7", 28, 25, 0, "450c695d107a"),
    ("O;g=0;cones=2,4,10", 40, 28, 0, "b38f569ca673"),
    ("O;g=0;cones=3,6,9", 36, 28, 0, "b349a902adef"),
    ("O;g=0;cones=2,9,9", 36, 33, 0, "3e61595d743d"),
    ("O;g=0;cones=3,3,8", 48, 28, 0, "b7feb2ff2cfc"),
    ("O;g=0;cones=2,3,14", 42, 30, 0, "6f6e6ec65e54"),
    ("O;g=0;cones=2,6,8", 48, 38, 0, "1bdd4f933191"),
    ("O;g=0;cones=2,4,5", 40, 30, 0, "e6f375995bbf"),
    ("O;g=0;cones=2,6,10", 60, 51, 0, "6f87d3119932"),
    ("O;g=0;cones=3", 3, 0, 0, None),
    ("O;g=0;cones=2,3", 6, 0, 0, None),
    ("O;g=0;cones=2,6,6", 6, 14, 0, None),
    ("O;g=0;cones=2,2,2,3", 6, 16, 0, None),
    ("O;g=0;cones=2,3,8", 8, 0, 0, None),
    ("O;g=1;cones=6", 6, 1957, 1957, None),
    ("O;g=1;cones=2", 6, 342, 342, None),
    ("O;g=0;cones=2,5,5", 10, 77, 0, None),
)
CERTIFY_LADDER = tuple(text for text, *_, digest in LADDER_RUNGS if digest)


def count_calls(monkeypatch, *names):
    """A Counter of the calls of the named _Search methods from now on."""
    calls = collections.Counter()
    for name in names:

        def counted(search, *args, name=name, method=getattr(_Search, name)):
            calls[name] += 1
            return method(search, *args)

        monkeypatch.setattr(_Search, name, counted)
    return calls


class TestPinnedWitnesses:
    def test_certify_ladder_witnesses_unchanged(self):
        witnesses = []
        for text in CERTIFY_LADDER:
            s = sig(text)
            witnesses.append(manifold_cover_search(s, degree_schedule(s, 64)[0]))
        digest = hashlib.sha256(json.dumps([w.to_record() for w in witnesses]).encode()).hexdigest()
        assert digest == "ff4e230521d15551b56ae148db981549107c1ab3f48e4eb161921994478ab192"

    @pytest.mark.parametrize(
        "text,degree,next_slots,dead_ends,digest", LADDER_RUNGS, ids=[f"{t}@{n}" for t, n, *_ in LADDER_RUNGS]
    )
    def test_ladder_search_trees_unchanged(self, monkeypatch, text, degree, next_slots, dead_ends, digest):
        calls = count_calls(monkeypatch, "_next_slot", "_dead_end")
        witness = search_at_degree(sig(text), degree)
        found = witness and hashlib.sha256(json.dumps(witness.to_record()).encode()).hexdigest()[:12]
        assert (calls["_next_slot"], calls["_dead_end"]) == (next_slots, dead_ends)
        assert found == digest

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("O;g=0;cones=2,3,5", 30),
            ("O;g=0;cones=2,2,2,4", 12),
            ("O;g=0;cones=2,6,6", 18),
            ("O;g=0;cones=2,4,6", 12),
        ],
    )
    def test_refutations_that_finish(self, text, degree):
        assert search_at_degree(sig(text), degree) is None

    @pytest.mark.parametrize(
        "text,degree,digest",
        [
            ("O;g=1", 10, "0731337ddec9f80d52dc2a719cac83a14dbbdd18d06c9540e57f824beb206521"),
            ("O;g=1;cones=2,3", 12, "625cd260b46678d0dc5d46471e5709b9911461d5774371abe5f0abbf89a10cca"),
        ],
    )
    def test_genus_one_witnesses_unchanged(self, text, degree, digest):
        # The first witnesses in search order with or without the
        # handle-slot cuts, which skip only branches that hold none.
        witness = search_at_degree(sig(text), degree)
        assert hashlib.sha256(json.dumps(witness.to_record()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("text,degree", [("O;g=0;cones=2,3,7", 84), ("O;g=0;cones=2,3,8", 48)])
    def test_triangle_witnesses_in_reach(self, text, degree):
        s = sig(text)
        witness = search_at_degree(s, degree)
        assert witness is not None and witness.degree == degree
        assert verify_witness(s, witness).ok


def scan_is_consistent(search, alpha, start):
    """Reference scan of the rotation that begins at letter start, from alpha.

    Reads forwards through search.fwd and backwards through search.bwd as
    far as the tables go.  A rotation read to the end must close at alpha;
    a gap of exactly one letter means an entry the search should have
    deduced, and meeting ends that disagree mean a contradiction.
    """
    end = start + len(search.word)
    f, i = alpha, start
    while i < end and search.fwd[i][f] != -1:
        f = search.fwd[i][f]
        i += 1
    if i == end:
        return f == alpha
    b, j = alpha, end
    while j > i and search.bwd[j - 1][b] != -1:
        b = search.bwd[j - 1][b]
        j -= 1
    return j - i > 1


def assert_fixed_point(search):
    """Every rotation of the long relator scans as consistent from every point."""
    for alpha in range(search.n):
        for start in range(len(search.word)):
            assert scan_is_consistent(search, alpha, start), (alpha, start)


class TestDeductionQueue:
    @pytest.mark.parametrize(
        "text,degree,found",
        [
            ("O;g=0;cones=2,4,5", 40, True),
            ("O;g=0;cones=2,5,5", 10, False),
            ("O;g=1;cones=2", 6, False),
            ("O;g=1;cones=6", 6, False),
            ("O;g=2;cones=2,2", 2, True),
            ("O;g=3", 2, True),
            # Genus >= 1 searches whose scans from b_g's entries deduce.
            ("O;g=2;cones=4", 8, True),
            ("O;g=1;cones=2,3", 12, True),
            ("O;g=1;cones=3,3", 9, True),
        ],
    )
    def test_search_propagations_reach_the_fixed_point(self, monkeypatch, text, degree, found):
        propagate = _Search._propagate
        fixed_points = []

        def checked(search):
            ok = propagate(search)
            if ok:
                assert_fixed_point(search)
                fixed_points.append(search.n)
            return ok

        monkeypatch.setattr(_Search, "_propagate", checked)
        assert (search_at_degree(sig(text), degree) is not None) == found
        assert fixed_points

    @pytest.mark.parametrize(
        "text,degree",
        [("O;g=1", 4), ("O;g=1;cones=2", 4), ("O;g=2;cones=2,2", 4), ("O;g=3", 4), ("O;g=1;cones=2,3", 6)],
    )
    def test_slot_order_reaches_the_fixed_point(self, text, degree):
        # _propagate scans one rotation per new entry, which reaches the
        # fixed point when the generators are filled in slot order, each
        # table full before the next is begun, whatever the points and
        # images within a generator.  So fill the generators in slot order,
        # each one's points shuffled and each given a random free image.
        # The fixed point must hold both while b_g's table is empty, when no
        # scan runs, and after it has entries.
        rng = random.Random(6)
        fixed_points = 0
        last_empty = set()
        for _ in range(300):
            search = _Search(sig(text), degree)
            slots = []
            for gen in range(search.ngens):
                points = list(range(degree))
                rng.shuffle(points)
                slots += [(gen, p) for p in points]
            for gen, p in slots:
                if search.img[gen][p] != -1:
                    continue
                free = [q for q in range(degree) if search.pre[gen][q] == -1]
                if not (search._assign(gen, p, rng.choice(free)) and search._propagate()):
                    break
                assert_fixed_point(search)
                fixed_points += 1
                last_empty.add(search.img[-1].count(-1) == degree)
        assert fixed_points > 300
        assert last_empty == {True, False}


class TestVerifyWitness:
    def setup_method(self):
        self.sig = sig("O;g=0;cones=2,2,2,2")
        self.witness = manifold_cover_search(self.sig, 4)

    def test_valid(self):
        assert verify_witness(self.sig, self.witness).ok

    def test_cycle_type_failure(self):
        broken = self.witness._replace(cone_images=self.witness.cone_images[:3] + (identity(2),))
        result = verify_witness(self.sig, broken)
        assert not result.ok and result.failure.startswith("cycle type")

    def test_relator_failure(self):
        a = perm_of_cycles(4, [[0, 1], [2, 3]])
        b = perm_of_cycles(4, [[0, 2], [1, 3]])
        broken = CoverWitness(4, (), (a, a, b, a), Fraction(0), 1)
        # Every cone image has all cycles of length 2, but the product
        # a a b a = b a is (0 3)(1 2), not the identity.
        result = verify_witness(self.sig, broken)
        assert not result.ok and result.failure.startswith("relator")

    def test_transitivity_failure(self):
        torus = sig("O;g=1")
        padded = CoverWitness(2, ((identity(2), identity(2)),), (), Fraction(0), 1)
        result = verify_witness(torus, padded)
        assert not result.ok and result.failure.startswith("transitivity")

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_fails_transitivity(self, degree):
        # No points: the orbit walk would have no point 0 to start from.
        result = verify_witness(sig("O;g=0"), CoverWitness(degree, (), (), Fraction(0), 1))
        assert not result.ok and result.failure.startswith("transitivity")

    def test_euler_failure(self):
        broken = self.witness._replace(cover_genus=2, cover_euler=Fraction(-2))
        result = verify_witness(self.sig, broken)
        assert not result.ok and result.failure.startswith("euler")

    def test_degree_mismatch_raises(self):
        broken = self.witness._replace(cone_images=self.witness.cone_images[:3] + (identity(3),))
        with pytest.raises(ValueError):
            verify_witness(self.sig, broken)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_witness(sig("O;g=0;cones=2,2"), self.witness)

    def test_non_reduced_signature_refused(self):
        with pytest.raises(PreconditionError):
            verify_witness(sig("O;g=0;pun=1;cones=2,2,2,2"), self.witness)


def test_long_relator_spellings_agree():
    # The presentation, its text, the search's word and the verifier's
    # product each spell the long relator [a1,b1] ... [ag,bg] x1 ... xk.
    from orb2d.catalog import enumerate_signatures

    rng = random.Random(5)
    checked = 0
    for s in enumerate_signatures(CONE_BOUNDS):
        k, g = len(s.cones), s.genus
        names = [f"x{i + 1}" for i in range(k)] + [f"{ab}{j + 1}" for j in range(g) for ab in "ab"]
        word = tuple((names[gen], sign) for gen, sign in _Search(s, 1).word)
        if not word:
            continue
        checked += 1
        presentation = presentation_of_closed(s)
        assert presentation.relators[-1] == word, s
        text = render_presentation(presentation)[:-1].split(" | ")[1].split(", ")[-1]
        spelled = []
        for a, b, x in re.findall(r"\[(\w+),(\w+)\]|(\w+)", text):
            spelled += [(a, 1), (b, 1), (a, -1), (b, -1)] if a else [(x, 1)]
        assert tuple(spelled) == word, s
        product = identity(5)
        while product == identity(5):
            images = {name: tuple(rng.sample(range(5), 5)) for name in names}
            for name, sign in word:
                product = compose(product, images[name] if sign > 0 else inverse(images[name]))
        handles = tuple((images[f"a{j + 1}"], images[f"b{j + 1}"]) for j in range(g))
        witness = CoverWitness(5, handles, tuple(images[f"x{i + 1}"] for i in range(k)), Fraction(0), 1)
        assert _relator_product(witness) == product, s
    assert checked == 377
