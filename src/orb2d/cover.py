"""Constructive goodness certificates: finite manifold orbifold-covers.

A degree-n manifold cover of a closed orientable cone-only orbifold is
certified by a transitive permutation representation of its fundamental
group in which every cone generator of order p acts with all cycles of
length exactly p (so every local group injects trivially upstairs).

The search is depth-first backtracking over partial permutation tables.
The first cone generator x_1, of order m, is set to the blocks of m
consecutive points, to which every permutation with all cycles of length
m is conjugate.  The other cone generators are searched next and the
handle generators after, with three prunings: exact-cycle-length
propagation, Felsch-style deduction (each new table entry scans one
rotation of the long relator, the one that begins with its generator,
which suffices in the search's slot order; Sims, *Computation with
Finitely Presented Groups*, 1994), and new points introduced in
increasing order, a block at a time: of the blocks that no other
generator touches only the first is tried, since a permutation commuting
with x_1 carries any of them there (symmetry breaking, which also makes
the search deterministic).  A skipped branch is conjugate to an earlier
sibling, so the first witness found, and every refutation, is the same as
without these rules.  Two more tests cut branches that hold no witness,
asked only when the open slot is a handle generator's: an orbit of 0 that
the set entries already close, short of all n points (no completion is
transitive), and, while the table of the last handle generator b is
still empty, so that the open slot is its first, an a that is not
conjugate to T a, where T is the rest of the relator (no b solves
a b a^-1 b^-1 T = 1).

The deduction skips the scans that cannot deduce: while the table of the
last handle generator b has no entry, no rotation of the long relator can
be read to within one letter of closing, since b and b^-1 are two of its
letters, so the entries set meanwhile are not scanned.  A scan that later
deduces reads through an entry of b, whose own scan covers it.  Likewise
x_1 is written into its tables with no scan when the relator has three
letters or more: a scan from an x_1 entry stops forwards at the next
letter and backwards at the last, leaving at least two letters unread, so
it can neither deduce nor contradict, and a later scan that can reads
through a newer entry.  With one or two letters, the scans from x_1
refute the teardrop or deduce x_2 = x_1^-1 on the two-cone sphere.

The search state is the tables, one trail of the entries set in them and
an explicit stack of open branches, so Python's recursion limit does not
bound the depth.  The trail past its head is the deduction queue, and
backtracking truncates it.  New points come in whole blocks, so the
points in use are a prefix, which each branch counts.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index
from typing import NamedTuple

from .signature import InternalInconsistencyError, PreconditionError, Signature, format_rational, orbifold_euler

Perm = tuple[int, ...]

# Largest degree that search_at_degree and manifold_cover_search accept: far
# above any degree whose search finishes, small enough to list the schedule.
MAX_DEGREE = 10_000


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles(p: Perm) -> list[list[int]]:
    """Disjoint cycles of length at least 2, sorted by least element."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        node = p[start]
        while node != start:
            seen[node] = True
            cyc.append(node)
            node = p[node]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def _cycle_type(p: Perm) -> list[int]:
    """Sorted cycle lengths, fixed points included."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if not seen[start]:
            node, length = start, 0
            while not seen[node]:
                seen[node] = True
                node = p[node]
                length += 1
            lengths.append(length)
    return sorted(lengths)


class CoverWitness(NamedTuple):
    degree: int
    handle_images: tuple[tuple[Perm, Perm], ...]
    cone_images: tuple[Perm, ...]
    cover_euler: Fraction
    cover_genus: int

    def to_record(self) -> dict:
        return {
            "degree": self.degree,
            "handles": [[cycles(a), cycles(b)] for a, b in self.handle_images],
            "cones": [cycles(x) for x in self.cone_images],
            "cover_euler": format_rational(self.cover_euler),
            "cover_genus": self.cover_genus,
        }


class VerifyResult(NamedTuple):
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _relator_product(w: CoverWitness) -> Perm:
    """The long relator's permutation, its letters applied left to right."""
    image = list(range(w.degree))
    for a, b in w.handle_images:
        for f in (a, b, inverse(a), inverse(b)):
            image = [f[x] for x in image]
    for f in w.cone_images:
        image = [f[x] for x in image]
    return tuple(image)


def _orbit_size(n: int, tables: list) -> int:
    """The size of the orbit of 0 through tables on n > 0 points, read in
    their order; 0 as soon as a read meets an unset entry (-1)."""
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        node = frontier.pop()
        for row in tables:
            nxt = row[node]
            if nxt == -1:
                return 0
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                frontier.append(nxt)
    return count


def verify_witness(sig: Signature, w: CoverWitness) -> VerifyResult:
    """Re-check all witness invariants; the search shares only the
    cycle-type and orbit walks.

    Diagnostics name the first failed invariant, in the order: uniform
    cycle type, relator, transitivity, Euler bookkeeping.
    """
    if not sig.is_reduced:
        raise PreconditionError("witnesses certify closed orientable cone-only signatures")
    if len(w.cone_images) != len(sig.cones) or len(w.handle_images) != sig.genus:
        raise ValueError("witness shape does not match the signature")
    all_perms = [p for pair in w.handle_images for p in pair] + list(w.cone_images)
    for p in all_perms:
        if len(p) != w.degree or sorted(p) != list(range(w.degree)):
            raise ValueError("permutation degree mismatch or non-bijective image")

    for x, p in zip(w.cone_images, sig.cones):
        if set(_cycle_type(x)) - {p}:
            return VerifyResult(False, f"cycle type: a cone generator of order {p} has a cycle of other length")
    if _relator_product(w) != tuple(range(w.degree)):
        return VerifyResult(False, "relator: long relator does not act as the identity")
    if w.degree < 1 or _orbit_size(w.degree, all_perms) != w.degree:
        return VerifyResult(False, "transitivity: the action is not transitive")
    expected = w.degree * orbifold_euler(sig)
    if w.cover_euler != expected or w.cover_euler != 2 - 2 * w.cover_genus or w.cover_genus < 0:
        return VerifyResult(False, "euler: cover_euler != degree * chi = 2 - 2 * cover_genus")
    return VerifyResult(True)


def degree_schedule(sig: Signature, max_degree: int) -> list[int]:
    """Feasible cover degrees, in increasing order: the multiples n of every
    cone order with n * chi an even integer at most 2, the Euler
    characteristic 2 - 2g' of a closed orientable surface (Riemann-Hurwitz;
    for chi > 0 that leaves only n = 2/chi).  max_degree must be an integer
    between 1 and MAX_DEGREE.
    """
    max_degree = _check_degree("max_degree", max_degree)
    if not sig.is_reduced:
        raise PreconditionError("cover search needs a closed orientable cone-only signature")
    base, chi = lcm(*sig.cones), orbifold_euler(sig)
    # n * chi = n * num / den, compared in integers: a Fraction per n is
    # about 100 times slower.
    num, twice_den = chi.numerator, 2 * chi.denominator
    return [n for n in range(base, max_degree + 1, base) if n * num % twice_den == 0 and n * num <= twice_den]


class _Search:
    """Backtracking state for one degree, a multiple of every cone order;
    tables map points to images."""

    def __init__(self, sig: Signature, n: int):
        self.n = n
        k, g = len(sig.cones), sig.genus
        # Generators: cones first (their orders), then a_j, b_j (order 0 = free).
        self.orders = list(sig.cones) + [0] * (2 * g)
        self.ngens = len(self.orders)
        self.img = [[-1] * n for _ in range(self.ngens)]
        # The later generators have fewer entries set: _dead_end reads them first.
        self.later_first = self.img[::-1]
        self.pre = [[-1] * n for _ in range(self.ngens)]
        word: list[tuple[int, int]] = []
        for j in range(g):
            a, b = k + 2 * j, k + 2 * j + 1
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
        word += [(i, 1) for i in range(k)]
        self.word = word
        # Tables for the relator written out twice, so that the rotation that
        # begins at letter r is letters r .. r + len(word) - 1: crossing
        # letter i forwards reads fwd[i], backwards bwd[i] (img for a
        # generator, pre for its inverse).
        doubled = word + word
        self.fwd = [self.img[gen] if sign > 0 else self.pre[gen] for gen, sign in doubled]
        self.bwd = [self.pre[gen] if sign > 0 else self.img[gen] for gen, sign in doubled]
        # Per generator, the letter with exponent +1 where its scanned rotation begins.
        self.scan_start = [0] * self.ngens
        for r, (gen, sign) in enumerate(word):
            if sign > 0:
                self.scan_start[gen] = r
        # The letters x_1 .. x_k [a_1, b_1] .. [a_{g-1}, b_{g-1}] a_g of the
        # doubled word, whose product is T a in _dead_end.
        self.ta_tables = self.fwd[4 * g : len(word) + 4 * g - 3]
        # b_g's table, whose emptiness _propagate and _dead_end test; None at genus 0.
        self.last_row = self.img[-1] if g else None
        # Every entry (gen, p, q) set, in order; the entries from head on
        # are the deduction queue, not yet propagated.
        self.trail: list[tuple[int, int, int]] = []
        self.head = 0

    def _assign(self, gen: int, p: int, q: int) -> bool:
        """Set img[gen][p] = q plus the forced cycle closure; False on clash."""
        row, inv, m = self.img[gen], self.pre[gen], self.orders[gen]
        while True:
            if row[p] != -1 or inv[q] != -1:
                return False
            row[p] = q
            inv[q] = p
            self.trail.append((gen, p, q))
            if m == 0:
                return True
            # Exact cycle length m: measure the chain through p -> q.
            if p == q:
                return m == 1
            points = 2
            node = q
            while (nxt := row[node]) != -1:
                if nxt == p:
                    return points == m
                node = nxt
                points += 1
            tail = node
            node = p
            while (prv := inv[node]) != -1:
                node = prv
                points += 1
            if points != m:
                return points < m
            # A chain of m points must close into a cycle.
            p, q = tail, node

    def _propagate(self) -> bool:
        """Scan one rotation through each trail entry from head on.

        A scan from alpha of the rotation that begins at letter r reads
        forwards from r and backwards from r + len(word) - 1 as far as the
        tables go.  If the two ends meet, the rotation must close at alpha;
        if they are one letter apart, that letter's entry is deduced.  False
        means a contradiction; head is then left behind, for the caller's
        undo resets it.

        A new entry img[gen][p] is scanned from p in the rotation that
        begins at gen's one letter with exponent +1.  With the generators
        filled in slot order, each table full before the next is begun, and
        any points and images within a generator, head at the end of the
        trail is the fixed point of rescanning every rotation from every
        point.  In another order across generators it need not be.

        At genus 0 no letter is an inverse, so these are all the rotations.
        At genus g >= 1, while the table of b = b_g is empty, head moves to
        the end of the trail with no scan: every rotation holds b and b^-1
        at two different letters, so its forward read stops at or before
        the first and its backward read at or after the second, and no scan
        can deduce or contradict.  b's table is begun last, so every entry
        scanned is b's, and only b's can be deduced.  The relator read from
        b is b U b^-1 V = 1, with U = a_g^-1 and V = T a_g set in full (T as
        in _dead_end): b(V^-1 x) = U(b(x)).  The scan from each entry (x, b(x))
        deduces or checks b(V^-1 x), so b's entries walk each cycle of V to
        its end, where _assign refuses a clash or a full read fails to
        close.  The rotations that begin with b^-1 walk the same cycles the
        other way, b(V x) = U^-1(b(x)), and find nothing more.
        """
        trail, fwd, bwd, word, starts = self.trail, self.fwd, self.bwd, self.word, self.scan_start
        if self.last_row is not None and self.last_row.count(-1) == self.n:
            self.head = len(trail)
            return True
        assign, head, length = self._assign, self.head, len(word)
        while head < len(trail):
            gen, alpha, _ = trail[head]
            head += 1
            start = starts[gen]
            end = start + length
            f, i = alpha, start
            while i < end:
                nxt = fwd[i][f]
                if nxt == -1:
                    break
                f = nxt
                i += 1
            else:
                if f != alpha:
                    return False
                continue
            b, j = alpha, end - 1
            while j > i:
                prv = bwd[j][b]
                if prv == -1:
                    break
                b = prv
                j -= 1
            else:
                letter, sign = word[i % length]
                if not (assign(letter, f, b) if sign > 0 else assign(letter, b, f)):
                    return False
        self.head = head
        return True

    def _next_slot(self, gen: int, p: int) -> tuple[int, int] | None:
        """The first open slot from (gen, p) on; every earlier one is full."""
        for gen in range(gen, self.ngens):
            row = self.img[gen]
            for p in range(p, self.n):
                if row[p] == -1:
                    return gen, p
            p = 0
        return None

    def _dead_end(self, gen: int) -> bool:
        """Whether no witness completes the tables, at an open slot of the
        handle generator gen; run asks at handle slots only.

        While the table of the last handle generator b = b_g is empty, its
        first slot is the open one and every other table is full.  The
        relator read from a = a_g is a b a^-1 b^-1 T = 1, with T = x_1 ...
        x_k [a_1, b_1] ... [a_{g-1}, b_{g-1}], so b a^-1 b^-1 = (T a)^-1:
        some b exists if and only if a and T a have the same cycle type.

        And if the points reachable from 0 through the set entries are
        closed under every generator but fewer than n, every completion
        keeps them invariant, so none is transitive.
        """
        if gen == self.ngens - 1 and self.last_row.count(-1) == self.n:
            ta = list(range(self.n))
            for row in self.ta_tables:
                ta = [row[x] for x in ta]
            if _cycle_type(self.img[gen - 1]) != _cycle_type(ta):
                return True
        return 0 < _orbit_size(self.n, self.later_first) < self.n

    def _undo(self, mark: int) -> None:
        """Clear the entries set since the trail had length mark."""
        trail, img, pre = self.trail, self.img, self.pre
        for gen, p, q in trail[mark:]:
            img[gen][p] = -1
            pre[gen][q] = -1
        del trail[mark:]
        self.head = mark

    def run(self) -> list[Perm] | None:
        # x_1 goes straight into its tables and the trail, in the order in
        # which _assign would set it: each block's links, then the link that
        # closes it.  The first propagation runs only for a relator of one or
        # two letters; with more, no scan from an x_1 entry can deduce or
        # contradict (see the module docstring), so head skips them.
        #
        # A frame [gen, p, used, next q, trail mark] tries images q <= used
        # for slot (gen, p): the points 0 .. used - 1 in use, and the first
        # point of the next block.  used is the end of the blocks that the
        # other generators' entries touch, a prefix, since deductions follow
        # chains from touched points and x_1 keeps to its blocks.  It starts
        # at 0: from x_1 alone the relator deduces another generator's
        # entries only on the two-cone sphere (x_1 x_2 = 1), and there it
        # fills every table or contradicts, so no frame opens.
        n, stack, trail, img, pres, orders = self.n, [], self.trail, self.img, self.pre, self.orders
        next_slot, dead_end, assign, propagate, undo = (
            self._next_slot, self._dead_end, self._assign, self._propagate, self._undo
        )
        m = orders[0] if orders and orders[0] else 1
        if m > 1:
            for p in range(n):
                q = p + 1 if (p + 1) % m else p + 1 - m
                img[0][p], pres[0][q] = q, p
                trail.append((0, p, q))
        if len(self.word) > 2:
            self.head = len(trail)
        elif not propagate():
            return None
        used = gen = p = 0
        while True:
            # Every slot before the deepest frame's, (gen, p), is full.
            slot = next_slot(gen, p)
            if slot is None:
                if _orbit_size(n, img) == n:
                    return [tuple(row) for row in img]
            elif orders[slot[0]] or not dead_end(slot[0]):
                gen, p = slot
                stack.append([gen, p, max(used, (p // m + 1) * m), 0, len(trail)])
            # Take the next image of the deepest open branch that has one.
            while stack:
                gen, p, used, q, mark = frame = stack[-1]
                if len(trail) > mark:
                    undo(mark)
                pre = pres[gen]
                for q in range(q, min(used + 1, n)):
                    if pre[q] == -1:
                        if assign(gen, p, q) and propagate():
                            break
                        undo(mark)
                else:
                    stack.pop()
                    continue
                frame[3] = q + 1
                used = max(used, (q // m + 1) * m)
                break
            else:
                return None


def _check_degree(name: str, n: int) -> int:
    """n read with ``operator.index`` (a float raises TypeError, a bool reads
    as 0 or 1), once it is known to be between 1 and MAX_DEGREE."""
    n = index(n)
    if not 1 <= n <= MAX_DEGREE:
        raise PreconditionError(f"{name} must be between 1 and {MAX_DEGREE}")
    return n


def search_at_degree(sig: Signature, n: int) -> CoverWitness | None:
    """Canonical deterministic search for a witness of exactly degree n;
    sig must be closed, orientable and cone-only (``sig.is_reduced``), and
    n an integer between 1 and MAX_DEGREE.  A degree that some cone order
    does not divide returns None without a search.

    A found witness is re-checked by :func:`verify_witness`; one that fails
    raises :class:`InternalInconsistencyError`.
    """
    if not sig.is_reduced:
        raise PreconditionError("cover search needs a closed orientable cone-only signature")
    n = _check_degree("degree", n)
    if n % lcm(*sig.cones):
        return None
    # Degree 1 is reached only with no cones, and the one permutation of
    # one point is a witness; a search would build 4g tables to find it.
    perms = [(0,)] * (2 * sig.genus) if n == 1 else _Search(sig, n).run()
    if perms is None:
        return None
    k, cover_euler = len(sig.cones), n * orbifold_euler(sig)
    handles = tuple(zip(perms[k::2], perms[k + 1 :: 2]))
    witness = CoverWitness(n, handles, tuple(perms[:k]), cover_euler, 1 - cover_euler.numerator // 2)
    check = verify_witness(sig, witness)
    if not check:
        raise InternalInconsistencyError(f"search produced an invalid witness: {check.failure}")
    return witness


def manifold_cover_search(sig: Signature, max_degree: int) -> CoverWitness | None:
    """Search the feasible degree schedule for a verified manifold cover.

    Returns the witness of minimal degree found under the canonical
    search order, or None if no feasible degree up to max_degree admits
    one.  max_degree must be an integer between 1 and MAX_DEGREE.
    """
    return _first_witness(sig, degree_schedule(sig, max_degree))


def _first_witness(sig: Signature, schedule: list[int]) -> CoverWitness | None:
    """The witness at the first degree of ``schedule`` that has one, or None;
    the command line passes the schedule that it also reports."""
    return next((w for n in schedule if (w := search_at_degree(sig, n)) is not None), None)
