"""Constructive goodness certificates: finite manifold orbifold-covers.

A degree-n manifold cover of a closed orientable cone-only orbifold is
certified by a transitive permutation representation of its fundamental
group in which every cone generator of order p acts with all cycles of
length exactly p (so every local group injects trivially upstairs).

The search is depth-first backtracking over partial permutation tables,
assigning cone generators first and handle generators after, with three
prunings: exact-cycle-length propagation, relator scanning (partial
products of the long relator), and introduction of new points in
increasing order (symmetry breaking, which also makes the search
deterministic).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .group import InternalInconsistencyError
from .signature import PreconditionError, Signature, orbifold_euler

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: apply p first, then q."""
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycles(p: Perm, include_fixed: bool = False) -> list[list[int]]:
    """Disjoint cycles sorted by least element."""
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
        if len(cyc) > 1 or include_fixed:
            out.append(cyc)
    return out


def _uniform_cycle_length(p: Perm, length: int) -> bool:
    return all(len(c) == length for c in cycles(p, include_fixed=True))


@dataclass(frozen=True)
class CoverWitness:
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
            "cover_euler": f"{self.cover_euler.numerator}/{self.cover_euler.denominator}",
            "cover_genus": self.cover_genus,
        }


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _relator_product(w: CoverWitness) -> Perm:
    prod = identity(w.degree)
    for a, b in w.handle_images:
        for factor in (a, b, inverse(a), inverse(b)):
            prod = compose(prod, factor)
    for x in w.cone_images:
        prod = compose(prod, x)
    return prod


def _is_transitive(n: int, perms: list[Perm]) -> bool:
    if n == 0:
        return False
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        node = frontier.pop()
        for p in perms:
            nxt = p[node]
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                frontier.append(nxt)
    return count == n


def verify_witness(sig: Signature, w: CoverWitness) -> VerifyResult:
    """Re-check all witness invariants, independently of the search.

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
        if not _uniform_cycle_length(x, p):
            return VerifyResult(False, f"cycle type: a cone generator of order {p} has a cycle of other length")
    if _relator_product(w) != identity(w.degree):
        return VerifyResult(False, "relator: long relator does not act as the identity")
    if not _is_transitive(w.degree, all_perms):
        return VerifyResult(False, "transitivity: the action is not transitive")
    expected = w.degree * orbifold_euler(sig)
    if w.cover_euler != expected or w.cover_euler != 2 - 2 * w.cover_genus or w.cover_genus < 0:
        return VerifyResult(False, "euler: cover_euler != degree * chi = 2 - 2 * cover_genus")
    return VerifyResult(True)


def degree_schedule(sig: Signature, max_degree: int) -> list[int]:
    """Feasible cover degrees, in increasing order.

    Only multiples of lcm(cone orders) can admit uniform cycle types.
    For chi > 0 any manifold cover is a sphere, forcing degree 2/chi;
    for chi < 0 the degree must make degree * chi even (the cover's
    Euler characteristic).
    """
    if not sig.is_reduced:
        raise PreconditionError("cover search needs a closed orientable cone-only signature")
    base = lcm(*sig.cones) if sig.cones else 1
    chi = orbifold_euler(sig)
    if chi > 0:
        forced = Fraction(2) / chi
        if forced.denominator == 1 and forced <= max_degree and forced % base == 0:
            return [int(forced)]
        return []
    degrees = range(base, max_degree + 1, base)
    if chi == 0:
        return list(degrees)
    return [n for n in degrees if (n * chi) % 2 == 0]


class _Search:
    """Backtracking state for one degree; tables map points to images."""

    def __init__(self, sig: Signature, n: int):
        self.n = n
        self.k = len(sig.cones)
        self.g = sig.genus
        # Generators: cones first (their orders), then a_j, b_j (order 0 = free).
        self.orders = list(sig.cones) + [0] * (2 * self.g)
        self.ngens = len(self.orders)
        self.img = [[-1] * n for _ in range(self.ngens)]
        self.pre = [[-1] * n for _ in range(self.ngens)]
        self.introduced = [False] * n
        word: list[tuple[int, int]] = []
        for j in range(self.g):
            a, b = self.k + 2 * j, self.k + 2 * j + 1
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
        word += [(i, 1) for i in range(self.k)]
        self.word = word
        # Trail of (gen, p, q) assignments plus introduced points, for undo.
        self.trail: list[tuple[str, int, int, int]] = []

    def _touch(self, point: int) -> None:
        if not self.introduced[point]:
            self.introduced[point] = True
            self.trail.append(("intro", point, 0, 0))

    def _assign(self, gen: int, p: int, q: int) -> bool:
        """Set img[gen][p] = q plus forced cycle closures; False on clash."""
        stack = [(gen, p, q)]
        while stack:
            gen, p, q = stack.pop()
            if self.img[gen][p] == q:
                continue
            if self.img[gen][p] != -1 or self.pre[gen][q] != -1:
                return False
            self.img[gen][p] = q
            self.pre[gen][q] = p
            self.trail.append(("img", gen, p, q))
            self._touch(p)
            self._touch(q)
            m = self.orders[gen]
            if m == 0:
                continue
            # Exact cycle length m: measure the chain through p -> q.
            if p == q:
                closed, points = True, 1
            else:
                points = 2
                node = q
                closed = False
                while (nxt := self.img[gen][node]) != -1:
                    if nxt == p:
                        closed = True
                        break
                    node = nxt
                    points += 1
                tail = node
                if not closed:
                    node = p
                    while (prv := self.pre[gen][node]) != -1:
                        node = prv
                        points += 1
                    head = node
            if closed:
                if points != m:
                    return False
            elif points > m:
                return False
            elif points == m:
                stack.append((gen, tail, head))
        return True

    def _scan(self, alpha: int) -> tuple[int, int, int, int] | bool:
        """Scan the long relator from alpha.

        Returns True (consistent), False (contradiction), or a deduced
        assignment (gen, p, q).
        """
        word = self.word
        length = len(word)
        f, i = alpha, 0
        while i < length:
            gen, sign = word[i]
            nxt = self.img[gen][f] if sign > 0 else self.pre[gen][f]
            if nxt == -1:
                break
            f = nxt
            i += 1
        if i == length:
            return f == alpha
        b, j = alpha, length - 1
        while j >= i:
            gen, sign = word[j]
            prv = self.pre[gen][b] if sign > 0 else self.img[gen][b]
            if prv == -1:
                break
            b = prv
            j -= 1
        if j < i:
            return f == b
        if j == i:
            gen, sign = word[i]
            return (gen, f, b, 0) if sign > 0 else (gen, b, f, 0)
        return True

    def _propagate(self) -> bool:
        if not self.word:
            return True
        changed = True
        while changed:
            changed = False
            for alpha in range(self.n):
                result = self._scan(alpha)
                if result is True:
                    continue
                if result is False:
                    return False
                gen, p, q, _ = result
                if not self._assign(gen, p, q):
                    return False
                changed = True
        return True

    def _next_slot(self) -> tuple[int, int] | None:
        for gen in range(self.ngens):
            row = self.img[gen]
            for p in range(self.n):
                if row[p] == -1:
                    return gen, p
        return None

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            kind, a, b, c = self.trail.pop()
            if kind == "img":
                self.img[a][b] = -1
                self.pre[a][c] = -1
            else:
                self.introduced[a] = False

    def run(self) -> list[Perm] | None:
        slot = self._next_slot()
        if slot is None:
            perms = [tuple(row) for row in self.img]
            if _is_transitive(self.n, perms):
                return perms
            return None
        gen, p = slot
        self._touch(p)
        fresh = next((q for q in range(self.n) if not self.introduced[q]), None)
        for q in range(self.n):
            if self.pre[gen][q] != -1:
                continue
            if not self.introduced[q] and q != fresh:
                continue
            mark = len(self.trail)
            if self._assign(gen, p, q) and self._propagate():
                result = self.run()
                if result is not None:
                    return result
            self._undo(mark)
        return None


def _witness_from_perms(sig: Signature, n: int, perms: list[Perm]) -> CoverWitness:
    k, g = len(sig.cones), sig.genus
    cone_images = tuple(perms[:k])
    handle_images = tuple((perms[k + 2 * j], perms[k + 2 * j + 1]) for j in range(g))
    cover_euler = n * orbifold_euler(sig)
    cover_genus = int((2 - cover_euler) / 2)
    return CoverWitness(n, handle_images, cone_images, cover_euler, cover_genus)


def search_at_degree(sig: Signature, n: int) -> CoverWitness | None:
    """Canonical deterministic search for a witness of exactly degree n.

    A found witness is re-checked by :func:`verify_witness`; one that fails
    raises :class:`InternalInconsistencyError`.
    """
    perms = _Search(sig, n).run()
    if perms is None:
        return None
    witness = _witness_from_perms(sig, n, perms)
    check = verify_witness(sig, witness)
    if not check:
        raise InternalInconsistencyError(f"search produced an invalid witness: {check.failure}")
    return witness


def manifold_cover_search(sig: Signature, max_degree: int) -> CoverWitness | None:
    """Search the feasible degree schedule for a verified manifold cover.

    Returns the witness of minimal degree found under the canonical
    search order, or None if no feasible degree up to max_degree admits
    one.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be at least 1")
    for n in degree_schedule(sig, max_degree):
        witness = search_at_degree(sig, n)
        if witness is not None:
            return witness
    return None
