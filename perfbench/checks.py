"""Independent checks of orb2d's answers, derived from theory.

Nothing here calls into orb2d: every expected value is computed from a
plain description of the orbifold (:class:`Orbifold`) with closed
formulas, so a wrong answer from the program cannot also be the expected
one.

- chi: the orbifold Euler characteristic as a plain ``Fraction`` sum.
- The bad list in closed form (Scott, *The geometries of 3-manifolds*,
  1983, section 2): the teardrop, the spindle, and the mirror disk with
  no cone points and one corner or two unequal corners.
- Finite exactly when chi > 0; group orders from ``order * chi``.
- The reduction to a closed orientable cone-only orbifold by doubling
  and end cutting; each doubling doubles chi, the end cut keeps it.
- The abelianization of a closed orientable cone-only group: free rank
  2g, and for each prime the cone orders' prime powers minus the largest.
- Manifold-cover witnesses, checked with this module's own permutation
  code and Riemann-Hurwitz.
- The size of a bounded catalog, counted with multisets and with
  necklaces by Burnside's lemma.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple


class CheckFailure(AssertionError):
    """An output of the program disagrees with the theory."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Orbifold(NamedTuple):
    """A finite-type 2-orbifold; ``mirrors`` holds each mirror circle's corners."""

    orientable: bool
    genus: int
    punctures: int = 0
    manifold_circles: int = 0
    mirrors: tuple[tuple[int, ...], ...] = ()
    cones: tuple[int, ...] = ()

    @property
    def closed(self) -> bool:
        return not (self.punctures or self.manifold_circles or self.mirrors)


def from_signature(sig) -> Orbifold:
    """Read a program ``Signature`` into an :class:`Orbifold` (fields only)."""
    mirrors = tuple(tuple(c.corners) for c in sig.boundary if c.kind == "r")
    return Orbifold(
        sig.orientable,
        sig.genus,
        sig.punctures,
        len(sig.boundary) - len(mirrors),
        mirrors,
        tuple(sig.cones),
    )


def min_rotation(corners: tuple[int, ...]) -> tuple[int, ...]:
    return min((corners[i:] + corners[:i] for i in range(len(corners))), default=())


def canonical_text(o: Orbifold) -> str:
    """The documented canonical spelling: sorted cones, manifold circles
    first, mirror circles by their minimal corner rotation."""
    parts = ["O" if o.orientable else "N", f"g={o.genus}"]
    if o.punctures:
        parts.append(f"pun={o.punctures}")
    if o.cones:
        parts.append("cones=" + ",".join(map(str, sorted(o.cones))))
    circles = ["m"] * o.manifold_circles + [
        "r(" + ",".join(map(str, c)) + ")" for c in sorted(min_rotation(c) for c in o.mirrors)
    ]
    if circles:
        parts.append("bdry=" + ",".join(circles))
    return ";".join(parts)


def euler(o: Orbifold) -> Fraction:
    surface = 2 - 2 * o.genus if o.orientable else 2 - o.genus
    chi = Fraction(surface - o.punctures - o.manifold_circles - len(o.mirrors))
    for p in o.cones:
        chi -= 1 - Fraction(1, p)
    for corners in o.mirrors:
        for n in corners:
            chi -= (1 - Fraction(1, n)) / 2
    return chi


def _sphere_like(o: Orbifold) -> bool:
    return o.orientable and o.genus == 0 and not o.punctures and not o.manifold_circles


def is_bad(o: Orbifold) -> bool:
    """Teardrop, spindle, or mirror disk with one corner or two unequal corners."""
    if not _sphere_like(o):
        return False
    if not o.mirrors:
        return len(o.cones) == 1 or (len(o.cones) == 2 and o.cones[0] != o.cones[1])
    if len(o.mirrors) != 1 or o.cones:
        return False
    corners = o.mirrors[0]
    return len(corners) == 1 or (len(corners) == 2 and corners[0] != corners[1])


def group_order(o: Orbifold, chi: Fraction) -> int | None:
    """Order of the orbifold fundamental group (chi is ``euler(o)``), or
    None when it is infinite.

    Good: ``order * chi = 2`` without punctures or manifold circles, else
    ``= 1``.  Bad: the teardrop's group is trivial, the spindle's is cyclic
    of order gcd(p, q), and a bad mirror disk has its double as an index-2
    subgroup.
    """
    if chi <= 0:
        return None
    if is_bad(o):
        orders = o.mirrors[0] if o.mirrors else o.cones
        base = 1 if len(orders) == 1 else gcd(*orders)
        return 2 * base if o.mirrors else base
    order = (1 if o.punctures or o.manifold_circles else 2) / chi
    require(order.denominator == 1, f"{canonical_text(o)}: order*chi gives {order}")
    return int(order)


def classification_record(o: Orbifold) -> dict:
    """The classify record the program must print for ``o``, in field order."""
    chi = euler(o)
    bad = is_bad(o)
    if bad:
        geometry = "bad_no_geometry"
    elif not o.closed:
        geometry = "open_or_bounded"
    else:
        geometry = "spherical" if chi > 0 else "euclidean" if chi == 0 else "hyperbolic"
    return {
        "sig": canonical_text(o),
        "euler": f"{chi.numerator}/{chi.denominator}",
        "good": not bad,
        "finite": chi > 0,
        "order": group_order(o, chi),
        "geometry": geometry,
    }


def check_record(record: dict, o: Orbifold) -> None:
    expected = classification_record(o)
    require(
        list(record.items()) == list(expected.items()),
        f"classify({expected['sig']}) gave {record}, expected {expected}",
    )


# -- reduction -------------------------------------------------------------

ORIENTATION_DOUBLE = "OrientationDouble"
MIRROR_DOUBLE = "MirrorDouble"
END_CUT = "EndCut"
MANIFOLD_DOUBLE = "ManifoldDouble"


def reduction_steps(o: Orbifold) -> list[tuple[str, Orbifold]]:
    """The doubling / end-cut sequence down to a closed orientable cone-only
    orbifold, as (step kind, result) pairs."""
    steps = []
    if not o.orientable:
        o = Orbifold(True, o.genus - 1, 2 * o.punctures, 2 * o.manifold_circles,
                     o.mirrors * 2, o.cones * 2)
        steps.append((ORIENTATION_DOUBLE, o))
    if o.mirrors:
        corners = tuple(n for c in o.mirrors for n in c)
        o = Orbifold(True, 2 * o.genus + len(o.mirrors) - 1, 2 * o.punctures,
                     2 * o.manifold_circles, (), o.cones * 2 + corners)
        steps.append((MIRROR_DOUBLE, o))
    if o.punctures:
        o = Orbifold(True, o.genus, 0, o.manifold_circles + o.punctures, (), o.cones)
        steps.append((END_CUT, o))
    if o.manifold_circles:
        o = Orbifold(True, 2 * o.genus + o.manifold_circles - 1, 0, 0, (), o.cones * 2)
        steps.append((MANIFOLD_DOUBLE, o))
    return steps


def reduced(o: Orbifold) -> Orbifold:
    steps = reduction_steps(o)
    return steps[-1][1] if steps else o


def check_trace(trace, o: Orbifold) -> None:
    """A program ``ReductionTrace`` against :func:`reduction_steps`."""
    expected = reduction_steps(o)
    kinds = [step.kind.value for step in trace.steps]
    require(kinds == [k for k, _ in expected], f"{canonical_text(o)}: steps {kinds}")
    chi = euler(o)
    for step, (kind, want) in zip(trace.steps, expected):
        got = from_signature(step.result)
        require(_normal(got) == _normal(want),
                f"{canonical_text(o)}: {kind} gave {canonical_text(got)}")
        step_chi = euler(got)
        require(step_chi == (chi if kind == END_CUT else 2 * chi),
                f"{canonical_text(o)}: {kind} took chi {chi} to {step_chi}")
        chi = step_chi


def _normal(o: Orbifold) -> Orbifold:
    return o._replace(cones=tuple(sorted(o.cones)),
                      mirrors=tuple(sorted(min_rotation(c) for c in o.mirrors)))


# -- presentations and abelianization --------------------------------------

def check_presentation(p, closed: Orbifold) -> None:
    """Generators a_j, b_j, x_i; relators x_i^p_i and the long relator."""
    k, g = len(closed.cones), closed.genus
    require(p.handle_pairs == g, f"presentation has {p.handle_pairs} handle pairs, not {g}")
    require([order for _, order in p.cone_gens] == sorted(closed.cones), "cone generators")
    require(len(p.generators) == 2 * g + k, "generator count")
    words = list(p.relators)
    for (name, order), word in zip(p.cone_gens, words):
        require(word == ((name, 1),) * order, f"relator for {name}")
    if g or k:
        require(len(words) == k + 1 and len(words[-1]) == 4 * g + k, "long relator")


def _prime_powers(n: int) -> dict[int, int]:
    """Map each prime dividing n to its full prime-power factor."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 1) * p
        p += 1
    if n > 1:
        out[n] = n
    return out


def elementary_divisors(cones: tuple[int, ...]) -> list[int]:
    """Torsion of (sum Z/p_i) / <(1, ..., 1)>: per prime, every cone's prime
    power except one largest."""
    by_prime: dict[int, list[int]] = {}
    for p in cones:
        for prime, power in _prime_powers(p).items():
            by_prime.setdefault(prime, []).append(power)
    out = []
    for powers in by_prime.values():
        powers.sort()
        out.extend(powers[:-1])
    return sorted(out)


def check_abelianization(inv, closed: Orbifold) -> None:
    require(inv.free_rank == 2 * closed.genus,
            f"{canonical_text(closed)}: free rank {inv.free_rank}")
    torsion = sorted(q for d in inv.torsion for q in _prime_powers(d).values())
    require(all(d > 1 for d in inv.torsion) and all(
        b % a == 0 for a, b in zip(inv.torsion, inv.torsion[1:])),
        f"{canonical_text(closed)}: torsion {inv.torsion} is not a divisor chain")
    require(torsion == elementary_divisors(closed.cones),
            f"{canonical_text(closed)}: torsion {inv.torsion}")


# -- covers ----------------------------------------------------------------

def _compose(p, q):
    return [q[x] for x in p]


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return out


def _cycle_lengths(p) -> set[int]:
    seen, lengths = set(), set()
    for start in range(len(p)):
        if start in seen:
            continue
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            n += 1
        lengths.add(n)
    return lengths


def _transitive(n: int, perms) -> bool:
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for p in perms:
            if p[x] not in seen:
                seen.add(p[x])
                todo.append(p[x])
    return len(seen) == n


def degree_forbidden(closed: Orbifold, n: int) -> bool:
    """True when no degree-n manifold cover can exist: the orbifold is bad,
    some cone order does not divide n, or n*chi is not the Euler
    characteristic 2 - 2g' of a closed orientable surface."""
    cover_chi = n * euler(closed)
    return (
        is_bad(closed)
        or any(n % p for p in closed.cones)
        or cover_chi.denominator != 1
        or cover_chi > 2
        or cover_chi.numerator % 2 != 0
    )


def first_allowed_degree(closed: Orbifold, max_degree: int) -> int | None:
    return next((n for n in range(1, max_degree + 1) if not degree_forbidden(closed, n)), None)


def check_witness(w, closed: Orbifold) -> None:
    """Uniform cycle type, long relator, transitivity and Riemann-Hurwitz."""
    n = w.degree
    perms = [list(p) for pair in w.handle_images for p in pair] + [list(x) for x in w.cone_images]
    require(len(w.cone_images) == len(closed.cones) and len(w.handle_images) == closed.genus,
            "witness shape")
    require(all(sorted(p) == list(range(n)) for p in perms), "witness images are not permutations")
    for x, p in zip(w.cone_images, closed.cones):
        require(_cycle_lengths(list(x)) == {p}, f"cone of order {p} acts with other cycle lengths")
    product = list(range(n))
    for a, b in w.handle_images:
        for factor in (a, b, _inverse(a), _inverse(b)):
            product = _compose(product, list(factor))
    for x in w.cone_images:
        product = _compose(product, list(x))
    require(product == list(range(n)), "long relator does not act trivially")
    require(_transitive(n, perms), "action is not transitive")
    cover_chi = n * euler(closed)
    require(not degree_forbidden(closed, n) and cover_chi == w.cover_euler
            and cover_chi == 2 - 2 * w.cover_genus, "Riemann-Hurwitz")


# -- catalog size ----------------------------------------------------------

def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def necklaces(length: int, colours: int) -> int:
    """Cyclic sequences up to rotation (Burnside)."""
    if length == 0:
        return 1
    total = sum(_phi(d) * colours ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length


def multisets(kinds: int, size: int) -> int:
    return comb(kinds + size - 1, size)


def catalog_size(max_genus, max_cones, max_order, max_boundary, max_corners,
                 max_punctures, orientable_only=False) -> int:
    orders = max_order - 1
    cone_sets = sum(multisets(orders, k) for k in range(max_cones + 1))
    circle_kinds = 1 + sum(necklaces(n, orders) for n in range(max_corners + 1))
    boundaries = sum(multisets(circle_kinds, b) for b in range(max_boundary + 1))
    surfaces = (max_genus + 1) + (0 if orientable_only else max_genus)
    return surfaces * (max_punctures + 1) * boundaries * cone_sets

