"""Fundamental group presentations and integer abelianization.

For a closed orientable cone-only signature with genus g and cone orders
p_1, ..., p_k the group is

    < a_1, b_1, ..., a_g, b_g, x_1, ..., x_k |
      x_j^{p_j}  (j = 1..k),  [a_1,b_1]...[a_g,b_g] x_1 ... x_k >

Its abelianization is computed from the Smith normal form of the live
block of the relator exponent matrix: generator columns that no relator
uses (the handle generators, whose exponents cancel in the commutators)
are free summands, and zero rows are dropped, so the block does not grow
with the genus.  All integer arithmetic is arbitrary precision.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index, mul
from typing import NamedTuple

from .signature import MIRROR, PreconditionError, Signature

Word = tuple[tuple[str, int], ...]

# presentation_of_closed spells each relator x^p as p letters, so it refuses
# a presentation with more letters than this: 4g + k + the sum of the orders.
MAX_RELATOR_LETTERS = 10_000_000

# abelianization refuses a live block with more columns than this (for a
# closed signature, more cones): the Smith form and its check take time
# cubic in the cone count.  128 cones of orders 2-10 take 0.5-0.8 s (Python
# 3.11, 2 CPUs); distinct large orders cost more, as the transforms grow.
MAX_LIVE_COLUMNS = 128


class InternalInconsistencyError(RuntimeError):
    """A computed value contradicts a structural guarantee; a bug, not input."""


class Presentation(NamedTuple):
    handle_pairs: int
    cone_gens: tuple[tuple[str, int], ...]
    relators: tuple[Word, ...]

    @property
    def generators(self) -> tuple[str, ...]:
        names = []
        for j in range(1, self.handle_pairs + 1):
            names.append(f"a{j}")
            names.append(f"b{j}")
        names.extend(name for name, _ in self.cone_gens)
        return tuple(names)


class IntegerMatrix(tuple):
    """Immutable rectangular integer matrix as a tuple of row tuples.

    Entries are read with ``operator.index``: a float, string, ``Fraction``
    or ``None`` raises ``TypeError``, and a ``bool`` (an ``int`` subclass)
    reads as 0 or 1.
    """

    def __new__(cls, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        if len({len(row) for row in rows}) > 1:
            raise ValueError("ragged rows")
        return super().__new__(cls, rows)

    @property
    def rows(self) -> int:
        return len(self)

    @property
    def cols(self) -> int:
        return len(self[0]) if self else 0


class SmithForm(NamedTuple):
    diagonal: tuple[int, ...]
    left_transform: IntegerMatrix
    right_transform: IntegerMatrix


class AbelianInvariants(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]


def presentation_of_closed(sig: Signature) -> Presentation:
    """Presentation of the orbifold fundamental group of a reduced signature."""
    if not sig.is_reduced:
        raise PreconditionError("presentation needs a closed orientable cone-only signature")
    g, cones = sig.genus, sig.cones
    # The count itself is left out of the message: it may be too long to print.
    if 4 * g + len(cones) + sum(cones) > MAX_RELATOR_LETTERS:
        raise PreconditionError(f"a presentation may have at most {MAX_RELATOR_LETTERS} letters")
    cone_gens = tuple((f"x{j + 1}", p) for j, p in enumerate(cones))
    relators: list[Word] = [((name, 1),) * p for name, p in cone_gens]
    long_relator: list[tuple[str, int]] = []
    for j in range(1, g + 1):
        long_relator += [(f"a{j}", 1), (f"b{j}", 1), (f"a{j}", -1), (f"b{j}", -1)]
    long_relator += [(name, 1) for name, _ in cone_gens]
    if long_relator:
        relators.append(tuple(long_relator))
    return Presentation(g, cone_gens, tuple(relators))


def _exponent_sums(p: Presentation) -> tuple[int, list[dict[int, int]]]:
    """The number of generators, and per relator the exponent sum of each
    generator it uses, keyed by the generator's column."""
    index = {name: i for i, name in enumerate(p.generators)}
    rows = []
    for word in p.relators:
        row: dict[int, int] = {}
        for name, sign in word:
            col = index[name]
            row[col] = row.get(col, 0) + sign
        rows.append(row)
    return len(index), rows


def relation_matrix(p: Presentation) -> IntegerMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    cols, rows = _exponent_sums(p)
    return IntegerMatrix([row.get(col, 0) for col in range(cols)] for row in rows)


def _det(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: IntegerMatrix) -> SmithForm:
    """Smith normal form with verified unimodular transforms.

    Returns D with left * m * right = D, D diagonal, each diagonal entry
    nonnegative and dividing the next.  Pivots are chosen by smallest
    nonzero absolute value to bound entry growth.
    """
    # Reduce [[m, I_r], [I_c, 0]]: an operation on the first r rows carries
    # left along, and one on the first c columns carries right along.
    r, c = m.rows, m.cols
    a = [[*row, *[0] * i, 1, *[0] * (r - 1 - i)] for i, row in enumerate(m)]
    a += [[0] * i + [1] + [0] * (c + r - 1 - i) for i in range(c)]

    for t in range(min(r, c)):
        while True:
            # Move the smallest nonzero entry of the trailing block to (t, t),
            # the first in row order on a tie; no entry is smaller than 1.
            best = 0
            for i in range(t, r):
                for j, x in enumerate(a[i][t:c], t):
                    if x and (not best or abs(x) < best):
                        pivot, best = (i, j), abs(x)
                if best == 1:
                    break
            if not best:
                break
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            # Clear row and column t; remainders re-enter the pivot hunt. Each
            # column operation reads its multiplier from row t before any
            # change and writes only its own column, so one pass applies all.
            top = a[t]
            p = top[t]
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // p
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
            ops = [(j, top[j] // p) for j in range(t + 1, c) if top[j]]
            if ops:
                for row in a:
                    x = row[t]
                    if x:
                        for j, q in ops:
                            row[j] -= q * x
            # A unit pivot clears its row and column and divides everything.
            if p == 1:
                break
            if any(a[i][t] for i in range(t + 1, r)) or any(top[t + 1:c]):
                continue
            # Enforce divisibility into the trailing block: add the first row
            # with an entry that the pivot does not divide, and hunt again.
            for i in range(t + 1, r):
                if any(x % p for x in a[i][t + 1:c]):
                    a[t] = [x + y for x, y in zip(top, a[i])]
                    break
            else:
                break

    diagonal = tuple(a[i][i] for i in range(min(r, c)))
    left = IntegerMatrix(row[c:] for row in a[:r])
    right = IntegerMatrix(row[:c] for row in a[r:])
    form = SmithForm(diagonal, left, right)
    _check_smith(m, form)
    return form


def _check_smith(m: IntegerMatrix, form: SmithForm) -> None:
    left, right, diagonal = form.left_transform, form.right_transform, form.diagonal
    columns = list(zip(*m))
    lm = [[sum(map(mul, row, col)) for col in columns] for row in left]
    columns = list(zip(*right))
    prod = [[sum(map(mul, row, col)) for col in columns] for row in lm]
    n = len(diagonal)
    if prod != [[diagonal[i] if i == j < n else 0 for j in range(m.cols)] for i in range(m.rows)]:
        raise InternalInconsistencyError("Smith form does not re-multiply")
    for d, nxt in zip(diagonal, diagonal[1:]):
        if d == 0 and nxt != 0:
            raise InternalInconsistencyError("zero before nonzero on Smith diagonal")
        if d and nxt % d:
            raise InternalInconsistencyError("Smith diagonal not a divisibility chain")
    if abs(_det([list(row) for row in left])) != 1 or abs(_det([list(row) for row in right])) != 1:
        raise InternalInconsistencyError("Smith transforms not unimodular")


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group, via Smith normal form.

    Only the live block goes through the Smith form: a generator column
    that is zero in every relator is a free summand, and an all-zero
    relator row says nothing, so both are dropped first.  The block is
    read from the exponent sums without the whole matrix, and one with more
    than MAX_LIVE_COLUMNS columns is refused before any Smith form.
    """
    cols, rows = _exponent_sums(p)
    live = sorted({col for row in rows for col, total in row.items() if total})
    if len(live) > MAX_LIVE_COLUMNS:
        raise PreconditionError(
            f"abelianization takes at most {MAX_LIVE_COLUMNS} live generators (the cones of a closed signature)"
        )
    free_rank = cols - len(live)
    if not live:
        return AbelianInvariants(free_rank, ())
    # A row with a nonzero sum has it in a live column; the others are zero rows.
    block = IntegerMatrix([row.get(col, 0) for col in live] for row in rows if any(row.values()))
    diagonal = smith_normal_form(block).diagonal
    free_rank += block.cols - len(diagonal) + sum(1 for d in diagonal if d == 0)
    torsion = tuple(d for d in diagonal if d > 1)
    return AbelianInvariants(free_rank, torsion)


def bad_list_orders(sig: Signature) -> tuple[int, ...] | None:
    """Cone orders of the sphere that a bad ``sig`` is or doubles to, else None.

    The bad list: a sphere with one cone or two cones of different orders,
    or a mirror disk with one corner or two corners of different orders,
    whose corners become the cones of its doubled sphere.
    """
    if not sig.orientable or sig.genus or sig.punctures:
        return None
    if not sig.boundary:
        orders = sig.cones
    elif len(sig.boundary) == 1 and sig.boundary[0].kind == MIRROR and not sig.cones:
        orders = sig.boundary[0].corners
    else:
        return None
    return orders if len(orders) == 1 or (len(orders) == 2 and orders[0] != orders[1]) else None


def group_order_if_finite(sig: Signature, chi: Fraction, good: bool) -> int:
    """Order of the orbifold fundamental group of any signature with chi > 0.

    A good signature has order 2/chi, or 1/chi when it has an end (a
    puncture or a manifold circle).  A bad one is on the bad list: the
    teardrop's group is trivial and the spindle (p, q) has order gcd(p, q);
    a bad mirror disk has twice the order of its double, so r(p) gives 2
    and r(p, q) gives 2 gcd(p, q).
    """
    if chi <= 0:
        raise PreconditionError("group order is defined only for chi > 0")
    if good:
        order = Fraction(1 if sig.has_end else 2) / chi
        if order.denominator != 1:
            raise InternalInconsistencyError(
                f"good signature {sig} has non-integral order {order}"
            )
        return int(order)
    orders = bad_list_orders(sig)
    if orders is None:
        raise InternalInconsistencyError(f"{sig} is not in the bad list")
    base = gcd(*orders) if len(orders) == 2 else 1
    return 2 * base if sig.boundary else base


def render_presentation(p: Presentation) -> str:
    """ASCII rendering, e.g. ``<a1,b1,x1 | x1^2, [a1,b1] x1>``."""
    gens = ",".join(p.generators)
    relators = [f"{name}^{order}" for name, order in p.cone_gens]
    long_parts = "".join(f"[a{j},b{j}]" for j in range(1, p.handle_pairs + 1))
    xs = " ".join(name for name, _ in p.cone_gens)
    long_relator = (long_parts + " " + xs).strip()
    if long_relator:
        relators.append(long_relator)
    return f"<{gens} | {', '.join(relators)}>"
