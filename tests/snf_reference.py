"""The Smith normal form kernel as it was before its one-pass rewrite, kept
as a reference.

``orb2d.group.smith_normal_form`` applies the same eliminations in the same
order with fewer Python-level operations per entry;
``test_group.TestSmithReference`` checks that both return an equal
``SmithForm`` (diagonal and both transforms) on seeded random matrices and
on the live block of every ``CONE_BOUNDS`` signature.  Both verify their
result with ``orb2d.group._check_smith``.
"""
from __future__ import annotations

from orb2d.group import IntegerMatrix, SmithForm, _check_smith


def smith_normal_form(m: IntegerMatrix) -> SmithForm:
    """Smith normal form with verified unimodular transforms.

    Returns D with left * m * right = D, D diagonal, each diagonal entry
    nonnegative and dividing the next.  Pivots are chosen by smallest
    nonzero absolute value to bound entry growth.
    """
    # Reduce [[m, I_r], [I_c, 0]]: an operation on the first r rows carries
    # left along, and one on the first c columns carries right along.
    r, c = m.rows, m.cols
    a = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(m)]
    a += [[int(i == j) for j in range(c)] + [0] * r for i in range(c)]

    for t in range(min(r, c)):
        while True:
            # Move the smallest nonzero entry of the trailing block to (t, t).
            pivot = None
            best = 0
            for i in range(t, r):
                for j in range(t, c):
                    v = abs(a[i][j])
                    if v and (pivot is None or v < best):
                        pivot, best = (i, j), v
            if pivot is None:
                break
            i, j = pivot
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            # Clear row and column t; remainders re-enter the pivot hunt.
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, r)) or any(a[t][j] for j in range(t + 1, c)):
                continue
            # Enforce divisibility into the trailing block: add the first row
            # with an entry that the pivot does not divide, and hunt again.
            failing = [i for i in range(t + 1, r) for j in range(t + 1, c) if a[i][j] % a[t][t]]
            if not failing:
                break
            a[t] = [x + y for x, y in zip(a[t], a[failing[0]])]

    diagonal = tuple(a[i][i] for i in range(min(r, c)))
    left = IntegerMatrix(row[c:] for row in a[:r])
    right = IntegerMatrix(row[:c] for row in a[r:])
    form = SmithForm(diagonal, left, right)
    _check_smith(m, form)
    return form
