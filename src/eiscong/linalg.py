"""Dense linear solving over prime fields, on lists of Python integers.

Exact for every prime: entries stay canonical residues in [0, p), so no
machine word bounds them.
"""

from __future__ import annotations

from typing import Sequence


def solve_mod_prime(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], p: int
) -> list[int] | None:
    """One solution of matrix @ x = rhs over F_p, or None if inconsistent.

    Forward elimination, pivoting on the first nonzero entry of each
    column, then back-substitution; free columns are assigned zero.
    """
    cols = len(matrix[0]) if matrix else 0
    aug = []
    for row, b in zip(matrix, rhs, strict=True):
        if len(row) != cols:
            raise ValueError("ragged matrix")
        aug.append([x % p for x in row] + [b % p])
    pivot_cols: list[int] = []
    for c in range(cols):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], -1, p)
        head = [x * inv % p for x in aug[r][c:]]
        aug[r][c:] = head
        for row in aug[r + 1 :]:
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], head)]
        pivot_cols.append(c)
        if len(pivot_cols) == len(aug):
            break
    if any(row[cols] for row in aug[len(pivot_cols) :]):
        return None
    x = [0] * cols
    for row, c in reversed(list(zip(aug, pivot_cols))):
        x[c] = (row[cols] - sum(a * b for a, b in zip(row[c + 1 : cols], x[c + 1 :]))) % p
    return x
