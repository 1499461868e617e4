"""Dense exact linear algebra over an abstract field (desk scale)."""

from __future__ import annotations

from typing import Iterable, Sequence


def rref(field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if not field.is_zero(mat[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, v) for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and not field.is_zero(mat[r][col]):
                factor = mat[r][col]
                mat[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(mat[r], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def express_in_span(field, vectors: list[list], target: list):
    """Coefficients writing target as a combination of vectors, or None."""
    if not vectors:
        return None if any(not field.is_zero(v) for v in target) else []
    n = len(target)
    # solve V^T c = target by eliminating on the augmented transpose
    rows = [[vectors[j][i] for j in range(len(vectors))] + [target[i]] for i in range(n)]
    reduced, pivots = rref(field, rows)
    if len(vectors) in pivots:
        return None
    coeffs = [field.zero()] * len(vectors)
    for row, col in zip(reduced, pivots):
        coeffs[col] = row[-1]
    return coeffs


def in_span(field, vectors: list[list], target: list) -> bool:
    return express_in_span(field, vectors, target) is not None


def kernel_basis(field, rows: list[list]) -> list[list]:
    """Basis of the right kernel of the matrix given by rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [field.zero()] * ncols
        vec[f] = field.one()
        for row, p in zip(reduced, pivots):
            vec[p] = field.neg(row[f])
        basis.append(vec)
    return basis


def first_dependence(field, vectors: Iterable[Sequence]):
    """Coefficients of the first linear dependence among successive vectors.

    Returns (k, coeffs) where vectors[k] = sum(coeffs[i] * vectors[i], i < k),
    or None if the whole list is independent. The vectors are read one at a
    time and none after vectors[k], so a lazy iterable is made only up to
    the dependence.

    One echelon form is kept across the vectors: each row has a pivot, is
    zero at the pivots of the rows before it, and carries the combination of
    the input vectors it equals. A vector reduced against the rows in order
    either leaves a new row or reaches zero, which gives the dependence.
    """
    zero = field.zero()
    rows: list[tuple[int, list, list]] = []  # (pivot, row, combination)
    for k, vec in enumerate(vectors):
        v = list(vec)
        combo = [zero] * k + [field.one()]
        for pivot, row, rcombo in rows:
            c = v[pivot]
            if field.is_zero(c):
                continue
            v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
            for i, b in enumerate(rcombo):
                if not field.is_zero(b):
                    combo[i] = field.sub(combo[i], field.mul(c, b))
        pivot = next((i for i, a in enumerate(v) if not field.is_zero(a)), None)
        if pivot is None:  # sum(combo[i] * vectors[i]) = 0 with combo[k] = 1
            return k, [field.neg(c) for c in combo[:k]]
        inv = field.inv(v[pivot])
        rows.append((pivot, [field.mul(inv, a) for a in v], [field.mul(inv, c) for c in combo]))
    return None
