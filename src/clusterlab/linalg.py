"""Exact dense linear algebra over the rationals.

Matrices are lists of lists (row-major) holding ints or Fractions; nothing
here ever touches floats.  A linear map f: Q^s -> Q^t is stored as a t x s
matrix whose columns are the images of the standard basis.  Sizes stay small
(tens of rows), so plain Gauss-Jordan is fine.  Elimination keeps the
caller's integers: a pivot row is divided by its pivot with `//` wherever
the division is exact, and a Fraction appears only where the pivot does not
divide an entry, so integer input whose pivots divide their rows (every
0/1 module of a gentle algebra) is reduced without a single Fraction.
Ranks come from that same elimination; determinants of integer matrices
take the fraction-free Bareiss route.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            av = ai[k]
            if av:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += av * bk[j]
    return out


def mat_vec(a, v):
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def rref(rows, ncols):
    """Reduced row echelon form of a copy of `rows`.

    Returns (reduced_rows, pivot_cols).  Zero rows are dropped.  Entries
    stay ints wherever the pivot divides them exactly (see the module
    docstring).
    """
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [_divide(x, pv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _divide(x, pv):
    # divmod is exact for ints and Fractions alike, and an exact quotient
    # comes back as an int
    quot, rem = divmod(x, pv)
    return Fraction(x, pv) if rem else quot


def rank(rows, ncols=None):
    """Rank of the matrix: the number of nonzero rows of its `rref`."""
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    return len(rref(rows, ncols)[0])


def nullspace(rows, ncols):
    """Basis of {v : A v = 0} as a list of length-`ncols` vectors.

    There is one basis vector per free column c of the `rref`: it is 1 at c
    and 0 at every other free column, and c is its last nonzero entry.  So a
    kernel vector's coordinates in this basis are its entries at the free
    columns.
    """
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b, ncols=None):
    """One solution x of A x = b, or None if the system is inconsistent."""
    if ncols is None:
        ncols = len(a[0]) if a else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def column_space_projection(vectors, dim):
    """Quotient data for Q^dim / span(vectors).

    Returns (coords, free): the unit vectors at the columns `free` form a
    basis of the quotient, and coords[e] holds the quotient coordinates of
    unit vector e in that basis, so coords[free[k]] is the k-th unit row.
    """
    red, pivots = rref(vectors, dim)
    free = [c for c in range(dim) if c not in pivots]
    coords = [[int(c == e) for c in free] for e in range(dim)]
    for row, pc in zip(red, pivots):
        coords[pc] = [-row[c] for c in free]
    return coords, free


def det(rows):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            pivot = None
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (pv * m[i][j] - m[i][c] * m[c][j]) // prev
            m[i][c] = 0
        prev = pv
    return sign * m[n - 1][n - 1]
