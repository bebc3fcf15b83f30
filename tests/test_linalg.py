import random
from fractions import Fraction

from clusterlab import linalg


def det_naive(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_naive(minor)
    return total


def test_int_rank_matches_fraction_rank():
    rng = random.Random(42)
    for _ in range(1500):
        rows = rng.randint(0, 7)
        cols = rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        fast = linalg.rank(m, cols)
        slow = len(linalg.rref([[Fraction(x) for x in r] for r in m], cols)[0])
        assert fast == slow, m


def test_int_rank_regression_full_rank_with_zero_pivot_entries():
    # full rank, with zeros in the pivot column of several rows
    m = [[0, -3, 2, 1, -3, -2], [3, 1, 2, 1, -2, 0], [0, -1, 0, -3, -2, 0],
         [1, 2, -2, 0, -3, -1], [-1, 2, 2, 2, 3, -2], [2, 2, -3, -3, -3, 2]]
    assert linalg.rank(m, 6) == 6


def test_det_matches_cofactor_expansion():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert linalg.det(m) == det_naive(m), m


def test_nullspace_and_solve():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = linalg.nullspace(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in a)
    x = linalg.solve([[2, 0], [0, 3]], [4, 9], 2)
    assert x == [Fraction(2), Fraction(3)]
    assert linalg.solve([[1], [1]], [1, 2], 1) is None


def quotient_coords(coords, v):
    """Quotient coordinates of v from those of the unit vectors."""
    return [sum(x * row[k] for x, row in zip(v, coords))
            for k in range(len(coords[0]) if coords else 0)]


def test_quotient_projection_section():
    vectors = [[1, 0, 1], [0, 1, 1]]
    coords, free = linalg.column_space_projection(vectors, 3)
    assert free == [2]
    # the coordinates at the free columns form the identity
    assert [coords[c] for c in free] == [[Fraction(1)]]
    # the subspace maps to zero
    for v in vectors:
        assert quotient_coords(coords, v) == [0]


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fractions: the reference for `rref`."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def reference_nullspace(rows, ncols):
    red, pivots = reference_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _random_int_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        # the wider range gives non-unit pivots, the narrow one mostly unit
        # ones
        span = rng.choice((1, 5))
        yield [[rng.randint(-span, span) for _ in range(cols)]
               for _ in range(rows)], cols


def test_rref_matches_fraction_reference():
    inexact = 0
    for m, cols in _random_int_matrices(11, 1500):
        red, pivots = linalg.rref(m, cols)
        assert (red, pivots) == reference_rref(m, cols), m
        inexact += any(isinstance(x, Fraction) for row in red for x in row)
    assert inexact > 100  # the inexact pivot division ran


def test_rref_keeps_ints_on_exact_pivot_division():
    # the pivots 2 and 1 divide their rows exactly
    red, pivots = linalg.rref([[2, 4, 6], [1, 3, 2], [2, 5, 5]], 3)
    assert pivots == [0, 1]
    assert red == [[1, 0, 5], [0, 1, -1]]
    assert all(type(x) is int for row in red for x in row)
    red, _ = linalg.rref([[2, 3]], 2)
    assert red == [[1, Fraction(3, 2)]] and type(red[0][0]) is int


def test_nullspace_matches_fraction_reference():
    for m, cols in _random_int_matrices(12, 800):
        basis = linalg.nullspace(m, cols)
        assert basis == reference_nullspace(m, cols), m
        for v in basis:
            assert linalg.mat_vec(m, v) == [0] * len(m)
        # each basis vector's last nonzero entry is a 1 at its free column,
        # where every other basis vector is 0
        free = [max(j for j, x in enumerate(v) if x) for v in basis]
        for k, v in enumerate(basis):
            assert [v[c] for c in free] == [int(i == k) for i in
                                            range(len(free))], m


def test_column_space_projection_random():
    for vectors, dim in _random_int_matrices(13, 800):
        coords, free = linalg.column_space_projection(vectors, dim)
        q = dim - len(reference_rref(vectors, dim)[0])
        assert len(free) == q and len(coords) == dim
        assert free == sorted(set(free)) and set(free) <= set(range(dim))
        assert [coords[c] for c in free] == linalg.identity(q), vectors
        for v in vectors:
            assert quotient_coords(coords, v) == [0] * q, vectors
    assert linalg.column_space_projection([], 3) == (linalg.identity(3),
                                                     [0, 1, 2])
