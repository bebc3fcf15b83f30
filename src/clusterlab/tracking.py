"""C-, G-, F- and D-matrix bookkeeping along mutation walks.

A TrackedSeed carries the seed together with the three integer matrices
advanced by the mutation recursions.  All values are immutable; mutation
returns a fresh snapshot.  The matrices are stored as row tuples, and the
recursions are applied row by row.

Recursions (k the mutation direction, c_j the j-th column of C, and so on):

  c'_j = -c_j                                   if j = k
         c_j + [b_kj]+ c_k + b_kj [-c_k]+       otherwise

  g'_k = -g_k + sum_i [b_ik]+ g_i - sum_i [c_ik]+ b0_i     (b0 = initial matrix)

  f'_k = -f_k + max([c_k]+ + sum_i [b_ik]+ f_i,
                    [-c_k]+ + sum_i [-b_ik]+ f_i)          (componentwise max)

C changes entrywise; G and F change only in column k.  The g-recursion
sums initial-matrix columns b0_i weighted by the positive parts of the
c-column; that reading is pinned down by the exact identity G^tr S C = S,
which the test suite checks at every reached vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WitnessedFault
from .exchange import ExchangeMatrix, Seed, _pos, mutate_seed, langlands_dual
from .laurent import LaurentPoly


@dataclass(frozen=True)
class TrackedSeed:
    seed: Seed
    c: tuple  # C-matrix, tuple of row tuples
    g: tuple  # G-matrix
    f: tuple  # F-matrix (columns nonnegative)
    b0: tuple  # initial exchange matrix rows
    s: tuple  # skew-symmetrizer of the root matrix

    @classmethod
    def initial(cls, matrix: ExchangeMatrix) -> "TrackedSeed":
        n = matrix.n
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        zero = tuple((0,) * n for _ in range(n))
        return cls(Seed.initial(matrix), ident, ident, zero,
                   matrix.b, matrix.skew_symmetrizer())

    @property
    def n(self):
        return self.seed.matrix.n

    def matrix(self) -> ExchangeMatrix:
        return self.seed.matrix


def mutate_tracked(t: TrackedSeed, k: int) -> TrackedSeed:
    """Advance seed, C, G and F consistently in direction k (1-based)."""
    n = t.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    b = t.seed.matrix.b
    b_k = b[kk]
    # nonzero weights [b_ik]+, [-b_ik]+ and [c_ik]+ as (i, weight) pairs
    up = [(i, w) for i, w in enumerate(_pos(row[kk]) for row in b) if w]
    down = [(i, w) for i, w in enumerate(_pos(-row[kk]) for row in b) if w]
    c_up = [(i, w) for i, w in enumerate(_pos(row[kk]) for row in t.c) if w]

    c = tuple(
        tuple(-x if j == kk else
              x + _pos(b_kj) * row[kk] + b_kj * _pos(-row[kk])
              for j, (x, b_kj) in enumerate(zip(row, b_k)))
        for row in t.c)
    g, f = [], []
    for g_row, f_row, c_row, b0_row in zip(t.g, t.f, t.c, t.b0):
        g_rk = (-g_row[kk] + sum(w * g_row[i] for i, w in up)
                - sum(w * b0_row[i] for i, w in c_up))
        f_rk = max(_pos(c_row[kk]) + sum(w * f_row[i] for i, w in up),
                   _pos(-c_row[kk]) + sum(w * f_row[i] for i, w in down)) \
            - f_row[kk]
        if f_rk < 0:
            raise WitnessedFault({"check": "F-column turned negative",
                                  "matrix": b, "c": t.c, "f": t.f,
                                  "direction": k})
        g.append(g_row[:kk] + (g_rk,) + g_row[kk + 1:])
        f.append(f_row[:kk] + (f_rk,) + f_row[kk + 1:])
    return TrackedSeed(mutate_seed(t.seed, k), c, tuple(g), tuple(f),
                       t.b0, t.s)


def run_walk(matrix: ExchangeMatrix, walk) -> TrackedSeed:
    t = TrackedSeed.initial(matrix)
    for k in walk:
        t = mutate_tracked(t, k)
    return t


def d_matrix(t: TrackedSeed):
    """Columns are the denominator vectors of the cluster entries."""
    cols = [p.denominator_vector() for p in t.seed.cluster]
    return [[cols[j][i] for j in range(t.n)] for i in range(t.n)]


def check_tropical_duality(t: TrackedSeed) -> bool:
    """Exact identity G^tr S C = S."""
    n = t.n
    for i in range(n):
        for j in range(n):
            total = sum(t.g[r][i] * t.s[r] * t.c[r][j] for r in range(n))
            if total != (t.s[i] if i == j else 0):
                return False
    return True


def check_langlands_dualities(walk, matrix: ExchangeMatrix) -> bool:
    """F_t = S^-1 F^v_t S and C_t = S^-1 C^v_t S for the given walk.

    Both sides are compared after clearing S, so the check stays integral.
    """
    t = run_walk(matrix, walk)
    tv = run_walk(langlands_dual(matrix), walk)
    s = t.s
    n = t.n
    for m, mv in ((t.f, tv.f), (t.c, tv.c)):
        for i in range(n):
            for j in range(n):
                # M = S^-1 M^v S  <=>  s_i M_ij = M^v_ij s_j
                if s[i] * m[i][j] != mv[i][j] * s[j]:
                    return False
    return True


@dataclass(frozen=True)
class ClusterMonomial:
    """A monomial in the cluster variables of one tracked seed."""

    vertex: TrackedSeed
    exponents: tuple  # nonnegative ints, one per cluster position

    def __post_init__(self):
        if len(self.exponents) != self.vertex.n:
            raise ValueError("exponent vector has wrong length")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")
        if not any(self.exponents):
            raise ValueError("at least one exponent must be positive")

    def value(self) -> LaurentPoly:
        out = LaurentPoly.one(self.vertex.n)
        for p, e in zip(self.vertex.seed.cluster, self.exponents):
            if e:
                out = out * p ** e
        return out


def vectors_of_factors(n, factors):
    """d-, g-, f- and fbar-vectors of a monomial in cluster variables.

    `factors` holds (exponent, d, g, f) per variable.  All four vectors are
    linear in the exponents.  fbar replaces the zero f-vector of an initial
    cluster variable x_k by its d-vector, which is -e_k.
    """
    d = [0] * n
    g = [0] * n
    f = [0] * n
    fbar = [0] * n
    for e, d_col, g_col, f_col in factors:
        fbar_col = f_col if any(f_col) else d_col
        for r in range(n):
            d[r] += e * d_col[r]
            g[r] += e * g_col[r]
            f[r] += e * f_col[r]
            fbar[r] += e * fbar_col[r]
    return {"d": tuple(d), "g": tuple(g), "f": tuple(f), "fbar": tuple(fbar)}


def vectors_of_monomial(m: ClusterMonomial):
    """d-, g-, f- and fbar-vectors of the monomial (see vectors_of_factors)."""
    t = m.vertex
    return vectors_of_factors(t.n, [
        (e, p.denominator_vector(), g_col, f_col)
        for e, p, g_col, f_col in zip(m.exponents, t.seed.cluster,
                                      zip(*t.g), zip(*t.f)) if e])
