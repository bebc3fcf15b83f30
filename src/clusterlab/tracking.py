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

C changes entrywise, row by row as the rows below B of the extended exchange
matrix (`exchange.mutate_row`): [b_kj]+ c_rk + b_kj [-c_rk]+ is |b_kj| c_rk
when b_kj has the sign of c_rk and 0 otherwise, so only the rows with
c_rk != 0 change.  G and F change only in column k.  The g-recursion sums
initial-matrix columns b0_i weighted by the positive parts of the c-column;
that reading is pinned down by the exact identity G^tr S C = S, which
`check_dual_seeds` checks at every paired B/C vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WitnessedFault
from .exchange import (ExchangeMatrix, Seed, dual_symmetrizer, mutate_row,
                       mutate_seed, split_signs)
from .laurent import LaurentPoly, product


@dataclass(frozen=True)
class TrackedSeed:
    seed: Seed
    c: tuple  # C-matrix, tuple of row tuples
    g: tuple  # G-matrix
    f: tuple  # F-matrix (columns nonnegative)
    b0: tuple  # initial exchange matrix rows

    @classmethod
    def initial(cls, matrix: ExchangeMatrix) -> "TrackedSeed":
        n = matrix.n
        ident = tuple(tuple(1 if i == j else 0 for j in range(n))
                      for i in range(n))
        zero = tuple((0,) * n for _ in range(n))
        return cls(Seed.initial(matrix), ident, ident, zero, matrix.b)

    @property
    def n(self):
        return self.seed.matrix.n


def mutate_tracked(t: TrackedSeed, k: int) -> TrackedSeed:
    """Advance seed, C, G and F consistently in direction k (1-based)."""
    n = t.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    b = t.seed.matrix.b
    signs = split_signs(b[kk])
    # nonzero weights [b_ik]+, [-b_ik]+ and [c_ik]+ as (i, weight) pairs
    up, down = split_signs([row[kk] for row in b])
    c_up = [(i, row[kk]) for i, row in enumerate(t.c) if row[kk] > 0]

    c, g, f = [], [], []
    for c_row, g_row, f_row, b0_row in zip(t.c, t.g, t.f, t.b0):
        c_rk = c_row[kk]
        c.append(mutate_row(c_row, kk, signs))
        g_rk = -g_row[kk]
        f_plus = c_rk if c_rk > 0 else 0
        f_minus = -c_rk if c_rk < 0 else 0
        for i, w in up:
            g_rk += w * g_row[i]
            f_plus += w * f_row[i]
        for i, w in down:
            f_minus += w * f_row[i]
        for i, w in c_up:
            g_rk -= w * b0_row[i]
        f_rk = max(f_plus, f_minus) - f_row[kk]
        if f_rk < 0:
            raise WitnessedFault({"check": "F-column turned negative",
                                  "matrix": b, "c": t.c, "f": t.f,
                                  "direction": k})
        g.append(g_row[:kk] + (g_rk,) + g_row[kk + 1:])
        f.append(f_row[:kk] + (f_rk,) + f_row[kk + 1:])
    return TrackedSeed(mutate_seed(t.seed, k), tuple(c), tuple(g), tuple(f),
                       t.b0)


def run_walk(matrix: ExchangeMatrix, walk) -> TrackedSeed:
    t = TrackedSeed.initial(matrix)
    for k in walk:
        t = mutate_tracked(t, k)
    return t


def d_matrix(t: TrackedSeed):
    """Columns are the denominator vectors of the cluster entries."""
    cols = [p.denominator_vector() for p in t.seed.cluster]
    return [[cols[j][i] for j in range(t.n)] for i in range(t.n)]


def check_dual_seeds(t: TrackedSeed, tv: TrackedSeed, d):
    """Raise `WitnessedFault`, naming the relation and giving both sides,
    unless the symmetrizers s of t's matrix and s^v of tv's have
    s^v = `dual_symmetrizer(s)`, s_i M_ij = M^v_ij s_j for M = B, C, F, G
    and D (`d`: the D-matrices of t and tv), and G^tr S C = S on both sides
    (Nakanishi-Zelevinsky 2012); one mutation sequence reaches t from a root
    matrix and tv from its Langlands dual."""
    def fail(relation, *sides):
        raise WitnessedFault({"check": "Langlands duality",
                              "relation": relation, "sides": list(sides)})

    n = t.n
    s, sv = (u.seed.matrix.skew_symmetrizer() for u in (t, tv))
    if sv != dual_symmetrizer(s):
        fail("symmetrizer", s, sv)
    for name, m, mv in (("B", t.seed.matrix.b, tv.seed.matrix.b),
                        ("C", t.c, tv.c), ("F", t.f, tv.f), ("G", t.g, tv.g),
                        ("D", *d)):
        if any(s[i] * m[i][j] != mv[i][j] * s[j]
               for i in range(n) for j in range(n)):
            fail(name, m, mv)
    gsc = [[[sum(u.g[r][i] * z[r] * u.c[r][j] for r in range(n))
             for j in range(n)] for i in range(n)]
           for u, z in ((t, s), (tv, sv))]
    if gsc != [[[z[i] * (i == j) for j in range(n)] for i in range(n)]
               for z in (s, sv)]:
        fail("tropical", *gsc)


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
        return product(self.vertex.n, [
            p ** e for p, e in zip(self.vertex.seed.cluster, self.exponents)
            if e])


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
