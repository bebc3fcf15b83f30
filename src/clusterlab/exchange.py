"""Skew-symmetrizable exchange matrices, seeds, and mutation.

Mutation directions are 1-based in every public signature (matching the
usual indexing of matrix rows by 1..n); internal arithmetic is 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import NotSkewSymmetrizableError
from .laurent import LaurentPoly, divide_exact, product


def find_skew_symmetrizer(b):
    """Minimal positive integer diagonal S with S B skew-symmetric.

    Ratios s_j/s_i are forced along every pair with b_ij != 0; they are
    propagated through a spanning forest of that graph and then verified
    globally.  Raises NotSkewSymmetrizableError when no diagonal exists.
    """
    n = len(b)
    for i in range(n):
        if len(b[i]) != n:
            raise ValueError("matrix must be square")
        if b[i][i] != 0:
            raise NotSkewSymmetrizableError(f"nonzero diagonal entry at {i + 1}")
        for j in range(n):
            if (b[i][j] != 0) != (b[j][i] != 0):
                raise NotSkewSymmetrizableError(
                    f"support asymmetry at ({i + 1},{j + 1})")
            if b[i][j] != 0 and b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizableError(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) share a sign")

    s = [None] * n
    out = [0] * n
    for root in range(n):
        if s[root] is not None:
            continue
        s[root] = Fraction(1)
        members = []
        stack = [root]
        while stack:
            i = stack.pop()
            members.append(i)
            for j in range(n):
                if b[i][j] != 0 and s[j] is None:
                    # s_i b_ij = -s_j b_ji  =>  s_j = -s_i b_ij / b_ji
                    s[j] = -s[i] * b[i][j] / Fraction(b[j][i])
                    stack.append(j)
        # clear the component's denominators, then reduce it by its gcd
        denoms = lcm(*(s[i].denominator for i in members))
        vals = [int(s[i] * denoms) for i in members]
        g = gcd(*vals)
        for i, v in zip(members, vals):
            out[i] = v // g
    for i in range(n):
        for j in range(n):
            if out[i] * b[i][j] != -out[j] * b[j][i]:
                raise NotSkewSymmetrizableError(
                    f"ratio conflict at ({i + 1},{j + 1})")
    return tuple(out)


@dataclass(frozen=True)
class ExchangeMatrix:
    """An n x n skew-symmetrizable integer matrix with zero diagonal."""

    b: tuple  # tuple of row tuples
    # the minimal skew-symmetrizer; equality and hashing read b only
    _s: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.b)
        object.__setattr__(self, "b", rows)
        # raises if not skew-symmetrizable
        object.__setattr__(self, "_s", find_skew_symmetrizer(rows))

    @classmethod
    def _with_symmetrizer(cls, rows, s):
        """The matrix with integer rows `rows` and the minimal symmetrizer
        s, which is checked rather than derived; raises if s does not
        skew-symmetrize the rows."""
        n = len(rows)
        for i in range(n):
            for j in range(i, n):
                if s[i] * rows[i][j] != -s[j] * rows[j][i]:
                    raise NotSkewSymmetrizableError(
                        f"symmetrizer {s} fails at ({i + 1},{j + 1})")
        m = object.__new__(cls)
        object.__setattr__(m, "b", rows)
        object.__setattr__(m, "_s", s)
        return m

    @property
    def n(self):
        return len(self.b)

    def skew_symmetrizer(self):
        return self._s

    def to_json(self):
        return json.dumps({"n": self.n, "B": [list(r) for r in self.b]})

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rows = data["B"]
        if data.get("n", len(rows)) != len(rows):
            raise ValueError("declared size does not match the matrix")
        return cls(tuple(tuple(r) for r in rows))


def mutate_matrix(m: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation in direction k (1-based).

    Mutation keeps the minimal skew-symmetrizer (it keeps the set of
    symmetrizers and the components of the support graph), so the result
    is checked against the input's instead of deriving its own.
    """
    n = m.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    signs = split_signs(m.b[kk])
    rows = tuple(tuple(-x for x in row) if i == kk
                 else mutate_row(row, kk, signs)
                 for i, row in enumerate(m.b))
    return ExchangeMatrix._with_symmetrizer(rows, m.skew_symmetrizer())


def split_signs(values):
    """The nonzero entries of a row or column by sign, with their indices:
    ([(j, v) for v > 0], [(j, -v) for v < 0])."""
    return ([(j, v) for j, v in enumerate(values) if v > 0],
            [(j, -v) for j, v in enumerate(values) if v < 0])


def mutate_row(row, kk, signs):
    """A row of the extended exchange matrix, other than row k, mutated in
    direction k (0-based `kk`; `signs` is `split_signs` of row k of B).

    x_ij + [x_ik]+ b_kj + x_ik [-b_kj]+ is x_ij + |b_kj| x_ik when b_kj has
    the sign of x_ik and x_ij otherwise, and x_ik turns into -x_ik; so a
    row with x_ik = 0 comes back as it is.  The rows of B other than row k
    mutate this way, and so do the rows of the C-matrix, which sits below B
    in the extended matrix of principal coefficients.
    """
    x_k = row[kk]
    if not x_k:
        return row
    new = list(row)
    for j, w in signs[0] if x_k > 0 else signs[1]:
        new[j] += w * x_k
    new[kk] = -x_k
    return tuple(new)


def langlands_dual(m: ExchangeMatrix) -> ExchangeMatrix:
    """The negative transpose; swaps the roles of rows and columns of S."""
    n = m.n
    return ExchangeMatrix(tuple(tuple(-m.b[j][i] for j in range(n))
                                for i in range(n)))


def dual_symmetrizer(s):
    """Minimal skew-symmetrizer of B^v given one of B: proportional to 1/s_i."""
    m = lcm(*s)
    vals = [m // v for v in s]
    g = gcd(*vals)
    return tuple(v // g for v in vals)


@dataclass(frozen=True)
class Seed:
    """Exchange matrix plus the cluster, expanded in the initial variables."""

    matrix: ExchangeMatrix
    cluster: tuple  # tuple[LaurentPoly, ...]

    @classmethod
    def initial(cls, matrix: ExchangeMatrix) -> "Seed":
        n = matrix.n
        return cls(matrix, tuple(LaurentPoly.variable(n, i) for i in range(n)))

    def cluster_key(self):
        """Unordered fingerprint of the cluster, for seed deduplication."""
        return frozenset(self.cluster)


def mutate_seed(s: Seed, k: int) -> Seed:
    """Seed mutation: replaces cluster entry k via the exchange relation.

    The division by the old variable is exact Laurent division; a failure
    there would falsify the Laurent phenomenon and signals a bug.  Each
    monomial of the relation is the product of its factors x_i^|b_ik|,
    started from the first factor.
    """
    n = s.matrix.n
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")
    kk = k - 1
    plus, minus = (product(n, [s.cluster[i] ** w for i, w in part])
                   for part in split_signs([row[kk] for row in s.matrix.b]))
    new_entry = divide_exact(plus + minus, s.cluster[kk])
    cluster = list(s.cluster)
    cluster[kk] = new_entry
    return Seed(mutate_matrix(s.matrix, k), tuple(cluster))


def parse_mutation_sequence(text):
    """Comma-separated 1-based directions -> list of ints."""
    if not text.strip():
        return []
    return [int(tok) for tok in text.split(",")]
