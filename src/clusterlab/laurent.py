"""Multivariate Laurent polynomials with arbitrary-precision integer coefficients.

A LaurentPoly stores a map from exponent vectors (tuples of ints, negative
entries allowed) to nonzero integer coefficients.  Values are immutable and
canonical: two polynomials are equal exactly when their term maps are equal,
so they can serve as dictionary keys and set members, which the exchange-graph
machinery relies on for deduplicating clusters.

The public constructor validates and cleans the term map it is given.  The
arithmetic builds term maps that are canonical by construction (tuple keys
of the right length, no zero coefficient) and wraps them through the internal
`LaurentPoly._of`, which skips that validation.  Powers and products start
from their first factor, so no multiplication is by one.

Printing and iteration use a fixed graded-lexicographic term order (total
degree first, then lexicographic on exponent tuples, both descending) so that
serialized output is deterministic.  `divide_exact` walks the remainder in
the same order, taking each leading term off a heap of its exponent keys.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import add, mul, sub

from .errors import InexactDivisionError

Exponents = tuple  # tuple[int, ...], one entry per variable


def _grlex_key(exps):
    return (sum(exps), exps)


class LaurentPoly:
    """Immutable Laurent polynomial in `n_vars` variables over the integers."""

    __slots__ = ("n_vars", "_terms", "_hash")

    def __init__(self, n_vars, terms=None):
        if n_vars <= 0:
            raise ValueError("n_vars must be positive")
        self.n_vars = n_vars
        clean = {}
        for exps, coef in (terms or {}).items():
            if len(exps) != n_vars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if coef:
                clean[tuple(exps)] = int(coef)
        self._terms = clean
        self._hash = None

    @classmethod
    def _of(cls, n_vars, clean):
        """The polynomial whose term map is `clean`, taken as it is: the
        caller guarantees tuple keys of length n_vars and no zero
        coefficient."""
        p = object.__new__(cls)
        p.n_vars = n_vars
        p._terms = clean
        p._hash = None
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, n_vars):
        return cls(n_vars, {(0,) * n_vars: 1})

    @classmethod
    def variable(cls, n_vars, i):
        """The coordinate monomial x_{i+1} (index `i` is 0-based)."""
        exps = [0] * n_vars
        exps[i] = 1
        return cls(n_vars, {tuple(exps): 1})

    # -- basic protocol ---------------------------------------------------

    def terms(self):
        """Terms as (exponents, coefficient) pairs in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.n_vars == other.n_vars
                and self._terms == other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n_vars, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({self.n_vars}, {self.to_str()!r})"

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"variable-count mismatch: {self.n_vars} vs {other.n_vars}")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self._terms)
        for exps, coef in other._terms.items():
            s = out.get(exps, 0) + coef
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return LaurentPoly._of(self.n_vars, out)

    def __neg__(self):
        return LaurentPoly._of(self.n_vars,
                               {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._of(self.n_vars, out)

    def __pow__(self, k):
        """Square-and-multiply from the lowest bit; p ** 1 is p itself."""
        if k < 0:
            raise ValueError("negative powers are not supported")
        if k == 0:
            return LaurentPoly.one(self.n_vars)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- Laurent structure --------------------------------------------------

    def min_exponents(self):
        """Componentwise minimum exponent over all terms (zero poly: error)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no exponent range")
        its = iter(self._terms)
        mins = list(next(its))
        for exps in its:
            for i, e in enumerate(exps):
                if e < mins[i]:
                    mins[i] = e
        return tuple(mins)

    def denominator_vector(self):
        """d_k = -(minimum exponent of variable k); raises on the zero polynomial."""
        return tuple(-m for m in self.min_exponents())

    # -- serialization ------------------------------------------------------

    def to_str(self):
        """Deterministic textual form: `coef * x1^e1 ... xn^en` terms joined by ` + `."""
        if self.is_zero():
            return "0"
        parts = []
        for exps, coef in self.terms():
            factors = [f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
                       for i, e in enumerate(exps) if e != 0]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(" * ".join(factors))
            elif coef == -1:
                parts.append("-" + " * ".join(factors))
            else:
                parts.append(f"{coef} * " + " * ".join(factors))
        return " + ".join(parts)


def product(n_vars, factors):
    """The product of `factors`, taken left to right; one when there are none."""
    return reduce(mul, factors) if factors else LaurentPoly.one(n_vars)


def _heap_key(exps):
    """Heap entry of an exponent vector: heapq pops the smallest entry,
    which is the grlex-largest vector, since negating every entry reverses
    both the degree and the lexicographic comparison."""
    return (-sum(exps), tuple(-e for e in exps), exps)


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient in the Laurent ring: returns q with q * den == num.

    Both operands are shifted by monomials until they are honest polynomials
    with per-variable minimum exponent zero; exactness is then equivalent to
    polynomial divisibility (with integer coefficient quotients), decided by
    leading-term division in graded-lex order.  Raises InexactDivisionError
    when no quotient exists.

    The remainder's leading term comes off a heap of its exponent keys.  A
    key is pushed when its term appears in the remainder, and a popped key
    whose term has since cancelled is skipped.  Each step adds terms below
    the current leading term only (grlex is a monomial order), so the heap
    yields the remainder's leading terms in the order a full scan would, and
    the division fails on exactly the inputs a full scan fails on.  The
    quotient is canonical by construction and wrapped by `LaurentPoly._of`.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.n_vars != den.n_vars:
        raise ValueError(f"variable-count mismatch: {num.n_vars} vs {den.n_vars}")
    n = num.n_vars
    if num.is_zero():
        return num
    num_min = num.min_exponents()
    den_min = den.min_exponents()
    rem = {tuple(map(sub, e, num_min)): c for e, c in num._terms.items()}
    den0 = [(tuple(map(sub, e, den_min)), c) for e, c in den._terms.items()]
    den_lead_e, den_lead_c = max(den0, key=lambda t: _grlex_key(t[0]))

    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        lead_e = heapq.heappop(heap)[2]
        lead_c = rem.get(lead_e)
        if lead_c is None:
            continue
        q_e = tuple(map(sub, lead_e, den_lead_e))
        if any(e < 0 for e in q_e) or lead_c % den_lead_c != 0:
            raise InexactDivisionError(
                "inexact division: remainder has no divisible leading term")
        q_c = lead_c // den_lead_c
        quotient[q_e] = q_c
        for e, c in den0:
            te = tuple(map(add, q_e, e))
            s = rem.get(te)
            if s is None:
                rem[te] = -q_c * c
                heapq.heappush(heap, _heap_key(te))
            elif s == q_c * c:
                del rem[te]
            else:
                rem[te] = s - q_c * c
    shift = tuple(map(sub, num_min, den_min))
    return LaurentPoly._of(n, {tuple(map(add, e, shift)): c
                               for e, c in quotient.items()})
