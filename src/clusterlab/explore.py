"""Exhaustive exchange-graph exploration for finite-type seed patterns.

Vertices are unlabeled clusters: a cluster is identified with the frozen set
of its variables' Laurent expansions, so relabelings of the same seed are
merged.  Per distinct cluster variable the explorer records the d-, g- and
f-vectors, asserting along the way that repeated encounters of a variable at
different vertices always report the same vectors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .exchange import ExchangeMatrix
from .tracking import TrackedSeed, mutate_tracked, vectors_of_factors


class BoundExceeded(RuntimeError):
    pass


@dataclass
class VariableInfo:
    poly: object
    d: tuple
    g: tuple
    f: tuple

    @property
    def initial(self):
        return not any(self.f)


@dataclass
class ExchangeGraph:
    n: int
    complete: bool
    vertices: list = field(default_factory=list)   # sorted var-id tuples
    edges: set = field(default_factory=set)        # frozenset({u, v}) pairs
    variable_index: dict = field(default_factory=dict)  # poly -> id
    variables: list = field(default_factory=list)  # id -> VariableInfo
    reps: list = field(default_factory=list)       # one TrackedSeed per vertex
    seeds_expanded: int = 0

    def neighbors(self, v):
        out = set()
        for e in self.edges:
            if v in e:
                (other,) = e - {v}
                out.add(other)
        return out

    def cluster_count(self):
        return len(self.vertices)

    def variable_count(self):
        return len(self.variables)


def explore(matrix: ExchangeMatrix, max_seeds: int = 100000) -> ExchangeGraph:
    """Breadth-first closure of the seed pattern under all n mutations.

    Returns the complete graph when closure happens within `max_seeds`
    clusters; otherwise the graph comes back flagged incomplete.
    """
    if max_seeds <= 0:
        raise ValueError("max_seeds must be positive")
    n = matrix.n
    graph = ExchangeGraph(n=n, complete=False)
    root = TrackedSeed.initial(matrix)
    key_to_id = {}

    def intern_vertex(t: TrackedSeed):
        key = t.seed.cluster_key()
        if key in key_to_id:
            return key_to_id[key], False
        vid = len(graph.vertices)
        key_to_id[key] = vid
        var_ids = []
        for poly, g_col, f_col in zip(t.seed.cluster, zip(*t.g), zip(*t.f)):
            info = VariableInfo(poly, poly.denominator_vector(), g_col, f_col)
            if poly in graph.variable_index:
                known = graph.variables[graph.variable_index[poly]]
                if (known.d, known.g, known.f) != (info.d, info.g, info.f):
                    raise AssertionError(
                        "same cluster variable reported different vectors")
            else:
                graph.variable_index[poly] = len(graph.variables)
                graph.variables.append(info)
            var_ids.append(graph.variable_index[poly])
        graph.vertices.append(tuple(sorted(var_ids)))
        graph.reps.append(t)
        return vid, True

    root_id, _ = intern_vertex(root)
    queue = deque([root_id])
    while queue:
        vid = queue.popleft()
        if graph.seeds_expanded >= max_seeds:
            graph.complete = False
            return graph
        graph.seeds_expanded += 1
        t = graph.reps[vid]
        for k in range(1, n + 1):
            t2 = mutate_tracked(t, k)
            wid, fresh = intern_vertex(t2)
            if wid != vid:
                graph.edges.add(frozenset({vid, wid}))
            if fresh:
                queue.append(wid)
    graph.complete = True
    return graph


@dataclass(frozen=True)
class FiniteTypeLabel:
    series: str  # "A".."G2" or "not finite on tested walks"
    rank: int

    def __str__(self):
        if self.series.startswith("not"):
            return self.series
        return f"{self.series}{self.rank}"


def _cartan_candidates(n):
    """Standard Cartan matrices of the finite series at rank n."""

    def chain(entries):
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j, v in entries:
            m[i][j] = v
        return m

    def simply_laced_chain():
        return [(i, i + 1, -1) for i in range(n - 1)] + \
               [(i + 1, i, -1) for i in range(n - 1)]

    out = {}
    if n >= 1:
        out["A"] = chain(simply_laced_chain())
    if n >= 2:
        # C: the first simple root long, symmetrizer diag{2,1,...,1}
        ent = simply_laced_chain()
        ent = [(i, j, v) for (i, j, v) in ent if (i, j) != (1, 0)] + [(1, 0, -2)]
        out["C"] = chain(ent)
        ent = simply_laced_chain()
        ent = [(i, j, v) for (i, j, v) in ent if (i, j) != (0, 1)] + [(0, 1, -2)]
        out["B"] = chain(ent)
    if n == 2:
        out["G2"] = [[2, -1], [-3, 2]]
        del out["B"]  # permutation-equivalent to C at rank 2
    if n >= 4:
        ent = [(i, i + 1, -1) for i in range(n - 3)] + \
              [(i + 1, i, -1) for i in range(n - 3)] + \
              [(n - 3, n - 2, -1), (n - 2, n - 3, -1),
               (n - 3, n - 1, -1), (n - 1, n - 3, -1)]
        out["D"] = chain(ent)
    if n == 4:
        out["F4"] = [[2, -1, 0, 0], [-1, 2, -1, 0],
                     [0, -2, 2, -1], [0, 0, -1, 2]]
    if n in (6, 7, 8):
        ent = [(i, i + 1, -1) for i in range(n - 2)] + \
              [(i + 1, i, -1) for i in range(n - 2)] + \
              [(2, n - 1, -1), (n - 1, 2, -1)]
        out[f"E{n}"] = chain(ent)
    return out


def _perm_equivalent(a, b, n):
    """Simultaneous row/column permutation equivalence of two n x n matrices."""
    from itertools import permutations

    row_sig = sorted(sorted(row) for row in a)
    if row_sig != sorted(sorted(row) for row in b):
        return False
    for perm in permutations(range(n)):
        if all(a[perm[i]][perm[j]] == b[i][j]
               for i in range(n) for j in range(n)):
            return True
    return False


def classify_finite_type(matrix: ExchangeMatrix, depth: int = 8,
                         max_matrices: int = 4000) -> FiniteTypeLabel:
    """Search reachable exchange matrices for a finite-type Cartan counterpart.

    At rank 2 types B and C coincide up to relabeling; the label returned is C.
    """
    from .exchange import cartan_counterpart, mutate_matrix

    n = matrix.n
    candidates = _cartan_candidates(n)
    order = [s for s in ("A", "C", "B", "D", "E6", "E7", "E8", "F4", "G2")
             if s in candidates]
    seen = {matrix.b}
    frontier = [matrix]
    for _ in range(depth + 1):
        for m in frontier:
            cc = cartan_counterpart(m)
            for series in order:
                if _perm_equivalent(cc, candidates[series], n):
                    return FiniteTypeLabel(
                        series=series.rstrip("0123456789"), rank=n)
        nxt = []
        for m in frontier:
            for k in range(1, n + 1):
                m2 = mutate_matrix(m, k)
                if m2.b not in seen:
                    seen.add(m2.b)
                    nxt.append(m2)
                    if len(seen) > max_matrices:
                        return FiniteTypeLabel("not finite on tested walks", n)
        if not nxt:
            break
        frontier = nxt
    return FiniteTypeLabel("not finite on tested walks", n)


def standard_matrix(series: str, rank: int) -> ExchangeMatrix:
    """Initial exchange matrices for the A/B/C series used by the harnesses.

    C has skew-symmetrizer diag{2,1,...,1} (first root long); B is its
    Langlands dual with symmetrizer diag{1,2,...,2}.
    """
    n = rank
    b = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        b[i][i + 1] = 1
        b[i + 1][i] = -1
    if series == "A":
        pass
    elif series == "C":
        if n < 2:
            raise ValueError("series C needs rank >= 2")
        b[1][0] = -2
    elif series == "B":
        if n < 2:
            raise ValueError("series B needs rank >= 2")
        b[0][1] = 2
    else:
        raise ValueError(f"unknown series {series!r}")
    return ExchangeMatrix(tuple(tuple(r) for r in b))


def enumerate_monomials(graph: ExchangeGraph, degree_cap: int):
    """Stream cluster monomials of total degree 1..cap, deduplicated globally.

    A monomial is identified by its multiset of (variable id, exponent)
    factors, so equal monomials met in several clusters come out once.
    Yields (key, vertex_id, exponents) triples in deterministic order.
    """
    if not graph.complete:
        raise BoundExceeded("monomial enumeration needs a complete graph")
    seen = set()
    n = graph.n
    for vid, var_ids in enumerate(graph.vertices):
        for exps in _compositions_up_to(n, degree_cap):
            key = tuple(sorted((var_ids[i], e)
                               for i, e in enumerate(exps) if e))
            if key not in seen:
                seen.add(key)
                yield key, vid, exps


def _compositions_up_to(n, cap):
    """All nonnegative exponent vectors with 1 <= sum <= cap, degree-graded."""
    for total in range(1, cap + 1):
        yield from _compositions_exact(n, total)


def _compositions_exact(n, total):
    vec = [0] * n

    def rec(pos, remaining):
        if pos == n - 1:
            vec[pos] = remaining
            yield tuple(vec)
            vec[pos] = 0
            return
        for e in range(remaining + 1):
            vec[pos] = e
            yield from rec(pos + 1, remaining - e)
        vec[pos] = 0

    yield from rec(0, total)


def monomial_vectors(graph: ExchangeGraph, key):
    """d/g/f/fbar vectors of a deduplicated monomial key."""
    variables = graph.variables
    return vectors_of_factors(graph.n, [
        (e, variables[v].d, variables[v].g, variables[v].f) for v, e in key])
