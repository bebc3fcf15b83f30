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

from .errors import WitnessedFault
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
                    raise WitnessedFault({
                        "check": "same cluster variable, different vectors",
                        "matrix": matrix.b, "variable": poly.to_str(),
                        "vectors": [(known.d, known.g, known.f),
                                    (info.d, info.g, info.f)]})
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


def _compatible_multisets(compatible, weights, cap):
    """Yield (multiset, weight) for every pairwise compatible multiset of
    total multiplicity <= cap over the indices of `weights`, the empty one
    first.  A multiset is ((index, multiplicity), ...) with increasing
    indices; its weight is the sum of multiplicity * weights[index].

    The weights are ints; a vector is swept as one int packed by
    `verify._pack`, wide enough that its sums never carry from one field
    into the next, so each step of the sweep is one int addition.

    `compatible(i, j)` is asked once for each j < i, when index i is
    reached, so a consumer that stops early asks no further questions.
    Index i extends the multisets found over indices < i in the order they
    were found; the witnesses callers report depend on this order.
    """
    yield (), 0
    # extendable states: (multiset, total, bitmask of its indices, weight)
    states = [((), 0, 0, 0)] if cap > 0 else []
    for i, row in enumerate(weights):
        clash = 0
        for j in range(i):
            if not compatible(i, j):
                clash |= 1 << j
        new_states = []
        for chosen, total, mask, weight in states:
            if mask & clash:
                continue
            for mult in range(1, cap - total + 1):
                weight += row
                child = chosen + ((i, mult),)
                yield child, weight
                if total + mult < cap:
                    new_states.append(
                        (child, total + mult, mask | 1 << i, weight))
        states.extend(new_states)


def enumerate_monomials(graph: ExchangeGraph, degree_cap: int):
    """Stream the keys of the cluster monomials of total degree 1..cap,
    deduplicated globally.

    A key is the monomial's ((variable id, exponent), ...) factors by
    increasing id, so equal monomials met in several clusters come out
    once.  Each cluster's monomials are its variables' multisets, listed by
    `_compatible_multisets`; keys come cluster by cluster, in the order the
    graph holds the clusters.
    """
    if not graph.complete:
        raise BoundExceeded("monomial enumeration needs a complete graph")
    # multisets of positions in a cluster, the same for every cluster;
    # [1:] drops the empty one
    multisets = list(_compatible_multisets(
        lambda i, j: True, [0] * graph.n, degree_cap))[1:]
    seen = set()
    for var_ids in graph.vertices:
        for chosen, _ in multisets:
            key = tuple((var_ids[i], e) for i, e in chosen)
            if key not in seen:
                seen.add(key)
                yield key


def monomial_vectors(graph: ExchangeGraph, key):
    """d/g/f/fbar vectors of a deduplicated monomial key."""
    variables = graph.variables
    return vectors_of_factors(graph.n, [
        (e, variables[v].d, variables[v].g, variables[v].f) for v, e in key])
