"""Exhaustive exchange-graph exploration for finite-type seed patterns.

Vertices are unlabeled clusters: a cluster is identified with the frozen set
of its variables' Laurent expansions, so relabelings of the same seed are
merged.  Per distinct cluster variable the explorer records the d-, g- and
f-vectors.  The d-vector is read off the Laurent expansion once, when the
variable is first seen: a later sighting is found by that same expansion,
so its d-vector could only repeat the first.  The g- and f-vectors come
from the C, G and F recursions along the path that reached the vertex
(`mutate_tracked`), independently of the expansion, so every later
sighting checks them against the first.  Each edge is computed from both of
its ends, and a complete graph is checked to be n-regular and symmetric,
so the second computation of every edge is a check on the first.
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
    reached: list = field(default_factory=list)    # id -> ids reached by 1..n
    variable_index: dict = field(default_factory=dict)  # poly -> id
    variables: list = field(default_factory=list)  # id -> VariableInfo
    reps: list = field(default_factory=list)       # one TrackedSeed per vertex


def explore(matrix: ExchangeMatrix, max_seeds: int = 100000) -> ExchangeGraph:
    """Breadth-first closure of the seed pattern under all n mutations.

    Returns the complete graph when closure happens within `max_seeds`
    clusters; otherwise the graph comes back flagged incomplete.  Vertex v
    is expanded as the v-th, so `reached[v][k - 1]` is the vertex that
    mutating v's representative in direction k reaches.
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
            if poly in graph.variable_index:
                known = graph.variables[graph.variable_index[poly]]
                if (known.g, known.f) != (g_col, f_col):
                    raise WitnessedFault({
                        "check": "same cluster variable, different vectors",
                        "matrix": matrix.b, "variable": poly.to_str(),
                        "vectors": [(known.d, known.g, known.f),
                                    (known.d, g_col, f_col)]})
            else:
                graph.variable_index[poly] = len(graph.variables)
                graph.variables.append(VariableInfo(
                    poly, poly.denominator_vector(), g_col, f_col))
            var_ids.append(graph.variable_index[poly])
        graph.vertices.append(tuple(sorted(var_ids)))
        graph.reps.append(t)
        return vid, True

    root_id, _ = intern_vertex(root)
    queue = deque([root_id])
    while queue:
        vid = queue.popleft()
        if len(graph.reached) >= max_seeds:
            graph.complete = False
            return graph
        t = graph.reps[vid]
        targets = []
        for k in range(1, n + 1):
            wid, fresh = intern_vertex(mutate_tracked(t, k))
            targets.append(wid)
            if fresh:
                queue.append(wid)
        graph.reached.append(tuple(targets))
    graph.complete = True
    _check_regular(matrix, graph.reached)
    return graph


def _check_regular(matrix, reached):
    """Raise a WitnessedFault unless the n directions at each vertex v lead
    to n distinct vertices other than v, and v is among the neighbours of
    each of them (vertices are unlabeled clusters, so the direction back
    from w may have another index)."""
    for v, targets in enumerate(reached):
        for k, w in enumerate(targets, 1):
            if w == v or w in targets[:k - 1] or v not in reached[w]:
                raise WitnessedFault({
                    "check": "exchange graph not n-regular and symmetric",
                    "matrix": matrix.b, "vertex": v, "direction": k,
                    "reached": w, "vertex_neighbours": targets,
                    "reached_neighbours": reached[w]})


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


def _compatible_multisets(clashes, weights, cap):
    """Yield (multiset, weight) for every pairwise compatible multiset of
    total multiplicity <= cap over the indices of `weights`, the empty one
    first.  A multiset is ((index, multiplicity), ...) with increasing
    indices; its weight is the sum of multiplicity * weights[index].

    The weights are ints; a vector is swept as one int packed by
    `verify._pack`, wide enough that its sums never carry from one field
    into the next, so each step of the sweep is one int addition.

    `clashes(i)` is the clash mask of index i: bit j is set when j < i is
    not compatible with i.  It is asked once, when index i is reached, so a
    consumer that stops early asks no further questions.  Index i extends
    the multisets found over indices < i in the order they were found; the
    witnesses callers report depend on this order.
    """
    yield (), 0
    # extendable states: (multiset, total, bitmask of its indices, weight)
    states = [((), 0, 0, 0)] if cap > 0 else []
    for i, row in enumerate(weights):
        clash = clashes(i)
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
        lambda i: 0, [0] * graph.n, degree_cap))[1:]
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
