import hashlib
import importlib
import itertools
import json
from collections import Counter

import pytest

from clusterlab.errors import WitnessedFault
from clusterlab.exchange import mutate_seed, Seed
from clusterlab.explore import (
    enumerate_monomials, explore, monomial_vectors, standard_matrix,
)
from clusterlab.tracking import TrackedSeed

# the module, not the function that the package exports under its name
explore_module = importlib.import_module("clusterlab.explore")

A2 = standard_matrix("A", 2)
A3 = standard_matrix("A", 3)
C2 = standard_matrix("C", 2)


def edges(graph):
    """The frozenset({v, w}) pairs, w != v, with (v, k) -> w."""
    return {frozenset({v, w}) for v, targets in enumerate(graph.reached)
            for w in targets if w != v}


def test_a2_closure_counts():
    g = explore(A2)
    assert g.complete
    assert len(g.vertices) == 5
    assert len(g.variables) == 5


def test_a2_d_vectors():
    g = explore(A2)
    dvs = sorted(info.d for info in g.variables)
    assert dvs == sorted([(-1, 0), (0, -1), (1, 0), (1, 1), (0, 1)])


def test_a3_closure_counts():
    g = explore(A3)
    assert g.complete and len(g.vertices) == 14 and len(g.variables) == 9


def test_c2_closure_counts():
    g = explore(C2)
    assert g.complete and len(g.vertices) == 6 and len(g.variables) == 6


def test_every_vertex_has_n_neighbors():
    # n-regular, so |E| = n |V| / 2: A3 has 21 edges, B4 and C4 140 each
    expected_edges = {"A3": 21, "B4": 140, "C4": 140}
    for series in "ABC":
        for n in range(2, 5):
            g = explore(standard_matrix(series, n))
            degree = Counter(v for e in edges(g) for v in e)
            assert all(degree[v] == n for v in range(len(g.vertices)))
            assert 2 * len(edges(g)) == n * len(g.vertices)
            name = f"{series}{n}"
            if name in expected_edges:
                assert len(edges(g)) == expected_edges[name], name


# A2 explores to the pentagon with reached = [(1, 2), (0, 3), (4, 0),
# (4, 1), (2, 3)]; vertex 3 is the cluster reached by mutating at 1, then 2
_A2_THIRD = mutate_seed(mutate_seed(Seed.initial(A2), 1), 2).cluster_key()


@pytest.mark.parametrize("wrong, witness", [
    # every direction acts as direction 1: the root has one neighbour twice
    (lambda real, t, k: real(t, 1),
     {"vertex": 0, "direction": 2, "reached": 1,
      "vertex_neighbours": (1, 1)}),
    # direction 2 leaves the seed as it is: the root is its own neighbour
    (lambda real, t, k: t if k == 2 else real(t, k),
     {"vertex": 0, "direction": 2, "reached": 0,
      "vertex_neighbours": (1, 0)}),
    # direction 1 at vertex 3 leads back to the root, which does not have 3
    # among its neighbours
    (lambda real, t, k: TrackedSeed.initial(A2)
     if k == 1 and t.seed.cluster_key() == _A2_THIRD else real(t, k),
     {"vertex": 3, "direction": 1, "reached": 0,
      "vertex_neighbours": (0, 1), "reached_neighbours": (1, 2)}),
])
def test_explore_checks_the_graph_is_regular_and_symmetric(monkeypatch,
                                                           wrong, witness):
    real = explore_module.mutate_tracked
    monkeypatch.setattr(explore_module, "mutate_tracked",
                        lambda t, k: wrong(real, t, k))
    with pytest.raises(WitnessedFault) as fault:
        explore(A2)
    got = fault.value.witness
    assert got["check"] == "exchange graph not n-regular and symmetric"
    assert got["matrix"] == A2.b
    assert {key: got[key] for key in witness} == witness


def test_explore_pinned():
    # sha256 of everything explore returns (vertices, edges, variables with
    # their vectors, and each vertex's representative seed) for the
    # standard matrices of series A, B and C at ranks 2 to 4, read before
    # the Laurent and mutation kernel was trimmed
    record = []
    for series in "ABC":
        for n in range(2, 5):
            g = explore(standard_matrix(series, n))
            record.append([g.complete, len(g.reached), g.vertices,
                           sorted(sorted(e) for e in edges(g)),
                           [[v.poly.to_str(), v.d, v.g, v.f]
                            for v in g.variables],
                           [[[p.to_str() for p in t.seed.cluster],
                             t.c, t.g, t.f] for t in g.reps]])
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == (
        "7b834cd8c1766dca56b79666cec782230d97dc0400b91abb8e9eec9e82860dee")


def test_exploration_order_independent():
    # depth-first closure oracle over unlabeled clusters
    def dfs_closure(matrix):
        root = Seed.initial(matrix)
        seen = {root.cluster_key()}
        stack = [root]
        while stack:
            s = stack.pop()
            for k in range(1, matrix.n + 1):
                s2 = mutate_seed(s, k)
                if s2.cluster_key() not in seen:
                    seen.add(s2.cluster_key())
                    stack.append(s2)
        return seen

    for m in (A2, C2, A3):
        g = explore(m)
        bfs_keys = {frozenset(g.variables[i].poly for i in vert)
                    for vert in g.vertices}
        assert bfs_keys == dfs_closure(m)


def test_truncation_reports_incomplete():
    g = explore(A3, max_seeds=3)
    assert not g.complete


def test_enumerate_monomials_counts():
    # brute force: every exponent vector of every cluster, deduplicated
    counts = {}
    for m in (A2, A3, standard_matrix("B", 3), standard_matrix("C", 3)):
        g = explore(m)
        for cap in range(4):
            keys = list(enumerate_monomials(g, cap))
            brute = set()
            for vert in g.vertices:
                for exps in itertools.product(range(cap + 1), repeat=m.n):
                    if 0 < sum(exps) <= cap:
                        brute.add(tuple((v, e) for v, e in zip(vert, exps)
                                        if e))
            assert sorted(keys) == sorted(brute), (m, cap)
            counts[m, cap] = len(keys)
    # degree <= 2 on A2: 5 variables plus 10 distinct quadratic monomials
    # (5 squares each shared by two clusters, 5 compatible products)
    assert [counts[A2, cap] for cap in range(3)] == [0, 5, 15]
    assert counts[A3, 3] == 104


def test_monomial_vector_linearity():
    g = explore(A2)
    for key in enumerate_monomials(g, 2):
        v = monomial_vectors(g, key)
        manual_d = [0, 0]
        for var_id, e in key:
            for r in range(2):
                manual_d[r] += e * g.variables[var_id].d[r]
        assert v["d"] == tuple(manual_d)


def test_explore_rejects_bad_bound():
    with pytest.raises(ValueError):
        explore(A2, max_seeds=0)


def test_closure_counts_against_golden_file():
    # the golden file was produced by this same closure oracle and pins the
    # counts against regressions
    import json
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "closure_goldens.json")
        .read_text())
    for name, expected in golden.items():
        series, rank = name[0], int(name[1:])
        g = explore(standard_matrix(series, rank))
        assert g.complete
        assert len(g.vertices) == expected["clusters"], name
        assert len(g.variables) == expected["variables"], name
