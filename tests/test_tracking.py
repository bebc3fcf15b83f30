import dataclasses
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterlab.errors import WitnessedFault
from clusterlab.exchange import ExchangeMatrix, langlands_dual, mutate_matrix
from clusterlab.explore import standard_matrix
from clusterlab.tracking import (
    ClusterMonomial, TrackedSeed, check_dual_seeds, d_matrix, mutate_tracked,
    run_walk, vectors_of_monomial,
)

A2 = ExchangeMatrix(((0, 1), (-1, 0)))
C2 = ExchangeMatrix(((0, 1), (-2, 0)))
C3 = ExchangeMatrix(((0, 1, 0), (-2, 0, 1), (0, -1, 0)))


def check_pair(t, tv):
    """check_dual_seeds on the pair, with their D-matrices read by
    `d_matrix`."""
    check_dual_seeds(t, tv, (d_matrix(t), d_matrix(tv)))


def check_dual_walk(matrix, walk):
    """check_pair at the seeds the walk reaches from the matrix and from
    its Langlands dual."""
    check_pair(run_walk(matrix, walk), run_walk(langlands_dual(matrix), walk))


def test_root_conditions():
    t = TrackedSeed.initial(A2)
    assert t.c == ((1, 0), (0, 1))
    assert t.g == ((1, 0), (0, 1))
    assert t.f == ((0, 0), (0, 0))
    check_dual_walk(A2, [])


def test_first_step_c_and_f_columns():
    for matrix in (A2, C2, C3):
        n = matrix.n
        for k in range(1, n + 1):
            t = mutate_tracked(TrackedSeed.initial(matrix), k)
            c_col = tuple(t.c[r][k - 1] for r in range(n))
            f_col = tuple(t.f[r][k - 1] for r in range(n))
            e_k = tuple(1 if r == k - 1 else 0 for r in range(n))
            assert c_col == tuple(-x for x in e_k)
            assert f_col == e_k


def test_a2_g_vector_after_mu1():
    t = mutate_tracked(TrackedSeed.initial(A2), 1)
    assert tuple(t.g[r][0] for r in range(2)) == (-1, 1)
    check_dual_walk(A2, [1])


def test_d_matrix_walks():
    assert d_matrix(TrackedSeed.initial(A2)) == [[-1, 0], [0, -1]]
    t = run_walk(A2, [1])
    assert d_matrix(t) == [[1, 0], [0, -1]]
    t = run_walk(A2, [1, 2])
    assert d_matrix(t) == [[1, 1], [0, 1]]


def test_duality_along_all_a2_walks():
    for length in range(7):
        for walk in itertools.product((1, 2), repeat=length):
            check_dual_walk(A2, walk)


def test_duality_random_c3_walks():
    rng = random.Random(3)
    for _ in range(100):
        t = TrackedSeed.initial(C3)
        tv = TrackedSeed.initial(langlands_dual(C3))
        for _ in range(15):
            k = rng.randint(1, 3)
            t, tv = mutate_tracked(t, k), mutate_tracked(tv, k)
            check_pair(t, tv)


def test_langlands_dualities_c2_short_walks():
    check_dual_walk(C2, [])
    for length in range(1, 7):
        for walk in itertools.product((1, 2), repeat=length):
            check_dual_walk(C2, walk)


def test_langlands_degenerates_for_skew_symmetric():
    for walk in itertools.product((1, 2), repeat=4):
        t = run_walk(A2, walk)
        tv = run_walk(langlands_dual(A2), walk)
        assert t.f == tv.f and t.c == tv.c
        check_pair(t, tv)


def _bump(m):
    """The matrix with 1 added to its (1, 1) entry."""
    return ((m[0][0] + 1,) + m[0][1:],) + m[1:]


B2 = standard_matrix("B", 2)
B2_WALK = (1, 2, 1)


@pytest.mark.parametrize("break_pair, relation, sides", [
    # the C2 seed given the B2 seed's exchange matrix, and so B2's
    # symmetrizer
    (lambda t, tv: (t, dataclasses.replace(tv, seed=dataclasses.replace(
        tv.seed, matrix=t.seed.matrix))), "symmetrizer",
     [(1, 2), (1, 2)]),
    # the C2 seed's exchange matrix mutated once more: C2's symmetrizer,
    # but not the dual of the B2 seed's matrix
    (lambda t, tv: (t, dataclasses.replace(tv, seed=dataclasses.replace(
        tv.seed, matrix=mutate_matrix(tv.seed.matrix, 1)))), "B",
     [((0, -2), (1, 0)), ((0, 1), (-2, 0))]),
    (lambda t, tv: (dataclasses.replace(
        t, c=tuple(tuple(-x for x in row) for row in t.c)), tv), "C",
     [((1, 0), (1, -1)), ((-1, 0), (-2, 1))]),
    (lambda t, tv: (dataclasses.replace(t, f=_bump(t.f)), tv), "F",
     [((2, 2), (1, 1)), ((1, 1), (2, 1))]),
    (lambda t, tv: (dataclasses.replace(t, g=_bump(t.g)), tv), "G",
     [((0, -2), (0, 1)), ((-1, -1), (0, 1))]),
    # the B2 cluster listed in reverse, so its D-matrix columns swap
    (lambda t, tv: (dataclasses.replace(t, seed=dataclasses.replace(
        t.seed, cluster=t.seed.cluster[::-1])), tv), "D",
     [[[2, 1], [1, 1]], [[1, 1], [2, 1]]]),
    # one diagonal G entry bumped on both sides keeps G = S^-1 G^v S, and
    # G^tr S C then differs from S in its (1, 1) entry on both sides
    (lambda t, tv: (dataclasses.replace(t, g=_bump(t.g)),
                    dataclasses.replace(tv, g=_bump(tv.g))), "tropical",
     [[[0, 0], [0, 2]], [[0, 0], [0, 1]]]),
])
def test_check_dual_seeds_names_each_broken_relation(break_pair, relation,
                                                     sides):
    t = run_walk(B2, B2_WALK)
    tv = run_walk(langlands_dual(B2), B2_WALK)
    check_pair(t, tv)
    with pytest.raises(WitnessedFault) as fault:
        check_pair(*break_pair(t, tv))
    assert fault.value.witness == {"check": "Langlands duality",
                                   "relation": relation, "sides": sides}


def test_monomial_vectors_at_root():
    t = TrackedSeed.initial(A2)
    m = ClusterMonomial(t, (1, 1))
    v = vectors_of_monomial(m)
    assert v["d"] == (-1, -1)
    assert v["f"] == (0, 0)
    assert v["fbar"] == (-1, -1)
    assert v["g"] == (1, 1)


def test_monomial_square_after_mu1():
    t = run_walk(A2, [1])
    m = ClusterMonomial(t, (2, 0))
    assert vectors_of_monomial(m)["d"] == (2, 0)


def test_monomial_validation():
    t = TrackedSeed.initial(A2)
    with pytest.raises(ValueError):
        ClusterMonomial(t, (0, 0))
    with pytest.raises(ValueError):
        ClusterMonomial(t, (1, -1))


def test_f_equals_d_for_non_initial_finite_type():
    for matrix in (A2, C2):
        for walk in itertools.product(range(1, matrix.n + 1), repeat=5):
            t = run_walk(matrix, walk)
            dm = d_matrix(t)
            for j in range(matrix.n):
                f_col = tuple(t.f[r][j] for r in range(matrix.n))
                if any(f_col):  # non-initial entry
                    assert f_col == tuple(dm[r][j] for r in range(matrix.n))


def test_c_and_g_matrices_unimodular_along_walks():
    from clusterlab import linalg
    rng = random.Random(5)
    for matrix in (A2, C2, C3):
        for _ in range(30):
            t = TrackedSeed.initial(matrix)
            for _ in range(10):
                t = mutate_tracked(t, rng.randint(1, matrix.n))
                assert linalg.det([list(r) for r in t.c]) in (1, -1)
                assert linalg.det([list(r) for r in t.g]) in (1, -1)


def test_f_column_zero_iff_initial_entry():
    # F columns stay nonnegative; a column vanishes exactly when the
    # cluster entry is a coordinate monomial
    for matrix in (A2, C2):
        for walk in itertools.product(range(1, matrix.n + 1), repeat=5):
            t = run_walk(matrix, walk)
            for j in range(matrix.n):
                f_col = [t.f[r][j] for r in range(matrix.n)]
                assert all(x >= 0 for x in f_col)
                entry = t.seed.cluster[j]
                is_coordinate = len(entry) == 1 and \
                    sorted(entry.terms()[0][0]) == [0] * (matrix.n - 1) + [1]
                assert (not any(f_col)) == is_coordinate


def test_non_initial_d_vectors_nonnegative():
    for matrix in (A2, C2, C3):
        for walk in itertools.product(range(1, matrix.n + 1), repeat=4):
            t = run_walk(matrix, walk)
            dm = d_matrix(t)
            for j in range(matrix.n):
                if any(t.f[r][j] for r in range(matrix.n)):
                    assert all(dm[r][j] >= 0 for r in range(matrix.n))


def test_different_monomials_different_g_vectors():
    # exhaustive on A2 and C2 up to degree 2, with monomials deduplicated
    # as formal products of distinct variables
    from clusterlab.explore import enumerate_monomials, explore, monomial_vectors
    for matrix in (A2, C2):
        graph = explore(matrix)
        seen = {}
        for key in enumerate_monomials(graph, 2):
            g = monomial_vectors(graph, key)["g"]
            assert g not in seen or seen[g] == key
            seen[g] = key


def test_matrix_mutation_commutes_with_dual():
    from clusterlab.exchange import langlands_dual, mutate_matrix
    rng = random.Random(9)
    for matrix in (A2, C2, C3):
        for k in range(1, matrix.n + 1):
            assert langlands_dual(mutate_matrix(matrix, k)) == \
                mutate_matrix(langlands_dual(matrix), k)


def _pos(x):
    return max(x, 0)


def _column_recursion(t, k, c, g, f):
    """Reference: the C, G and F recursions applied column by column, on
    column lists c[j][r], g[j][r], f[j][r] of the matrices at t."""
    n = t.n
    kk = k - 1
    b = t.seed.matrix.b
    ck = c[kk]
    new_c = [[-x for x in ck] if j == kk else
             [c[j][r] + _pos(b[kk][j]) * ck[r] + b[kk][j] * _pos(-ck[r])
              for r in range(n)] for j in range(n)]
    gk = [-x for x in g[kk]]
    for i in range(n):
        gk = [x + _pos(b[i][kk]) * y for x, y in zip(gk, g[i])]
        gk = [x - _pos(ck[i]) * t.b0[r][i] for r, x in enumerate(gk)]
    up = [_pos(x) for x in ck]
    down = [_pos(-x) for x in ck]
    for i in range(n):
        up = [x + _pos(b[i][kk]) * y for x, y in zip(up, f[i])]
        down = [x + _pos(-b[i][kk]) * y for x, y in zip(down, f[i])]
    fk = [max(u, d) - x for u, d, x in zip(up, down, f[kk])]
    new_g = list(g)
    new_g[kk] = gk
    new_f = list(f)
    new_f[kk] = fk
    return new_c, new_g, new_f


def _columns(m):
    return [list(col) for col in zip(*m)]


@given(st.sampled_from("ABC"), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_row_wise_mutation_matches_column_recursion(series, rank, data):
    walk = data.draw(st.lists(st.integers(1, rank), max_size=12))
    t = TrackedSeed.initial(standard_matrix(series, rank))
    c, g, f = _columns(t.c), _columns(t.g), _columns(t.f)
    for k in walk:
        c, g, f = _column_recursion(t, k, c, g, f)
        t = mutate_tracked(t, k)
        assert (_columns(t.c), _columns(t.g), _columns(t.f)) == (c, g, f)


def test_seeded_walks_pinned():
    # sha256 of the cluster (to_str) and the C, G and F matrices after
    # every step of three seeded 10-step walks from each standard matrix of
    # series A, B and C at ranks 2 to 4, read before the Laurent and
    # mutation kernel was trimmed
    rng = random.Random(18)
    record = []
    for series in "ABC":
        for n in range(2, 5):
            matrix = standard_matrix(series, n)
            for _ in range(3):
                t = TrackedSeed.initial(matrix)
                for _ in range(10):
                    t = mutate_tracked(t, rng.randint(1, n))
                    record.append([[p.to_str() for p in t.seed.cluster],
                                   t.c, t.g, t.f])
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == (
        "f46a1bc621eee99a4cfbb5a6cfb8e7518fbfbc11a4026a98739c25579de1a52f")


def test_mutate_tracked_reports_a_negative_f_column():
    # an F-matrix that mutation in direction 1 would turn negative: on A2,
    # f'_11 = max([c_11]+, [-c_11]+ + f_12) - f_11 = max(1, f_12) - f_11
    t = TrackedSeed.initial(A2)
    bad = TrackedSeed(t.seed, t.c, t.g, ((5, 0), (0, 0)), t.b0)
    with pytest.raises(WitnessedFault) as fault:
        mutate_tracked(bad, 1)
    assert fault.value.witness["check"] == "F-column turned negative"
    assert fault.value.witness["direction"] == 1
