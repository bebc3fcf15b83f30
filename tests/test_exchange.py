import random

import pytest

from clusterlab.errors import NotSkewSymmetrizableError
from clusterlab.exchange import (
    ExchangeMatrix, Seed, dual_symmetrizer,
    find_skew_symmetrizer, langlands_dual, mutate_matrix, mutate_seed,
    parse_mutation_sequence,
)
from clusterlab.laurent import LaurentPoly

A2 = ExchangeMatrix(((0, 1), (-1, 0)))
C2 = ExchangeMatrix(((0, 1), (-2, 0)))
A3 = ExchangeMatrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)))


def random_skew_symmetrizable(rng, n):
    s = [rng.randint(1, 3) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-2, 2)
            if c:
                from math import gcd
                g = gcd(s[i], s[j])
                b[i][j] = c * s[j] // g
                b[j][i] = -c * s[i] // g
    return ExchangeMatrix(tuple(tuple(r) for r in b))


def test_mutate_sign_flips_only():
    assert mutate_matrix(A2, 1).b == ((0, -1), (1, 0))


def test_mutate_is_involution_random():
    rng = random.Random(7)
    for _ in range(50):
        m = random_skew_symmetrizable(rng, rng.randint(2, 5))
        k = rng.randint(1, m.n)
        assert mutate_matrix(mutate_matrix(m, k), k) == m


def test_mutate_rank3_hand_oracle():
    # entrywise application of the mutation rule at k=2, fixed by hand
    assert mutate_matrix(A3, 2).b == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_out_of_range():
    with pytest.raises(IndexError):
        mutate_matrix(A2, 3)


def test_skew_symmetrizer_already_skew():
    assert find_skew_symmetrizer([[0, 1], [-1, 0]]) == (1, 1)


def test_skew_symmetrizer_type_c():
    assert find_skew_symmetrizer([[0, 1], [-2, 0]]) == (2, 1)


def test_skew_symmetrizer_per_component():
    # each connected component is scaled to its own minimal symmetrizer
    assert find_skew_symmetrizer(
        [[0, 1, 0, 0, 0], [-2, 0, 0, 0, 0], [0, 0, 0, 2, 0],
         [0, 0, -1, 0, 0], [0, 0, 0, 0, 0]]) == (2, 1, 1, 2, 1)
    assert find_skew_symmetrizer([[0, 3, 0], [-1, 0, 0], [0, 0, 0]]) == (1, 3, 1)
    assert find_skew_symmetrizer([[0, -2, 0], [1, 0, 0], [0, 0, 0]]) == (1, 2, 1)


def test_skew_symmetrizer_failure():
    with pytest.raises(NotSkewSymmetrizableError):
        find_skew_symmetrizer([[0, 1], [1, 0]])
    # a mutated matrix is checked against the symmetrizer it inherits
    with pytest.raises(NotSkewSymmetrizableError):
        ExchangeMatrix._with_symmetrizer(((0, 1), (-2, 0)), (1, 1))


def test_skew_symmetrizer_preserved_by_mutation():
    rng = random.Random(11)
    for _ in range(100):
        m = random_skew_symmetrizable(rng, rng.randint(2, 5))
        s = m.skew_symmetrizer()
        for _ in range(8):
            m = mutate_matrix(m, rng.randint(1, m.n))
            assert m.skew_symmetrizer() == find_skew_symmetrizer(m.b) == s
            for i in range(m.n):
                for j in range(m.n):
                    assert s[i] * m.b[i][j] == -s[j] * m.b[j][i]


def test_langlands_dual():
    assert langlands_dual(C2).b == ((0, 2), (-1, 0))
    assert langlands_dual(langlands_dual(C2)) == C2
    assert langlands_dual(A2) == A2
    assert dual_symmetrizer((2, 1)) == (1, 2)


def test_seed_mutation_a2_first_step():
    s = mutate_seed(Seed.initial(A2), 1)
    assert s.cluster[0] == LaurentPoly(2, {(-1, 1): 1, (-1, 0): 1})
    assert s.cluster[1] == LaurentPoly.variable(2, 1)


def test_seed_mutation_involution():
    s0 = Seed.initial(A3)
    for k in (1, 2, 3):
        assert mutate_seed(mutate_seed(s0, k), k) == s0


def test_a2_pentagon_periodicity():
    s = Seed.initial(A2)
    for k in (1, 2, 1, 2, 1):
        s = mutate_seed(s, k)
    assert s.cluster == (LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 0))
    assert s.cluster_key() == Seed.initial(A2).cluster_key()


def test_matrix_json_round_trip():
    text = A2.to_json()
    assert ExchangeMatrix.from_json(text) == A2
    assert ExchangeMatrix.from_json('{"n": 2, "B": [[0,1],[-2,0]]}') == C2


def test_parse_mutation_sequence():
    assert parse_mutation_sequence("1,2,1") == [1, 2, 1]
    assert parse_mutation_sequence("") == []
