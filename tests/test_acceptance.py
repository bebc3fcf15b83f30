"""Acceptance suite: one test per criterion, all exact arithmetic.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Shared heavy runs are session-scoped fixtures so the intersection-vector
sweep is executed once for both criteria that consume it.
"""

import itertools
import random
import time

import pytest

from clusterlab.errors import WitnessedFault
from clusterlab.exchange import ExchangeMatrix, langlands_dual, mutate_matrix
from clusterlab.explore import explore, standard_matrix
from clusterlab.tracking import (TrackedSeed, check_dual_seeds, d_matrix,
                                 mutate_tracked, run_walk)
from clusterlab.verify import (verify_denominator, verify_denominator_duality,
                               verify_fvector_injectivity, verify_thm1,
                               verify_thm2, verify_type_c_categorification)


def _criterion(number, description, ok, elapsed):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} " \
           f"({elapsed:.1f}s)"
    print(line)
    assert ok, line


def _random_skew_symmetrizable(rng, n):
    from math import gcd
    s = [rng.randint(1, 3) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.randint(-2, 2)
            if c:
                g = gcd(s[i], s[j])
                b[i][j] = c * s[j] // g
                b[j][i] = -c * s[i] // g
    return ExchangeMatrix(tuple(tuple(r) for r in b))


def _dual_seeds_ok(t, tv):
    """Whether check_dual_seeds passes on the pair, with their D-matrices
    read by `d_matrix`."""
    try:
        check_dual_seeds(t, tv, (d_matrix(t), d_matrix(tv)))
    except WitnessedFault:
        return False
    return True


@pytest.fixture(scope="session")
def thm1_report():
    return verify_thm1(marked_max=8, mult_cap=3)


@pytest.fixture(scope="session")
def explored_graphs():
    mats = {"A2": standard_matrix("A", 2), "A3": standard_matrix("A", 3),
            "B2": standard_matrix("B", 2), "C2": standard_matrix("C", 2),
            "C3": standard_matrix("C", 3)}
    return {name: explore(m) for name, m in mats.items()}


def test_criterion_1_mutation_core():
    start = time.perf_counter()
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 5)
        m = _random_skew_symmetrizable(rng, n)
        s = m.skew_symmetrizer()
        cur = m
        for _ in range(rng.randint(1, 20)):
            k = rng.randint(1, n)
            nxt = mutate_matrix(cur, k)
            if mutate_matrix(nxt, k) != cur:
                ok = False
            for i in range(n):
                for j in range(n):
                    if s[i] * nxt.b[i][j] != -s[j] * nxt.b[j][i]:
                        ok = False
            cur = nxt
    _criterion(1, "mutation involution and skew-symmetrizer preservation "
                  "over 1000 random walks", ok, time.perf_counter() - start)


def test_criterion_2_laurent_phenomenon():
    start = time.perf_counter()
    graph = explore(standard_matrix("A", 2))
    ok = graph.complete and len(graph.vertices) == 5 \
        and len(graph.variables) == 5
    dvs = sorted(info.d for info in graph.variables)
    ok = ok and dvs == sorted([(-1, 0), (0, -1), (1, 0), (1, 1), (0, 1)])
    # exact division never raised anywhere in the closure
    _criterion(2, "A2 exchange graph closes with 5 clusters / 5 variables "
                  "and the expected d-vectors", ok,
               time.perf_counter() - start)


def test_criterion_3_tropical_duality(explored_graphs):
    start = time.perf_counter()
    ok = True
    # each graph's seeds paired with its dual graph's seeds of the same id,
    # which one mutation sequence reaches when the two tables agree
    for name, graph in explored_graphs.items():
        dual = explore(langlands_dual(graph.reps[0].seed.matrix))
        if dual.reached != graph.reached:
            ok = False
        for rep, dual_rep in zip(graph.reps, dual.reps):
            if not _dual_seeds_ok(rep, dual_rep):
                ok = False
    rng = random.Random(3)
    c3 = standard_matrix("C", 3)
    for _ in range(100):
        t = TrackedSeed.initial(c3)
        tv = TrackedSeed.initial(langlands_dual(c3))
        for _ in range(15):
            k = rng.randint(1, 3)
            t, tv = mutate_tracked(t, k), mutate_tracked(tv, k)
            if not _dual_seeds_ok(t, tv):
                ok = False
    _criterion(3, "tropical duality G^tr S C = S and the Langlands "
                  "dualities at every seed of five explored graphs, paired "
                  "with their duals' seeds, and on 100 random walks", ok,
               time.perf_counter() - start)


def test_criterion_4_langlands_duality():
    start = time.perf_counter()
    c2 = standard_matrix("C", 2)
    b2 = langlands_dual(c2)
    ok = True
    for length in range(7):
        for walk in itertools.product((1, 2), repeat=length):
            if not _dual_seeds_ok(run_walk(c2, walk), run_walk(b2, walk)):
                ok = False
    _criterion(4, "Langlands dualities M = S^-1 M' S for M = C, F, G, D "
                  "on all B2/C2 walks of length <= 6", ok,
               time.perf_counter() - start)


def test_criterion_5_f_equals_d(explored_graphs):
    start = time.perf_counter()
    ok = True
    for name, graph in explored_graphs.items():
        for info in graph.variables:
            if info.initial:
                continue
            if info.f != info.d:
                ok = False
    _criterion(5, "f-vector equals d-vector for every non-initial variable "
                  "of A2, A3, B2, C2, C3", ok, time.perf_counter() - start)


# The converse witness depends on the enumeration order of multisets.
THM1_CONVERSE = {"converse": {
    "tiling": (8, ((2, 4), (2, 8), (4, 6), (6, 8))),
    "vector": (1, 1, 2, 2),
    "multisets": [
        [{"endpoints": (3, 1), "mult": 1}, {"endpoints": (7, 5), "mult": 2}],
        [{"endpoints": (5, 3), "mult": 1}, {"endpoints": (7, 5), "mult": 1},
         {"endpoints": (1, 7), "mult": 1}]]}}


def test_criterion_6_intersection_injectivity(thm1_report):
    r = thm1_report
    ok = r.verdict == "pass" and r.counts == {
        "tilings": 252, "outside_taxonomy": 907, "admissible": 250,
        "forbidden": 2, "multisets": 63512, "converse_witnesses": 2} \
        and r.witnesses == [THM1_CONVERSE] and r.result_digest == \
        "2854ceacf3c8cb1d2576b67fcfab1a0b2b4d2612018505363aa16d1eccb62d82"
    _criterion(6, "intersection vectors injective on all admissible disc "
                  "tilings (4..8 points, multiplicity <= 3) with octagon "
                  "converse witness", ok, r.duration_s)


def test_criterion_7_key_lemma(thm1_report):
    # profile injectivity is checked inside the same sweep, over admissible
    # and forbidden tilings alike; any collision would have failed the run
    r = thm1_report
    ok = r.verdict == "pass" and r.counts["multisets"] > 0
    _criterion(7, "segment profiles determine multisets on the same "
                  "instance family", ok, r.duration_s)


def test_criterion_8_dimension_dichotomy():
    r = verify_thm2(vertex_max=4, arrow_max=6, mult_cap=3)
    ok = r.verdict == "pass" and r.counts == {
        "algebras": 2209, "representation_finite": 355,
        "representation_infinite_skipped": 1854, "with_even_cycle": 113,
        "without_even_cycle": 242, "max_multiplicity_needed": 2} \
        and r.result_digest == \
        "ebe44bded2c74641be266c0b994432acdaa83fc980e0cc24b5d3eb1e5ef9b6c2"
    _criterion(8, "even-full-cycle presence matches dimension-vector "
                  "collisions, with the Cartan determinant cross-check, on "
                  f"{r.counts['representation_finite']} representation-finite "
                  "gentle algebras", ok, r.duration_s)


def test_criterion_9_fbar_injectivity():
    r = verify_fvector_injectivity(rank_max=3, degree_cap=3)
    ok = r.verdict == "pass" and r.counts["triangulations_cross_checked"] == 19
    _criterion(9, "fbar-vectors separate degree <= 3 monomials in A2/A3; "
                  "arc intersection vectors equal cluster f-vectors on all "
                  "pentagon and hexagon triangulations", ok, r.duration_s)


# Monomials checked and clusters re-rooted from, per series and rank bound.
DENOMINATOR_COUNTS = {
    ("A", 3): {"monomials": 1740, "reroots": 19},
    ("B", 2): {"monomials": 252, "reroots": 6},
    ("C", 3): {"monomials": 3318, "reroots": 26}}


def test_criterion_10_denominator_injectivity():
    start = time.perf_counter()
    ok = True
    for (series, rank_max), counts in DENOMINATOR_COUNTS.items():
        r = verify_denominator(series=series, rank_max=rank_max, degree_cap=3,
                               initial_seeds="all")
        if r.verdict != "pass" or r.counts != counts:
            ok = False
    dual = verify_denominator_duality(rank_max=3, degree_cap=3)
    # B and C monomials alike: 2 * (36 + 146)
    if dual.verdict != "pass" or dual.counts != {
            "verdicts": {"B": "pass", "C": "pass"}, "monomials": 364,
            "rank2_pairs": 6, "rank3_pairs": 20}:
        ok = False
    _criterion(10, "d-vectors separate degree <= 3 monomials for A2, A3, "
                   "B2, C2, C3 from every cluster, with independent "
                   "D-columns, and B/C seeds paired by Langlands duality",
               ok,
               time.perf_counter() - start)


def test_criterion_11_type_c_categorification():
    r = verify_type_c_categorification(rank_max=3, degree_cap=3)
    ok = r.verdict == "pass" and r.counts == {
        "C2_ind_tau_rigid": 4, "C2_pairs": 36,
        "C3_ind_tau_rigid": 9, "C3_pairs": 146}
    _criterion(11, "tau-rigid inventory of the one-holed disc's algebra "
                   "matches type C cluster data for C2 and C3, with "
                   "conditions (a)-(e)",
               ok, r.duration_s)
