import hashlib
import random

import pytest

from clusterlab.errors import (InfiniteDimensionalAlgebraError,
                               InvalidStringError, NotSkewSymmetrizableError,
                               WitnessedFault)
from clusterlab.exchange import ExchangeMatrix
from clusterlab.explore import explore, standard_matrix
from clusterlab.quiver import (
    Arrow, BoundQuiver, StringWord, cartan_matrix, canonical_word,
    check_gentle, check_qb_conditions, detect_even_full_cycle,
    enumerate_strings, letter_graph_acyclic, projective_paths, validate_word,
)


def loop_algebra():
    return BoundQuiver(1, [Arrow("rho", 0, 0)], [("rho", "rho")])


def a2_path():
    return BoundQuiver(2, [Arrow("a", 0, 1)], [])


def two_cycle_full():
    return BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)],
                       [("a", "b"), ("b", "a")])


def three_cycle_full():
    return BoundQuiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 2, 0)],
                       [("a", "b"), ("b", "c"), ("c", "a")])


def four_cycle_full():
    arrows = [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 2, 3), Arrow("d", 3, 0)]
    rels = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    return BoundQuiver(4, arrows, rels)


def test_gentle_loop():
    assert check_gentle(loop_algebra()).ok


def test_gentle_g1_violation():
    q = BoundQuiver(4, [Arrow("a", 0, 1), Arrow("b", 0, 2), Arrow("c", 0, 3)], [])
    cert = check_gentle(q)
    assert not cert.ok and cert.violated == "G1"


def test_gentle_g2_violation():
    # two distinct relation successors for the same arrow
    q = BoundQuiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 1, 0)],
                    [("a", "b"), ("a", "c")])
    cert = check_gentle(q)
    assert not cert.ok and cert.violated == "G2"


def test_relation_must_be_composable():
    with pytest.raises(ValueError):
        BoundQuiver(2, [Arrow("a", 0, 1)], [("a", "a")])


def test_even_cycle_detection():
    assert detect_even_full_cycle(two_cycle_full()) is not None
    assert detect_even_full_cycle(loop_algebra()) is None
    assert detect_even_full_cycle(three_cycle_full()) is None
    cyc = detect_even_full_cycle(four_cycle_full())
    assert cyc is not None and len(cyc) == 4


def test_cartan_two_cycle():
    c, d = cartan_matrix(two_cycle_full())
    assert c == [[1, 1], [1, 1]] and d == 0


def test_cartan_loop():
    c, d = cartan_matrix(loop_algebra())
    assert c == [[2]] and d == 2


def test_cartan_infinite_dimensional():
    # the error names the relation-free cycle, from the projective's vertex
    q = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)], [])
    with pytest.raises(InfiniteDimensionalAlgebraError) as exc:
        cartan_matrix(q)
    assert str(exc.value) == "relation-free cycle ['a', 'b'] through vertex 1"
    with pytest.raises(InfiniteDimensionalAlgebraError) as exc:
        projective_paths(q, 1)
    assert str(exc.value) == "relation-free cycle ['b', 'a'] through vertex 2"


def test_opposite_and_projective_paths_are_computed_once():
    q = two_cycle_full()
    opp = q.opposite()
    assert q.opposite() is opp
    assert {(a.id, a.src, a.tgt) for a in opp.arrows.values()} == \
        {("a", 1, 0), ("b", 0, 1)}
    assert opp.relations == {("b", "a"), ("a", "b")}
    paths = projective_paths(q, 0)
    assert projective_paths(q, 0) is paths
    assert paths == (((), 0), (("a",), 1))
    assert isinstance(paths, tuple)
    assert all(isinstance(p, tuple) and isinstance(p[0], tuple)
               for p in paths)
    with pytest.raises(TypeError):
        paths[0] = ((), 1)
    # an infinite-dimensional projective is never kept: every call raises
    free = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)], [])
    for _ in range(2):
        with pytest.raises(InfiniteDimensionalAlgebraError):
            projective_paths(free, 0)
    assert free.opposite() is free.opposite()


# Reference oracles: the bounded breadth-first path search and the general
# cycle search (which lets a walk enter a cycle from a tail) that
# projective_paths and detect_even_full_cycle replaced by successor walks.

def bfs_projective_paths(q, start):
    bound = q.n * max(1, len(q.arrows)) + 1
    out = frontier = [((), start)]
    while frontier:
        frontier = [(path + (a.id,), a.tgt) for path, v in frontier
                    for a in q.arrows_from(v)
                    if not path or (path[-1], a.id) not in q.relations]
        if frontier and len(frontier[0][0]) > bound:
            raise InfiniteDimensionalAlgebraError(f"path longer than {bound}")
        out = out + frontier
    return tuple(out)


def searched_even_full_cycle(q):
    succ = dict(q.relations)
    done = set()
    for start in sorted(q.arrows):
        chain, pos, cur = [], {}, start
        while cur is not None and cur not in done:
            if cur in pos:
                if (len(chain) - pos[cur]) % 2 == 0:
                    return chain[pos[cur]:]
                break
            pos[cur] = len(chain)
            chain.append(cur)
            cur = succ.get(cur)
        done.update(chain)
    return None


def test_successor_walks_match_the_old_searches():
    from clusterlab.tiling import (DiscTiling, _chords_in_taxonomy,
                                   _noncrossing_chord_sets)
    from clusterlab.verify import enumerate_gentle_algebras
    algebras = enumerate_gentle_algebras(4, 6)
    discs = [DiscTiling(m, chords).to_complex().algebra()[0]
             for m in range(4, 9) for chords in _noncrossing_chord_sets(m)
             if _chords_in_taxonomy(m, chords)]
    assert (len(algebras), len(discs)) == (2209, 252)
    pairs, raised, cycles = [0, 0], [0, 0], [0, 0]
    for family, quivers in enumerate(
            (algebras + [q.opposite() for q in algebras], discs)):
        for q in quivers:
            cycle = detect_even_full_cycle(q)
            assert cycle == searched_even_full_cycle(q), q.to_json()
            cycles[family] += cycle is not None
            for v in range(q.n):
                pairs[family] += 1
                try:
                    want = bfs_projective_paths(q, v)
                except InfiniteDimensionalAlgebraError:
                    raised[family] += 1
                    with pytest.raises(InfiniteDimensionalAlgebraError):
                        projective_paths(q, v)
                else:
                    assert projective_paths(q, v) == want, (q.to_json(), v)
    assert (pairs, raised) == ([17118, 1103], [5280, 0])
    assert cycles == [936, 2]


def test_non_gentle_successor_maps_raise():
    # a rho-shaped relation map x -> y -> z -> y: the old search found the
    # cycle (y, z) through its tail; the successor map refuses y's two
    # relation predecessors
    rho = BoundQuiver(3, [Arrow("x", 0, 1), Arrow("y", 1, 2), Arrow("z", 2, 1)],
                      [("x", "y"), ("y", "z"), ("z", "y")])
    assert searched_even_full_cycle(rho) == ["y", "z"]
    with pytest.raises(ValueError) as exc:
        detect_even_full_cycle(rho)
    assert str(exc.value) == ("not gentle: successors [('x', 'y'), "
                              "('y', 'z'), ('z', 'y')] are not one-to-one")
    # an arrow with two free successors: a's chain would fork
    fork = BoundQuiver(4, [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 1, 3)],
                       [])
    assert len(bfs_projective_paths(fork, 0)) == 4
    with pytest.raises(ValueError) as exc:
        projective_paths(fork, 0)
    assert str(exc.value) == ("not gentle: successors [('a', 'b'), "
                              "('a', 'c')] are not one-to-one")


def test_cartan_a2_path():
    c, d = cartan_matrix(a2_path())
    assert c == [[1, 0], [1, 1]] and d == 1


def test_string_validation():
    q = loop_algebra()
    with pytest.raises(InvalidStringError):
        validate_word(q, StringWord((("rho", False), ("rho", False)), 0))
    validate_word(q, StringWord((("rho", False),), 0))
    with pytest.raises(InvalidStringError):
        validate_word(q, StringWord((("rho", False), ("rho", True)), 0))
    # a walk must start at its base and continue from each letter's head
    q = a2_path()
    validate_word(q, StringWord((("a", True),), 1))
    for letters, base in (((("a", False),), 1), ((("a", False), ("a", False)), 0)):
        with pytest.raises(InvalidStringError):
            validate_word(q, StringWord(letters, base))


def test_canonical_word_inversion():
    q = a2_path()
    w = StringWord((("a", False),), 0)
    winv = StringWord((("a", True),), 1)
    assert canonical_word(q, w) == canonical_word(q, winv)


def test_enumerate_strings_loop():
    strings, truncated = enumerate_strings(loop_algebra(), 5)
    assert not truncated
    assert sorted(len(w.letters) for w in strings) == [0, 1]


def test_enumerate_strings_c2_qb():
    # loop at 1 plus an arrow 1 -> 2, only relation rho^2: seven strings
    q = BoundQuiver(2, [Arrow("rho", 0, 0), Arrow("a", 0, 1)], [("rho", "rho")])
    strings, truncated = enumerate_strings(q, 10)
    assert not truncated
    assert len(strings) == 7
    dims = sorted(tuple(sum(1 for v in _verts(q, w) if v == u) for u in range(2))
                  for w in strings)
    assert dims == sorted([(1, 0), (0, 1), (2, 0), (1, 1), (2, 1), (2, 1), (2, 2)])


def _verts(q, w):
    from clusterlab.quiver import word_vertices
    return word_vertices(q, w)


def test_letter_graph_acyclicity():
    acyclic, longest = letter_graph_acyclic(loop_algebra())
    assert acyclic and longest == 1
    q = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)], [])
    acyclic, longest = letter_graph_acyclic(q)
    assert not acyclic


def test_enumerate_strings_pinned_over_small_gentle_algebras():
    # every string, in order, and the truncation flag at caps 0..4 (a
    # single letter is a string even at cap 0), plus the letter-graph
    # verdict, over the 312 classes of enumerate_gentle_algebras(4, 4)
    from clusterlab.verify import enumerate_gentle_algebras
    h = hashlib.sha256()
    calls = 0
    for q in enumerate_gentle_algebras(4, 4):
        h.update(repr(letter_graph_acyclic(q)).encode())
        for cap in range(5):
            out, truncated = enumerate_strings(q, cap)
            h.update(repr(([(w.letters, w.base) for w in out],
                           truncated)).encode())
            calls += 1
    assert calls == 1560
    assert h.hexdigest() == \
        "e561013b7fe3b01a6ce61f5f273703e01a98085bee6fff62127f98da27ca54c6"


def test_truncation_flag():
    q = BoundQuiver(2, [Arrow("rho", 0, 0), Arrow("a", 0, 1)], [("rho", "rho")])
    strings, truncated = enumerate_strings(q, 2)
    assert truncated


# -- the quiver attached to a type C exchange matrix --------------------------


def type_c_quiver(matrix) -> BoundQuiver:
    """Gentle bound quiver for a type C exchange matrix.

    Expects the skew-symmetrizer diag{2,1,...,1}: vertex 1 carries the unique
    loop; positive entries b_ij give b_ij arrows i -> j for j != 1 and
    b_i1 / 2 arrows into vertex 1.  Relations: the loop squared and every
    length-2 path lying on an oriented 3-cycle.
    """
    s = matrix.skew_symmetrizer()
    n = matrix.n
    if s[0] != 2 or any(v != 1 for v in s[1:]):
        raise NotSkewSymmetrizableError(
            f"expected skew-symmetrizer diag(2,1,...,1), got {s}")
    arrows = [Arrow("rho", 0, 0)]
    for i in range(n):
        for j in range(n):
            bij = matrix.b[i][j]
            if bij <= 0:
                continue
            count = bij if j != 0 else bij // 2
            for c in range(count):
                suffix = "" if count == 1 else f"_{c + 1}"
                arrows.append(Arrow(f"a{i + 1}_{j + 1}{suffix}", i, j))
    relations = [("rho", "rho")]
    by_pair = {}
    for a in arrows:
        by_pair.setdefault((a.src, a.tgt), []).append(a)
    for a in arrows:
        for b in arrows:
            if a.id == "rho" or b.id == "rho":
                continue
            if a.tgt != b.src or a.src == a.tgt or b.src == b.tgt:
                continue
            if (b.tgt, a.src) in by_pair:  # some arrow closes a 3-cycle
                relations.append((a.id, b.id))
    q = BoundQuiver(n, arrows, relations)
    cert = check_gentle(q)
    if not cert.ok:
        raise WitnessedFault({"check": "type C quiver not gentle",
                              "matrix": matrix.b, "violated": cert.violated,
                              "witness": cert.witness})
    return q


def test_type_c_quiver_c2():
    m = ExchangeMatrix(((0, 1), (-2, 0)))
    q = type_c_quiver(m)
    assert set(q.arrows) == {"rho", "a1_2"}
    assert q.arrows["rho"].src == q.arrows["rho"].tgt == 0
    assert q.relations == {("rho", "rho")}
    assert check_gentle(q).ok
    assert detect_even_full_cycle(q) is None


def test_type_c_quiver_wrong_symmetrizer():
    with pytest.raises(NotSkewSymmetrizableError):
        type_c_quiver(ExchangeMatrix(((0, 1), (-1, 0))))


def test_qb_conditions_c2_and_c3():
    for rows in (((0, 1), (-2, 0)), ((0, 1, 0), (-2, 0, 1), (0, -1, 0))):
        q = type_c_quiver(ExchangeMatrix(rows))
        cond = check_qb_conditions(q)
        assert all(cond.values()), cond


def type_c_seed_quivers():
    """The type C quiver of every seed of the C2, C3 and C4 exchange graphs."""
    for n in (2, 3, 4):
        for t in explore(standard_matrix("C", n)).reps:
            yield type_c_quiver(t.seed.matrix)


def test_one_holed_disc_models_type_c():
    # the fan tiling that verify type-c reads is type_c_quiver's C_n root
    # quiver vertex for vertex, and the one-holed triangulations with n arcs
    # realise exactly the classes of type_c_quiver over the reroots of C_n
    from clusterlab.tiling import DiscTiling, disc_tilings
    from clusterlab.verify import _algebra_class
    for n in range(2, 7):
        q, _ = DiscTiling(n + 1, [(k + 1, n + 2) for k in range(1, n)],
                          holed=True).to_complex().algebra()
        ref = type_c_quiver(standard_matrix("C", n))
        ends = {(a.src, a.tgt): a.id for a in q.arrows.values()}
        ref_ends = {(a.src, a.tgt): a.id for a in ref.arrows.values()}
        assert len(ends) == len(q.arrows) and ends.keys() == ref_ends.keys()
        assert (0, 0) in ends
        assert {(ref_ends[(q.arrows[a].src, q.arrows[a].tgt)],
                 ref_ends[(q.arrows[b].src, q.arrows[b].tgt)])
                for a, b in q.relations} == ref.relations
    classes = {n: set() for n in (2, 3, 4)}
    for q in type_c_seed_quivers():
        classes[q.n].add(_algebra_class(q)[0])
    for n, keys in classes.items():
        # the loop and n - 1 chords triangulate, so every tile classifies
        tiled = {_algebra_class(d.to_complex().algebra()[0])[0]
                 for d in disc_tilings(n + 1, holed=True)
                 if len(d.chords) == n - 1}
        assert len(keys) == [2, 5, 14][n - 2]
        assert tiled == keys


def test_qb_conditions_every_type_c_seed():
    quivers = list(type_c_seed_quivers())
    assert len(quivers) == 6 + 20 + 70
    for q in quivers:
        cond = check_qb_conditions(q)
        assert all(cond.values()), (q.to_json(), cond)


def test_qb_conditions_fingerprint():
    # gentle algebras, type C seed quivers and random quivers with loops,
    # multi-edges and cycles; each condition comes out both true and false
    from clusterlab.verify import enumerate_gentle_algebras
    rng = random.Random(14)
    randoms = []
    for _ in range(5000):
        n = rng.randint(1, 6)
        randoms.append(BoundQuiver(n, [
            Arrow(f"a{k}", rng.randrange(n), rng.randrange(n))
            for k in range(rng.randint(0, 9))], []))
    corpus = (enumerate_gentle_algebras(4, 4) + list(type_c_seed_quivers())
              + randoms)
    assert len(corpus) == 312 + 96 + 5000
    h = hashlib.sha256()
    seen = set()
    for q in corpus:
        cond = sorted(check_qb_conditions(q).items())
        seen.update(cond)
        h.update(repr(cond).encode())
    assert seen == {(c, v) for c in "abcde" for v in (False, True)}
    assert h.hexdigest() == \
        "5e2460930f40c85f77c61e56607e18a9ce5eb11d2b5a4beea10935dd25e1ce71"


def test_qb_conditions_counterexamples():
    # an unoriented 4-cycle in the underlying graph breaks (a)
    q = BoundQuiver(4, [Arrow("rho", 0, 0), Arrow("a", 0, 1), Arrow("b", 1, 2),
                        Arrow("c", 3, 2), Arrow("d", 0, 3)], [("rho", "rho")])
    assert not check_qb_conditions(q)["a"]
    # so does an unoriented triangle
    q = BoundQuiver(3, [Arrow("rho", 0, 0), Arrow("a", 0, 1), Arrow("b", 1, 2),
                        Arrow("c", 0, 2)], [("rho", "rho")])
    assert not check_qb_conditions(q)["a"]
    # and a chordless 5-cycle, although it is oriented
    q = BoundQuiver(5, [Arrow("rho", 0, 0)] + [
        Arrow(f"a{i}", i, (i + 1) % 5) for i in range(5)], [("rho", "rho")])
    assert not check_qb_conditions(q)["a"]
    # two loops break (e)
    q2 = BoundQuiver(2, [Arrow("r1", 0, 0), Arrow("r2", 1, 1)],
                     [("r1", "r1"), ("r2", "r2")])
    assert not check_qb_conditions(q2)["e"]


def test_quiver_json_round_trip():
    q = two_cycle_full()
    q2 = BoundQuiver.from_json(q.to_json())
    assert q2.n == q.n and set(q2.arrows) == set(q.arrows)
    assert q2.relations == q.relations
