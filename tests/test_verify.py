import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import pathlib
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from clusterlab.cli import main
from clusterlab.errors import UnclassifiableTileError, WitnessedFault
from clusterlab.quiver import Arrow, BoundQuiver, check_gentle
from clusterlab.tiling import ArcMultiset, DiscTiling, disc_tilings, seg_profile
from clusterlab.verify import (
    VerifyReport, _algebra_class, _arc_weights, _arrow_grids,
    _automorphisms, _canonical_bound_quiver, _class_arrow, _class_quiver,
    _compatible_multisets, _connected, _dual_path_check, _field_width,
    _grid_key, _pack,
    _relation_choices, _tiling_arcs, _unpack,
    enumerate_gentle_algebras, verify_denominator,
    verify_denominator_duality, verify_fvector_injectivity, verify_thm1,
    verify_thm2, verify_type_c_categorification, write_report,
)


def _brute_canonical(n, grid, relations, arrow_names):
    """Reference canonical encoding of (quiver, relations): the minimum over
    every vertex permutation and every ordering of parallel arrows."""
    best = None
    groups = {}
    for name, (i, j) in arrow_names.items():
        groups.setdefault((i, j), []).append(name)
    for perm in itertools.permutations(range(n)):
        relabeled_groups = {}
        for (i, j), names in groups.items():
            relabeled_groups.setdefault((perm[i], perm[j]), []).extend([names])
        # orderings of parallel arrows within each group
        group_items = sorted(relabeled_groups.items())
        pools = []
        for _, name_lists in group_items:
            names = [x for lst in name_lists for x in lst]
            pools.append(list(itertools.permutations(names)))
        for assignment in itertools.product(*pools):
            mapping = {}
            idx = 0
            arrow_enc = []
            for ((i, j), _), names in zip(group_items, assignment):
                for name in names:
                    mapping[name] = idx
                    arrow_enc.append((i, j))
                    idx += 1
            rel_enc = tuple(sorted((mapping[a], mapping[b])
                                   for (a, b) in relations))
            enc = (tuple(arrow_enc), rel_enc)
            if best is None or enc < best:
                best = enc
    return best


def _brute_relation_choices(n, arrows):
    """Reference G2/G3-admissible relation sets: every subset of each
    vertex's in x out arrow pairs, filtered, in `_relation_choices` order."""
    by_vertex = []
    for v in range(n):
        ins = [a for a in arrows if a.tgt == v]
        outs = [a for a in arrows if a.src == v]
        pairs = [(a.id, b.id) for a in ins for b in outs]
        options = []
        for subset in itertools.chain.from_iterable(
                itertools.combinations(pairs, k)
                for k in range(len(pairs) + 1)):
            rels = frozenset(subset)
            if all(sum((a.id, b.id) in rels for b in outs) <= 1 and
                   sum((a.id, b.id) not in rels for b in outs) <= 1
                   for a in ins) and \
                    all(sum((a.id, b.id) in rels for a in ins) <= 1 and
                        sum((a.id, b.id) not in rels for a in ins) <= 1
                        for b in outs):
                options.append(rels)
        by_vertex.append(options)
    for combo in itertools.product(*by_vertex):
        yield frozenset().union(*combo)


def _connected_grid_arrows(vertex_max, arrow_max):
    for n in range(1, vertex_max + 1):
        for grid in _arrow_grids(n, arrow_max):
            if _connected(n, grid):
                yield n, grid, [Arrow(f"a{i}_{j}_{k}", i, j)
                                for (i, j), c in sorted(grid.items())
                                for k in range(c)]


def _brute_gentle_algebras(vertex_max, arrow_max):
    """The first gentle member of each isomorphism class, deduplicated by
    `_brute_canonical` over the enumeration's own grids and the reference
    relation sets."""
    seen = set()
    out = []
    for n, grid, arrows in _connected_grid_arrows(vertex_max, arrow_max):
        arrow_names = {a.id: (a.src, a.tgt) for a in arrows}
        for rels in _brute_relation_choices(n, arrows):
            key = (n, _brute_canonical(n, grid, rels, arrow_names))
            if key in seen:
                continue
            seen.add(key)
            q = BoundQuiver(n, arrows, rels)
            if check_gentle(q).ok:
                out.append(q)
    return out


def _brute_multisets(compat, cap):
    """Reference multiset generator over a full compatibility matrix: every
    state re-tests its chosen indices against the new one."""
    yield ()
    states = [((), 0)]
    for i in range(len(compat)):
        new_states = []
        for chosen, total in states:
            if all(compat[i][j] for j, _ in chosen):
                for mult in range(1, cap - total + 1):
                    state = (chosen + ((i, mult),), total + mult)
                    new_states.append(state)
                    yield state[0]
        states.extend(new_states)


@st.composite
def _multiset_problems(draw):
    n = draw(st.integers(0, 8))
    compat = [[True] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            compat[i][j] = compat[j][i] = draw(st.booleans())
    weights = [draw(st.integers(-(1 << 70), 1 << 70)) for _ in range(n)]
    return compat, weights, draw(st.integers(0, 4))


@given(_multiset_problems())
@settings(max_examples=300, deadline=None)
def test_compatible_multisets_match_brute_force(problem):
    compat, weights, cap = problem
    asked = []

    def compatible(i, j):
        asked.append((i, j))
        return compat[i][j]

    sweep = _compatible_multisets(compatible, weights, cap)
    first = next(sweep)
    assert asked == []  # nothing is asked before index 0 is reached
    out = [first] + list(sweep)
    assert [chosen for chosen, _ in out] == list(_brute_multisets(compat, cap))
    for chosen, weight in out:
        assert weight == sum(mult * weights[i] for i, mult in chosen)
    n = len(weights)
    assert sorted(asked) == [(i, j) for i in range(n) for j in range(i)]


def _classified_disc_complexes(m_max):
    for m in range(4, m_max + 1):
        for disc in disc_tilings(m):
            t = disc.to_complex()
            try:
                t.classify_tiles()
            except UnclassifiableTileError:
                continue
            yield t


def _admissible_disc_complexes(m_max):
    return (t for t in _classified_disc_complexes(m_max)
            if t.forbidden_tile_scan())


def test_thm1_weights_split_into_vector_and_profile():
    tilings = multisets = 0
    for t in _admissible_disc_complexes(6):
        tilings += 1
        arcs, _ = t.enumerate_permissible_arcs()
        weights, (keys, width) = _arc_weights(t, arcs, 3)
        n_arcs = len(t.arcs)
        shift = width * n_arcs
        for chosen, weight in _compatible_multisets(
                lambda i, j: t.arcs_compatible(arcs[i], arcs[j]), weights, 3):
            multisets += 1
            ms = ArcMultiset(tuple((arcs[i], mult) for i, mult in chosen))
            vec = ms.intersection_vector(n_arcs)
            prof = seg_profile(t, ms)
            # every entry fits its field, so the packing is injective
            assert set(prof) <= set(keys)
            assert all(c < 1 << width for c in vec + tuple(prof.values()))
            assert weight & (1 << shift) - 1 == _pack(vec, width)
            assert _unpack(weight, n_arcs, width) == vec
            assert weight >> shift == _pack(
                [prof.get(key, 0) for key in keys], width)
    # the admissible tilings and multisets of verify_thm1(6, 3)
    assert (tilings, multisets) == (21, 836)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pack_round_trips_at_the_field_width_limit(data):
    width = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(0, 10))
    top = (1 << width) - 1
    values = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    assert _unpack(_pack(values, width), n, width) == tuple(values)
    assert _unpack(_pack([top] * n, width), n, width) == (top,) * n
    # _field_width is the least width that holds cap times any entry, and
    # sums of at most cap rows never carry at it
    cap = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(st.integers(0, 20), min_size=n, max_size=n),
        min_size=1, max_size=4))
    w = _field_width(rows, cap)
    entries = [x for r in rows for x in r]
    assert all(cap * x < 1 << w for x in entries)
    assert w == 0 or any(cap * x >= 1 << (w - 1) for x in entries)
    chosen = data.draw(st.lists(st.sampled_from(rows), max_size=cap))
    assert _unpack(sum(_pack(r, w) for r in chosen), n, w) == tuple(
        sum(r[k] for r in chosen) for k in range(n))


def test_class_route_matches_per_tiling_inventories():
    # every tiling verify_thm1(8, _) sweeps, through one shared class table,
    # against a fresh inventory of its own algebra
    classes = {}
    tilings = 0
    for t in _classified_disc_complexes(8):
        tilings += 1
        arcs, truncated, compatible = _tiling_arcs(t, classes)
        want, want_truncated = t.enumerate_permissible_arcs()
        assert truncated == want_truncated
        assert [(a.endpoints, a.word, a.intersection) for a in arcs] == \
            [(a.endpoints, a.word, a.intersection) for a in want]
        inv = t.inventory()
        for i in range(len(arcs)):
            for j in range(i):
                ok = inv.compatible(want[i].word, want[j].word)
                assert compatible(i, j) == compatible(j, i) == ok
    assert (tilings, len(classes)) == (252, 39)


@functools.cache
def _disc_tiling_algebras():
    return [t.algebra()[0] for t in _classified_disc_complexes(8)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_algebra_class_ignores_labels(data):
    q = data.draw(st.sampled_from(_disc_tiling_algebras()))
    perm = data.draw(st.permutations(range(q.n)))
    names = data.draw(st.permutations([f"b{k}" for k in range(len(q.arrows))]))
    rename = dict(zip(sorted(q.arrows), names))
    moved = BoundQuiver(
        q.n, [Arrow(rename[a.id], perm[a.src], perm[a.tgt])
              for a in q.arrows.values()],
        [(rename[a], rename[b]) for a, b in q.relations])
    key, p = _algebra_class(q)
    moved_key, moved_p = _algebra_class(moved)
    assert moved_key == key
    # each labelling sends the arrows and relations onto the class quiver's
    cq = _class_quiver(key)
    for quiver, lab in ((q, p), (moved, moved_p)):
        assert sorted(lab) == list(range(q.n))
        image = {a.id: _class_arrow((lab[a.src], lab[a.tgt]))
                 for a in quiver.arrows.values()}
        assert sorted(image.values()) == sorted(cq.arrows)
        assert {(image[a], image[b]) for a, b in quiver.relations} == \
            cq.relations


def test_algebra_class_rejects_parallel_arrows():
    kronecker = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)], [])
    with pytest.raises(ValueError):
        _algebra_class(kronecker)


def test_generator_callers_keep_their_results():
    # digests read before the generator tracked masks and running weights
    assert verify_thm2(4, 4, 3).result_digest == (
        "8089693f3a2f89e387d11e909f49dd7c0842638da56a165dc2f9def4d057ccda")
    assert verify_type_c_categorification(3, 3).result_digest == (
        "72454f22b3e406190fad316db3498b33778341d5954b3b3513eecf55611e776d")


def test_report_round_trip(tmp_path):
    r = VerifyReport("demo", {"x": 1})
    r.counts = {"n": 2}
    path = write_report(r, tmp_path)
    path2 = write_report(r, tmp_path)
    assert path == path2  # same parameters, same file
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # append-only
    data = json.loads(lines[0])
    assert data["experiment"] == "demo" and data["verdict"] == "pass"


def test_fail_reports_carry_witnesses():
    r = VerifyReport("demo", {})
    r.fail({"reason": "example"})
    assert r.verdict == "fail" and r.witnesses


def test_harness_frame_keeps_signatures_and_params():
    # the frame hides each body's report argument; params are the bound
    # arguments, defaults included, in signature order
    for harness, signature in (
            (verify_thm1, "(marked_max=8, mult_cap=3)"),
            (verify_thm2, "(vertex_max=4, arrow_max=6, mult_cap=3)"),
            (verify_fvector_injectivity, "(n_max=3, degree_cap=3)"),
            (verify_denominator,
             "(series='C', n_max=3, degree_cap=3, initial_seeds='all')"),
            (verify_denominator_duality,
             "(n_max=3, degree_cap=3, initial_seeds='root')"),
            (verify_type_c_categorification, "(n_max=2, degree_cap=3)")):
        assert str(inspect.signature(harness)) == signature
    r = verify_denominator("A", 2, degree_cap=2)
    assert list(r.params.items()) == [
        ("series", "A"), ("n_max", 2), ("degree_cap", 2),
        ("initial_seeds", "all")]


def test_cluster_harnesses_keep_their_digests():
    # digests read before the harnesses shared one report frame
    for series, digest in (
            ("A", "478a6d77643a1ed41568e5cef203a2a5328701a86de887f78aaf02f99cafbb82"),
            ("B", "b9cfec1b6d1e1461a4f270d0f66f7ab049af456acbd2e553cd46b4ebd510dc22"),
            ("C", "b9cfec1b6d1e1461a4f270d0f66f7ab049af456acbd2e553cd46b4ebd510dc22")):
        r = verify_denominator(series, 3, 3, "all")
        assert r.result_digest == digest, series
    assert verify_denominator_duality(3).result_digest == (
        "19574c33151e3400d886e9e02af4aef1cee8d502f28878c2190694462ddc8464")


def _drop_first_geometric_arc(monkeypatch):
    """Make thm1's chord-geometry oracle lose one arc of every tiling."""
    from clusterlab import verify
    real = verify.geometric_disc_arcs
    monkeypatch.setattr(verify, "geometric_disc_arcs",
                        lambda disc: real(disc)[1:])


def test_thm1_reports_a_dual_path_fault(monkeypatch):
    _drop_first_geometric_arc(monkeypatch)
    r = verify_thm1(5, 2)
    assert r.verdict == "fail"
    # the first tiling, the square cut by (2, 4), has the one arc (1, 3)
    assert r.witnesses == [{"check": "string and geometric arcs differ",
                            "tiling": ((2, 4),),
                            "string": [((1, 3), (1,))], "geometric": []}]


def test_dual_path_check_catches_a_wrong_compatibility():
    disc = DiscTiling(5, ((1, 3), (1, 4)))
    arcs, _ = disc.to_complex().enumerate_permissible_arcs()
    with pytest.raises(WitnessedFault) as fault:
        _dual_path_check(disc, arcs, lambda i, j: True)
    witness = fault.value.witness
    assert witness["check"] == "module and chord compatibility differ"
    assert witness["tiling"] == disc.chords and witness["module"] is True


def test_thm2_reports_an_arrow_stability_fault(monkeypatch):
    # the wrong action of test_kernel_arrow_stability_check_catches_a_wrong_
    # action, met through the loop algebra with rho^2 = 0, the one
    # representation-finite gentle algebra with one vertex and one arrow
    from clusterlab import modules
    monkeypatch.setattr(modules._ProjectiveSum, "arrow_action",
                        lambda self, aid, src: [None, 0])
    r = verify_thm2(1, 1)
    assert r.verdict == "fail"
    (witness,) = r.witnesses
    assert witness["check"] == "kernel is not arrow-stable"
    assert json.loads(witness["quiver"])["relations"] == [["a0_0_0",
                                                           "a0_0_0"]]
    assert witness["dims"] == (1,)


def test_denominator_reports_an_explore_vector_fault(monkeypatch):
    # every VariableInfo gets a fresh g-vector, so the second sighting of a
    # cluster variable disagrees with the first
    explore_module = importlib.import_module("clusterlab.explore")
    real = explore_module.VariableInfo
    drift = itertools.count()
    monkeypatch.setattr(
        explore_module, "VariableInfo",
        lambda poly, d, g, f: real(poly, d, tuple(x + next(drift) for x in g),
                                   f))
    r = verify_denominator("A", 2, 2, "root")
    assert r.verdict == "fail"
    (witness,) = r.witnesses
    assert witness["check"] == "same cluster variable, different vectors"
    assert witness["matrix"] == ((0, 1), (-1, 0))
    first, second = witness["vectors"]
    assert first[0] == second[0] and first[1] != second[1]


def test_type_c_reports_a_non_gentle_quiver(monkeypatch):
    # type_c_quiver built without its relations: the loop squares freely
    from clusterlab import quiver
    real = quiver.BoundQuiver
    monkeypatch.setattr(quiver, "BoundQuiver",
                        lambda n, arrows, relations: real(n, arrows, []))
    r = verify_type_c_categorification(2, 2)
    assert r.verdict == "fail"
    (witness,) = r.witnesses
    assert witness["check"] == "type C quiver not gentle"
    assert witness["matrix"] == ((0, 1), (-2, 0))
    assert witness["violated"] == "G2"


def test_thm1_small_run():
    r = verify_thm1(5, 2)
    assert r.verdict == "pass"
    assert r.counts["tilings"] == 7  # 2 square tilings + 5 pentagon ones
    assert r.counts["forbidden"] == 0


def test_thm1_finds_octagon_converse():
    r = verify_thm1(8, 3)
    assert r.verdict == "pass"
    assert r.counts["converse_witnesses"] == 2
    assert r.counts["forbidden"] == 2


def test_thm1_cap_one_skips_converse_check():
    # no converse witness exists below total multiplicity 2, so its absence
    # is no failure
    r = verify_thm1(8, 1)
    assert r.verdict == "pass"
    assert r.counts["converse_witnesses"] == 0


def test_thm2_small_bounds():
    r = verify_thm2(2, 3)
    assert r.verdict == "pass"
    assert r.counts["with_even_cycle"] >= 1  # the 2-cycle with full relations
    assert r.counts["without_even_cycle"] >= 2


def test_thm2_reports_phase_timings():
    r = verify_thm2(2, 3)
    phases = r.to_dict()["phases"]
    assert set(phases) == {"enumerate", "tau", "collisions"}
    assert all(v >= 0 for v in phases.values())
    assert "phases" not in r.counts
    cache = r.to_dict()["cache"]
    assert set(cache) == {"tau_hits", "tau_misses"}
    assert cache["tau_hits"] > 0 and cache["tau_misses"] > 0


def test_thm1_reports_phase_timings():
    r = verify_thm1(5, 2)
    phases = r.to_dict()["phases"]
    assert set(phases) == {"tilings", "arcs", "multisets"}
    assert all(v >= 0 for v in phases.values())
    # the "multisets" count stays a count
    assert r.counts["multisets"] == 51 and "phases" not in r.counts
    # the 7 tilings of the square and the pentagon have 2 algebras up to
    # isomorphism: one vertex, and an arrow between two
    assert r.to_dict()["cache"] == {"algebra_classes": 2, "class_reuses": 5}


def _bench_report_digest(monkeypatch):
    """`report_digest` from the benchmark's runner, which digests the
    reports the CLI prints."""
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    return importlib.import_module("run").report_digest


def test_result_digest_matches_bench_recipe(monkeypatch):
    res = CliRunner().invoke(main, ["verify", "thm2", "--vertex-max", "2",
                                    "--arrow-max", "3", "--format", "json"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["result_digest"] == _bench_report_digest(monkeypatch)(data)


def test_result_digest_ignores_timing():
    first, second = verify_thm2(2, 3), verify_thm2(2, 3)
    second.duration_s = first.duration_s + 1.0
    assert first.to_dict()["duration_s"] != second.to_dict()["duration_s"]
    assert first.result_digest == second.result_digest
    assert first.to_dict()["result_digest"] == first.result_digest
    second.cache = {"tau_hits": 0, "tau_misses": 0}
    assert first.to_dict()["cache"] != second.to_dict()["cache"]
    assert first.result_digest == second.result_digest
    second.counts["algebras"] += 1
    assert first.result_digest != second.result_digest


def test_gentle_enumeration_small():
    algs = enumerate_gentle_algebras(1, 1)
    # one vertex: the trivial algebra (no arrows is excluded; a loop with
    # or without the square relation)
    assert len(algs) == 2
    algs = enumerate_gentle_algebras(2, 2)
    names = {(len(q.arrows), len(q.relations)) for q in algs}
    assert (2, 2) in names  # the 2-cycle with full relations appears


def test_gentle_enumeration_matches_brute_force():
    # same isomorphism classes, same representatives, same order
    got = [q.to_json() for q in enumerate_gentle_algebras(4, 4)]
    want = [q.to_json() for q in _brute_gentle_algebras(4, 4)]
    assert len(want) == 312
    assert got == want


def test_relation_choices_match_subset_filter():
    # the same relation sets in the same order on every connected grid of
    # the acceptance family (4 vertices, 6 arrows)
    total = 0
    for n, _, arrows in _connected_grid_arrows(4, 6):
        got = list(_relation_choices(n, arrows))
        assert got == list(_brute_relation_choices(n, arrows)), arrows
        total += len(got)
    assert total == 56604


@functools.cache
def _small_gentle():
    return enumerate_gentle_algebras(3, 4)


def _moves_along_a_vertex_permutation(q, g):
    """Whether the arrow map g moves every source and target along one
    permutation of the vertices."""
    p = {}
    for a in q.arrows.values():
        b = q.arrow(g[a.id])
        for v, w in ((a.src, b.src), (a.tgt, b.tgt)):
            if p.setdefault(v, w) != w:
                return False
    return sorted(p.values()) == list(range(q.n))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_key_ignores_labels(data):
    q = data.draw(st.sampled_from(_small_gentle()))
    grid = dict(Counter((a.src, a.tgt) for a in q.arrows.values()))
    # the grid key ignores vertex labels
    perm = data.draw(st.permutations(range(q.n)))
    moved = {(perm[i], perm[j]): c for (i, j), c in grid.items()}
    assert _grid_key(q.n, moved) == _grid_key(q.n, grid)
    # one automorphism per grid-fixing vertex permutation and ordering of
    # each group of parallel arrows
    automorphisms = _automorphisms(q.n, list(q.arrows.values()))
    fixing = sum(
        {(p[i], p[j]): c for (i, j), c in grid.items()} == grid
        for p in itertools.permutations(range(q.n)))
    orderings = math.prod(map(math.factorial, grid.values()))
    assert len(automorphisms) == fixing * orderings
    # the orbit key is constant on orbits, parallel-arrow swaps included
    g = data.draw(st.sampled_from(automorphisms))
    assert sorted(g) == sorted(g.values()) == sorted(q.arrows)
    assert _moves_along_a_vertex_permutation(q, g)
    image = frozenset((g[a], g[b]) for a, b in q.relations)
    assert _canonical_bound_quiver(automorphisms, image) == \
        _canonical_bound_quiver(automorphisms, q.relations)


def test_gentle_enumeration_pinned_at_acceptance_bounds():
    # sha256 of the to_json list of enumerate_gentle_algebras(4, 6) as
    # found by canonicalising every relation set on every connected grid
    algebras = enumerate_gentle_algebras(4, 6)
    assert len(algebras) == 2209
    digest = hashlib.sha256(
        json.dumps([q.to_json() for q in algebras]).encode()).hexdigest()
    assert digest == \
        "e2ef497addea8d2cb7f9e58bb37cc18bf153b68d82a1a4a19d0665354471da79"


def test_fvector_harness():
    r = verify_fvector_injectivity(3, 2)
    assert r.verdict == "pass"
    assert r.counts["triangulations_cross_checked"] == 19  # 5 + 14


def test_fvector_explores_each_distinct_matrix_once(monkeypatch):
    from clusterlab import verify
    calls = []
    real = verify.explore

    def counting(matrix, *args, **kwargs):
        calls.append(matrix)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(verify, "explore", counting)
    r = verify_fvector_injectivity(3, 3)
    # A2 and A3, then the 2 + 8 distinct matrices of the 5 pentagon and
    # 14 hexagon triangulations
    assert len(calls) == 12
    assert r.counts == {"A2_monomials": 30, "A3_monomials": 104,
                        "triangulations_cross_checked": 19}
    assert r.result_digest == \
        "42a8b31a5abcce596afb2d88fb903694be26bbd24439cb0aac5afa8e38250ff4"


def test_fvector_reports_a_wrong_initial_d_vector(monkeypatch):
    from clusterlab import verify
    real = verify.explore

    def scale_x1(variables):
        variables[0].d = (-2,) + variables[0].d[1:]

    def swap_x1_x2(variables):
        # still a permutation of -e_1, -e_2, but each on the wrong variable
        variables[0].d, variables[1].d = variables[1].d, variables[0].d

    for corrupt, witnessed in (
            (scale_x1, [("x1", (-2, 0))]),
            (swap_x1_x2, [("x1", (0, -1)), ("x2", (-1, 0))])):
        def corrupted(matrix, *args, **kwargs):
            graph = real(matrix, *args, **kwargs)
            corrupt(graph.variables)
            return graph

        monkeypatch.setattr(verify, "explore", corrupted)
        r = verify_fvector_injectivity(2, 1)
        assert r.verdict == "fail", corrupt.__name__
        assert r.witnesses == [
            {"where": "A2", "check": "initial d-vector", "variable": x,
             "d": d} for x, d in witnessed]


def test_injectivity_check_stops_at_first_collision(monkeypatch):
    from clusterlab import verify
    monkeypatch.setattr(verify, "monomial_vectors",
                        lambda graph, key: {"d": (0, 0)})
    r = verify_denominator("A", 2, 2, "root")
    assert r.verdict == "fail"
    assert r.counts["monomials"] == 2
    (witness,) = r.witnesses
    assert witness["where"] == "A2 root" and witness["d"] == (0, 0)
    assert witness["monomials"][0] != witness["monomials"][1]


def test_denominator_harness_root_only():
    r = verify_denominator("A", 2, 3, "root")
    assert r.verdict == "pass" and r.counts["reroots"] == 0


def test_denominator_duality():
    r = verify_denominator_duality(2, 2, "root")
    assert r.verdict == "pass"
    assert r.counts["verdicts"] == {"B": "pass", "C": "pass"}


def test_cluster_harnesses_report_phase_timings():
    for r, names in (
            (verify_denominator("B", 3), {"explore", "checks"}),
            (verify_denominator_duality(2, 2), {"explore", "checks"}),
            (verify_fvector_injectivity(3, 2), {"monomials", "triangulations"}),
            (verify_type_c_categorification(2, 2),
             {"tau", "pairs", "monomials"})):
        assert set(r.to_dict()["phases"]) == names, r.experiment
        assert all(v >= 0 for v in r.phases.values())
        assert sum(r.phases.values()) <= r.duration_s
    cache = verify_type_c_categorification(3, 3).to_dict()["cache"]
    assert set(cache) == {"tau_hits", "tau_misses"}
    assert cache["tau_hits"] > 0 and cache["tau_misses"] > 0


def test_type_c_rejects_rank_one():
    with pytest.raises(ValueError):
        verify_type_c_categorification(1)


def test_cli_explore_and_reports(tmp_path):
    runner = CliRunner()
    matrix = tmp_path / "b.json"
    matrix.write_text('{"n": 2, "B": [[0, 1], [-1, 0]]}')
    res = runner.invoke(main, ["explore", "--matrix", str(matrix),
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["clusters"] == 5 and "type" not in data

    res = runner.invoke(main, ["mutate", "--matrix", str(matrix),
                               "--seq", "1", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["cluster"][0] == "x1^-1 * x2 + x1^-1"

    out = tmp_path / "result.json"
    res = runner.invoke(main, ["verify", "type-c", "--rank-max", "2",
                               "--report-dir", str(tmp_path / "reports"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["verdict"] == "pass"
    assert list((tmp_path / "reports").glob("*.jsonl"))


def test_cli_explore_rejects_zero_max_seeds(tmp_path):
    matrix = tmp_path / "b.json"
    matrix.write_text('{"n": 2, "B": [[0, 1], [-1, 0]]}')
    res = CliRunner().invoke(main, ["explore", "--matrix", str(matrix),
                                    "--max-seeds", "0"])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--max-seeds'" in res.output


def test_cli_type_c_rejects_rank_one():
    res = CliRunner().invoke(main, ["verify", "type-c", "--rank-max", "1"])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--rank-max'" in res.output


@pytest.mark.parametrize("args", [
    # sizes whose family is empty or holds only the empty multiset, so a
    # pass would check nothing
    ["thm1", "--marked-max", "3"], ["thm1", "--mult-cap", "0"],
    ["thm2", "--vertex-max", "0"], ["thm2", "--arrow-max", "0"],
    ["thm2", "--mult-cap", "0"],
    ["fvector", "--rank-max", "1"], ["fvector", "--degree-cap", "0"],
    ["denominator", "--rank-max", "1"], ["denominator", "--degree-cap", "0"],
    ["duality", "--rank-max", "1"], ["duality", "--degree-cap", "0"],
    ["type-c", "--degree-cap", "0"],
])
def test_cli_verify_rejects_vacuous_sizes(args):
    res = CliRunner().invoke(main, ["verify"] + args)
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{args[1]}'" in res.output


@pytest.mark.parametrize("command, flag, data", [
    # the hexagon fan, and the Kronecker quiver, whose strings never end
    (["tiling", "arcs"], "--tiling",
     {"surface": "disc", "marked": 6, "chords": [[1, 3], [1, 4], [1, 5]]}),
    (["gentle", "analyze"], "--quiver",
     {"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 2},
                                {"id": "b", "src": 1, "tgt": 2}],
      "relations": []}),
])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cli_rejects_nonpositive_string_caps(tmp_path, command, flag, data,
                                             cap):
    # a cap below 1 used to act as cap 1
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, command + [flag, str(path), "--cap", cap])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--cap'" in res.output


def test_cli_verify_prints_a_failed_report_on_a_fault(monkeypatch):
    _drop_first_geometric_arc(monkeypatch)
    res = CliRunner().invoke(main, ["verify", "thm1", "--marked-max", "5",
                                    "--mult-cap", "2", "--format", "json"])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    report = json.loads(res.output)
    assert report["verdict"] == "fail"
    assert report["witnesses"][0]["check"] == \
        "string and geometric arcs differ"


def test_cli_vectors_matches_explored_monomial(tmp_path):
    from clusterlab.explore import explore, monomial_vectors, standard_matrix
    from clusterlab.tracking import run_walk
    c2 = standard_matrix("C", 2)
    matrix = tmp_path / "c2.json"
    matrix.write_text(json.dumps({"n": 2, "B": [list(r) for r in c2.b]}))
    graph = explore(c2)
    # the root, a cluster with one initial variable, and two without
    for seq, exps in (("", (1, 1)), ("1", (1, 2)), ("1,2", (2, 1)),
                      ("2,1,2", (1, 3))):
        res = CliRunner().invoke(main, [
            "vectors", "--matrix", str(matrix), "--seq", seq,
            "--exponents", ",".join(map(str, exps)), "--format", "json"])
        assert res.exit_code == 0, res.output
        data = json.loads(res.output)
        assert set(data) == {"C", "G", "F", "D", "monomial"}
        cluster = run_walk(c2, [int(k) for k in seq.split(",") if k]) \
            .seed.cluster
        key = tuple(sorted((graph.variable_index[p], e)
                           for p, e in zip(cluster, exps) if e))
        assert data["monomial"] == {
            k: list(v) for k, v in monomial_vectors(graph, key).items()}


def test_cli_tiling_commands(tmp_path):
    runner = CliRunner()
    tiling = tmp_path / "t.json"
    tiling.write_text(json.dumps(
        {"surface": "disc", "marked": 5, "chords": [[1, 3], [1, 4]]}))
    res = runner.invoke(main, ["tiling", "classify", "--tiling", str(tiling),
                               "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["forbidden_scan_passes"] is True
    res = runner.invoke(main, ["tiling", "arcs", "--tiling", str(tiling),
                               "--format", "json"])
    assert res.exit_code == 0
    assert len(json.loads(res.output)["arcs"]) == 3
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(
        {"surface": "one-holed-disc", "marked": 2, "occ_chords": []}))
    res = runner.invoke(main, ["tiling", "algebra", "--tiling", str(hole),
                               "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["relations"] == [["r0_0", "r0_0"]]


def test_cli_gentle_analyze(tmp_path):
    runner = CliRunner()
    quiver = tmp_path / "q.json"
    quiver.write_text(json.dumps({
        "vertices": 1,
        "arrows": [{"id": "rho", "src": 1, "tgt": 1}],
        "relations": [["rho", "rho"]]}))
    res = runner.invoke(main, ["gentle", "analyze", "--quiver", str(quiver),
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["gentle"] is True
    assert data["cartan_determinant"] == 2
    assert [m["dim"] for m in data["tau_rigid"]] == [[2]]
    assert data["cache"] == {"tau_hits": 0, "tau_misses": 2}
    # without the relation rho^k != 0 for every k: gentle, but with no
    # Cartan matrix and no tau-rigid listing, and no traceback
    quiver.write_text(json.dumps({
        "vertices": 1,
        "arrows": [{"id": "rho", "src": 1, "tgt": 1}],
        "relations": []}))
    res = runner.invoke(main, ["gentle", "analyze", "--quiver", str(quiver),
                               "--format", "json"])
    assert res.exit_code == 0 and res.exception is None, res.output
    data = json.loads(res.output)
    assert data["gentle"] is True
    assert data["cartan_matrix"].startswith("unavailable")
    assert "tau_rigid" not in data
    assert "cache" not in data


def test_cli_gentle_analyze_reports_translate_cache(tmp_path):
    # each of the four strings of the full-relation 2-cycle is asked for its
    # translate once, by its rigidity test
    runner = CliRunner()
    quiver = tmp_path / "q.json"
    quiver.write_text(json.dumps({
        "vertices": 2,
        "arrows": [{"id": "a", "src": 1, "tgt": 2},
                   {"id": "b", "src": 2, "tgt": 1}],
        "relations": [["a", "b"], ["b", "a"]]}))
    res = runner.invoke(main, ["gentle", "analyze", "--quiver", str(quiver),
                               "--format", "json"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert sorted(m["dim"] for m in data["tau_rigid"]) == \
        [[0, 1], [1, 0], [1, 1], [1, 1]]
    assert data["cache"] == {"tau_hits": 0, "tau_misses": 4}
