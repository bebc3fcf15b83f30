import functools
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from clusterlab.cli import main
from clusterlab.errors import (InfiniteDimensionalAlgebraError,
                               UnclassifiableTileError, WitnessedFault)
from clusterlab.exchange import ExchangeMatrix
from clusterlab.explore import enumerate_monomials, explore, standard_matrix
from clusterlab.quiver import Arrow, BoundQuiver, cartan_matrix, check_gentle
from clusterlab.tiling import (ArcMultiset, DiscTiling, TilingComplex,
                               disc_tilings, seg_profile)
from clusterlab.verify import (
    VerifyReport, _algebra_class, _arc_weights, _arrow_grids,
    _canonical_bound_quiver, _class_arrow, _class_quiver, _class_record,
    _compatible_multisets, _connected, _dual_path_check, _field_width,
    _isomorphisms, _least_arrow_list, _pack, _relabelling,
    _relation_choices, _thm1_family, _tiling_arcs, _unpack,
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

    def clashes(i):
        asked.append(i)
        return sum(1 << j for j in range(i) if not compat[i][j])

    sweep = _compatible_multisets(clashes, weights, cap)
    first = next(sweep)
    assert asked == []  # nothing is asked before index 0 is reached
    out = [first] + list(sweep)
    assert [chosen for chosen, _ in out] == list(_brute_multisets(compat, cap))
    for chosen, weight in out:
        assert weight == sum(mult * weights[i] for i, mult in chosen)
    # each row once, in index order
    assert asked == list(range(len(weights)))


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
            if t.admissible())


def test_thm1_weights_split_into_vector_and_profile():
    tilings = multisets = 0
    for t in _admissible_disc_complexes(6):
        tilings += 1
        arcs, _ = t.enumerate_permissible_arcs()
        weights, (keys, width) = _arc_weights(t, arcs, 3)
        n_arcs = len(t.arcs)
        shift = width * n_arcs
        for chosen, weight in _compatible_multisets(
                lambda i: sum(1 << j for j in range(i)
                              if not t.arcs_compatible(arcs[i], arcs[j])),
                weights, 3):
            multisets += 1
            ms = ArcMultiset(tuple((arcs[i], mult) for i, mult in chosen))
            vec = ms.intersection_vector(n_arcs)
            prof = seg_profile(ms)
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
        key, p, name = _algebra_class(t.algebra()[0])
        if key not in classes:
            classes[key] = _class_record(key)
        arcs, clashes = _tiling_arcs(t, classes[key], p, name)
        want, truncated = t.enumerate_permissible_arcs()
        assert not truncated
        assert [(a.endpoints, a.word, a.intersection) for a in arcs] == \
            [(a.endpoints, a.word, a.intersection) for a in want]
        inv = t.inventory()
        assert clashes == [
            sum(1 << j for j in range(i)
                if not inv.compatible(want[i].word, want[j].word))
            for i in range(len(want))]
    assert (tilings, len(classes)) == (252, 39)


def test_thm1_asks_each_class_pair_once(monkeypatch):
    # the class records ask every pair of their words once; no tiling asks
    # a pair question of its own, neither in the chord oracle nor the sweep.
    # On one CPU, because counters in forked workers never reach this one
    from clusterlab import modules, verify
    _on_cpus(monkeypatch, 1)
    asked = []
    real_compatible = modules.StringInventory.compatible

    def compatible(inv, w1, w2):
        asked.append((w1, w2))
        return real_compatible(inv, w1, w2)

    records = []
    real_record = verify._class_record

    def record(key):
        records.append(real_record(key))
        return records[-1]

    monkeypatch.setattr(modules.StringInventory, "compatible", compatible)
    monkeypatch.setattr(verify, "_class_record", record)
    r = verify_thm1(8, 3)
    assert r.verdict == "pass"
    assert len(records) == 39
    assert len(asked) == sum(len(words) * (len(words) - 1) // 2
                             for words, _ in records)


def test_thm1_builds_each_tiling_once(monkeypatch):
    # each of the 252 tilings at (8, 3) is built in the one process that
    # checks and classifies it; the caller that groups them builds none
    from clusterlab import tiling
    _on_cpus(monkeypatch, 1)
    built = []
    real = tiling.DiscTiling.to_complex

    def to_complex(disc):
        built.append(disc)
        return real(disc)

    monkeypatch.setattr(tiling.DiscTiling, "to_complex", to_complex)
    assert verify_thm1(8, 3).result_digest == THM1_DIGEST_8_3
    assert len(built) == 252


def test_fan_size_groups_never_split_an_algebra_class():
    # verify_thm1 checks each group of equal sorted fan sizes in one task,
    # and builds a class record once per task that meets its class; a fan
    # is a maximal relation-free path of the tiling algebra, so each class
    # lies inside one group
    _, tasks = _thm1_family(9)
    group_of = {}  # class key -> the groups that hold its tilings
    for g, discs in enumerate(tasks):
        for disc in discs:
            key, _, _ = _algebra_class(disc.to_complex().algebra()[0])
            group_of.setdefault(key, set()).add(g)
    assert all(len(groups) == 1 for groups in group_of.values())
    assert (sum(map(len, tasks)), len(group_of), len(tasks)) == (951, 118, 35)


@functools.cache
def _disc_tiling_algebras():
    return [t.algebra()[0] for t in _classified_disc_complexes(8)]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_algebra_class_ignores_labels(data):
    # tiling algebras, and the gentle classes at (3, 4), which have
    # parallel arrows
    q = data.draw(st.sampled_from(_disc_tiling_algebras())
                  | st.sampled_from(_small_gentle()))
    perm = data.draw(st.permutations(range(q.n)))
    names = data.draw(st.permutations([f"b{k}" for k in range(len(q.arrows))]))
    rename = dict(zip(sorted(q.arrows), names))
    moved = BoundQuiver(
        q.n, [Arrow(rename[a.id], perm[a.src], perm[a.tgt])
              for a in q.arrows.values()],
        [(rename[a], rename[b]) for a, b in q.relations])
    key, p, name = _algebra_class(q)
    moved_key, moved_p, moved_name = _algebra_class(moved)
    assert moved_key == key
    # each isomorphism sends the arrows and relations onto the class
    # quiver's, every arrow along the vertex map
    cq = _class_quiver(key)
    for quiver, lab, names in ((q, p, name), (moved, moved_p, moved_name)):
        assert sorted(lab) == list(range(q.n))
        image = {a: _class_arrow(names[a]) for a in quiver.arrows}
        assert sorted(image.values()) == sorted(cq.arrows)
        for a in quiver.arrows.values():
            b = cq.arrows[image[a.id]]
            assert (b.src, b.tgt) == (lab[a.src], lab[a.tgt])
        assert {(image[a], image[b]) for a, b in quiver.relations} == \
            cq.relations


def test_algebra_class_tells_parallel_arrows_apart():
    # the Kronecker pair a, b: 0 -> 1, then c: 1 -> 2 with one relation;
    # swapping the pair gives an isomorphic bound quiver and the same key
    def kronecker(first, second):
        return BoundQuiver(3, [Arrow(first, 0, 1), Arrow(second, 0, 1),
                               Arrow("c", 1, 2)], [(first, "c")])

    key, p, name = _algebra_class(kronecker("a", "b"))
    # vertices by signature (out, in, loops): 2, then 1, then 0
    assert key == (3, ((1, 0), (2, 1), (2, 1)), (((2, 1, 0), (1, 0, 0)),))
    assert p == [2, 1, 0]
    assert name == {"a": (2, 1, 0), "b": (2, 1, 1), "c": (1, 0, 0)}
    assert _algebra_class(kronecker("b", "a"))[0] == key
    # the class quiver is its own canonical form
    cq = _class_quiver(key)
    assert sorted(cq.arrows) == ["a1_0_0", "a2_1_0", "a2_1_1"]
    assert _algebra_class(cq)[0] == key
    # without the relation the two orders of the pair are both attaining
    plain = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)], [])
    key, _, _ = _algebra_class(plain)
    assert key == (2, ((1, 0), (1, 0)), ())  # the sink first
    assert _algebra_class(_class_quiver(key))[0] == key
    _, labellings = _least_arrow_list(2, [(0, 1), (0, 1)])
    assert len(_isomorphisms(plain.arrows.values(), labellings)) == 2


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
            (verify_fvector_injectivity, "(rank_max=3, degree_cap=3)"),
            (verify_denominator,
             "(series='C', rank_max=3, degree_cap=3, initial_seeds='all')"),
            (verify_denominator_duality, "(rank_max=3, degree_cap=3)"),
            (verify_type_c_categorification, "(rank_max=2, degree_cap=3)")):
        assert str(inspect.signature(harness)) == signature
    r = verify_denominator("A", 2, degree_cap=2)
    assert list(r.params.items()) == [
        ("series", "A"), ("rank_max", 2), ("degree_cap", 2),
        ("initial_seeds", "all")]


def test_verify_commands_are_built_from_the_harness_signatures():
    # each `verify` command's options other than --report-dir and the
    # format options are its harness's parameters, in order, with their
    # defaults
    commands = main.commands["verify"].commands
    for name, harness in (
            ("thm1", verify_thm1), ("thm2", verify_thm2),
            ("fvector", verify_fvector_injectivity),
            ("denominator", verify_denominator),
            ("duality", verify_denominator_duality),
            ("type-c", verify_type_c_categorification)):
        options = [(p.name, p.default) for p in commands[name].params
                   if p.name not in ("report_dir", "fmt", "out")]
        assert options == [
            (p.name, p.default)
            for p in inspect.signature(harness).parameters.values()], name


def test_cluster_harnesses_keep_their_digests():
    # digests read before the harnesses shared one report frame; the
    # duality digest is the one of the seed-by-seed duality check
    for series, digest in (
            ("A", "478a6d77643a1ed41568e5cef203a2a5328701a86de887f78aaf02f99cafbb82"),
            ("B", "b9cfec1b6d1e1461a4f270d0f66f7ab049af456acbd2e553cd46b4ebd510dc22"),
            ("C", "b9cfec1b6d1e1461a4f270d0f66f7ab049af456acbd2e553cd46b4ebd510dc22")):
        r = verify_denominator(series, 3, 3, "all")
        assert r.result_digest == digest, series
    assert verify_denominator_duality(3).result_digest == (
        "7f2221b532e51f681652883c5add6d4583e6a2cb8776a2056415b42a6d86b0f3")


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
    # the counts reached before the fault: the empty square is outside the
    # taxonomy, and the fault came on the first tiling
    assert r.counts["tilings"] == 1 and r.counts["outside_taxonomy"] == 1


def test_thm1_reports_a_forbidden_tile_and_cycle_fault(monkeypatch):
    # the first tiling, the square cut by (2, 4), is admissible and its
    # algebra has no arrows; each side of the check is broken in turn
    from clusterlab import verify
    for owner, name, broken, cycle in (
            (verify, "detect_even_full_cycle", lambda q: ["x", "y"],
             ["x", "y"]),
            (TilingComplex, "admissible", lambda t: False, None)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            r = verify_thm1(5, 2)
        assert r.verdict == "fail"
        assert r.witnesses == [{
            "check": "forbidden tile and even cycle differ",
            "tiling": ((2, 4),), "even_cycle": cycle}]
        assert r.counts["tilings"] == 1 and r.counts["admissible"] == 0
    assert verify_thm1(5, 2).verdict == "pass"


def test_harnesses_fail_on_a_truncated_string_listing(monkeypatch):
    # no algebra that thm1, thm2, fvector or type-c lists has infinitely
    # many strings, so a listing reported as cut short by its cap is a fault
    # that names the algebra: thm1's first class quiver (the square cut by
    # (2, 4) has no arrows), thm2's first representation-finite algebra,
    # the algebra of fvector's first pentagon triangulation and the algebra
    # of type-c's one-holed disc at rank 2
    from clusterlab import verify
    listing = verify.enumerate_tau_rigid
    monkeypatch.setattr(verify, "enumerate_tau_rigid",
                        lambda inv, cap=None: (listing(inv, cap)[0], True))
    for report, quiver in (
            (verify_thm1(5, 2), {"vertices": 1, "arrows": [],
                                 "relations": []}),
            (verify_thm2(2, 2, 2), {
                "vertices": 1,
                "arrows": [{"id": "a0_0_0", "src": 1, "tgt": 1}],
                "relations": [["a0_0_0", "a0_0_0"]]}),
            (verify_fvector_injectivity(2, 1), {
                "vertices": 2,
                "arrows": [{"id": "r4_0", "src": 1, "tgt": 2}],
                "relations": []}),
            (verify_type_c_categorification(2, 2), {
                "vertices": 2,
                "arrows": [{"id": "r0_0", "src": 1, "tgt": 1},
                           {"id": "r0_1", "src": 1, "tgt": 2}],
                "relations": [["r0_0", "r0_0"]]})):
        assert report.verdict == "fail", report.experiment
        assert report.witnesses == [{"check": "infinitely many strings",
                                     "quiver": json.dumps(quiver)}]


def test_dual_path_check_catches_a_wrong_compatibility():
    disc = DiscTiling(5, ((1, 3), (1, 4)))
    arcs, _ = disc.to_complex().enumerate_permissible_arcs()
    # the all-compatible masks
    with pytest.raises(WitnessedFault) as fault:
        _dual_path_check(disc, arcs, [0] * len(arcs))
    witness = fault.value.witness
    assert witness["check"] == "module and chord compatibility differ"
    assert witness["tiling"] == disc.chords and witness["module"] is True
    # the first crossing pair in combinations order, as the per-pair
    # compatibility test named it; the arcs' endpoints come unsorted
    assert witness["endpoints"] == [(4, 2), (5, 3)]


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
    # the free loop came first and was skipped; the fault came on the next
    assert r.counts == {
        "algebras": 2, "representation_finite": 1,
        "representation_infinite_skipped": 1, "with_even_cycle": 0,
        "without_even_cycle": 0, "max_multiplicity_needed": 0}


def _on_cpus(monkeypatch, cpus):
    """Let the harnesses see `cpus` CPUs: on one, verify_thm1 checks its
    algebra classes and verify_thm2 its algebras in this process; on more,
    they fan them out to one forked worker per CPU.  With `cpus` None the
    process cannot read its CPUs, as off Linux, and checks them itself."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))


def _hold_back(monkeypatch, name, first):
    """Patch the harness step `verify.<name>` so that, in a forked worker, a
    call on the family's first member (one whose arguments pass `first`)
    waits until a call on a later member has finished, so that the other
    workers reach their faults before it.  The wait is bounded, so a run
    where no later member finishes cannot hang.  Returns the function that
    arms a new handshake before each run: an event made before the pool
    forks is shared with its workers."""
    from clusterlab import verify
    step = getattr(verify, name)
    caller = os.getpid()
    finished = []  # the armed handshake's event, last

    def held_back(*args):
        if first(*args):
            if os.getpid() != caller:
                finished[-1].wait(10)
            return step(*args)
        try:
            return step(*args)
        finally:
            finished[-1].set()

    monkeypatch.setattr(verify, name, held_back)
    return lambda: finished.append(multiprocessing.get_context("fork").Event())


def _wrong_arrow_action(monkeypatch):
    """The wrong action of test_thm2_reports_an_arrow_stability_fault."""
    from clusterlab import modules
    monkeypatch.setattr(modules._ProjectiveSum, "arrow_action",
                        lambda self, aid, src: [None, 0])


def test_thm2_fanned_out_fault_replays_the_one_cpu_report(monkeypatch):
    # with the wrong action, five of the seven representation-finite
    # algebras at (2, 3) fail their tau step (the A2 path and the 2-cycle
    # with full relations do not).  The first of them, the loop, is held
    # back in its worker until a later tau step has finished, so that the
    # other workers reach the later faults first; the report still names
    # the first and counts what came before its tau step, as the one-CPU
    # run does
    _wrong_arrow_action(monkeypatch)
    arm = _hold_back(monkeypatch, "_finite_tau_rigid", lambda inv: inv.q.n == 1)
    reports = {}
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        arm()
        r = verify_thm2(2, 3)
        reports[cpus] = r.verdict, r.counts, r.witnesses
    assert reports[2] == reports[3] == reports[1]
    verdict, counts, (witness,) = reports[1]
    assert verdict == "fail"
    assert witness["check"] == "kernel is not arrow-stable"
    assert json.loads(witness["quiver"])["relations"] == [["a0_0_0",
                                                           "a0_0_0"]]
    assert counts == {
        "algebras": 23, "representation_finite": 1,
        "representation_infinite_skipped": 1, "with_even_cycle": 0,
        "without_even_cycle": 0, "max_multiplicity_needed": 0}


def test_a_failed_thm2_report_keeps_what_it_replayed_before_the_fault(
        monkeypatch):
    # a Cartan determinant of 1 on the 3-arrow algebras whose determinant
    # is 0 fails the 2-cycle with a loop at (2, 3), after the first algebra
    # with an even cycle; its collision multiplicity is replayed into the
    # report before the fault is, on every path
    from clusterlab import verify
    real = verify.cartan_matrix

    def cartan(q):
        c, det = real(q)
        return (c, 1) if len(q.arrows) == 3 and det == 0 else (c, det)

    monkeypatch.setattr(verify, "cartan_matrix", cartan)
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        r = verify_thm2(2, 3)
        assert r.verdict == "fail"
        (witness,) = r.witnesses
        assert (witness["check"], witness["det"]) == ("cartan-determinant", 1)
        assert json.loads(witness["quiver"])["relations"] == [
            ["a0_1_0", "a1_0_0"], ["a1_0_0", "a0_1_0"], ["a1_1_0", "a1_1_0"]]
        assert r.counts == {
            "algebras": 23, "representation_finite": 7,
            "representation_infinite_skipped": 9, "with_even_cycle": 1,
            "without_even_cycle": 5, "max_multiplicity_needed": 2}


def _sleep(member, seconds):
    time.sleep(seconds)


def test_a_replay_read_in_part_lets_the_workers_finish(monkeypatch):
    # a harness that stops reading its replay closes it; the pool then lets
    # its workers finish the items they were sent, as after a failed check,
    # for only an interrupt stops them at once
    from clusterlab.verify import _recorded, _replayed
    _on_cpus(monkeypatch, 2)
    report = VerifyReport("demo", {})
    start = time.perf_counter()
    replay = _replayed(report, functools.partial(_recorded, _sleep),
                       [[0.0], [1.0]], [0, 1])
    next(replay)
    replay.close()
    assert time.perf_counter() - start >= 1.0
    assert report.workers == 2
    assert multiprocessing.active_children() == []


def test_thm2_fanned_out_report_equals_the_one_cpu_report(monkeypatch):
    # every translate is still computed, once per algebra that asks for it;
    # a family without members passes on every path
    reports = {}
    for cpus in (1, 2, None):
        _on_cpus(monkeypatch, cpus)
        reports[cpus] = verify_thm2(4, 4, 3)
        assert verify_thm2(1, 0).counts["algebras"] == 0
    for r in reports.values():
        assert r.result_digest == (
            "8089693f3a2f89e387d11e909f49dd7c0842638da56a165dc2f9def4d057ccda")
        assert r.cache == {"tau_hits": 12525, "tau_misses": 2025}
        assert r.counts == reports[1].counts


def test_thm2_leaves_no_worker_behind(monkeypatch):
    # the pool is closed and joined, with its handler threads, before the
    # harness returns a pass report and a fail report alike
    _on_cpus(monkeypatch, 2)
    threads = threading.active_count()
    assert verify_thm2(2, 3).verdict == "pass"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    _wrong_arrow_action(monkeypatch)
    assert verify_thm2(2, 3).verdict == "fail"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


THM1_DIGEST_8_3 = (
    "2854ceacf3c8cb1d2576b67fcfab1a0b2b4d2612018505363aa16d1eccb62d82")


def test_thm1_fanned_out_report_equals_the_one_cpu_report(monkeypatch):
    # the classes' records are built once each: algebra_classes sums the
    # records the class tasks built
    reports = {}
    for cpus in (1, 2, None):
        _on_cpus(monkeypatch, cpus)
        reports[cpus] = verify_thm1(8, 3)
    for r in reports.values():
        assert r.result_digest == THM1_DIGEST_8_3
        assert r.counts == reports[1].counts
        assert r.cache == {"algebra_classes": 39, "class_reuses": 213}


def test_reports_count_their_workers(monkeypatch):
    # one per CPU the fanned-out harnesses may use, and one where they
    # cannot tell; outside the digest, as the cache counts are
    for cpus, workers in ((1, 1), (2, 2), (None, 1)):
        _on_cpus(monkeypatch, cpus)
        for r in (verify_thm1(5, 2), verify_thm2(2, 3)):
            assert r.workers == r.to_dict()["workers"] == workers
    assert VerifyReport("demo", {}).workers == 1
    res = CliRunner().invoke(main, ["verify", "thm1", "--marked-max", "5",
                                    "--mult-cap", "2"])
    assert res.exit_code == 0 and "workers: 1" in res.output.splitlines()


def _masked_profiles(monkeypatch):
    """Drop the segment profiles from thm1's sweep weights, so that the
    empty multiset and the next one share a profile."""
    from clusterlab import verify
    real = verify._arc_weights

    def masked(t, arcs, mult_cap):
        weights, (keys, width) = real(t, arcs, mult_cap)
        mask = (1 << width * len(t.arcs)) - 1
        return [w & mask for w in weights], (keys, width)

    monkeypatch.setattr(verify, "_arc_weights", masked)


def _even_cycle_everywhere(monkeypatch):
    from clusterlab import verify
    monkeypatch.setattr(verify, "detect_even_full_cycle",
                        lambda q: ["x", "y"])


@pytest.mark.parametrize("fault, witness, swept", [
    (_drop_first_geometric_arc,
     {"check": "string and geometric arcs differ", "tiling": ((2, 4),),
      "string": [((1, 3), (1,))], "geometric": []}, 0),
    (_masked_profiles,
     {"check": "seg-profile collision", "tiling": ((2, 4),),
      "multisets": [(), ((0, 1),)]}, 2),
    (_even_cycle_everywhere,
     {"check": "forbidden tile and even cycle differ", "tiling": ((2, 4),),
      "even_cycle": ["x", "y"]}, 0)])
def test_thm1_fanned_out_fault_replays_the_one_cpu_report(
        monkeypatch, fault, witness, swept):
    # every tiling of the 4- to 6-gons fails the check; the first, the
    # square cut by (2, 4), is held back in its worker until a later tiling
    # has been checked, so that the workers of the other classes reach
    # their faults first.  The report still names the first and counts
    # what came before it, as the one-CPU run does
    fault(monkeypatch)
    arm = _hold_back(monkeypatch, "_thm1_tiling",
                     lambda member, disc, *rest: disc.m == 4)
    reports = {}
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        arm()
        r = verify_thm1(6, 2)
        reports[cpus] = r.verdict, r.counts, r.witnesses
    assert reports[2] == reports[3] == reports[1]
    assert reports[1] == ("fail", {
        "tilings": 1, "outside_taxonomy": 1, "admissible": 0, "forbidden": 0,
        "multisets": swept, "converse_witnesses": 0},
        [witness])


def test_thm1_checks_the_dissection_count(monkeypatch):
    # the hexagon's last chord set goes missing: the square's and the
    # pentagon's tilings are checked, then the hexagon's count fails, after
    # its 31 chord sets outside the taxonomy are counted
    from clusterlab import verify
    chord_sets = verify._noncrossing_chord_sets
    monkeypatch.setattr(
        verify, "_noncrossing_chord_sets",
        lambda n: list(chord_sets(n))[:-1] if n == 6 else chord_sets(n))
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        r = verify_thm1(6, 2)
        assert r.verdict == "fail"
        assert r.witnesses == [{"check": "dissection count", "m": 6,
                                "expected": 45, "found": 44}]
        assert r.counts == {
            "tilings": 7, "outside_taxonomy": 7 + 31, "admissible": 7,
            "forbidden": 0, "multisets": 51, "converse_witnesses": 0}


def test_thm1_reports_a_classification_fault_on_its_tiling(monkeypatch):
    # classifying the hexagon's first tiling with three arcs fails: the
    # report names that tiling's fault once it is counted, after the square's
    # and the pentagon's tilings and the hexagon's 31 chord sets outside the
    # taxonomy, whether the group's task ran here or in a worker
    from clusterlab import verify
    real = verify._algebra_class

    def classify(q):
        if q.n == 3:
            raise WitnessedFault({"check": "planted", "arrows": len(q.arrows)})
        return real(q)

    monkeypatch.setattr(verify, "_algebra_class", classify)
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        r = verify_thm1(6, 2)
        assert (r.verdict, r.witnesses) == (
            "fail", [{"check": "planted", "arrows": 2}])
        assert r.counts == {
            "tilings": 8, "outside_taxonomy": 7 + 31, "admissible": 7,
            "forbidden": 0, "multisets": 51, "converse_witnesses": 0}


def test_thm1_leaves_no_worker_behind(monkeypatch):
    # as test_thm2_leaves_no_worker_behind, for the class tasks of thm1
    _on_cpus(monkeypatch, 2)
    threads = threading.active_count()
    assert verify_thm1(6, 2).verdict == "pass"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads
    _drop_first_geometric_arc(monkeypatch)
    assert verify_thm1(6, 2).verdict == "fail"
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_the_pool_stops_its_workers_on_an_interrupt_alone(monkeypatch):
    # an error leaves the workers to finish their items, as stopping one
    # while it sends a result can leave the result queue locked and the
    # pool's shutdown waiting for ever; an interrupt stops them at once
    from clusterlab.verify import _mapped_in_order
    _on_cpus(monkeypatch, 2)
    for error, waited in ((ValueError, True), (KeyboardInterrupt, False)):
        start = time.perf_counter()
        with pytest.raises(error):
            with _mapped_in_order(time.sleep, [1.0, 1.0]):
                raise error
        assert (time.perf_counter() - start >= 1.0) == waited, error
        assert multiprocessing.active_children() == []


def test_importing_the_program_loads_no_pool():
    # the pool machinery is imported by a fanned-out thm1 or thm2 call
    # alone, so the CLI's start-up, the other harnesses and a thm1 call
    # pinned to one CPU never load it
    code = ("import os, sys\n"
            "from clusterlab import cli, verify\n"
            "os.sched_setaffinity(0, {0})\n"
            "verify.verify_thm1(5, 2)\n"
            "verify.verify_denominator('A', 2, 2)\n"
            "assert 'multiprocessing' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True)


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


def test_thm2_reports_a_non_gentle_generated_quiver(monkeypatch):
    # every grid gets the empty relation set alone: on one loop it is
    # gentle, and on two loops the loops compose freely with both (G2)
    from clusterlab import verify
    monkeypatch.setattr(verify, "_relation_choices",
                        lambda n, arrows: iter([frozenset()]))
    r = verify_thm2(1, 2, 2)
    assert r.verdict == "fail"
    assert r.witnesses == [{
        "check": "generated relation set not gentle",
        "quiver": json.dumps({
            "vertices": 1,
            "arrows": [{"id": "a0_0_0", "src": 1, "tgt": 1},
                       {"id": "a0_0_1", "src": 1, "tgt": 1}],
            "relations": []}),
        "violated": "G2",
        "reason": "arrow 'a0_0_0' composes freely with "
                  "['a0_0_0', 'a0_0_1']"}]


def test_type_c_reports_a_non_gentle_quiver(monkeypatch):
    # the one-holed disc's algebra built without its relations: the loop
    # squares freely
    from clusterlab import tiling
    real = tiling.BoundQuiver
    monkeypatch.setattr(tiling, "BoundQuiver",
                        lambda n, arrows, relations: real(n, arrows, []))
    r = verify_type_c_categorification(2, 2)
    assert r.verdict == "fail"
    assert r.witnesses == [{
        "check": "tiling algebra not gentle",
        "quiver": json.dumps({
            "vertices": 2,
            "arrows": [{"id": "r0_0", "src": 1, "tgt": 1},
                       {"id": "r0_1", "src": 1, "tgt": 2}],
            "relations": []}),
        "violated": "G2",
        "witness": "arrow 'r0_0' composes freely with ['r0_0', 'r0_1']"}]


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


def test_gentle_enumeration_leaves_no_cyclic_garbage():
    # a fanned-out thm2 process allocates little beyond the enumeration,
    # so its cycle collector runs rarely; memory held by cycles would build
    # up over repeated calls
    gc.collect()
    gc.disable()
    try:
        enumerate_gentle_algebras(3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        b = q.arrows[g[a.id]]
        for v, w in ((a.src, b.src), (a.tgt, b.tgt)):
            if p.setdefault(v, w) != w:
                return False
    return sorted(p.values()) == list(range(q.n))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_key_ignores_labels(data):
    q = data.draw(st.sampled_from(_small_gentle()))
    arrows = list(q.arrows.values())
    grid = dict(Counter((a.src, a.tgt) for a in arrows))
    ends, labellings = _least_arrow_list(q.n, [(a.src, a.tgt) for a in arrows])
    # the arrow part of the key ignores vertex labels
    perm = data.draw(st.permutations(range(q.n)))
    assert _least_arrow_list(
        q.n, [(perm[a.src], perm[a.tgt]) for a in arrows])[0] == ends
    # one isomorphism onto the class quiver per grid-fixing vertex
    # permutation and ordering of each group of parallel arrows
    isomorphisms = _isomorphisms(arrows, labellings)
    fixing = sum(
        {(p[i], p[j]): c for (i, j), c in grid.items()} == grid
        for p in itertools.permutations(range(q.n)))
    orderings = math.prod(map(math.factorial, grid.values()))
    assert len(isomorphisms) == fixing * orderings
    cq = _class_quiver((q.n, ends, ()))
    for p, name in isomorphisms:
        assert sorted(map(_class_arrow, name.values())) == sorted(cq.arrows)
        assert all(name[a.id][:2] == (p[a.src], p[a.tgt]) for a in arrows)
    # the orbit key is constant under each automorphism, parallel-arrow
    # swaps included: the first isomorphism, undone by each other one
    key = _canonical_bound_quiver(isomorphisms, q.relations)[0]
    undo = {label: a for a, label in isomorphisms[0][1].items()}
    for _, name in isomorphisms:
        g = {a: undo[label] for a, label in name.items()}
        assert _moves_along_a_vertex_permutation(q, g)
        image = frozenset((g[a], g[b]) for a, b in q.relations)
        assert _canonical_bound_quiver(isomorphisms, image)[0] == key


def _relabelled(q):
    """q with its vertices in reverse order and its arrows renamed."""
    rename = {a: f"b{k}" for k, a in enumerate(sorted(q.arrows)[::-1])}
    return BoundQuiver(
        q.n, [Arrow(rename[a.id], q.n - 1 - a.src, q.n - 1 - a.tgt)
              for a in q.arrows.values()],
        [(rename[a], rename[b]) for a, b in q.relations])


def test_class_keys_match_brute_force_on_the_gentle_classes():
    # the 312 classes at (4, 4) and a relabelled copy of each: the class
    # key and `_brute_canonical` split the 624 quivers alike, into the 312
    # classes
    pairs = set()
    for q in enumerate_gentle_algebras(4, 4):
        for x in (q, _relabelled(q)):
            ends = {a.id: (a.src, a.tgt) for a in x.arrows.values()}
            pairs.add((_algebra_class(x)[0],
                       (x.n, _brute_canonical(x.n, None, x.relations, ends))))
    assert len(pairs) == len({k for k, _ in pairs}) == \
        len({b for _, b in pairs}) == 312


@functools.cache
def _gentle_at_acceptance_bounds():
    return enumerate_gentle_algebras(4, 6)


def test_gentle_enumeration_pinned_at_acceptance_bounds():
    # sha256 of the to_json list of enumerate_gentle_algebras(4, 6) as
    # found by canonicalising every relation set on every connected grid
    algebras = _gentle_at_acceptance_bounds()
    assert len(algebras) == 2209
    digest = hashlib.sha256(
        json.dumps([q.to_json() for q in algebras]).encode()).hexdigest()
    assert digest == \
        "e2ef497addea8d2cb7f9e58bb37cc18bf153b68d82a1a4a19d0665354471da79"


def test_gentle_classes_split_by_finite_dimension():
    # the classes at (4, 6) are gentle in the G1-G3 sense only: 876 are
    # finite-dimensional, and each of the other 1,333 has a relation-free
    # oriented cycle, so building its Cartan matrix raises
    finite = infinite = 0
    for q in _gentle_at_acceptance_bounds():
        try:
            cartan_matrix(q)
            finite += 1
        except InfiniteDimensionalAlgebraError:
            infinite += 1
    assert (finite, infinite) == (876, 1333)


def test_fvector_harness():
    r = verify_fvector_injectivity(3, 2)
    assert r.verdict == "pass"
    assert r.counts["triangulations_cross_checked"] == 19  # 5 + 14


def test_fvector_explores_each_relabelling_class_once(monkeypatch):
    from clusterlab import verify
    calls = []
    real = verify.explore

    def counting(matrix, *args, **kwargs):
        calls.append(matrix)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(verify, "explore", counting)
    r = verify_fvector_injectivity(3, 3)
    # A2 and A3, then one matrix of each of the 1 + 4 relabelling classes
    # that the 2 + 8 distinct matrices of the 5 pentagon and 14 hexagon
    # triangulations fall into, less the classes of A2 and A3 themselves,
    # which the monomials graphs answer
    assert len(calls) == 5
    assert [len(b.b) for b in calls] == [2, 3, 3, 3, 3]
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

    # the run stops at x1, its first wrong variable, so the swap is
    # witnessed by x1 alone
    for corrupt, witnessed in (
            (scale_x1, [("x1", (-2, 0))]),
            (swap_x1_x2, [("x1", (0, -1))])):
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


def test_fvector_reports_a_triangulation_cross_check_fault(monkeypatch):
    # every triangulation matrix with its vertex order reversed: the
    # pentagon's stay in A2's class with the same vectors, and the first
    # hexagon triangulation whose arcs read apart from its carried
    # f-vectors is the witness
    from clusterlab import verify
    real = verify.b_matrix_from_triangulation

    def reversed_order(t):
        b = real(t).b
        return ExchangeMatrix(tuple(row[::-1] for row in b[::-1]))

    monkeypatch.setattr(verify, "b_matrix_from_triangulation", reversed_order)
    r = verify_fvector_injectivity(3, 2)
    assert r.verdict == "fail"
    assert r.witnesses == [{
        "triangulation": (6, ((2, 6), (3, 5), (3, 6))),
        "f_vectors": [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0),
                      (1, 1, 1)],
        "intersection_vectors": [(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0),
                                 (1, 0, 1), (1, 1, 1)]}]
    assert r.counts == {"A2_monomials": 15, "A3_monomials": 39,
                        "triangulations_cross_checked": 6}
    assert r.cache == {"matrix_classes": 3, "class_reuses": 6}


def test_a_failed_harness_carries_its_first_witness_only(monkeypatch):
    from clusterlab import linalg, verify
    # thm1 with the profile fields of every weight masked off: the empty
    # multiset and the first arc of the first tiling share a profile, and
    # the run stops there, short of the octagon
    real = verify._arc_weights

    def profiles_masked(t, arcs, mult_cap):
        weights, (keys, width) = real(t, arcs, mult_cap)
        mask = (1 << width * len(t.arcs)) - 1
        return [w & mask for w in weights], (keys, width)

    monkeypatch.setattr(verify, "_arc_weights", profiles_masked)
    r = verify_thm1(8, 2)
    assert r.verdict == "fail"
    assert r.witnesses == [{"check": "seg-profile collision",
                            "tiling": ((2, 4),),
                            "multisets": [(), ((0, 1),)]}]
    # the two multisets swept, the faulting one included
    assert r.counts["multisets"] == 2
    monkeypatch.undo()
    # every D-matrix rank 0: the root cluster of A2 is the first witness,
    # and the other A2 clusters and A3 are never reached
    monkeypatch.setattr(linalg, "rank", lambda rows, n: 0)
    first_d = {"check": "D-matrix rank", "vertex": 0,
               "d_vectors": [(-1, 0), (0, -1)]}
    r = verify_denominator("A", 3, 3, "root")
    assert r.verdict == "fail"
    assert r.witnesses == [{"where": "A2 root", **first_d}]
    # duality stops at the B2 root, before C2 and rank 3
    r = verify_denominator_duality(3, 3)
    assert r.verdict == "fail"
    assert r.witnesses == [{"where": "B2 root", **first_d}]
    assert r.counts == {"verdicts": {}, "monomials": 36}


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


def test_denominator_rejects_unknown_initial_seeds():
    # a misspelt choice used to pass as if it were "root", with 0 reroots
    assert verify_denominator("A", 2, 2, "all").counts["reroots"] == 5
    for seeds in ("All", "none", ""):
        with pytest.raises(ValueError, match="initial_seeds must be"):
            verify_denominator("A", 2, 2, seeds)


def test_denominator_reports_a_fault_on_a_rerooted_matrix(monkeypatch):
    # a check that fails on every reroot explored: the A2 reroots all fall
    # in the root's class and reuse its count, and so does A3's cluster 0,
    # so the first explored reroot is A3's cluster 1; the fault stops the
    # run before that reroot is counted or its class stored
    from clusterlab import verify
    real = verify._check_d_columns_independent

    def planted(graph, where):
        if "cluster" in where:
            raise WitnessedFault({"where": where, "check": "planted"})
        real(graph, where)

    monkeypatch.setattr(verify, "_check_d_columns_independent", planted)
    r = verify_denominator("A", 3, 3)
    assert r.verdict == "fail"
    assert r.witnesses == [{"where": "A3 cluster 1", "check": "planted"}]
    assert r.counts == {"monomials": 492, "reroots": 6}
    assert r.cache == {"matrix_classes": 2, "class_reuses": 6}
    # B2's cluster 1 already lies outside the root's class
    r = verify_denominator("B", 3, 3)
    assert r.witnesses == [{"where": "B2 cluster 1", "check": "planted"}]
    assert r.counts == {"monomials": 108, "reroots": 1}


def test_denominator_duality():
    r = verify_denominator_duality(2, 2)
    assert r.verdict == "pass"
    # 18 monomials of degree <= 2 on each side
    assert r.counts == {"verdicts": {"B": "pass", "C": "pass"},
                        "monomials": 36, "rank2_pairs": 6}


def test_denominator_duality_pairs_every_seed_at_rank_4():
    # C(2n, n) seeds per side
    r = verify_denominator_duality(4, 1)
    assert r.verdict == "pass"
    assert [r.counts[f"rank{n}_pairs"] for n in (2, 3, 4)] == [6, 20, 70]


def test_denominator_duality_reports_a_pairing_fault(monkeypatch):
    # the C side's root reaches its neighbours in the opposite order, so
    # the seeds with one id no longer come from one mutation sequence
    from clusterlab import verify
    real = verify.explore
    c2 = verify.standard_matrix("C", 2)

    def permuted(matrix):
        graph = real(matrix)
        if matrix == c2:
            graph.reached[0] = graph.reached[0][::-1]
        return graph

    monkeypatch.setattr(verify, "explore", permuted)
    r = verify_denominator_duality(2, 1)
    assert r.verdict == "fail"
    assert r.witnesses == [{
        "check": "B and C seeds pair differently", "rank": 2, "vertex": 0,
        "clusters": [["x1", "x2"], ["x1", "x2"]]}]


def test_denominator_duality_checks_that_c_is_the_dual_of_b(monkeypatch):
    # a dual that changes nothing leaves C2 apart from B2, before either
    # is explored
    from clusterlab import verify
    monkeypatch.setattr(verify, "langlands_dual", lambda m: m)
    r = verify_denominator_duality(3, 3)
    assert r.verdict == "fail"
    assert r.witnesses == [{"check": "C_n is not langlands_dual(B_n)",
                            "rank": 2, "B": ((0, 2), (-1, 0)),
                            "C": ((0, 1), (-2, 0))}]
    assert r.counts == {"verdicts": {}, "monomials": 0}


def test_duality_cli_has_no_initial_seeds_option():
    # every seed is paired, so there is nothing to reroot from
    res = CliRunner().invoke(main, ["verify", "duality", "--initial-seeds",
                                    "all"])
    assert res.exit_code == 2, res.output
    assert "No such option '--initial-seeds'" in res.output


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
    # C2 and C3 have 2 + 5 relabelling classes over their 6 + 20 reroots;
    # the 5 + 14 triangulations fall into 1 + 4, those of A2 and A3 among
    # them, so 3 more are explored and the other 16 triangulations reuse one
    assert verify_denominator("C", 3, 3).to_dict()["cache"] == {
        "matrix_classes": 7, "class_reuses": 21}
    assert verify_fvector_injectivity(3, 3).to_dict()["cache"] == {
        "matrix_classes": 5, "class_reuses": 16}


def _carried(vectors, p0, p):
    """The sorted `vectors` of a matrix with `_relabelling` order p0, read
    at a matrix of its class with order p: coordinate p0[i] goes to p[i]."""
    source = [p0[p.index(v)] for v in range(len(p))]
    return sorted(tuple(v[s] for s in source) for v in vectors)


@pytest.mark.parametrize("series, classes", [
    ("A", (1, 4)), ("B", (2, 5)), ("C", (2, 5))])
def test_relabelled_reroots_explore_alike(series, classes):
    # the symmetry the denominator and fvector harnesses share explores
    # under: every reroot matrix, explored directly, matches the first
    # matrix of its relabelling class carried through the two orders
    for n, want in zip((2, 3), classes):
        first = {}  # relabelling key -> (order, graph) of its first matrix
        for t in explore(standard_matrix(series, n)).reps:
            b = t.seed.matrix
            key, p = _relabelling(b)
            for q in itertools.permutations(range(n)):
                renumbered = ExchangeMatrix(
                    tuple(tuple(b.b[i][j] for j in q) for i in q))
                assert _relabelling(renumbered)[0] == key
            graph = explore(b)
            p0, graph0 = first.setdefault(key, (p, graph))
            assert sum(1 for _ in enumerate_monomials(graph, 3)) == \
                sum(1 for _ in enumerate_monomials(graph0, 3))
            for kind in ("d", "f"):
                assert sorted(getattr(v, kind) for v in graph.variables) == \
                    _carried([getattr(v, kind) for v in graph0.variables],
                             p0, p), (series, n, b)
        assert len(first) == want, (series, n)


def test_rank_four_digests_are_pinned():
    # read before reroot and triangulation explores were shared per
    # relabelling class; denominator B(4, 2) reads C's digest
    for r, digest in (
            (verify_denominator("A", 4, 2), "22d61656b1e34736052e9adfa7a3d4e9"
             "6bff89c9201918d41341f3d7eb7c36d3"),
            (verify_denominator("C", 4, 2), "dfd3f386faef456e741b977a8fdaf41d"
             "22c4bfd81fcd8b37228e77e89c564307"),
            (verify_fvector_injectivity(4, 2), "f7d2a00a501ba42c6ceb2cf98738a6"
             "02cd19743f892eb0d117587e7f9b8e98b5")):
        assert r.verdict == "pass", r.experiment
        assert r.result_digest == digest, r.experiment


def test_cli_runs_the_harness_bound_at_call_time(monkeypatch):
    # a wrapper put on the harness after the CLI is imported is the one
    # that runs
    from clusterlab import verify
    calls = []
    real = verify.verify_denominator

    def counting(**params):
        calls.append(params)
        return real(**params)

    monkeypatch.setattr(verify, "verify_denominator", counting)
    res = CliRunner().invoke(main, ["verify", "denominator", "--rank-max",
                                    "2", "--format", "json"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    assert json.loads(res.output)["verdict"] == "pass"


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
    # pass would check nothing, and values outside a string parameter's
    # choices
    ["thm1", "--marked-max", "3"], ["thm1", "--mult-cap", "0"],
    ["thm2", "--vertex-max", "0"], ["thm2", "--arrow-max", "0"],
    ["thm2", "--mult-cap", "0"],
    ["fvector", "--rank-max", "1"], ["fvector", "--degree-cap", "0"],
    ["denominator", "--rank-max", "1"], ["denominator", "--degree-cap", "0"],
    ["duality", "--rank-max", "1"], ["duality", "--degree-cap", "0"],
    ["type-c", "--degree-cap", "0"],
    ["denominator", "--series", "D"],
    ["denominator", "--initial-seeds", "none"],
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


@pytest.mark.parametrize("args", [
    ["mutate", "--seq", "3"], ["mutate", "--seq", "1,x"],
    ["vectors", "--exponents", "1,0", "--seq", "0"],
    ["vectors", "--exponents", "1"], ["vectors", "--exponents", "0,0"],
    ["vectors", "--exponents", "1,-1"], ["explore", "--degree-cap", "-2"],
])
def test_cli_rejects_bad_walks_exponents_and_degree_caps(tmp_path, args):
    # on C2: a direction outside 1..2 or not an integer, an exponent list
    # of the wrong length, all zero or negative, and a negative degree cap
    # (which used to count no monomials) are usage errors, not tracebacks
    matrix = tmp_path / "c2.json"
    matrix.write_text('{"n": 2, "B": [[0, 1], [-2, 0]]}')
    res = CliRunner().invoke(main, [args[0], "--matrix", str(matrix)]
                             + args[1:])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{args[-2]}'" in res.output


def _cli_env(**extra):
    """The environment of a `python -m clusterlab.cli` subprocess: this
    checkout's `src` first on PYTHONPATH, plus `extra`."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _cli(cwd, *args, check=True):
    """`python -m clusterlab.cli *args` in a subprocess run in `cwd`."""
    return subprocess.run([sys.executable, "-m", "clusterlab.cli", *args],
                          cwd=cwd, env=_cli_env(), capture_output=True,
                          text=True, check=check)


def _cli_json(cwd, *args):
    """The JSON that `_cli(cwd, *args, "--format", "json")` prints."""
    return json.loads(_cli(cwd, *args, "--format", "json").stdout)


def test_harness_digests_do_not_depend_on_string_hashing():
    # the CLI runs thm1 at marked-max 7, the type B denominator check from
    # every initial seed and thm2 at (4, 4, 3), whose orbit key is the
    # class key, under two hash seeds; each pair of runs prints one result
    # digest, the pinned one
    commands = {
        "thm1": ["thm1", "--marked-max", "7", "--mult-cap", "2"],
        "denominator": ["denominator", "--series", "B", "--rank-max", "3",
                        "--initial-seeds", "all"],
        "thm2": ["thm2", "--vertex-max", "4", "--arrow-max", "4",
                 "--mult-cap", "3"]}
    reports = {}  # (name, hash seed) -> the JSON report
    for seed in (0, 12345):
        env = _cli_env(PYTHONHASHSEED=str(seed))
        for name, args in commands.items():
            reports[name, seed] = json.loads(subprocess.run(
                [sys.executable, "-m", "clusterlab.cli", "verify", *args,
                 "--format", "json"], env=env, capture_output=True,
                text=True, check=True).stdout)
    for name, prefix in (("thm1", "e53e1187"), ("denominator", "b9cfec1b"),
                         ("thm2", "8089693f")):
        digests = {reports[name, seed]["result_digest"]
                   for seed in (0, 12345)}
        assert len(digests) == 1, (name, digests)
        assert digests.pop().startswith(prefix), name


def _gentle_analyze(tmp_path, quiver):
    """`gentle analyze --format json` on `quiver` in a subprocess."""
    (tmp_path / "quiver.json").write_text(json.dumps(quiver))
    return _cli(tmp_path, "gentle", "analyze", "--quiver", "quiver.json",
                "--format", "json")


def test_gentle_quiver_analysis_from_the_cli(tmp_path):
    # the CLI on the 2-cycle with full relations: an even full-relation
    # cycle, Cartan determinant 0, the two projectives sharing the dimension
    # vector (1, 1), and one translate computed for each of the four strings
    result = json.loads(_gentle_analyze(tmp_path, {
        "vertices": 2,
        "arrows": [{"id": "a", "src": 1, "tgt": 2},
                   {"id": "b", "src": 2, "tgt": 1}],
        "relations": [["a", "b"], ["b", "a"]]}).stdout)
    assert result["gentle"] is True, result
    assert result["even_full_cycle"] == ["a", "b"], result
    assert result["cartan_determinant"] == 0, result
    dims = sorted(m["dim"] for m in result["tau_rigid"])
    assert dims == [[0, 1], [1, 0], [1, 1], [1, 1]], result
    assert result["cache"] == {"tau_hits": 0, "tau_misses": 4}, result


def test_gentle_analysis_of_a_quiver_with_infinitely_many_strings(tmp_path):
    # the CLI on the Kronecker quiver (two arrows 1 -> 2, no relations): its
    # strings never end, so the default length cap of twice the arrow count
    # plus two truncates the listing at the eight preprojective and
    # preinjective dimension vectors up to (4, 3); the truncation is
    # reported by the flag alone, with nothing on stderr
    run = _gentle_analyze(tmp_path, {
        "vertices": 2,
        "arrows": [{"id": "a", "src": 1, "tgt": 2},
                   {"id": "b", "src": 1, "tgt": 2}],
        "relations": []})
    assert run.stderr == "", "stderr not empty"
    result = json.loads(run.stdout)
    assert result["tau_rigid_truncated"] is True, result
    dims = sorted(m["dim"] for m in result["tau_rigid"])
    assert dims == [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2],
                    [3, 4], [4, 3]], result
    assert result["cache"] == {"tau_hits": 0, "tau_misses": 14}, result


def test_thm1_taxonomy_filter_and_phases(tmp_path):
    # the CLI at marked-max 7: every dissection of the 4- to 7-gons (the
    # little Schroeder sum 3 + 11 + 45 + 197) is either swept or counted
    # outside the taxonomy, and the three phases are reported
    report = _cli_json(tmp_path, "verify", "thm1", "--marked-max", "7",
                       "--mult-cap", "2")
    counts = report["counts"]
    assert counts["tilings"] + counts["outside_taxonomy"] == 256, counts
    assert counts["tilings"] == 70, counts
    assert {"tilings", "arcs", "multisets"} <= set(report["phases"]), report


def test_tracked_mutation_and_monomial_vectors_from_the_cli(tmp_path):
    # the CLI on the C2 exchange matrix: the C and F matrices after mutating
    # at 1 then 2, and the vectors of the initial variable x1 at the cluster
    # reached by mutating at 2, whose fbar is its d-vector -e_1 while its
    # f-vector is zero
    (tmp_path / "c2.json").write_text('{"n": 2, "B": [[0, 1], [-2, 0]]}')
    mutated = _cli_json(tmp_path, "mutate", "--matrix", "c2.json",
                        "--seq", "1,2")
    monomial = _cli_json(tmp_path, "vectors", "--matrix", "c2.json",
                         "--seq", "2", "--exponents", "1,0")["monomial"]
    assert mutated["C"] == [[1, -1], [2, -1]], mutated
    assert mutated["F"] == [[1, 1], [0, 1]], mutated
    assert monomial["d"] == [-1, 0], monomial
    assert monomial["f"] == [0, 0], monomial
    assert monomial["fbar"] == [-1, 0], monomial


def test_exchange_graph_closure_and_monomials_from_the_cli(tmp_path):
    # the CLI on the A3 exchange matrix: 14 clusters, 9 cluster variables and
    # 104 cluster monomials of degree <= 3, and no finite-type label in the
    # output
    (tmp_path / "a3.json").write_text(
        '{"n": 3, "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}')
    result = _cli_json(tmp_path, "explore", "--matrix", "a3.json",
                       "--degree-cap", "3")
    assert result["complete"] is True, result
    assert result["clusters"] == 14, result
    assert result["cluster_variables"] == 9, result
    assert result["monomials"] == 104, result
    assert "type" not in result, result


def test_tile_classification_by_face_id_and_a_vacuous_harness_size(tmp_path):
    # the CLI on the hexagon fan and on the general-surface annulus digon:
    # the face-id -> type maps depend on the order in which the faces are
    # traced, so they pin it; and thm1 at mult-cap 0, which would check only
    # empty multisets, exits with a usage error
    (tmp_path / "hexagon_fan.json").write_text(
        '{"surface": "disc", "marked": 6, "chords": [[1,3],[1,4],[1,5]]}')
    (tmp_path / "digon.json").write_text(
        '{"surface": "general", "marked": 4, "boundary": [[0, 1, 2, 3]], '
        '"arcs": [{"id": "cL", "ends": [0, 2]}, {"id": "cR", "ends": [0, 2]}]'
        ', "fans": {"0": [["cL", 0], ["cR", 0]], "2": [["cR", 1], ["cL", 1]]}'
        ', "holes": [["cL", 0, 1]]}')
    fan = _cli_json(tmp_path, "tiling", "classify", "--tiling",
                    "hexagon_fan.json")
    digon = _cli_json(tmp_path, "tiling", "classify", "--tiling",
                      "digon.json")
    status = _cli(tmp_path, "verify", "thm1", "--mult-cap", "0",
                  check=False).returncode
    assert status == 2
    assert fan["tiles"] == {"0": "IV", "1": "III", "2": "IV", "3": "III"}, fan
    assert fan["forbidden_scan_passes"] is True, fan
    assert digon["tiles"] == {"0": "II", "1": "III", "2": "III"}, digon
    assert digon["forbidden_scan_passes"] is False, digon


def test_denominator_vectors_of_type_b_from_every_initial_seed(tmp_path):
    # the CLI at rank <= 3 and degree <= 3: the closed forms give
    # 6 + 20 = 26 reroots and (1 + 6) * 36 + (1 + 20) * 146 = 3,318 cluster
    # monomials checked
    report = _cli_json(tmp_path, "verify", "denominator", "--series", "B",
                       "--initial-seeds", "all", "--rank-max", "3",
                       "--degree-cap", "3")
    assert report["verdict"] == "pass", report
    assert report["counts"]["reroots"] == 26, report
    assert report["counts"]["monomials"] == 3318, report


def test_bc_langlands_duality_seed_by_seed(tmp_path):
    # the CLI at rank <= 3: every seed of B_n is paired with the C_n seed of
    # the same mutation sequence, C(4, 2) = 6 and C(6, 3) = 20 pairs, and
    # both sides' monomials of degree <= 3 are checked, 2 * (36 + 146) = 364;
    # the harness has no --initial-seeds
    report = _cli_json(tmp_path, "verify", "duality", "--rank-max", "3")
    status = _cli(tmp_path, "verify", "duality", "--initial-seeds", "root",
                  check=False).returncode
    assert status == 2
    counts = report["counts"]
    assert report["verdict"] == "pass", report
    assert counts["verdicts"] == {"B": "pass", "C": "pass"}, report
    assert (counts["rank2_pairs"], counts["rank3_pairs"]) == (6, 20), report
    assert counts["monomials"] == 364, report


def test_tiling_arcs_from_both_polygon_builders(tmp_path):
    # the CLI on one disc tiling and one one-holed-disc tiling
    (tmp_path / "disc.json").write_text(
        '{"surface": "disc", "marked": 6, "chords": [[1,3],[3,5],[1,5]]}')
    (tmp_path / "holed.json").write_text(
        '{"surface": "one-holed-disc", "marked": 3, "occ_chords": [[0,2]]}')
    disc = _cli_json(tmp_path, "tiling", "arcs", "--tiling",
                     "disc.json")["arcs"]
    holed = _cli_json(tmp_path, "tiling", "arcs", "--tiling",
                      "holed.json")["arcs"]
    assert len(disc) == 6, disc
    vectors = sorted(a["intersection_vector"] for a in holed)
    assert vectors == [[0, 1], [2, 0], [2, 1], [2, 2]], holed


def test_tiling_arcs_under_a_truncating_string_length_cap(tmp_path):
    # the CLI on the hexagon fan at cap 1: the flag reports the truncation,
    # 5 of the 6 arcs are found, and nothing goes to stderr
    (tmp_path / "fan.json").write_text(
        '{"surface": "disc", "marked": 6, "chords": [[1,3],[1,4],[1,5]]}')
    run = _cli(tmp_path, "tiling", "arcs", "--tiling", "fan.json", "--cap",
               "1", "--format", "json")
    assert run.stderr == "", "stderr not empty"
    result = json.loads(run.stdout)
    assert result["truncated"] is True, result
    assert len(result["arcs"]) == 5, result


def test_non_positive_string_length_caps(tmp_path):
    # the CLI on the hexagon fan and on the Kronecker quiver: a cap of 0
    # would act as cap 1, so both commands exit with a usage error
    (tmp_path / "cap_fan.json").write_text(
        '{"surface": "disc", "marked": 6, "chords": [[1,3],[1,4],[1,5]]}')
    (tmp_path / "cap_kronecker.json").write_text(
        '{"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 2}, '
        '{"id": "b", "src": 1, "tgt": 2}], "relations": []}')
    for args in (("tiling", "arcs", "--tiling", "cap_fan.json"),
                 ("gentle", "analyze", "--quiver", "cap_kronecker.json")):
        status = _cli(tmp_path, *args, "--cap", "0", check=False).returncode
        assert status == 2, args


def test_tiling_algebras_read_off_their_tiles(tmp_path):
    # the CLI on a disc with a loop around a loop around a hole (tiles V,
    # III, III, II and I), whose algebra is gentle only when a relation is
    # two angles of one tile, and on the one-holed disc with two points,
    # whose one loop arrow squares to zero
    (tmp_path / "two_holes.json").write_text(
        '{"surface": "general", "marked": 4, "boundary": [[0, 1, 2, 3]], '
        '"arcs": [{"id": "A", "ends": [0, 2]}, {"id": "B", "ends": [2, 0]}, '
        '{"id": "X", "ends": [0, 0]}, {"id": "Y", "ends": [0, 0]}], '
        '"fans": {"0": [["A", 0], ["X", 0], ["Y", 0], ["Y", 1], ["X", 1], '
        '["B", 1]], "1": [], "2": [["B", 0], ["A", 1]], "3": []}, '
        '"holes": [["Y", 0, 1], ["Y", 1, 1]]}')
    (tmp_path / "holed2.json").write_text(
        '{"surface": "one-holed-disc", "marked": 2}')
    two = _cli_json(tmp_path, "tiling", "algebra", "--tiling",
                    "two_holes.json")
    holed = _cli_json(tmp_path, "tiling", "algebra", "--tiling",
                      "holed2.json")
    assert two["relations"] == [["r0_0", "r0_4"], ["r0_1", "r0_3"],
                                ["r0_2", "r0_2"], ["r0_3", "r0_1"],
                                ["r0_4", "r2_0"], ["r2_0", "r0_0"]], two
    assert holed["relations"] == [["r0_0", "r0_0"]], holed
    assert holed["arrow_points"] == {"r0_0": 1}, holed


def test_a_malformed_input_file_is_a_usage_error(tmp_path):
    # the CLI on a matrix whose two entries share a sign, so no diagonal
    # skew-symmetrizes it: exit status 2, no traceback
    (tmp_path / "not_symmetrizable.json").write_text(
        '{"n": 2, "B": [[0, 1], [1, 0]]}')
    run = _cli(tmp_path, "explore", "--matrix", "not_symmetrizable.json",
               check=False)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "Invalid value for '--matrix'" in run.stderr


@pytest.mark.parametrize("command, flag, data, message", [
    (["tiling", "algebra"], "--tiling", {"surface": "general", "marked": 2},
     "KeyError: 'fans'"),
    (["tiling", "algebra"], "--tiling",
     {"surface": "general", "marked": 2, "boundary": [], "fans": {},
      "arcs": [{"id": "a", "ends": [0]}]}, "IndexError"),
    (["tiling", "arcs"], "--tiling", [1, 2], "AttributeError"),
    (["tiling", "arcs"], "--tiling",
     {"surface": "disc", "marked": 5, "chords": [[1, 2]]},
     "chord (1,2) joins adjacent points"),
    (["gentle", "analyze"], "--quiver",
     {"vertices": 2, "arrows": [{"id": "a", "src": 1, "tgt": 5}],
      "relations": []}, "arrow 'a' endpoint out of range"),
    (["explore"], "--matrix", {"n": 2, "B": [[0, 1], [1, 0]]},
     "NotSkewSymmetrizableError"),
    (["explore"], "--matrix", '{"n": 2, "B": [[0, 1]', "JSONDecodeError"),
    (["explore"], "--matrix", {"n": 2, "B": 5}, "TypeError"),
    # the hexagon without chords is one face of six boundary edges
    (["tiling", "classify"], "--tiling",
     {"surface": "disc", "marked": 6, "chords": []},
     "UnclassifiableTileError"),
])
def test_cli_rejects_malformed_input_files(tmp_path, command, flag, data,
                                           message):
    # these used to end in Python tracebacks with exit status 1
    path = tmp_path / "input.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    res = CliRunner().invoke(main, command + [flag, str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert f"Invalid value for '{flag}'" in res.output
    assert message in res.output


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
    assert data["cartan_matrix"] == \
        "unavailable: relation-free cycle ['rho'] through vertex 1"
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
