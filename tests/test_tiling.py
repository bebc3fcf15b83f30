import hashlib
import json
import pickle
import warnings
from collections import Counter

import pytest
from click.testing import CliRunner

from clusterlab.cli import _load_tiling, main
from clusterlab.errors import UnclassifiableTileError
from clusterlab.quiver import check_gentle, detect_even_full_cycle
from clusterlab.tiling import (
    ArcMultiset, DiscTiling, PermissibleArc, TilingComplex,
    _cell_edges, _chords_in_taxonomy, _crossing_sequence,
    _noncrossing_chord_sets,
    _dissection_count, b_matrix_from_triangulation, chords_interleave,
    disc_cells, disc_tilings, geometric_disc_arcs, seg_profile,
)
from clusterlab.verify import (_compatible_multisets, _field_width, _pack,
                               _unpack)


def annulus_digon_tiling():
    """Four marked points on the outer boundary, two parallel arcs around
    the hole bounding a type II digon: the face left of cL's traversal
    from point 0 to point 2."""
    arcs = [("cL", 0, 2), ("cR", 0, 2)]
    fans = {0: [("cL", 0), ("cR", 0)], 1: [], 2: [("cR", 1), ("cL", 1)], 3: []}
    return TilingComplex(4, [[0, 1, 2, 3]], arcs, fans, holes={("cL", 0): 1})


def complex_of(m, chords):
    return DiscTiling(m, tuple(chords)).to_complex()


def holed_complexes(m):
    """The complexes of the one-holed-disc tilings with m points whose
    tiles classify, in enumeration order."""
    for disc in disc_tilings(m, holed=True):
        t = disc.to_complex()
        try:
            t.classify_tiles()
        except UnclassifiableTileError:
            continue
        yield t


def string_route_profile_keys(t: TilingComplex, arc: PermissibleArc):
    """Oracle: the arc's profile translated to (cell key, marked point)
    pairs, 1-based, in the vocabulary of the geometric oracle."""
    def face_key(fid):
        edges = set()
        for d in t.faces[fid].dedges:
            if d[0] == "a":
                e0, e1 = t.arc_ends[d[1]]
                edges.add(("c", (min(e0, e1) + 1, max(e0, e1) + 1)))
            else:
                comp = t.boundary[d[1]]
                edges.add(("s", comp[d[2]] + 1,
                           comp[(d[2] + 1) % len(comp)] + 1))
        return frozenset(edges)

    def conv(corner):
        return face_key(corner[0]), t.corner_point(corner) + 1

    return {"p2": tuple(conv(c) for c in arc.p2_corners),
            "p1": tuple(conv(c) for c in arc.p1_corners)}


def test_disc_tilings_counts():
    assert sum(1 for _ in disc_tilings(4)) == 3
    assert sum(1 for _ in disc_tilings(5)) == 11
    # octagon: little Schroeder number
    assert sum(1 for _ in disc_tilings(8)) == 903
    # the one-holed disc with m points has the chord sets of the cut
    # (m+1)-gon, and so many of them classify
    totals, classified = [], []
    for m in range(2, 8):
        totals.append(sum(1 for _ in disc_tilings(m, holed=True)))
        assert totals[-1] == _dissection_count(m + 1)
        classified.append(sum(1 for _ in holed_complexes(m)))
    assert totals == [1, 3, 11, 45, 197, 903]
    assert classified == [1, 2, 5, 17, 61, 228]
    # a description survives pickling, as sending it to a worker does
    for disc in (DiscTiling(6, ((1, 3), (3, 5))),
                 DiscTiling(4, ((1, 3), (3, 5)), holed=True)):
        copy = pickle.loads(pickle.dumps(disc))
        assert copy == disc
        assert copy.to_complex().faces == disc.to_complex().faces


def test_disc_validation():
    with pytest.raises(ValueError):
        DiscTiling(3, ())
    with pytest.raises(ValueError):
        DiscTiling(1, (), holed=True)
    assert DiscTiling(2, (), holed=True).to_complex().arcs == [("loop", 0, 0)]
    with pytest.raises(ValueError):
        DiscTiling(5, ((1, 2),))
    with pytest.raises(ValueError):
        DiscTiling(5, ((1, 3), (2, 4)))


def test_builders_fingerprint():
    # pins what both polygon surfaces build: disc chords, arcs and fans
    # for m = 4..9; for the classifiable one-holed-disc tilings with m =
    # 2..7, arcs, fans, algebra and each permissible arc's endpoints and
    # intersection vector
    h = hashlib.sha256()
    for m in range(4, 10):
        for disc in disc_tilings(m):
            t = disc.to_complex()
            h.update(repr((disc.chords, t.arcs, sorted(t.fans.items())))
                     .encode())
    counts = []
    for m in range(2, 8):
        counts.append(0)
        for t in holed_complexes(m):
            counts[-1] += 1
            arcs, _ = t.enumerate_permissible_arcs()
            h.update(repr((t.arcs, sorted(t.fans.items()),
                           t.algebra()[0].to_json(),
                           [(a.endpoints, a.intersection) for a in arcs]))
                     .encode())
    assert counts == [1, 2, 5, 17, 61, 228]
    assert h.hexdigest() == (
        "9601b8edcf06ee2ac994feafc31240e98f19271380c81cea539a4ec92209be9b")


def test_faces_fingerprint():
    # pins each tiling's faces (directed edges, corner points and holes, in
    # face-id order) and its directed-edge index, which the iso-invariant
    # harness digests do not see: every dissection of the 4- to 9-gons,
    # every classifiable one-holed-disc tiling for m = 2..7, and the
    # annulus digon
    h = hashlib.sha256()
    tilings = [d.to_complex() for m in range(4, 10) for d in disc_tilings(m)]
    tilings += [t for m in range(2, 8) for t in holed_complexes(m)]
    tilings.append(annulus_digon_tiling())
    for t in tilings:
        h.update(repr(([(f.dedges, f.corner_points, f.holes) for f in t.faces],
                       sorted(t.face_of_dedge.items()))).encode())
    assert len(tilings) == 5753
    assert h.hexdigest() == (
        "1fcd26e53c40092cbd98e5febba8ec7e4d41e448c727e09c8db6030c63a897d0")


def test_algebra_fingerprint():
    # pins each classifiable tiling's algebra and the angle (face id, corner
    # position) of each arrow: the dissections of the 4- to 9-gons inside
    # the taxonomy, every classifiable one-holed-disc tiling for m = 2..7,
    # and the annulus digon
    tilings = [DiscTiling(m, chords).to_complex() for m in range(4, 10)
               for chords in _noncrossing_chord_sets(m)
               if _chords_in_taxonomy(m, chords)]
    tilings += [t for m in range(2, 8) for t in holed_complexes(m)]
    tilings.append(annulus_digon_tiling())
    h = hashlib.sha256()
    for t in tilings:
        q, corners = t.algebra()
        h.update(repr((q.to_json(), sorted(corners.items()))).encode())
    assert len(tilings) == 1266
    assert h.hexdigest() == (
        "633f71dcb7d43f35e3b3d86a34b44d51fc4ab3ca1009338d8ba4a3a1f770de0b")


@pytest.mark.parametrize("chords", [
    [(2, 4), (2, 4)],  # duplicate
    [(2, 3)],          # adjacent points of the cut pentagon
    [(1, 5)],          # cut points 1 and 5 are both point 1
    [(2, 4), (3, 5)],  # crossing
    [(1, 6)],          # out of range
    [(0, 3)],
])
def test_one_holed_rejects_malformed_chords(chords):
    with pytest.raises(ValueError):
        DiscTiling(4, chords, holed=True)


def test_classification_triangulation():
    types = complex_of(5, [(1, 3), (1, 4)]).classify_tiles()
    assert sorted(types.values()) == ["III", "III", "IV"]


def test_classification_rejects_empty_disc():
    with pytest.raises(UnclassifiableTileError):
        complex_of(5, []).classify_tiles()
    with pytest.raises(UnclassifiableTileError):
        complex_of(5, [(1, 3)]).classify_tiles()


def test_chord_taxonomy_filter_matches_classification():
    # the chord-level test says yes exactly when the built map classifies,
    # on every dissection of the 4- to 9-gons
    passing = []
    for m in range(4, 10):
        count = 0
        for chords in _noncrossing_chord_sets(m):
            try:
                DiscTiling(m, chords).to_complex().classify_tiles()
                classifies = True
            except UnclassifiableTileError:
                classifies = False
            assert _chords_in_taxonomy(m, chords) == classifies, (m, chords)
            count += classifies
        passing.append(count)
    assert passing == [2, 5, 14, 49, 182, 699]


def test_central_triangle_is_odd_type_v():
    t = complex_of(6, [(1, 3), (3, 5), (1, 5)])
    types = t.classify_tiles()
    assert sorted(types.values()) == ["III", "III", "III", "V"]
    assert t.admissible()  # odd-gon of type V is allowed


def test_forbidden_scan_even_square():
    t = complex_of(8, [(1, 3), (3, 5), (5, 7), (1, 7)])
    assert not t.admissible()


def test_type_ii_flagged():
    t = annulus_digon_tiling()
    assert sorted(t.classify_tiles().values()) == ["II", "III", "III"]
    assert not t.admissible()


def test_annulus_loop_is_loop_algebra():
    t = DiscTiling(2, (), holed=True).to_complex()
    assert sorted(t.classify_tiles().values()) == ["I", "III"]
    q, _ = t.algebra()
    assert len(q.arrows) == 1 and q.relations == {("r0_0", "r0_0")}
    arcs, _ = t.enumerate_permissible_arcs()
    assert [a.intersection for a in arcs] == [(2,)]


def test_annulus_lemma_one_loop():
    # in every type I tile of every enumerated one-holed-disc tiling: no
    # endpoint configurations, and the loop's crossing number is twice the
    # angle count
    instances = 0
    for m in (2, 3, 4, 5):
        for t in holed_complexes(m):
            instances += 1
            types = t.classify_tiles()
            monogons = [fid for fid, k in types.items() if k == "I"]
            assert len(monogons) == 1
            fid = monogons[0]
            loop_idx = t.arc_index["loop"]
            arcs, truncated = t.enumerate_permissible_arcs()
            assert not truncated
            for arc in arcs:
                prof = seg_profile(ArcMultiset(((arc, 1),)))
                p1_in_monogon = sum(v for k, v in prof.items()
                                    if k[0] == "p1" and k[1] == fid)
                assert p1_in_monogon == 0
                angle = sum(v for k, v in prof.items()
                            if k[0] == "p2" and k[1] == fid)
                assert arc.intersection[loop_idx] == 2 * angle
    assert instances == 1 + 2 + 5 + 17


def test_annulus_injectivity_and_profiles():
    # intersection vectors and segment profiles both separate compatible
    # multisets on the admissible one-holed-disc instances
    for m in (2, 3, 4):
        for t in holed_complexes(m):
            if not t.admissible():
                continue
            arcs, _ = t.enumerate_permissible_arcs()
            width = _field_width([a.intersection for a in arcs], 2)
            by_vec = {}
            by_prof = {}
            for chosen, weight in _compatible_multisets(
                    lambda i: sum(
                        1 << j for j in range(i)
                        if not t.arcs_compatible(arcs[i], arcs[j])),
                    [_pack(a.intersection, width) for a in arcs], 2):
                ms = ArcMultiset(tuple((arcs[i], mu) for i, mu in chosen))
                vec = ms.intersection_vector(len(t.arcs))
                assert _unpack(weight, len(t.arcs), width) == vec
                prof = tuple(sorted(seg_profile(ms).items()))
                assert by_vec.setdefault(vec, chosen) == chosen
                assert by_prof.setdefault(prof, chosen) == chosen


def test_digon_algebra_is_two_cycle_full():
    q, _ = annulus_digon_tiling().algebra()
    assert len(q.arrows) == 2 and len(q.relations) == 2
    assert detect_even_full_cycle(q) is not None


TWO_HOLES = {
    "surface": "general", "marked": 4, "boundary": [[0, 1, 2, 3]],
    "arcs": [{"id": "A", "ends": [0, 2]}, {"id": "B", "ends": [2, 0]},
             {"id": "X", "ends": [0, 0]}, {"id": "Y", "ends": [0, 0]}],
    "fans": {"0": [["A", 0], ["X", 0], ["Y", 0], ["Y", 1], ["X", 1],
                   ["B", 1]],
             "1": [], "2": [["B", 0], ["A", 1]], "3": []},
    "holes": [["Y", 0, 1], ["Y", 1, 1]]}


def test_two_hole_algebra_relates_angles_of_one_tile(tmp_path):
    # the loop X at point 1 encloses the loop Y, with a hole on each side
    # of Y.  The angles A-X and X-Y at X's first end lie in different
    # tiles, so the path through them is no relation; a rule that compared
    # marked points made it one and broke G2
    path = tmp_path / "two_holes.json"
    path.write_text(json.dumps(TWO_HOLES))
    t = _load_tiling(str(path))
    assert sorted(t.classify_tiles().values()) == ["I", "II", "III", "III",
                                                   "V"]
    q, corners = t.algebra()
    assert check_gentle(q).ok
    assert sorted(q.relations) == [
        ("r0_0", "r0_4"), ("r0_1", "r0_3"), ("r0_2", "r0_2"),
        ("r0_3", "r0_1"), ("r0_4", "r2_0"), ("r2_0", "r0_0")]
    assert all(corners[a][0] == corners[b][0] for a, b in q.relations)
    arcs, truncated = t.enumerate_permissible_arcs()
    assert not truncated and len(arcs) == 28
    for command in ("algebra", "arcs"):
        res = CliRunner().invoke(main, ["tiling", command, "--tiling",
                                        str(path), "--format", "json"])
        assert res.exit_code == 0, res.output
    assert json.loads(res.output)["truncated"] is False


def test_pentagon_arcs_and_vectors():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, truncated = t.enumerate_permissible_arcs()
    assert not truncated
    assert sorted(a.intersection for a in arcs) == [(0, 1), (1, 0), (1, 1)]
    by_vec = {a.intersection: a for a in arcs}
    assert tuple(sorted(p + 1 for p in by_vec[(1, 0)].endpoints)) == (2, 4)
    assert tuple(sorted(p + 1 for p in by_vec[(1, 1)].endpoints)) == (2, 5)
    assert tuple(sorted(p + 1 for p in by_vec[(0, 1)].endpoints)) == (3, 5)


def test_truncating_cap_reports_by_the_flag_only():
    t = complex_of(6, [(1, 3), (1, 4), (1, 5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arcs, truncated = t.enumerate_permissible_arcs(1)
    full, full_truncated = t.enumerate_permissible_arcs()
    assert truncated and not full_truncated
    assert (len(arcs), len(full)) == (5, 6)


def test_pentagon_algebra_is_a2_path():
    q, _ = complex_of(5, [(1, 3), (1, 4)]).algebra()
    assert len(q.arrows) == 1 and not q.relations


def test_octagon_central_square_collision():
    t = complex_of(8, [(1, 3), (3, 5), (5, 7), (1, 7)])
    q, _ = t.algebra()
    cyc = detect_even_full_cycle(q)
    assert cyc is not None and len(cyc) == 4
    arcs, _ = t.enumerate_permissible_arcs()
    assert len(arcs) == 8
    # the two opposite projective pairs carry the same total vector
    projs = [a for a in arcs if sum(a.intersection) == 2]
    assert len(projs) == 4
    vec = {}
    for a in projs:
        for b in projs:
            if a is not b and t.arcs_compatible(a, b):
                m = ArcMultiset(((a, 1), (b, 1)))
                v = m.intersection_vector(4)
                vec.setdefault(v, set()).add(frozenset({a.word, b.word}))
    assert any(len(s) > 1 for s in vec.values())


def test_compatibility_matches_interleaving():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    for a in arcs:
        for b in arcs:
            assert t.arcs_compatible(a, b) == \
                (not chords_interleave(a.endpoints, b.endpoints))


def test_pentagon_seg_profile_golden():
    # multiset {arc(2,4)}: one endpoint at 2 in tile (1,2,3), one at 4 in
    # tile (1,3,4); no angle is crossed (single crossing)
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    arc24 = next(a for a in arcs if a.intersection == (1, 0))
    prof = seg_profile(ArcMultiset(((arc24, 1),)))
    assert sum(v for k, v in prof.items() if k[0] == "p2") == 0
    assert sorted(t.corner_point(k[1:]) + 1
                  for k, v in prof.items() if k[0] == "p1") == [2, 4]
    # arc(2,5) crosses the angle at marked point 1 inside tile (1,3,4)
    arc25 = next(a for a in arcs if a.intersection == (1, 1))
    prof = seg_profile(ArcMultiset(((arc25, 1),)))
    p2 = [k for k in prof if k[0] == "p2"]
    assert len(p2) == 1 and t.corner_point(p2[0][1:]) + 1 == 1


def test_local_global_equal():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    a, b = arcs[0], arcs[1]
    m1 = ArcMultiset(((a, 1), (b, 1)))
    m2 = ArcMultiset(((b, 1), (a, 1)))
    # same multiset, different order
    assert seg_profile(m1) == seg_profile(m2)
    assert seg_profile(ArcMultiset(((a, 1),))) != \
        seg_profile(ArcMultiset(((b, 1),)))
    assert seg_profile(ArcMultiset(())) == seg_profile(ArcMultiset(()))


def test_profile_additive():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    a, b = arcs[0], arcs[1]
    p_ab = seg_profile(ArcMultiset(((a, 1), (b, 1))))
    p_a = seg_profile(ArcMultiset(((a, 1),)))
    p_b = seg_profile(ArcMultiset(((b, 1),)))
    merged = dict(p_a)
    for k, v in p_b.items():
        merged[k] = merged.get(k, 0) + v
    assert p_ab == merged
    assert seg_profile(ArcMultiset(())) == {}


def test_dual_path_agreement_small_discs():
    # string route and chord geometry agree on arcs, vectors, compatibility
    # and profiles for every classifiable disc tiling with up to 7 points
    checked = 0
    for m in range(4, 8):
        for disc in disc_tilings(m):
            t = disc.to_complex()
            try:
                t.classify_tiles()
            except UnclassifiableTileError:
                continue
            checked += 1
            arcs, _ = t.enumerate_permissible_arcs()
            geo = geometric_disc_arcs(disc)
            str_set = {tuple(sorted(p + 1 for p in a.endpoints)) for a in arcs}
            geo_set = {g["endpoints"] for g in geo}
            assert str_set == geo_set, (m, disc.chords)
            geo_by_ep = {g["endpoints"]: g for g in geo}
            for a in arcs:
                ep = tuple(sorted(p + 1 for p in a.endpoints))
                g = geo_by_ep[ep]
                assert a.intersection == g["vector"], (disc.chords, ep)
                keys = string_route_profile_keys(t, a)
                assert Counter(keys["p2"]) == Counter(g["p2"])
                assert Counter(keys["p1"]) == Counter(g["p1"])
            for a in arcs:
                for b in arcs:
                    assert t.arcs_compatible(a, b) == \
                        (not chords_interleave(a.endpoints, b.endpoints)), \
                        (disc.chords, a.endpoints, b.endpoints)
    assert checked > 50


def test_b_matrix_from_triangulation_pentagon():
    t = complex_of(5, [(1, 3), (1, 4)])
    b = b_matrix_from_triangulation(t)
    assert b.b in (((0, 1), (-1, 0)), ((0, -1), (1, 0)))


def test_disc_cells_cover():
    disc = DiscTiling(6, ((1, 3), (3, 5), (1, 5)))
    cells = disc_cells(disc)
    assert sorted(len(c) for c in cells) == [3, 3, 3, 3]
    assert any(set(c) == {1, 3, 5} for c in cells)


def test_chord_oracle_refuses_a_one_holed_description():
    # read as the m-gon, the cut pentagon's chord (2, 4) would pass for a
    # chord of the square, and the loop would go unseen
    holed = DiscTiling(4, ((2, 4),), holed=True)
    for oracle in (disc_cells, geometric_disc_arcs):
        with pytest.raises(ValueError, match="discs only"):
            oracle(holed)


def test_chords_interleave():
    assert chords_interleave((2, 4), (3, 5))
    assert not chords_interleave((2, 4), (2, 5))
    assert not chords_interleave((1, 3), (4, 6))
    # either endpoint order, as `PermissibleArc.endpoints` come unsorted:
    # reversed chords that interleave
    assert chords_interleave((4, 2), (5, 3))
    assert chords_interleave((3, 5), (4, 2))
    # shared endpoints never interleave, whatever the order
    assert not chords_interleave((4, 2), (2, 5))
    assert not chords_interleave((5, 2), (4, 2))
    assert not chords_interleave((2, 4), (4, 2))
    assert not chords_interleave((3, 3), (1, 5))
    # every pair of chords of the 8-gon, each in both orders
    points = range(1, 9)
    chords = [(a, b) for a in points for b in points if a != b]
    for c1 in chords:
        for c2 in chords:
            assert chords_interleave(c1, c2) == \
                _sorting_chords_interleave(c1, c2), (c1, c2)


# -- the sorting chord helpers, kept as oracles for the ones in tiling.py ---


def _sorting_chords_interleave(c1, c2):
    """Strict interleaving of two chords given by endpoint pairs (1-based)."""
    a, b = sorted(c1)
    c, d = sorted(c2)
    return a < c < b < d or c < a < d < b


def _recursive_chord_sets(n):
    """Every set of pairwise non-crossing chords of the n-gon, each a sorted
    tuple of 1-based (i, j) pairs.  The order is fixed (each chord, in
    sorted order, is first left out, then taken), and the witnesses the
    harnesses report depend on it."""
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
              if not (i == 1 and j == n)]

    def rec(idx, chosen):
        if idx == len(chords):
            yield tuple(chosen)
            return
        yield from rec(idx + 1, chosen)
        c = chords[idx]
        if all(not _sorting_chords_interleave(c, o) for o in chosen):
            chosen.append(c)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def _sorting_crossing_sequence(disc, p, q):
    """T-chords crossed by the arc p-q, ordered from p."""
    crossed = [c for c in disc.chords if _sorting_chords_interleave((p, q), c)]

    def pos(x):
        return (x - p) % disc.m

    def sort_key(c):
        a, b = c
        # endpoint on the anticlockwise side of p..q first, partner reversed
        if pos(a) > pos(q):
            a, b = b, a
        return (pos(a), -pos(b))

    return sorted(crossed, key=sort_key)


def _listing_geometric_disc_arcs(disc: DiscTiling):
    """Permissible arcs of a disc tiling straight from chord geometry.

    Returns a list of records with endpoints, crossing vector, and profile
    entries keyed by (cell key, marked point), a cell key being the
    frozenset of its edges; used as the independent oracle against the
    string route.  Each cell's edges and key are built once per call.
    """
    edges_of = {cell: _cell_edges(disc, cell) for cell in disc_cells(disc)}
    key_of = {cell: frozenset(edges) for cell, edges in edges_of.items()}
    cell_of_edge = {}
    for cell, edges in edges_of.items():
        for e in edges:
            cell_of_edge.setdefault(e, []).append(cell)
    # corner at cell[i] lies between edges (i-1, i); E = edge i+1
    e_maps = {cell: {v: edges[(i + 1) % len(cell)]
                     for i, v in enumerate(cell)}
              for cell, edges in edges_of.items()}
    chord_set = set(disc.chords)
    out = []
    for p in range(1, disc.m + 1):
        for q in range(p + 1, disc.m + 1):
            if (p, q) in chord_set or q - p < 2 or (p == 1 and q == disc.m):
                continue
            seq = _sorting_crossing_sequence(disc, p, q)
            if not seq:
                continue  # one-segment arcs have no permissible shape
            ok = True
            p2 = []
            for c1, c2 in zip(seq, seq[1:]):
                shared = set(c1) & set(c2)
                if len(shared) != 1:
                    ok = False
                    break
                w = shared.pop()
                mid = [cell for cell in cell_of_edge[("c", c1)]
                       if ("c", c2) in key_of[cell]]
                if len(mid) != 1:
                    ok = False
                    break
                p2.append((key_of[mid[0]], w))
            if not ok:
                continue
            p1 = []
            for end, first in ((p, seq[0]), (q, seq[-1])):
                flank = [cell for cell in cell_of_edge[("c", first)]
                         if end in cell]
                if len(flank) != 1 or e_maps[flank[0]].get(end) != ("c", first):
                    ok = False
                    break
                p1.append((key_of[flank[0]], end))
            if not ok:
                continue
            vec = tuple(int(c in seq) for c in disc.chords)
            out.append({"endpoints": (p, q), "vector": vec,
                        "p2": tuple(p2), "p1": tuple(p1)})
    return out


def test_chord_sets_come_in_the_recursive_order():
    # the order the harnesses' witnesses depend on, for the cut polygons of
    # one-holed discs (from the triangle) and the discs up to the 11-gon
    for n in range(3, 12):
        assert list(_noncrossing_chord_sets(n)) == \
            list(_recursive_chord_sets(n)), n


def test_crossing_sequences_match_the_sorting_oracle():
    # every point pair of every chord set of the 4- to 10-gon, the chords
    # of the tiling among them
    discs = 0
    for m in range(4, 11):
        pairs = [(p, q) for p in range(1, m + 1) for q in range(p + 1, m + 1)]
        for chords in _noncrossing_chord_sets(m):
            disc = DiscTiling(m, chords)
            discs += 1
            assert [_crossing_sequence(disc, p, q) for p, q in pairs] == \
                [_sorting_crossing_sequence(disc, p, q) for p, q in pairs], \
                (m, chords)
    assert discs == 26231


def test_geometric_disc_arcs_match_the_listing_oracle():
    # whole records, cell keys of the profile entries included, on every
    # classifiable dissection of the 4- to 9-gons
    discs = arcs = 0
    for m in range(4, 10):
        for chords in _noncrossing_chord_sets(m):
            if not _chords_in_taxonomy(m, chords):
                continue
            disc = DiscTiling(m, chords)
            got = geometric_disc_arcs(disc)
            assert got == _listing_geometric_disc_arcs(disc), (m, chords)
            discs += 1
            arcs += len(got)
    assert discs == 951 and arcs > 0


def test_triangulation_algebras_have_no_even_full_cycle():
    # full triangulations only ever produce odd full-relation cycles
    scanned = 0
    for m in range(4, 10):
        for disc in disc_tilings(m):
            if len(disc.chords) != m - 3:
                continue
            q, _ = disc.to_complex().algebra()
            assert detect_even_full_cycle(q) is None, disc.chords
            scanned += 1
    assert scanned == 2 + 5 + 14 + 42 + 132 + 429  # Catalan numbers


def test_triangulation_arc_counts():
    # every full triangulation of the m-gon has (all chords) - (m - 3)
    # permissible arcs
    for m in (5, 6, 7):
        total_chords = m * (m - 3) // 2
        for disc in disc_tilings(m):
            if len(disc.chords) != m - 3:
                continue
            arcs, truncated = disc.to_complex().enumerate_permissible_arcs()
            assert not truncated
            assert len(arcs) == total_chords - (m - 3)
