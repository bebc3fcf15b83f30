import hashlib
import warnings
from collections import Counter

import pytest

from clusterlab.errors import UnclassifiableTileError
from clusterlab.quiver import detect_even_full_cycle
from clusterlab.tiling import (
    ArcMultiset, DiscTiling, _chords_in_taxonomy, _noncrossing_chord_sets,
    annulus_digon_tiling, b_matrix_from_triangulation, chords_interleave,
    disc_cells, disc_tilings, geometric_disc_arcs, one_holed_disc_tiling,
    one_holed_disc_tilings, seg_profile, string_route_profile_keys,
)
from clusterlab.verify import (_compatible_multisets, _field_width, _pack,
                               _unpack)


def complex_of(m, chords):
    return DiscTiling(m, tuple(chords)).to_complex()


def test_disc_tilings_counts():
    assert sum(1 for _ in disc_tilings(4)) == 3
    assert sum(1 for _ in disc_tilings(5)) == 11
    # octagon: little Schroeder number
    assert sum(1 for _ in disc_tilings(8)) == 903


def test_disc_validation():
    with pytest.raises(ValueError):
        DiscTiling(3, ())
    with pytest.raises(ValueError):
        DiscTiling(5, ((1, 2),))
    with pytest.raises(ValueError):
        DiscTiling(5, ((1, 3), (2, 4)))


def test_builders_fingerprint():
    # pins what both polygon builders produce: disc chords, arcs and fans
    # for m = 4..9; one-holed-disc arcs, fans, algebra and each permissible
    # arc's endpoints and intersection vector for m = 2..7
    h = hashlib.sha256()
    for m in range(4, 10):
        for disc in disc_tilings(m):
            t = disc.to_complex()
            h.update(repr((disc.chords, t.arcs, sorted(t.fans.items())))
                     .encode())
    counts = []
    for m in range(2, 8):
        counts.append(0)
        for t in one_holed_disc_tilings(m):
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
    # every one-holed-disc tiling for m = 2..7, and the annulus digon
    h = hashlib.sha256()
    tilings = [d.to_complex() for m in range(4, 10) for d in disc_tilings(m)]
    tilings += [t for m in range(2, 8) for t in one_holed_disc_tilings(m)]
    tilings.append(annulus_digon_tiling())
    for t in tilings:
        h.update(repr(([(f.dedges, f.corner_points, f.holes) for f in t.faces],
                       sorted(t.face_of_dedge.items()))).encode())
    assert len(tilings) == 5753
    assert h.hexdigest() == (
        "1fcd26e53c40092cbd98e5febba8ec7e4d41e448c727e09c8db6030c63a897d0")


@pytest.mark.parametrize("chords", [
    [(1, 3), (1, 3)],  # duplicate
    [(1, 2)],          # adjacent occurrences
    [(0, 4)],          # occurrences 0 and m are both point 1
    [(1, 3), (2, 4)],  # crossing
    [(0, 5)],          # out of range
    [(-1, 2)],
])
def test_one_holed_rejects_malformed_chords(chords):
    with pytest.raises(ValueError):
        one_holed_disc_tiling(4, chords)


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
    assert t.forbidden_tile_scan()  # odd-gon of type V is allowed


def test_forbidden_scan_even_square():
    t = complex_of(8, [(1, 3), (3, 5), (5, 7), (1, 7)])
    assert not t.forbidden_tile_scan()


def test_type_ii_flagged():
    t = annulus_digon_tiling()
    assert sorted(t.classify_tiles().values()) == ["II", "III", "III"]
    assert not t.forbidden_tile_scan()


def test_annulus_loop_is_loop_algebra():
    t = one_holed_disc_tiling(2)
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
        for t in one_holed_disc_tilings(m):
            instances += 1
            types = t.classify_tiles()
            monogons = [fid for fid, k in types.items() if k == "I"]
            assert len(monogons) == 1
            fid = monogons[0]
            loop_idx = t.arc_index["loop"]
            arcs, truncated = t.enumerate_permissible_arcs()
            assert not truncated
            for arc in arcs:
                prof = seg_profile(t, ArcMultiset(((arc, 1),)))
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
        for t in one_holed_disc_tilings(m):
            if not t.forbidden_tile_scan():
                continue
            arcs, _ = t.enumerate_permissible_arcs()
            width = _field_width([a.intersection for a in arcs], 2)
            by_vec = {}
            by_prof = {}
            for chosen, weight in _compatible_multisets(
                    lambda i, j: t.arcs_compatible(arcs[i], arcs[j]),
                    [_pack(a.intersection, width) for a in arcs], 2):
                ms = ArcMultiset(tuple((arcs[i], mu) for i, mu in chosen))
                vec = ms.intersection_vector(len(t.arcs))
                assert _unpack(weight, len(t.arcs), width) == vec
                prof = tuple(sorted(seg_profile(t, ms).items()))
                assert by_vec.setdefault(vec, chosen) == chosen
                assert by_prof.setdefault(prof, chosen) == chosen


def test_digon_algebra_is_two_cycle_full():
    q, _ = annulus_digon_tiling().algebra()
    assert len(q.arrows) == 2 and len(q.relations) == 2
    assert detect_even_full_cycle(q) is not None


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
    prof = seg_profile(t, ArcMultiset(((arc24, 1),)))
    assert sum(v for k, v in prof.items() if k[0] == "p2") == 0
    assert sorted(t.corner_point(k[1:]) + 1
                  for k, v in prof.items() if k[0] == "p1") == [2, 4]
    # arc(2,5) crosses the angle at marked point 1 inside tile (1,3,4)
    arc25 = next(a for a in arcs if a.intersection == (1, 1))
    prof = seg_profile(t, ArcMultiset(((arc25, 1),)))
    p2 = [k for k in prof if k[0] == "p2"]
    assert len(p2) == 1 and t.corner_point(p2[0][1:]) + 1 == 1


def test_local_global_equal():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    a, b = arcs[0], arcs[1]
    m1 = ArcMultiset(((a, 1), (b, 1)))
    m2 = ArcMultiset(((b, 1), (a, 1)))
    # same multiset, different order
    assert seg_profile(t, m1) == seg_profile(t, m2)
    assert seg_profile(t, ArcMultiset(((a, 1),))) != \
        seg_profile(t, ArcMultiset(((b, 1),)))
    assert seg_profile(t, ArcMultiset(())) == seg_profile(t, ArcMultiset(()))


def test_profile_additive():
    t = complex_of(5, [(1, 3), (1, 4)])
    arcs, _ = t.enumerate_permissible_arcs()
    a, b = arcs[0], arcs[1]
    p_ab = seg_profile(t, ArcMultiset(((a, 1), (b, 1))))
    p_a = seg_profile(t, ArcMultiset(((a, 1),)))
    p_b = seg_profile(t, ArcMultiset(((b, 1),)))
    merged = dict(p_a)
    for k, v in p_b.items():
        merged[k] = merged.get(k, 0) + v
    assert p_ab == merged
    assert seg_profile(t, ArcMultiset(())) == {}


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


def test_chords_interleave():
    assert chords_interleave((2, 4), (3, 5))
    assert not chords_interleave((2, 4), (2, 5))
    assert not chords_interleave((1, 3), (4, 6))


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
