"""Combinatorial tilings, the tiling algebra, and permissible arcs.

Surface model
-------------
A tiling is stored as a combinatorial map.  Marked points sit on oriented
boundary components (listed anticlockwise); each point has one outgoing and
one incoming boundary segment.  Arcs have two ends; the *fan* of a marked
point lists the arc ends incident to it in anticlockwise order, between the
outgoing segment (first) and the incoming segment (last).  Unmarked boundary
components are invisible to the graph: each tile records how many it holds.

Tiles are the faces of the map with the interior on the left: after
arriving at a point along some edge end, the face departs along the next end
clockwise (one step back in the fan).  That rule is one permutation of the
directed edges, built once as a successor table; the faces are its cycles.
A directed arc traversal (arc, d) runs from end d to end 1-d; boundary
segments are traversed only in their anticlockwise direction.

The quiver of the tiling has one vertex per arc; every anticlockwise-adjacent
pair of arc ends in a fan contributes an arrow between the corresponding
arcs.  Each arrow is the angle at exactly one corner of one tile, and a path
of two arrows is a relation exactly when both angles lie in one tile (the
tiling algebra of Baur and Coelho Simoes).  The angle is also what the
arrow's crossing segments cut out, so segment-profile counting keys directly
off the arrow's corner.

Disc tilings and one-holed-disc tilings (cut along their loop) are both sets
of chords of a polygon, described alike by `DiscTiling`; one chord model
checks (`_check_chords`), enumerates (`_noncrossing_chord_sets`) and orders
(`_polygon_fans`) them for both.

Arcs not in the tiling are represented by strings of the tiling algebra;
those whose string module is tau-rigid are the self-compatible permissible
arcs, and their intersection vectors are the dimension vectors.  On discs
`geometric_disc_arcs` recomputes the arcs and vectors from chord geometry
alone, as an independent oracle for the harnesses to check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnclassifiableTileError, WitnessedFault
from .modules import StringInventory, enumerate_tau_rigid
from .quiver import Arrow, BoundQuiver, StringWord, check_gentle, word_vertices


# ---------------------------------------------------------------------------
# the combinatorial map and its faces


@dataclass(frozen=True)
class TileFace:
    dedges: tuple          # directed edges ("a", arc, dir) | ("s", comp, pos)
    corner_points: tuple   # corner j sits at the head of dedges[j]
    holes: int

    @property
    def size(self):
        return len(self.dedges)


class TilingComplex:
    """A tiling with derived faces, classification, algebra and arc machinery."""

    def __init__(self, n_points, boundary, arcs, fans, holes=None):
        """
        n_points: number of marked points (ids 0..n_points-1)
        boundary: list of boundary components, each an anticlockwise list of
            point ids; every point appears exactly once over all components
        arcs: list of (arc_id, end0_point, end1_point)
        fans: dict point -> anticlockwise list of (arc_id, end_index)
        holes: dict (arc_id, dir) -> number of unmarked components in the
            face to the left of that traversal
        """
        self.n_points = n_points
        self.boundary = [list(c) for c in boundary]
        seen_points = [p for comp in self.boundary for p in comp]
        if sorted(seen_points) != list(range(n_points)):
            raise ValueError("boundary components must cover each point once")
        self.arcs = [(str(a), int(e0), int(e1)) for a, e0, e1 in arcs]
        self.arc_index = {a: i for i, (a, _, _) in enumerate(self.arcs)}
        self.arc_ends = {a: (e0, e1) for a, e0, e1 in self.arcs}
        self.fans = {p: list(fans.get(p, ())) for p in range(n_points)}
        expected_ends = {(a, e) for a, _, _ in self.arcs for e in (0, 1)}
        placed = [tok for p in range(n_points) for tok in self.fans[p]]
        if sorted(placed) != sorted(expected_ends):
            raise ValueError("fans must place every arc end exactly once")
        for p, fan in self.fans.items():
            for a, e in fan:
                if self.arc_ends[a][e] != p:
                    raise ValueError(f"end ({a},{e}) listed at the wrong point {p}")
        self.hole_marks = dict(holes or {})
        self.faces = []
        self.face_of_dedge = {}
        self._trace_faces()
        self._types = None
        self._algebra = None
        self._inventory = None

    # -- face tracing -------------------------------------------------------

    def _trace_faces(self):
        """Faces as the cycles of one successor table over the directed edges.

        One pass over each point's segments and fan builds `succ`, which
        maps a directed edge to the next one of its face and to the corner
        point between them.  A face arriving by fan end j leaves by end
        j - 1, arriving by the incoming segment it leaves by the last fan
        end, and arriving by the first fan end it leaves by the outgoing
        segment.  Each cycle starts at its least directed edge and the
        cycles come in increasing order; `face_of_dedge` is the seen set.
        """
        succ = {}
        for ci, comp in enumerate(self.boundary):
            for pos, p in enumerate(comp):
                fan = self.fans[p]
                leave = [("s", ci, pos)] + [("a", a, e) for a, e in fan]
                arrive = [("a", a, 1 - e) for a, e in fan]
                arrive.append(("s", ci, (pos - 1) % len(comp)))
                for d, nxt in zip(arrive, leave):
                    succ[d] = (nxt, p)
        for d in sorted(succ):
            if d in self.face_of_dedge:
                continue
            fid = len(self.faces)
            cycle, points = [], []
            while d not in self.face_of_dedge:
                self.face_of_dedge[d] = (fid, len(cycle))
                cycle.append(d)
                d, p = succ[d]
                points.append(p)
            holes = sum(self.hole_marks.get(d[1:], 0)
                        for d in cycle if d[0] == "a")
            self.faces.append(TileFace(tuple(cycle), tuple(points), holes))
        if sum(self.hole_marks.values()) != sum(f.holes for f in self.faces):
            raise ValueError("hole marks refer to unknown traversals")

    # -- classification -------------------------------------------------------

    def classify_tiles(self):
        """Type tags I..V per face id; raises on an unclassifiable face."""
        if self._types is not None:
            return self._types
        types = {}
        for fid, f in enumerate(self.faces):
            n_arc = sum(d[0] == "a" for d in f.dedges)
            n_seg = sum(d[0] == "s" for d in f.dedges)
            size = f.size
            if size == 1 and n_arc == 1 and f.holes == 1:
                types[fid] = "I"
            elif size == 2 and n_arc == 2 and f.holes == 1:
                types[fid] = "II"
            elif size == 3 and n_seg == 2 and n_arc == 1 and f.holes == 0:
                types[fid] = "III"
            elif size >= 3 and n_seg == 1 and f.holes == 0:
                types[fid] = "IV"
            elif size >= 3 and n_seg == 0 and f.holes == 0:
                types[fid] = "V"
            else:
                raise UnclassifiableTileError(
                    f"face {fid} with {n_arc} arcs, {n_seg} boundary edges, "
                    f"{f.holes} holes is not of type I-V")
        self._types = types
        return types

    def admissible(self):
        """True when the tiling has no forbidden tile: no type II tile and
        no even-gon of type V."""
        types = self.classify_tiles()
        for fid, kind in types.items():
            if kind == "II":
                return False
            if kind == "V" and self.faces[fid].size % 2 == 0:
                return False
        return True

    # -- the tiling algebra ---------------------------------------------------

    def algebra(self):
        """(BoundQuiver, corners): the tiling algebra and its arrows' angles.

        Quiver vertices are the arcs in input order.  The neighbouring fan
        ends i and i + 1 at point p cut out one angle, the arrow r{p}_{i}
        from the arc of end i to the arc of end i + 1; `corners` maps each
        arrow id to that angle's (face id, corner position).  A path of two
        arrows is a relation exactly when both angles lie in one tile.
        """
        if self._algebra is None:
            self.classify_tiles()
            arrows, corners = [], {}
            for p in range(self.n_points):
                fan = self.fans[p]
                for i, ((a_src, _), (a_tgt, e_tgt)) in enumerate(
                        zip(fan, fan[1:])):
                    aid = f"r{p}_{i}"
                    arrows.append(Arrow(aid, self.arc_index[a_src],
                                        self.arc_index[a_tgt]))
                    # the corner at the target arc's arrival at p
                    corners[aid] = self.face_of_dedge[("a", a_tgt, 1 - e_tgt)]
            rels = [(a.id, b.id) for a in arrows for b in arrows
                    if a.tgt == b.src and corners[a.id][0] == corners[b.id][0]]
            q = BoundQuiver(len(self.arcs), arrows, rels)
            cert = check_gentle(q)
            if not cert.ok:
                raise WitnessedFault({
                    "check": "tiling algebra not gentle", "quiver": q.to_json(),
                    "violated": cert.violated, "witness": cert.witness})
            self._algebra = q, corners
        return self._algebra

    def inventory(self) -> StringInventory:
        if self._inventory is None:
            q, _ = self.algebra()
            self._inventory = StringInventory(q)
        return self._inventory

    # -- permissible arcs -------------------------------------------------------

    def _p1_entry(self, side):
        """P1 profile entry for an arc endpoint on the given tile side.

        side is the traversal (arc, dir) the final crossing leaves behind;
        the tile is the face left of it, and the endpoint is the unique
        vertex of that face whose permissible segment lands on this slot.
        """
        fid, pos = self.face_of_dedge[("a", side[0], side[1])]
        size = self.faces[fid].size
        corner = (pos - 2) % size
        return (fid, corner), self.faces[fid].corner_points[corner]

    def arc_from_word(self, word: StringWord):
        q, corners = self.algebra()
        letters = word.letters
        verts = word_vertices(q, word)
        sides = []  # per letter: (side at left walk vertex, side at right)
        for aid, inv in letters:
            # the angle's face arrives by the target side, leaves by the source
            fid, pos = corners[aid]
            dedges = self.faces[fid].dedges
            src, tgt = dedges[(pos + 1) % len(dedges)][1:], dedges[pos][1:]
            sides.append((tgt, src) if inv else (src, tgt))
        for i in range(len(letters) - 1):
            left = sides[i][1]
            right = sides[i + 1][0]
            if left[0] != right[0] or left[1] == right[1]:
                raise WitnessedFault({
                    "check": "string crosses an arc without switching sides",
                    "quiver": q.to_json(), "letters": letters,
                    "base": word.base, "letter": i})
        if letters:
            first_arc = self.arcs[verts[0]][0]
            start_side = (first_arc, 1 - sides[0][0][1])
            last_arc = self.arcs[verts[-1]][0]
            end_side = (last_arc, 1 - sides[-1][1][1])
            p1_start, pt_start = self._p1_entry(start_side)
            p1_end, pt_end = self._p1_entry(end_side)
        else:
            arc = self.arcs[verts[0]][0]
            p1_start, pt_start = self._p1_entry((arc, 0))
            p1_end, pt_end = self._p1_entry((arc, 1))
        dims = [0] * len(self.arcs)
        for v in verts:
            dims[v] += 1
        return PermissibleArc(
            word=word,
            intersection=tuple(dims),
            p2_corners=tuple(corners[aid] for aid, _ in letters),
            p1_corners=(p1_start, p1_end),
            endpoints=(pt_start, pt_end))

    def enumerate_permissible_arcs(self, cap=None):
        """Self-compatible permissible arcs: the arcs of the tau-rigid strings
        of `enumerate_tau_rigid`, in its order and under its string-length
        cap.  The flag reports a cap that truncated the enumeration.
        """
        rigid, truncated = enumerate_tau_rigid(self.inventory(), cap)
        return [self.arc_from_word(w) for w, _ in rigid], truncated

    def arcs_compatible(self, a1: "PermissibleArc", a2: "PermissibleArc"):
        """Zero crossing number, decided through tau-rigidity of the sum."""
        return self.inventory().compatible(a1.word, a2.word)

    def corner_point(self, corner):
        fid, pos = corner
        return self.faces[fid].corner_points[pos]


@dataclass(frozen=True)
class PermissibleArc:
    """An arc not in the tiling, encoded by its string and segment trace."""

    word: StringWord
    intersection: tuple      # crossing numbers with the arcs of the tiling
    p2_corners: tuple        # (face id, corner position) per interior segment
    p1_corners: tuple        # the two endpoint configurations
    endpoints: tuple         # marked points of the two ends


@dataclass(frozen=True)
class ArcMultiset:
    """Pairwise compatible permissible arcs with positive multiplicities."""

    items: tuple  # tuple of (PermissibleArc, multiplicity)

    def intersection_vector(self, n_arcs):
        v = [0] * n_arcs
        for arc, mult in self.items:
            for i, x in enumerate(arc.intersection):
                v[i] += mult * x
        return tuple(v)


def seg_profile(multiset: ArcMultiset):
    """Counts of crossing segments per angle and of endpoint configurations.

    Keys are ("p2", face, corner) and ("p1", face, corner); absent keys are
    zero.  Additive over multiset union by construction; `verify_thm1`
    relies on this, taking the profile of each arc once and summing them as
    its sweep extends a multiset.
    """
    prof = {}
    for arc, mult in multiset.items:
        for corner in arc.p2_corners:
            key = ("p2",) + corner
            prof[key] = prof.get(key, 0) + mult
        for corner in arc.p1_corners:
            key = ("p1",) + corner
            prof[key] = prof.get(key, 0) + mult
    return {k: v for k, v in prof.items() if v}


# ---------------------------------------------------------------------------
# discs


@dataclass(frozen=True)
class DiscTiling:
    """A chord tiling of the disc with m marked boundary points, or with
    `holed` of the one-holed disc: the loop at point 1 around the hole plus
    chords of the (m+1)-gon cut open along the loop, whose point m+1 is
    point 1 again.  Chords use 1-based polygon indices and must be pairwise
    non-crossing and non-adjacent (`_check_chords`); they are stored sorted.
    """

    m: int
    chords: tuple  # tuple of (i, j) pairs, i < j
    holed: bool = False

    def __post_init__(self):
        if self.m < (2 if self.holed else 4):
            raise ValueError("a disc needs at least four marked points, a "
                             "one-holed disc two")
        object.__setattr__(self, "chords", tuple(sorted(
            _check_chords(self.m + self.holed, self.chords))))

    def to_complex(self) -> TilingComplex:
        """The map: arc t<i> (q<i> when holed) is chord i.  The loop is a
        one-holed disc's first arc, its ends in point 1's fan between those
        of cut points 1 and m+1."""
        m, tag = self.m, "q" if self.holed else "t"
        arcs = [(f"{tag}{idx}", (i - 1) % m, (j - 1) % m)
                for idx, (i, j) in enumerate(self.chords)]
        fans = [[(f"{tag}{idx}", e) for idx, e in fan]
                for fan in _polygon_fans(m + self.holed, self.chords)]
        holes = {}
        if self.holed:
            arcs.insert(0, ("loop", 0, 0))
            fans[0] += [("loop", 0), ("loop", 1)] + fans.pop()
            holes[("loop", 0)] = 1
        return TilingComplex(m, [list(range(m))], arcs, dict(enumerate(fans)),
                             holes)


def chords_interleave(c1, c2):
    """Strict interleaving of two chords given by endpoint pairs in either
    order; chords that share an endpoint do not interleave."""
    a, b = c1
    c, d = c2
    if a > b:
        a, b = b, a
    if c > d:
        c, d = d, c
    return a < c < b < d or c < a < d < b


# -- the chord model shared by discs and cut one-holed discs ----------------


def _check_chords(n, chords):
    """The chords of the n-gon (points 1..n) as (min, max) pairs, in input
    order.  Raises ValueError unless each is in range and joins non-adjacent
    points, and no two repeat or cross."""
    norm = []
    for (i, j) in chords:
        i, j = min(i, j), max(i, j)
        if not (1 <= i < j <= n):
            raise ValueError(f"chord ({i},{j}) out of range")
        if j - i < 2 or (i == 1 and j == n):
            raise ValueError(f"chord ({i},{j}) joins adjacent points")
        norm.append((i, j))
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate chords")
    for a in norm:
        for b in norm:
            if a < b and chords_interleave(a, b):
                raise ValueError(f"chords {a} and {b} cross")
    return norm


def _noncrossing_chord_sets(n):
    """Every set of pairwise non-crossing chords of the n-gon, each a sorted
    tuple of 1-based (i, j) pairs.  The order is fixed (each chord, in
    sorted order, is first left out, then taken), and the witnesses the
    harnesses report depend on it.  Each chord carries one mask of the
    chords that cross it, tested against the mask of those taken."""
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
              if not (i == 1 and j == n)]
    crossing = [sum(1 << k for k, d in enumerate(chords)
                    if chords_interleave(c, d)) for c in chords]

    def extend(start, taken, chosen):
        # the set that takes no chord from start on comes first, then those
        # whose next chord is k, for k from the last down: a chord left
        # out comes before it taken
        yield chosen
        for k in range(len(chords) - 1, start - 1, -1):
            if not crossing[k] & taken:
                yield from extend(k + 1, taken | 1 << k, chosen + (chords[k],))

    yield from extend(0, 0, ())


def _dissection_count(n):
    """The number of sets of pairwise non-crossing chords of the n-gon,
    the empty set included: the Kirkman-Cayley count of dissections with k
    chords, C(n - 3, k) C(n + k - 1, k) / (k + 1), summed over k.  It is
    the closed form that `_noncrossing_chord_sets` is checked against."""
    return sum(math.comb(n - 3, k) * math.comb(n + k - 1, k) // (k + 1)
               for k in range(n - 2))


def _polygon_fans(n, chords):
    """The anticlockwise fans of the n-gon's points under `chords` (1-based
    (i, j) pairs), the fan of point p at index p - 1: its (chord index, end)
    pairs, end 0 at i and end 1 at j, the nearest anticlockwise target
    first."""
    fans = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(chords):
        fans[i - 1].append((idx, 0))
        fans[j - 1].append((idx, 1))
    for p, fan in enumerate(fans, 1):
        fan.sort(key=lambda tok: (chords[tok[0]][1 - tok[1]] - p) % n)
    return fans


def _chords_in_taxonomy(m, chords):
    """Whether every tile of the m-gon dissected by `chords` (1-based (i, j)
    pairs, pairwise non-crossing) is of type III, IV or V, i.e. whether
    `DiscTiling(m, chords).to_complex().classify_tiles()` would not raise.

    Faces without a boundary segment are type V, so only the faces through
    the segments are traced, each from its first segment, interior on the
    left: arriving at v from u, the face goes on to the neighbour of v just
    before u by anticlockwise offset from v.  A face passes when it has one
    segment (type IV) or is an ear of two segments and a chord (type III).
    """
    offsets = [[1, m - 1] for _ in range(m)]  # of the boundary neighbours
    for i, j in chords:
        offsets[i - 1].append(j - i)
        offsets[j - 1].append(m - j + i)
    for offs in offsets:
        offs.sort()
    traced = [False] * m  # segment p -> p + 1 (0-based) lies on a traced face
    for start in range(m):
        if traced[start]:
            continue
        segments = sides = 0
        u, v = start, (start + 1) % m
        while True:
            sides += 1
            if (v - u) % m == 1:
                segments += 1
                traced[u] = True
            offs = offsets[v]
            u, v = v, (v + offs[offs.index((u - v) % m) - 1]) % m
            if u == start:
                break
        if segments > 1 and not (segments == 2 and sides == 3):
            return False
    return True


def disc_tilings(m, holed=False):
    """All DiscTilings with m marked points: every non-crossing chord subset
    of the m-gon, or with `holed` of the cut (m+1)-gon, in the order of
    `_noncrossing_chord_sets`, whether or not its tiles classify."""
    for chords in _noncrossing_chord_sets(m + holed):
        yield DiscTiling(m, chords, holed)


def b_matrix_from_triangulation(t: TilingComplex):
    """Exchange matrix of a triangulated surface: b_ij counts arrows i -> j
    minus arrows j -> i over the tile corners."""
    from .exchange import ExchangeMatrix

    q, _ = t.algebra()
    n = len(t.arcs)
    b = [[0] * n for _ in range(n)]
    for a in q.arrows.values():
        if a.src != a.tgt:
            b[a.src][a.tgt] += 1
            b[a.tgt][a.src] -= 1
    return ExchangeMatrix(tuple(tuple(r) for r in b))


# ---------------------------------------------------------------------------
# independent chord-geometry oracle for discs


def disc_cells(disc: DiscTiling):
    """Cells of the dissection as anticlockwise vertex cycles (1-based).

    Computed by recursive splitting along chords, independently of the
    combinatorial-map face tracing.
    """
    if disc.holed:
        raise ValueError("the chord-geometry oracle reads discs only")
    def split(vertices, chords):
        if not chords:
            return [tuple(vertices)]
        (a, b) = chords[0]
        ia, ib = vertices.index(a), vertices.index(b)
        if ia > ib:
            ia, ib = ib, ia
        left = vertices[ia:ib + 1]
        right = vertices[ib:] + vertices[:ia + 1]
        def inside(c, part):
            return c[0] in part and c[1] in part
        rest = chords[1:]
        return split(left, [c for c in rest if inside(c, left)]) + \
            split(right, [c for c in rest if inside(c, right)])

    return split(list(range(1, disc.m + 1)), list(disc.chords))


def _cell_edges(disc, cell):
    edges = []
    k = len(cell)
    for i in range(k):
        u, v = cell[i], cell[(i + 1) % k]
        if (v - u) % disc.m == 1:
            edges.append(("s", u, v))
        else:
            edges.append(("c", (min(u, v), max(u, v))))
    return edges


def _crossing_sequence(disc, p, q):
    """T-chords crossed by the arc p-q, ordered from p: a chord crosses it
    when one endpoint lies strictly between p and q anticlockwise and the
    other strictly beyond q, and the chords come by that first endpoint's
    offset from p, the farther partner first."""
    m = disc.m
    span = (q - p) % m
    keyed = []
    for c in disc.chords:
        near, far = (c[0] - p) % m, (c[1] - p) % m
        if near > far:
            near, far = far, near
        if 0 < near < span < far:
            keyed.append((near, -far, c))
    keyed.sort()
    return [c for _, _, c in keyed]


def geometric_disc_arcs(disc: DiscTiling):
    """Permissible arcs of a disc tiling straight from chord geometry.

    Returns a list of records with endpoints, crossing vector, and profile
    entries keyed by (cell key, marked point), a cell key being the
    frozenset of its edges; used as the independent oracle against the
    string route.  Each cell's edges and key are built once per call, and
    so are two lookups, read by each point pair: the cells that hold both
    of two chords, and the cells that hold a chord and a point.  Like
    `disc_cells`, it raises ValueError on a one-holed description.
    """
    edges_of = {cell: _cell_edges(disc, cell) for cell in disc_cells(disc)}
    key_of = {cell: frozenset(edges) for cell, edges in edges_of.items()}
    # corner at cell[i] lies between edges (i-1, i); E = edge i+1
    e_maps = {cell: {v: edges[(i + 1) % len(cell)]
                     for i, v in enumerate(cell)}
              for cell, edges in edges_of.items()}
    cells_of_pair = {}   # (chord, chord) -> cells with both as edges
    cells_of_point = {}  # (chord, point) -> cells with the chord and point
    for cell, edges in edges_of.items():
        chords = [e[1] for e in edges if e[0] == "c"]
        for c1 in chords:
            for c2 in chords:
                if c1 != c2:
                    cells_of_pair.setdefault((c1, c2), []).append(cell)
            for v in cell:
                cells_of_point.setdefault((c1, v), []).append(cell)
    chord_set = set(disc.chords)
    out = []
    for p in range(1, disc.m + 1):
        for q in range(p + 1, disc.m + 1):
            if (p, q) in chord_set or q - p < 2 or (p == 1 and q == disc.m):
                continue
            seq = _crossing_sequence(disc, p, q)
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
                mid = cells_of_pair.get((c1, c2), ())
                if len(mid) != 1:
                    ok = False
                    break
                p2.append((key_of[mid[0]], w))
            if not ok:
                continue
            p1 = []
            for end, first in ((p, seq[0]), (q, seq[-1])):
                flank = cells_of_point.get((first, end), ())
                if len(flank) != 1 or e_maps[flank[0]].get(end) != ("c", first):
                    ok = False
                    break
                p1.append((key_of[flank[0]], end))
            if not ok:
                continue
            crossed = set(seq)
            vec = tuple(int(c in crossed) for c in disc.chords)
            out.append({"endpoints": (p, q), "vector": vec,
                        "p2": tuple(p2), "p1": tuple(p1)})
    return out
