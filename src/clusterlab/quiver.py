"""Gentle bound quivers: structure checks, cycles, Cartan data, strings.

Conventions
-----------
Vertices are 1..n in the JSON surface and 0..n-1 internally.  A relation is a
composable ordered pair (a, b) of arrow ids meaning "a then b" lies in the
ideal; in function-style notation that is the path written b a.  A path is a
tuple of arrow ids in traversal order; it is nonzero exactly when no two
consecutive arrows form a relation.

A string word is a walk: letters are (arrow_id, inverse_flag); a direct
letter moves along the arrow, an inverse letter against it.  Valid words are
reduced (no letter followed by its own inverse) and avoid relations in both
reading directions.  One letter graph records which letter may follow which
(Butler-Ringel); validation, the finiteness test and string enumeration all
read it, so strings are exactly its walks.  Words are considered up to
inversion; `canonical_word` picks the lexicographically smaller of a word
and its formal inverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .errors import (InfiniteDimensionalAlgebraError, InvalidStringError,
                     NotSkewSymmetrizableError, WitnessedFault)


@dataclass(frozen=True)
class Arrow:
    id: str
    src: int  # 0-based
    tgt: int


class BoundQuiver:
    """A quiver with a set of length-2 monomial relations.

    A quiver is not changed after it is built: its opposite and its
    projectives' path bases are computed once and then shared.
    """

    def __init__(self, n_vertices, arrows, relations):
        self.n = n_vertices
        self.arrows = {}
        for a in arrows:
            arrow = a if isinstance(a, Arrow) else Arrow(*a)
            if arrow.id in self.arrows:
                raise ValueError(f"duplicate arrow id {arrow.id!r}")
            if not (0 <= arrow.src < self.n and 0 <= arrow.tgt < self.n):
                raise ValueError(f"arrow {arrow.id!r} endpoint out of range")
            self.arrows[arrow.id] = arrow
        self.relations = set()
        for first, then in relations:
            if first not in self.arrows or then not in self.arrows:
                raise ValueError(f"relation ({first!r},{then!r}) names unknown arrows")
            if self.arrows[first].tgt != self.arrows[then].src:
                raise ValueError(
                    f"relation ({first!r},{then!r}) is not composable")
            self.relations.add((first, then))
        self._arrows_from = {v: [] for v in range(self.n)}
        self._arrows_to = {v: [] for v in range(self.n)}
        for a in sorted(self.arrows.values(), key=lambda x: x.id):
            self._arrows_from[a.src].append(a)
            self._arrows_to[a.tgt].append(a)
        self._opposite = None
        self._projective_paths = {}  # vertex -> tuple of (path, end)

    def arrows_from(self, v):
        return self._arrows_from[v]

    def arrows_to(self, v):
        return self._arrows_to[v]

    def arrow(self, aid) -> Arrow:
        return self.arrows[aid]

    def opposite(self) -> "BoundQuiver":
        """The opposite bound quiver, built on the first call."""
        if self._opposite is None:
            self._opposite = BoundQuiver(
                self.n,
                [Arrow(a.id, a.tgt, a.src) for a in self.arrows.values()],
                [(b, a) for (a, b) in self.relations])
        return self._opposite

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return json.dumps({
            "vertices": self.n,
            "arrows": [{"id": a.id, "src": a.src + 1, "tgt": a.tgt + 1}
                       for a in sorted(self.arrows.values(), key=lambda x: x.id)],
            "relations": sorted([list(r) for r in self.relations]),
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        arrows = [Arrow(a["id"], a["src"] - 1, a["tgt"] - 1)
                  for a in data["arrows"]]
        return cls(data["vertices"], arrows,
                   [tuple(r) for r in data.get("relations", [])])


@dataclass(frozen=True)
class GentleCheck:
    ok: bool
    violated: str = ""      # "G1".."G4" when not ok
    witness: str = ""

    def __bool__(self):
        return self.ok


def check_gentle(q: BoundQuiver) -> GentleCheck:
    """Verify conditions G1-G4; the first failure comes back with a witness."""
    for v in range(q.n):
        if len(q.arrows_from(v)) > 2:
            return GentleCheck(False, "G1",
                               f"vertex {v + 1} is the source of more than two arrows")
        if len(q.arrows_to(v)) > 2:
            return GentleCheck(False, "G1",
                               f"vertex {v + 1} is the target of more than two arrows")
    for a in q.arrows.values():
        rel_after = [b.id for b in q.arrows_from(a.tgt)
                     if (a.id, b.id) in q.relations]
        non_after = [b.id for b in q.arrows_from(a.tgt)
                     if (a.id, b.id) not in q.relations]
        if len(rel_after) > 1:
            return GentleCheck(False, "G2",
                               f"arrow {a.id!r} has relations with {rel_after}")
        if len(non_after) > 1:
            return GentleCheck(False, "G2",
                               f"arrow {a.id!r} composes freely with {non_after}")
        rel_before = [b.id for b in q.arrows_to(a.src)
                      if (b.id, a.id) in q.relations]
        non_before = [b.id for b in q.arrows_to(a.src)
                      if (b.id, a.id) not in q.relations]
        if len(rel_before) > 1:
            return GentleCheck(False, "G3",
                               f"arrow {a.id!r} has relations with {rel_before}")
        if len(non_before) > 1:
            return GentleCheck(False, "G3",
                               f"arrow {a.id!r} composes freely with {non_before}")
    # G4 (relations generated by length-2 paths) holds by construction;
    # composability was enforced when the quiver was built.
    return GentleCheck(True)


def detect_even_full_cycle(q: BoundQuiver):
    """An even-length oriented cycle all of whose compositions are relations.

    In a gentle quiver each arrow has at most one relation successor, so the
    full-relation cycles are the cycles of that partial map.  Returns the
    cycle as a list of arrow ids, or None.  Loops are odd cycles of length 1.
    """
    succ = {}
    for (a, b) in q.relations:
        if a in succ:
            raise ValueError("not gentle: arrow with two relation successors")
        succ[a] = b
    state = {}  # arrow -> "active" | "done"
    for start in sorted(q.arrows):
        if state.get(start) == "done":
            continue
        chain = []
        pos = {}
        cur = start
        while cur is not None and state.get(cur) != "done":
            if cur in pos:
                cycle = chain[pos[cur]:]
                if len(cycle) % 2 == 0:
                    return cycle
                break
            pos[cur] = len(chain)
            chain.append(cur)
            cur = succ.get(cur)
        for a in chain:
            state[a] = "done"
    return None


def _paths_from(q: BoundQuiver, start, bound):
    """All relation-avoiding paths (as arrow-id tuples) starting at `start`."""
    out = [((), start)]
    frontier = [((), start)]
    while frontier:
        nxt = []
        for path, v in frontier:
            for a in q.arrows_from(v):
                if path and (path[-1], a.id) in q.relations:
                    continue
                p2 = path + (a.id,)
                if len(p2) > bound:
                    raise InfiniteDimensionalAlgebraError(
                        f"relation-avoiding path of length > {bound} from "
                        f"vertex {start + 1}")
                nxt.append((p2, a.tgt))
        out.extend(nxt)
        frontier = nxt
    return out


def path_bound(q: BoundQuiver):
    return q.n * max(1, len(q.arrows)) + 1


def projective_paths(q: BoundQuiver, i):
    """Basis paths of the projective at vertex i, with their endpoints.

    The tuple is computed on the first call and kept on the quiver.  An
    infinite-dimensional projective is not kept, so every call raises
    InfiniteDimensionalAlgebraError.
    """
    paths = q._projective_paths.get(i)
    if paths is None:
        paths = tuple(_paths_from(q, i, path_bound(q)))
        q._projective_paths[i] = paths
    return paths


def cartan_matrix(q: BoundQuiver):
    """(Cartan matrix, determinant); column i is the dimension vector of P_i.

    Raises InfiniteDimensionalAlgebraError when path enumeration exceeds the
    bound (a relation-free oriented cycle).
    """
    n = q.n
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for path, end in projective_paths(q, i):
            c[end][i] += 1
    return c, linalg.det(c)


# -- string words ------------------------------------------------------------


@dataclass(frozen=True)
class StringWord:
    """A reduced relation-avoiding walk, or a trivial word at a vertex."""

    letters: tuple  # tuple[(arrow_id, inverse: bool), ...]
    base: int       # start vertex of the walk (the vertex, for trivial words)

    def is_trivial(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)


def _letter_ends(q: BoundQuiver, letter):
    """(tail, head): the vertices a letter leaves from and moves to."""
    aid, inv = letter
    a = q.arrows[aid]
    return (a.tgt, a.src) if inv else (a.src, a.tgt)


def _pair_ok(q: BoundQuiver, l1, l2):
    """Whether l2 may follow l1: no backtrack and no relation either way."""
    (a1, i1), (a2, i2) = l1, l2
    if i1 != i2:
        return a1 != a2
    return ((a2, a1) if i1 else (a1, a2)) not in q.relations


def _followers(q: BoundQuiver, letter):
    """The letters that may follow `letter` in a string: those leaving its
    head that `_pair_ok` allows, direct letters first."""
    head = _letter_ends(q, letter)[1]
    moves = [(a.id, False) for a in q.arrows_from(head)] + \
            [(a.id, True) for a in q.arrows_to(head)]
    return tuple(l2 for l2 in moves if _pair_ok(q, letter, l2))


def _letter_graph(q: BoundQuiver):
    """Each letter's followers, keyed in arrow-id order with each direct
    letter before its inverse.  Strings are the walks in this graph."""
    return {(aid, inv): _followers(q, (aid, inv))
            for aid in sorted(q.arrows) for inv in (False, True)}


def word_vertices(q: BoundQuiver, w: StringWord):
    """The walk's vertex sequence v_0..v_k."""
    verts = [w.base]
    for letter in w.letters:
        tail, head = _letter_ends(q, letter)
        if tail != verts[-1]:
            raise InvalidStringError(
                f"letter {letter} does not continue the walk")
        verts.append(head)
    return verts


def validate_word(q: BoundQuiver, w: StringWord):
    """Raise InvalidStringError unless the word is a walk in the letter graph
    that starts at its base."""
    if w.letters and _letter_ends(q, w.letters[0])[0] != w.base:
        raise InvalidStringError(
            f"letter {w.letters[0]} does not start at vertex {w.base + 1}")
    for l1, l2 in zip(w.letters, w.letters[1:]):
        if l2 not in _followers(q, l1):
            raise InvalidStringError(f"letter {l2} may not follow {l1}")


def inverse_word(q: BoundQuiver, w: StringWord) -> StringWord:
    if w.is_trivial():
        return w
    letters = tuple((aid, not inv) for aid, inv in reversed(w.letters))
    return StringWord(letters, _letter_ends(q, w.letters[-1])[1])


def canonical_word(q: BoundQuiver, w: StringWord) -> StringWord:
    if w.is_trivial():
        return w
    inv = inverse_word(q, w)
    return min(w, inv, key=lambda u: u.letters)


def letter_graph_acyclic(q: BoundQuiver):
    """Whether the letter graph has no directed cycle.

    Acyclicity is equivalent to the algebra having finitely many strings.
    Returns (acyclic, longest_path_letters), with None for the length when
    the graph has a cycle: then some walk is longer than the letter count.
    """
    follow = _letter_graph(q)
    ends, longest = set(follow), 0  # last letters of walks of longest + 1
    while ends:
        if longest == len(follow):
            return False, None
        ends = {l2 for l1 in ends for l2 in follow[l1]}
        longest += 1
    return True, longest


def enumerate_strings(q: BoundQuiver, cap):
    """All strings of length <= cap up to inversion, plus a truncation flag.

    Every single letter is a string, whatever the cap.  Longer words grow on
    the right along the letter graph, starting from every single letter;
    together with the trivial words this reaches every string.  The flag
    reports whether some word of the last length grown still has a follower
    (so longer strings exist beyond the cap).
    """
    follow = _letter_graph(q)
    seen = set()
    out = [StringWord((), v) for v in range(q.n)]

    def keep(w):
        cw = canonical_word(q, w)
        if cw.letters not in seen:
            seen.add(cw.letters)
            out.append(cw)

    frontier = []
    for letter in follow:
        w = StringWord((letter,), _letter_ends(q, letter)[0])
        keep(w)
        frontier.append(w)
    length = 1
    while frontier and length < cap:
        nxt = []
        for w in frontier:
            for letter in follow[w.letters[-1]]:
                w2 = StringWord(w.letters + (letter,), w.base)
                keep(w2)
                nxt.append(w2)
        frontier = nxt
        length += 1
    return out, any(follow[w.letters[-1]] for w in frontier)


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
    if not cert:
        raise WitnessedFault({"check": "type C quiver not gentle",
                              "matrix": matrix.b, "violated": cert.violated,
                              "witness": cert.witness})
    return q


def check_qb_conditions(q: BoundQuiver):
    """Structural conditions (a)-(e) for quivers attached to type C matrices.

    Returns a dict mapping each condition name to a bool.  The underlying
    graph leaves out loops.  (a) asks that every chordless cycle of it be an
    oriented triangle, which holds exactly when three facts do: no two
    arrows join the same two vertices, every 3-clique is an oriented
    3-cycle, and the graph is chordal.  A graph is chordal exactly when
    deleting simplicial vertices (those whose remaining neighbours are
    pairwise adjacent) one at a time empties it (Fulkerson-Gross 1965).
    (b)-(e) read per-vertex counts: neighbours, arrows, arrows on an
    oriented triangle, and oriented triangles.
    """
    ends = [(a.src, a.tgt) for a in q.arrows.values() if a.src != a.tgt]
    loops = [a.src for a in q.arrows.values() if a.src == a.tgt]
    pairs = set(ends)
    nbrs = [set() for _ in range(q.n)]
    for s, t in ends:
        nbrs[s].add(t)
        nbrs[t].add(s)
    tris = {frozenset((x, y, z)) for x, y in pairs for z in nbrs[y]
            if (y, z) in pairs and (z, x) in pairs}
    left = set(range(q.n))
    while left:
        v = next((v for v in left if all(
            nbrs[v] & left <= nbrs[u] | {u} for u in nbrs[v] & left)), None)
        if v is None:
            break
        left.remove(v)
    arrows_at, on_tri, tris_at = [0] * q.n, [0] * q.n, [0] * q.n
    for e in ends:
        for v in e:
            arrows_at[v] += 1
            on_tri[v] += any(set(e) <= t for t in tris)
    for t in tris:
        for v in t:
            tris_at[v] += 1
    return {
        "a": len({frozenset(e) for e in ends}) == len(ends) and not left
        and all(frozenset((x, y, z)) in tris for x in range(q.n)
                for y in nbrs[x] for z in nbrs[x] & nbrs[y]),
        "b": all(len(s) <= 4 for s in nbrs),
        "c": all(arrows_at[v] == on_tri[v] == 4 and tris_at[v] == 2
                 for v in range(q.n) if len(nbrs[v]) == 4),
        "d": all(tris_at[v] == 1 and on_tri[v] == 2
                 for v in range(q.n) if len(nbrs[v]) == 3),
        "e": loops == [0] and (len(nbrs[0]) <= 1
                               or len(nbrs[0]) == 2 and tris_at[0] > 0),
    }
