"""Gentle bound quivers: structure checks, cycles, Cartan data, strings.

Conventions
-----------
Vertices are 1..n in the JSON surface and 0..n-1 internally.  A relation is a
composable ordered pair (a, b) of arrow ids meaning "a then b" lies in the
ideal; in function-style notation that is the path written b a.  A path is a
tuple of arrow ids in traversal order; it is nonzero exactly when no two
consecutive arrows form a relation.

An arrow's neighbours are read one way: the arrows after it (`_after`) or
before it (`_before`) whose composite with it is a relation, or is not.  The
gentleness check counts them.  On gentle input they give each arrow at most
one relation successor and one free successor, each a one-to-one partial
map: full-relation cycles are the cycles of the first, and a projective's
basis paths are the starts of the chains of the second, whose cycles are
the relation-free ones that make the algebra infinite-dimensional.

A string word is a walk: letters are (arrow_id, inverse_flag); a direct
letter moves along the arrow, an inverse letter against it.  Valid words are
reduced (no letter followed by its own inverse) and avoid relations in both
reading directions.  One letter graph, built from the same neighbours,
records which letter may follow which (Butler-Ringel); validation, the
finiteness test and string enumeration all read it, so strings are exactly
its walks.  Words are considered up to inversion; `canonical_word` picks the
lexicographically smaller of a word and its formal inverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .errors import InfiniteDimensionalAlgebraError, InvalidStringError


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
        self._projective_paths = {}  # vertex -> (path, end)s or error text

    def arrows_from(self, v):
        return self._arrows_from[v]

    def arrows_to(self, v):
        return self._arrows_to[v]

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


def _after(q: BoundQuiver, a: Arrow, related):
    """The arrows b leaving a's head, in `arrows_from` order, for which
    "a then b" is a relation (related) or is not."""
    return [b for b in q.arrows_from(a.tgt)
            if ((a.id, b.id) in q.relations) == related]


def _before(q: BoundQuiver, a: Arrow, related):
    """The arrows b entering a's tail, in `arrows_to` order, for which
    "b then a" is a relation (related) or is not."""
    return [b for b in q.arrows_to(a.src)
            if ((b.id, a.id) in q.relations) == related]


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
        for condition, near in (("G2", _after), ("G3", _before)):
            for related, verb in ((True, "has relations with"),
                                  (False, "composes freely with")):
                arrows = near(q, a, related)
                if len(arrows) > 1:
                    ids = [b.id for b in arrows]
                    return GentleCheck(False, condition,
                                       f"arrow {a.id!r} {verb} {ids}")
    # G4 (relations generated by length-2 paths) holds by construction;
    # composability was enforced when the quiver was built.
    return GentleCheck(True)


def _successors(q: BoundQuiver, related):
    """Each arrow's one relation successor (related) or free successor, by
    arrow id.  Raises ValueError unless this is a one-to-one partial map, as
    on gentle input, so that a walk from an arrow stops or comes back to it."""
    pairs = [(a.id, b.id) for a in q.arrows.values()
             for b in _after(q, a, related)]
    succ = dict(pairs)
    if not len(pairs) == len(succ) == len(set(succ.values())):
        raise ValueError(f"not gentle: successors {pairs} are not one-to-one")
    return succ


def _walk(succ, a):
    """(chain, closed): a, succ(a), ... up to the chain's end, or up to its
    return to a, which closes it into a cycle."""
    chain = [a]
    while (b := succ.get(chain[-1])) not in (None, a):
        chain.append(b)
    return chain, b == a


def detect_even_full_cycle(q: BoundQuiver):
    """An even-length oriented cycle all of whose compositions are relations.

    The full-relation cycles are the cycles of the relation-successor map.
    Returns the first even one, from its least arrow, as a list of arrow
    ids, or None.  Loops are odd cycles of length 1.
    """
    succ = _successors(q, True)
    for start in sorted(q.arrows):
        cycle, closed = _walk(succ, start)
        if closed and len(cycle) % 2 == 0:
            return cycle
    return None


def projective_paths(q: BoundQuiver, i):
    """Basis paths of the projective at vertex i, with their endpoints: the
    trivial path and the starts of the free-successor chain of each arrow
    leaving i, shortest first, in `arrows_from` order within one length.

    The first call fills every vertex from one free-successor map, kept on
    the quiver.  A chain that comes back to its arrow is a relation-free
    cycle: each call for its vertex raises InfiniteDimensionalAlgebraError.
    """
    paths = q._projective_paths
    if not paths:
        free = _successors(q, False)
        for v in range(q.n):
            chains = [_walk(free, a.id) for a in q.arrows_from(v)]
            cycle = next((c for c, closed in chains if closed), None)
            starts = sorted(((tuple(c[:k]), q.arrows[c[k - 1]].tgt)
                             for c, _ in chains for k in range(1, len(c) + 1)),
                            key=lambda p: len(p[0]))
            paths[v] = (f"relation-free cycle {cycle} through vertex {v + 1}"
                        if cycle else (((), v), *starts))
    if isinstance(paths[i], str):
        raise InfiniteDimensionalAlgebraError(paths[i])
    return paths[i]


def cartan_matrix(q: BoundQuiver):
    """(Cartan matrix, determinant); column i is the dimension vector of P_i.

    Raises InfiniteDimensionalAlgebraError on a relation-free oriented cycle.
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


def _letter_ends(q: BoundQuiver, letter):
    """(tail, head): the vertices a letter leaves from and moves to."""
    aid, inv = letter
    a = q.arrows[aid]
    return (a.tgt, a.src) if inv else (a.src, a.tgt)


def _followers(q: BoundQuiver, letter):
    """The letters that may follow `letter` in a string, direct letters
    first: no backtrack onto its arrow and no relation in either reading
    direction."""
    aid, inv = letter
    a = q.arrows[aid]
    direct = ([b for b in q.arrows_from(a.src) if b.id != aid] if inv
              else _after(q, a, False))
    inverse = (_before(q, a, False) if inv
               else [b for b in q.arrows_to(a.tgt) if b.id != aid])
    return tuple([(b.id, False) for b in direct]
                 + [(b.id, True) for b in inverse])


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
    if not w.letters:
        return w
    letters = tuple((aid, not inv) for aid, inv in reversed(w.letters))
    return StringWord(letters, _letter_ends(q, w.letters[-1])[1])


def canonical_word(q: BoundQuiver, w: StringWord) -> StringWord:
    if not w.letters:
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


# -- conditions (a)-(e) of a type C quiver -----------------------------------


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
