"""Quiver representations, Hom spaces, and the Auslander-Reiten translate.

Representations are left modules over the bound path algebra: a vector space
per vertex and a matrix per arrow mapping the source space to the target
space, with every relation composing to zero.  Every representation, however
it is made, goes through the `QuiverRep` constructor, which checks the
shapes and the relations; builders pass only the matrices they fill, and
the constructor zeroes the rest.  All linear algebra is exact and stays in
ints: string modules, projectives, syzygies, cokernels and translates are
built from 0/1 seeds, and `linalg` makes a Fraction only on a pivot
division that is not exact.

The translate is computed from first principles: minimal projective
presentation (projective cover of the module, then of the syzygy), transpose
into modules over the opposite algebra, cokernel, and vector-space duality.
No string-combinatorial shortcut is used anywhere, so Hom computations stay
an independent check on the combinatorics built on top.  A sum of
projectives keeps its path basis, and `_ProjectiveSum.arrow_action` is the
one arrow action on it: the syzygy of a presentation and the translate's
dual matrices both read it.

Hom(M, N) has two routes.  `hom_dim` solves the intertwiner system on all
of M and N.  `presented_hom_dim` reads it off a presentation
P1 -> P0 -> M -> 0 as the kernel of Hom(P0, N) -> Hom(P1, N), which is
exact because Hom is left exact; its system has one block of unknowns per
summand of P0, so it is much smaller.  `StringInventory` computes each
string's minimal presentation once and uses it for the translate and for
the Hom spaces of its rigidity and compatibility tests; `hom_dim` is the
tests' oracle for them.
"""

from __future__ import annotations

from . import linalg
from .errors import WitnessedFault
from .quiver import (BoundQuiver, StringWord, enumerate_strings, projective_paths,
                     validate_word, word_vertices)


class QuiverRep:
    """A representation: per-vertex dimensions and per-arrow matrices.

    Every build checks the shapes and every relation.  A relation is checked
    row by row: each row of the second arrow's matrix, over its nonzero
    entries, is summed against the first arrow's rows, exactly and without
    forming the product.  The matrices are kept, not copied, and must not
    change afterwards; a missing one is zero.
    """

    def __init__(self, quiver: BoundQuiver, dims, mats):
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != quiver.n:
            raise ValueError("dimension vector has wrong length")
        self.mats = {}
        for a in quiver.arrows.values():
            m = mats.get(a.id)
            if m is None:
                m = linalg.zeros(self.dims[a.tgt], self.dims[a.src])
            if len(m) != self.dims[a.tgt] or any(
                    len(row) != self.dims[a.src] for row in m):
                raise ValueError(f"matrix for arrow {a.id!r} has wrong shape")
            self.mats[a.id] = m
        for (first, then) in quiver.relations:
            inner = self.mats[first]
            for row in self.mats[then]:
                terms = [(x, inner[k]) for k, x in enumerate(row) if x]
                if terms and any(sum(x * r[j] for x, r in terms)
                                 for j in range(len(terms[0][1]))):
                    raise ValueError(
                        f"relation ({first},{then}) does not vanish")


def zero_rep(q: BoundQuiver) -> QuiverRep:
    return QuiverRep(q, (0,) * q.n, {})


def string_module(q: BoundQuiver, w: StringWord) -> QuiverRep:
    """The standard string module: one basis vector per walk vertex."""
    validate_word(q, w)
    dims = [0] * q.n
    local = []  # walk index -> its basis offset at its vertex
    for v in word_vertices(q, w):
        local.append(dims[v])
        dims[v] += 1
    mats = {}  # only the arrows the word uses; QuiverRep zeroes the rest
    for pos, (aid, inv) in enumerate(w.letters):
        if aid not in mats:
            a = q.arrows[aid]
            mats[aid] = linalg.zeros(dims[a.tgt], dims[a.src])
        src_idx, tgt_idx = (pos + 1, pos) if inv else (pos, pos + 1)
        mats[aid][local[tgt_idx]][local[src_idx]] = 1
    return QuiverRep(q, dims, mats)


class _ProjectiveSum:
    """A direct sum of projectives with the path basis kept explicit.

    Basis elements are (summand, path) pairs; `vertex_basis[v]` lists the
    elements sitting at vertex v, and `pos[(summand, path)]` locates one as
    (vertex, offset).
    """

    def __init__(self, q: BoundQuiver, tops):
        self.vertex_basis = {v: [] for v in range(q.n)}
        self.pos = {}
        for s, top in enumerate(tops):  # tops: the vertex of each summand
            for path, end in projective_paths(q, top):
                self.pos[(s, path)] = (end, len(self.vertex_basis[end]))
                self.vertex_basis[end].append((s, path))
        self.dims = [len(self.vertex_basis[v]) for v in range(q.n)]

    def arrow_action(self, aid, src):
        """Per basis element at `src`, the source of arrow `aid`: the offset
        of its image at the arrow's target, or None where the image is zero.
        A path is nonzero exactly when it is a basis path."""
        return [self.pos.get((s, path + (aid,)), (None, None))[1]
                for s, path in self.vertex_basis[src]]


def hom_dim(q: BoundQuiver, m: QuiverRep, n: QuiverRep) -> int:
    """Dimension of Hom(M, N): nullity of the intertwiner system.

    Unknowns are the entries of the per-vertex maps f_v; each arrow imposes
    f_tgt M_a = N_a f_src.  `linalg.rank` reduces the integer rows with
    `rref`, which keeps them integers wherever its pivots divide exactly.
    """
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return 0
    rows = []
    for aid, a in q.arrows.items():
        ma, na = m.mats[aid], n.mats[aid]
        dms, dmt = m.dims[a.src], m.dims[a.tgt]
        dns, dnt = n.dims[a.src], n.dims[a.tgt]
        for i in range(dnt):
            for j in range(dms):
                row = [0] * total
                # (f_tgt M_a)_{ij} = sum_k f_tgt[i][k] ma[k][j]
                for k in range(dmt):
                    if ma[k][j]:
                        row[offsets[a.tgt] + i * dmt + k] += ma[k][j]
                # (N_a f_src)_{ij} = sum_k na[i][k] f_src[k][j]
                for k in range(dns):
                    if na[i][k]:
                        row[offsets[a.src] + k * dms + j] -= na[i][k]
                if any(row):
                    rows.append(row)
    if not rows:
        return total
    return total - linalg.rank(rows, total)


def top_generators(q: BoundQuiver, m: QuiverRep):
    """(vertex, generating vector) pairs spanning M / rad M.

    rad M at a vertex is the span of the images of all incoming arrow maps;
    the complement is taken over unit vectors at non-pivot coordinates.
    """
    gens = []
    for v in range(q.n):
        if m.dims[v] == 0:
            continue
        rad_rows = []
        for a in q.arrows_to(v):
            mat = m.mats[a.id]
            for j in range(m.dims[a.src]):
                col = [mat[i][j] for i in range(m.dims[v])]
                if any(col):
                    rad_rows.append(col)
        _, pivots = linalg.rref(rad_rows, m.dims[v]) if rad_rows else ([], [])
        for c in range(m.dims[v]):
            if c not in pivots:
                vec = [0] * m.dims[v]
                vec[c] = 1
                gens.append((v, vec))
    return gens


def minimal_presentation(q: BoundQuiver, m: QuiverRep):
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    Returns (tops0, tops1, entries) where tops are vertex lists of the
    summands and entries[(i, l)] is a list of (path, coefficient) pairs
    describing the component P(tops1[l]) -> P(tops0[i]) as a combination of
    paths from tops0[i] to tops1[l].
    """
    gens = top_generators(q, m)
    tops0 = [v for v, _ in gens]
    p0 = _ProjectiveSum(q, tops0)
    # images of P0 basis elements in M; a path's parent comes before it
    image = {}
    for s, path in p0.pos:
        image[(s, path)] = (
            linalg.mat_vec(m.mats[path[-1]], image[(s, path[:-1])])
            if path else gens[s][1])
    # kernel of P0 -> M, vertexwise, with the free column of each basis
    # vector (see linalg.nullspace)
    kernel_basis, free = {}, {}
    for v in range(q.n):
        basis = p0.vertex_basis[v]
        if not basis:
            kernel_basis[v] = free[v] = []
            continue
        rows = [[image[el][i] for el in basis] for i in range(m.dims[v])]
        kern = linalg.nullspace(rows, len(basis)) if rows else \
            linalg.identity(len(basis))
        kernel_basis[v] = kern
        free[v] = [max(j for j, x in enumerate(kv) if x) for kv in kern]
    kdims = [len(kernel_basis[v]) for v in range(q.n)]
    # kernel as a representation: arrows act through P0
    kmats = {}
    for aid, a in q.arrows.items():
        if not kdims[a.src]:
            continue  # nothing to act on; QuiverRep zeroes the matrix
        mat = linalg.zeros(kdims[a.tgt], kdims[a.src])
        target = p0.vertex_basis[a.tgt]
        action = p0.arrow_action(aid, a.src)
        for j, kv in enumerate(kernel_basis[a.src]):
            img = [0] * p0.dims[a.tgt]
            for c, t in zip(kv, action):
                if c and t is not None:
                    img[t] += c
            if not any(img):
                continue
            # img lies in the kernel exactly when it maps to 0 in M; then
            # its kernel coordinates are its entries at the free columns
            in_m = [0] * m.dims[a.tgt]
            for k, c in enumerate(img):
                if c:
                    for i, x in enumerate(image[target[k]]):
                        in_m[i] += c * x
            if any(in_m):
                raise WitnessedFault({
                    "check": "kernel is not arrow-stable",
                    "quiver": q.to_json(), "dims": m.dims, "mats": m.mats,
                    "arrow": aid})
            for i, c in enumerate(free[a.tgt]):
                mat[i][j] = img[c]
        kmats[aid] = mat
    krep = QuiverRep(q, kdims, kmats)
    kgens = top_generators(q, krep)
    tops1 = [v for v, _ in kgens]
    # presentation entries: generator of P(tops1[l]) lands in the kernel at
    # vertex tops1[l]; express it in the (summand, path) basis of P0
    entries = {}
    for l, (v, kvec) in enumerate(kgens):
        coords = [0] * len(p0.vertex_basis[v])
        for t, kb in enumerate(kernel_basis[v]):
            if kvec[t]:
                for j in range(len(coords)):
                    coords[j] += kvec[t] * kb[j]
        for j, el in enumerate(p0.vertex_basis[v]):
            if coords[j]:
                s, path = el
                entries.setdefault((s, l), []).append((path, coords[j]))
    return tops0, tops1, entries


def presented_hom_dim(presentation, n: QuiverRep) -> int:
    """Dimension of Hom(M, N) from a projective presentation of M.

    `presentation` is `minimal_presentation(q, M)`.  Hom(-, N) is left
    exact, so Hom(M, N) is the kernel of Hom(P0, N) -> Hom(P1, N), and
    Hom(P(t), N) = N_t: one block of unknowns per top of P0, one block of
    equations per top of P1, and entry (i, l) acts on block i through N's
    arrow matrices along each of its paths.
    """
    tops0, tops1, entries = presentation
    offsets = []
    total = 0
    for t in tops0:
        offsets.append(total)
        total += n.dims[t]
    if total == 0:
        return 0
    rows = []
    for l, t1 in enumerate(tops1):
        if not n.dims[t1]:
            continue  # the block would have no rows
        block = linalg.zeros(n.dims[t1], total)
        for i, t0 in enumerate(tops0):
            if not n.dims[t0]:
                continue
            for path, coef in entries.get((i, l), ()):
                if not path:
                    act = linalg.identity(n.dims[t0])
                else:
                    act = n.mats[path[0]]
                    for aid in path[1:]:
                        act = linalg.mat_mul(n.mats[aid], act)
                for r, row in enumerate(act):
                    for k, x in enumerate(row):
                        if x:
                            block[r][offsets[i] + k] += coef * x
        rows.extend(row for row in block if any(row))
    if not rows:
        return total
    return total - linalg.rank(rows, total)


def ar_translate(q: BoundQuiver, m: QuiverRep, presentation=None) -> QuiverRep:
    """The Auslander-Reiten translate D Tr M.

    `presentation`, when given, is `minimal_presentation(q, m)`, computed
    earlier.  Projective summands of M die in the minimal presentation, so
    they contribute zero, matching the usual convention.
    """
    if not any(m.dims):
        return zero_rep(q)
    if presentation is None:
        presentation = minimal_presentation(q, m)
    tops0, tops1, entries = presentation
    if not tops1:
        return zero_rep(q)  # M projective
    qop = q.opposite()
    # transpose: map  +P^op(tops0[i]) -> +P^op(tops1[l]), entry (l, i) given
    # by the reversed paths
    dst = _ProjectiveSum(qop, tops1)
    # columns of the transposed map, one per basis path of each P^op(tops0[i]),
    # expressed vertexwise over dst's basis; a composite path is nonzero
    # exactly when it is a basis path of dst
    image_vectors = {v: [] for v in range(q.n)}
    for i, top in enumerate(tops0):
        reversed_entries = [(l, tuple(reversed(path)), coef)
                            for l in range(len(tops1))
                            for path, coef in entries.get((i, l), ())]
        for path0, v in projective_paths(qop, top):
            out = [0] * dst.dims[v]
            for l, rev, coef in reversed_entries:
                key = (l, rev + path0)
                if key in dst.pos:
                    out[dst.pos[key][1]] += coef
            if any(out):
                image_vectors[v].append(out)
    # cokernel of the transposed map, vertexwise: coords[v][t] holds the
    # cokernel coordinates of dst's basis element t, whose unit vectors at
    # free[v] form the cokernel's basis
    coords, free = {}, {}
    for v in range(q.n):
        coords[v], free[v] = linalg.column_space_projection(
            image_vectors[v], dst.dims[v])
    # dualize back to the original quiver: spaces keep their dimension, and
    # the matrix of an arrow is the transpose of the opposite arrow's action
    # on the cokernel, whose column for a basis element at free[src] holds
    # the coordinates of that element's image in dst
    dmats = {}
    for aid, a in qop.arrows.items():
        action = dst.arrow_action(aid, a.src)
        dmats[aid] = [[0] * len(free[a.tgt]) if action[t] is None
                      else list(coords[a.tgt][action[t]]) for t in free[a.src]]
    return QuiverRep(q, [len(free[v]) for v in range(q.n)], dmats)


class StringInventory:
    """Cached per-algebra data: string modules, their minimal presentations,
    translates and compatibility; rigidity is read off them on each call.

    `tau_hits` and `tau_misses` count the translate lookups answered from
    the cache and the ones that computed a translate.
    """

    def __init__(self, q: BoundQuiver):
        self.q = q
        self._module = {}
        self._presentation = {}
        self._tau = {}
        self._compat = {}
        self.tau_hits = self.tau_misses = 0

    def module(self, w: StringWord) -> QuiverRep:
        key = (w.letters, w.base)
        if key not in self._module:
            self._module[key] = string_module(self.q, w)
        return self._module[key]

    def presentation(self, w: StringWord):
        key = (w.letters, w.base)
        if key not in self._presentation:
            self._presentation[key] = minimal_presentation(
                self.q, self.module(w))
        return self._presentation[key]

    def tau(self, w: StringWord) -> QuiverRep:
        key = (w.letters, w.base)
        if key in self._tau:
            self.tau_hits += 1
        else:
            self.tau_misses += 1
            self._tau[key] = ar_translate(self.q, self.module(w),
                                          self.presentation(w))
        return self._tau[key]

    def rigid(self, w: StringWord) -> bool:
        return presented_hom_dim(self.presentation(w), self.tau(w)) == 0

    def compatible(self, w1: StringWord, w2: StringWord) -> bool:
        """Whether the direct sum of the two rigid strings stays rigid."""
        k1, k2 = (w1.letters, w1.base), (w2.letters, w2.base)
        key = (min(k1, k2), max(k1, k2))
        if key not in self._compat:
            self._compat[key] = (
                presented_hom_dim(self.presentation(w1), self.tau(w2)) == 0
                and presented_hom_dim(self.presentation(w2), self.tau(w1)) == 0)
        return self._compat[key]


def enumerate_tau_rigid(inv: StringInventory, cap=None):
    """(sorted list of (StringWord, dim vector), truncated flag) for the
    algebra of the inventory, which keeps the modules and translates.

    Strings are enumerated up to the cap and filtered by tau-rigidity of
    the string module.  The default cap, twice the arrow count plus two,
    exceeds every string of a finite string set, where no string repeats a
    letter.
    """
    q = inv.q
    if cap is None:
        cap = 2 * len(q.arrows) + 2
    strings, truncated = enumerate_strings(q, cap)
    out = []
    for w in strings:
        if inv.rigid(w):
            out.append((w, inv.module(w).dims))
    out.sort(key=lambda t: string_order(t[0]))
    return out, truncated


def string_order(w: StringWord):
    """`enumerate_tau_rigid`'s sort key: length, then letters, then base."""
    return len(w.letters), w.letters, w.base
