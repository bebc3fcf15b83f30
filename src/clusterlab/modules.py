"""Quiver representations, Hom spaces, and the Auslander-Reiten translate.

Representations are left modules over the bound path algebra: a vector space
per vertex and a matrix per arrow mapping the source space to the target
space, with every relation composing to zero.  All linear algebra is exact
and stays in ints: string modules, projectives, syzygies, cokernels and
translates are built from 0/1 seeds, and `linalg` makes a Fraction only on
a pivot division that is not exact.

The translate is computed from first principles: minimal projective
presentation (projective cover of the module, then of the syzygy), transpose
into modules over the opposite algebra, cokernel, and vector-space duality.
No string-combinatorial shortcut is used anywhere, so Hom computations stay
an independent check on the combinatorics built on top.
"""

from __future__ import annotations

from . import linalg
from .quiver import BoundQuiver, StringWord, projective_paths, validate_word, word_vertices


class QuiverRep:
    """A representation: per-vertex dimensions and per-arrow matrices."""

    def __init__(self, quiver: BoundQuiver, dims, mats, check=True):
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
            self.mats[a.id] = [list(row) for row in m]
        if check:
            self._check_relations()

    def _check_relations(self):
        for (first, then) in self.quiver.relations:
            prod = linalg.mat_mul(self.mats[then], self.mats[first])
            if any(any(x != 0 for x in row) for row in prod):
                raise ValueError(
                    f"relation ({first},{then}) does not vanish")

    def dim_vector(self):
        return self.dims

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return self.total_dim() == 0

    def direct_sum(self, other: "QuiverRep") -> "QuiverRep":
        if other.quiver is not self.quiver and \
                other.quiver.to_json() != self.quiver.to_json():
            raise ValueError("direct sum needs a common quiver")
        dims = tuple(a + b for a, b in zip(self.dims, other.dims))
        mats = {}
        for aid, a in self.quiver.arrows.items():
            m1, m2 = self.mats[aid], other.mats[aid]
            rows = self.dims[a.tgt] + other.dims[a.tgt]
            cols = self.dims[a.src] + other.dims[a.src]
            m = linalg.zeros(rows, cols)
            for i in range(self.dims[a.tgt]):
                for j in range(self.dims[a.src]):
                    m[i][j] = m1[i][j]
            for i in range(other.dims[a.tgt]):
                for j in range(other.dims[a.src]):
                    m[self.dims[a.tgt] + i][self.dims[a.src] + j] = m2[i][j]
            mats[aid] = m
        return QuiverRep(self.quiver, dims, mats, check=False)


def zero_rep(q: BoundQuiver) -> QuiverRep:
    return QuiverRep(q, (0,) * q.n, {}, check=False)


def string_module(q: BoundQuiver, w: StringWord) -> QuiverRep:
    """The standard string module: one basis vector per walk vertex."""
    validate_word(q, w)
    verts = word_vertices(q, w)
    positions = {}  # vertex -> list of walk indices
    for idx, v in enumerate(verts):
        positions.setdefault(v, []).append(idx)
    dims = [len(positions.get(v, ())) for v in range(q.n)]
    coord = {}
    for v, idxs in positions.items():
        for local, idx in enumerate(idxs):
            coord[idx] = (v, local)
    mats = {aid: linalg.zeros(dims[q.arrow(aid).tgt], dims[q.arrow(aid).src])
            for aid in q.arrows}
    for pos, (aid, inv) in enumerate(w.letters):
        if not inv:
            src_idx, tgt_idx = pos, pos + 1
        else:
            src_idx, tgt_idx = pos + 1, pos
        _, sl = coord[src_idx]
        _, tl = coord[tgt_idx]
        mats[aid][tl][sl] = 1
    return QuiverRep(q, dims, mats)


def projective_module(q: BoundQuiver, i) -> QuiverRep:
    """The projective at vertex i with basis the relation-avoiding paths."""
    paths = projective_paths(q, i)
    by_vertex = {}
    index = {}
    for path, end in paths:
        index[path] = (end, len(by_vertex.setdefault(end, [])))
        by_vertex[end].append(path)
    dims = [len(by_vertex.get(v, ())) for v in range(q.n)]
    mats = {aid: linalg.zeros(dims[q.arrow(aid).tgt], dims[q.arrow(aid).src])
            for aid in q.arrows}
    for path, end in paths:
        for a in q.arrows_from(end):
            if path and (path[-1], a.id) in q.relations:
                continue
            p2 = path + (a.id,)
            if p2 in index:
                _, tl = index[p2]
                _, sl = index[path]
                mats[a.id][tl][sl] = 1
    return QuiverRep(q, dims, mats)


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


class _ProjectiveSum:
    """A direct sum of projectives with the path basis kept explicit.

    Basis elements are (summand, path) pairs; `vertex_basis[v]` lists the
    elements sitting at vertex v, and `pos[(summand, path)]` locates one as
    (vertex, offset).
    """

    def __init__(self, q: BoundQuiver, tops):
        self.q = q
        self.tops = list(tops)  # vertex of each summand
        self.vertex_basis = {v: [] for v in range(q.n)}
        self.pos = {}
        for s, top in enumerate(self.tops):
            for path, end in projective_paths(q, top):
                self.pos[(s, path)] = (end, len(self.vertex_basis[end]))
                self.vertex_basis[end].append((s, path))
        self.dims = [len(self.vertex_basis[v]) for v in range(q.n)]

    def arrow_image(self, element, aid):
        """Image of a basis element under the arrow action, or None."""
        s, path = element
        if path and (path[-1], aid) in self.q.relations:
            return None
        return (s, path + (aid,))


def _apply_path(q: BoundQuiver, m: QuiverRep, vec, start, path):
    v = start
    out = vec
    for aid in path:
        out = linalg.mat_vec(m.mats[aid], out)
        v = q.arrow(aid).tgt
    return out, v


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
    # images of P0 basis elements in M
    image = {}
    for (s, path), _ in p0.pos.items():
        vec, _ = _apply_path(q, m, gens[s][1], tops0[s], path)
        image[(s, path)] = vec
    # kernel of P0 -> M, vertexwise
    kernel_basis = {}
    for v in range(q.n):
        basis = p0.vertex_basis[v]
        if not basis:
            kernel_basis[v] = []
            continue
        rows = []
        for i in range(m.dims[v]):
            rows.append([image[el][i] for el in basis])
        kern = linalg.nullspace(rows, len(basis)) if rows else \
            linalg.identity(len(basis))
        kernel_basis[v] = kern
    kdims = [len(kernel_basis[v]) for v in range(q.n)]
    # kernel as a representation: arrows act through P0
    kmats = {}
    for aid, a in q.arrows.items():
        rows_target = kernel_basis[a.tgt]
        mat = linalg.zeros(kdims[a.tgt], kdims[a.src])
        if kdims[a.src] and kdims[a.tgt]:
            # express each mapped kernel vector in the target kernel basis
            target_cols = [list(col) for col in zip(*rows_target)] \
                if rows_target else []
            for j, kv in enumerate(kernel_basis[a.src]):
                img = _p0_arrow_apply(p0, q, kv, a)
                if not any(img):
                    continue
                sol = linalg.solve(target_cols, img, kdims[a.tgt])
                if sol is None:
                    raise AssertionError("kernel is not arrow-stable")
                for i in range(kdims[a.tgt]):
                    mat[i][j] = sol[i]
        kmats[aid] = mat
    krep = QuiverRep(q, kdims, kmats, check=False)
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


def _p0_arrow_apply(p0: _ProjectiveSum, q: BoundQuiver, coords, arrow):
    out = [0] * p0.dims[arrow.tgt]
    for j, el in enumerate(p0.vertex_basis[arrow.src]):
        if coords[j]:
            img = p0.arrow_image(el, arrow.id)
            if img is not None and img in p0.pos:
                _, ti = p0.pos[img]
                out[ti] += coords[j]
    return out


def ar_translate(q: BoundQuiver, m: QuiverRep) -> QuiverRep:
    """The Auslander-Reiten translate D Tr M.

    Projective summands of M die in the minimal presentation, so they
    contribute zero, matching the usual convention.
    """
    if m.is_zero():
        return zero_rep(q)
    tops0, tops1, entries = minimal_presentation(q, m)
    if not tops1:
        return zero_rep(q)  # M projective
    qop = q.opposite()
    # transpose: map  +P^op(tops0[i]) -> +P^op(tops1[l]), entry (l, i) given
    # by the reversed paths
    src = _ProjectiveSum(qop, tops0)
    dst = _ProjectiveSum(qop, tops1)
    # columns of the transposed map, expressed vertexwise over dst's basis
    image_vectors = {v: [] for v in range(q.n)}
    for (i, path0), (v, off) in src.pos.items():
        # image of basis element (i, path0): for each l, (rev entry) then path0
        out = [0] * dst.dims[v]
        for l in range(len(tops1)):
            for path, coef in entries.get((i, l), ()):
                rev = tuple(reversed(path))
                full = rev + path0
                if not qop.path_is_nonzero(full):
                    continue
                key = (l, full)
                if key in dst.pos:
                    _, ti = dst.pos[key]
                    out[ti] += coef
        image_vectors[v].append(((i, path0), out))
    # cokernel of the transposed map, vertexwise
    proj = {}
    sect = {}
    cdims = []
    for v in range(q.n):
        vecs = [vec for _, vec in image_vectors[v] if any(vec)]
        p, s = linalg.column_space_projection(vecs, dst.dims[v])
        proj[v] = p
        sect[v] = s
        cdims.append(len(p))
    cmats = {}
    for aid, a in qop.arrows.items():
        # arrow action on the cokernel: lift, act in dst, project
        mat = linalg.zeros(cdims[a.tgt], cdims[a.src])
        for cj in range(cdims[a.src]):
            lift = [sect[a.src][i][cj] for i in range(dst.dims[a.src])]
            acted = [0] * dst.dims[a.tgt]
            for j, el in enumerate(dst.vertex_basis[a.src]):
                if lift[j]:
                    img = dst.arrow_image(el, aid)
                    if img is not None and img in dst.pos:
                        _, ti = dst.pos[img]
                        acted[ti] += lift[j]
            projected = linalg.mat_vec(proj[a.tgt], acted)
            for i in range(cdims[a.tgt]):
                mat[i][cj] = projected[i]
        cmats[aid] = mat
    # dualize back to the original quiver: spaces keep their dimension,
    # arrow matrices are the transposes of the opposite-arrow actions
    dims = cdims
    dmats = {}
    for aid, a in q.arrows.items():
        dmats[aid] = linalg.transpose(cmats[aid]) if cmats[aid] else \
            linalg.zeros(dims[a.tgt], dims[a.src])
    tau = QuiverRep(q, dims, dmats, check=False)
    tau._check_relations()
    return tau


def is_tau_rigid(q: BoundQuiver, m: QuiverRep) -> bool:
    if m.is_zero():
        return True
    return hom_dim(q, m, ar_translate(q, m)) == 0


class StringInventory:
    """Cached per-algebra data: string modules, translates, rigidity, Hom.

    `tau_hits` and `tau_misses` count the translate lookups answered from
    the cache and the ones that computed a translate.
    """

    def __init__(self, q: BoundQuiver):
        self.q = q
        self._module = {}
        self._tau = {}
        self._rigid = {}
        self._compat = {}
        self.tau_hits = self.tau_misses = 0

    def module(self, w: StringWord) -> QuiverRep:
        key = (w.letters, w.base)
        if key not in self._module:
            self._module[key] = string_module(self.q, w)
        return self._module[key]

    def tau(self, w: StringWord) -> QuiverRep:
        key = (w.letters, w.base)
        if key in self._tau:
            self.tau_hits += 1
        else:
            self.tau_misses += 1
            self._tau[key] = ar_translate(self.q, self.module(w))
        return self._tau[key]

    def rigid(self, w: StringWord) -> bool:
        key = (w.letters, w.base)
        if key not in self._rigid:
            self._rigid[key] = hom_dim(self.q, self.module(w), self.tau(w)) == 0
        return self._rigid[key]

    def compatible(self, w1: StringWord, w2: StringWord) -> bool:
        """Whether the direct sum of the two rigid strings stays rigid."""
        k1, k2 = (w1.letters, w1.base), (w2.letters, w2.base)
        key = (min(k1, k2), max(k1, k2))
        if key not in self._compat:
            self._compat[key] = (
                hom_dim(self.q, self.module(w1), self.tau(w2)) == 0
                and hom_dim(self.q, self.module(w2), self.tau(w1)) == 0)
        return self._compat[key]


def enumerate_tau_rigid(inv: StringInventory, cap=None):
    """(sorted list of (StringWord, dim vector), truncated flag) for the
    algebra of the inventory, which keeps the modules and translates.

    Strings are enumerated up to the cap (default: twice the arrow count
    plus two) and filtered by tau-rigidity of the string module.
    """
    from .quiver import enumerate_strings, letter_graph_acyclic

    q = inv.q
    if cap is None:
        acyclic, longest = letter_graph_acyclic(q)
        cap = longest if acyclic else 2 * len(q.arrows) + 2
        cap = max(cap, 1)
    strings, truncated = enumerate_strings(q, cap)
    if truncated:
        import warnings
        warnings.warn("string enumeration reached the length cap; "
                      "the tau-rigid list may be incomplete")
    out = []
    for w in strings:
        if inv.rigid(w):
            out.append((w, inv.module(w).dim_vector()))
    out.sort(key=lambda t: (len(t[0].letters), t[0].letters, t[0].base))
    return out, truncated
