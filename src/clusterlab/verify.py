"""Theorem-verification harnesses and structured reports.

Each harness enumerates a finite instance family exhaustively, checks the
claimed property with exact arithmetic, and returns a VerifyReport.  Failures
always carry a concrete witness; truncations name the exceeded bound.
Enumeration order is deterministic, so identical parameters reproduce
identical verdicts, counts and witnesses, and hence the same result digest;
only the timings differ between runs.

Every harness body runs in one report frame, `_harness`, which builds the
report from the call's arguments, zeroes its phases and times the call.  A
cross-check that disagrees, in a harness or in the library beneath it, raises
`WitnessedFault`; the frame records its witness as the failure.  Loops over
a family stop at the first failure (`_until_failed`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import time
from dataclasses import dataclass, field

from . import linalg
from .errors import WitnessedFault
from .explore import (_compatible_multisets, enumerate_monomials, explore,
                      monomial_vectors, standard_matrix)
from .modules import StringInventory, enumerate_tau_rigid, string_order
from .quiver import (Arrow, BoundQuiver, StringWord, canonical_word,
                     cartan_matrix, check_gentle, check_qb_conditions,
                     detect_even_full_cycle, letter_graph_acyclic,
                     type_c_quiver)
from .tiling import (ArcMultiset, DiscTiling, _chords_in_taxonomy,
                     _noncrossing_chord_sets, b_matrix_from_triangulation,
                     chords_interleave, disc_tilings, geometric_disc_arcs,
                     seg_profile)


@dataclass
class VerifyReport:
    experiment: str
    params: dict
    verdict: str = "pass"  # pass | fail | truncated
    witnesses: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    duration_s: float = 0.0
    # seconds per phase; timing, so neither a count nor part of the result
    phases: dict = field(default_factory=dict)
    # cache and reuse counts; how the work was shared, not part of the result
    cache: dict = field(default_factory=dict)

    def fail(self, witness):
        self.verdict = "fail"
        self.witnesses.append(witness)

    @property
    def result_digest(self):
        """sha256 of the verdict, counts and witnesses as they read in the
        JSON report, keys sorted; timings and cache counts are left out, so
        equal results give equal digests across runs."""
        core = json.loads(json.dumps(
            {"verdict": self.verdict, "counts": self.counts,
             "witnesses": self.witnesses}, default=str))
        return hashlib.sha256(
            json.dumps(core, sort_keys=True).encode()).hexdigest()

    def to_dict(self):
        return {"experiment": self.experiment, "params": self.params,
                "verdict": self.verdict, "witnesses": self.witnesses,
                "counts": self.counts, "duration_s": round(self.duration_s, 3),
                "phases": {k: round(v, 3) for k, v in self.phases.items()},
                "cache": self.cache,
                "result_digest": self.result_digest}

    def to_json(self):
        return json.dumps(self.to_dict(), default=str)


def write_report(report: VerifyReport, directory):
    """Append the report to a JSON-lines file named by experiment and
    parameter hash."""
    import pathlib

    d = pathlib.Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    h = hashlib.sha256(
        json.dumps(report.params, sort_keys=True, default=str).encode()
    ).hexdigest()[:12]
    path = d / f"{report.experiment}-{h}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    return path


@contextlib.contextmanager
def _phase(report, name):
    """Add the time the block takes to report.phases[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report.phases[name] += time.perf_counter() - start


def _harness(experiment, *phases):
    """Turn `body(report, *params)` into the harness taking `params`: it
    builds the `experiment` report with the bound arguments as params,
    zeroes `phases`, times the body and fails the report with the witness of
    a `WitnessedFault` raised beneath it."""
    def decorate(body):
        signature = inspect.signature(body)
        signature = signature.replace(
            parameters=tuple(signature.parameters.values())[1:])

        @functools.wraps(body)
        def harness(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            report = VerifyReport(experiment, dict(bound.arguments))
            report.phases = dict.fromkeys(phases, 0.0)
            start = time.perf_counter()
            try:
                body(report, *bound.args, **bound.kwargs)
            except WitnessedFault as fault:
                report.fail(fault.witness)
            report.duration_s = time.perf_counter() - start
            return report

        harness.__signature__ = signature
        return harness
    return decorate


def _until_failed(report, members):
    """The members, up to the first one reached once the report has failed:
    a harness stops at its first failure, whose witness is recorded."""
    return itertools.takewhile(lambda _: report.verdict != "fail", members)


# ---------------------------------------------------------------------------
# intersection-vector injectivity over disc tilings


def _field_width(vectors, cap):
    """Bits per field that hold any sum of at most cap of the vectors'
    entries (all non-negative)."""
    return (cap * max((x for v in vectors for x in v), default=0)).bit_length()


def _pack(values, width):
    """values[k] in bits k * width onwards of one int; each value must be
    non-negative and below 2 ** width."""
    x = 0
    for k, v in enumerate(values):
        x |= v << (width * k)
    return x


def _unpack(x, n, width):
    """The n fields of `_pack`'s int, as a tuple."""
    field = (1 << width) - 1
    return tuple(x >> (width * k) & field for k in range(n))


def _arc_weights(t, arcs, mult_cap):
    """Weight rows for the thm1 sweep, and the profile layout (keys, width).

    A row packs the arc's intersection vector into its low len(t.arcs)
    fields and its `seg_profile` above them, one field per key of the sorted
    keys of all the arcs' profiles.  Every field is wide enough for mult_cap
    times the largest entry, so sums of at most mult_cap rows never carry;
    as both parts are additive, a multiset's weight & mask packs its
    intersection vector and weight >> shift its profile, with
    shift = width * len(t.arcs) and mask = (1 << shift) - 1.
    """
    profiles = [seg_profile(t, ArcMultiset(((arc, 1),))) for arc in arcs]
    keys = sorted(set().union(*profiles))
    width = _field_width([arc.intersection for arc in arcs]
                         + [p.values() for p in profiles], mult_cap)
    shift = width * len(t.arcs)
    return [_pack(arc.intersection, width)
            | _pack([p.get(key, 0) for key in keys], width) << shift
            for arc, p in zip(arcs, profiles)], (keys, width)


def _signature_labellings(n, ends):
    """Vertex labellings p (p[v] is the new label of vertex v) that list the
    vertices by increasing signature (out-degree, in-degree, loops), in
    every order within each block of equal signatures.  `ends` holds one
    (source, target) pair per arrow.

    Isomorphisms preserve signatures, so the least image of a quiver's
    encoding over these labellings is a canonical form, just as the least
    image over all n! labellings is.
    """
    out, inc, loops = [0] * n, [0] * n, [0] * n
    for s, t in ends:
        out[s] += 1
        inc[t] += 1
        loops[s] += s == t
    sig = list(zip(out, inc, loops))
    blocks = [list(block) for _, block in itertools.groupby(
        sorted(range(n), key=sig.__getitem__), key=sig.__getitem__)]
    for orders in itertools.product(*map(itertools.permutations, blocks)):
        p = [0] * n
        for label, v in enumerate(itertools.chain.from_iterable(orders)):
            p[v] = label
        yield p


def _algebra_class(q):
    """(key, p): the isomorphism class of the bound quiver and a vertex
    labelling p attaining it.

    The key is (vertex count, sorted (source, target) arrow list, sorted
    relation pairs of such arrows), least over `_signature_labellings`.
    Arrows are named by their ends, so parallel arrows raise ValueError
    rather than let two classes share a key.
    """
    ends_of = {a.id: (a.src, a.tgt) for a in q.arrows.values()}
    ends = list(ends_of.values())
    if len(set(ends)) != len(ends):
        raise ValueError("the class key cannot tell parallel arrows apart")
    rels = [(ends_of[a], ends_of[b]) for a, b in q.relations]
    best = None
    for p in _signature_labellings(q.n, ends):
        key = (q.n, tuple(sorted((p[s], p[t]) for s, t in ends)),
               tuple(sorted(((p[s], p[t]), (p[u], p[v]))
                            for (s, t), (u, v) in rels)))
        if best is None or key < best[0]:
            best = (key, p)
    return best


def _class_arrow(ends):
    """Id of the arrow with these (source, target) ends in a class quiver."""
    return f"a{ends[0]}_{ends[1]}"


def _class_quiver(key):
    """The canonical bound quiver of an `_algebra_class` key."""
    n, ends, rels = key
    return BoundQuiver(n, [Arrow(_class_arrow(e), *e) for e in ends],
                       [(_class_arrow(a), _class_arrow(b)) for a, b in rels])


def _class_record(key):
    """(rigid words, truncated flag, clash masks) of the class quiver.

    The words are `enumerate_tau_rigid`'s; bit j of clashes[i] is set when
    words j < i are not compatible.  The inventory is dropped: the sweep asks
    every such pair anyway, and one int per word is all it needs later.
    """
    inv = StringInventory(_class_quiver(key))
    rigid, truncated = enumerate_tau_rigid(inv)
    words = [w for w, _ in rigid]
    clashes = [sum(1 << j for j in range(i)
                   if not inv.compatible(w, words[j]))
               for i, w in enumerate(words)]
    return words, truncated, clashes


def _tiling_arcs(t, classes):
    """(arcs, truncated flag, compatible(i, j)) of the tiling, read from the
    record of its algebra's class in `classes` (built on the class's first
    tiling).

    The class words are mapped onto the tiling algebra's arrows,
    re-canonicalised there and sorted as `enumerate_tau_rigid` sorts, so the
    arcs come in the order the tiling's own inventory would give.
    `compatible` reads the clash bit.
    """
    q, _ = t.algebra()
    key, p = _algebra_class(q)
    if key not in classes:
        classes[key] = _class_record(key)
    words, truncated, clashes = classes[key]
    vertex = {label: v for v, label in enumerate(p)}
    arrow = {_class_arrow((p[a.src], p[a.tgt])): a.id
             for a in q.arrows.values()}
    mapped = []  # (word of q, index of its class word)
    for k, w in enumerate(words):
        letters = tuple((arrow[c], inv) for c, inv in w.letters)
        mapped.append(
            (canonical_word(q, StringWord(letters, vertex[w.base])), k))
    mapped.sort(key=lambda wk: string_order(wk[0]))
    arcs = [t.arc_from_word(w) for w, _ in mapped]

    def compatible(i, j):
        a, b = mapped[i][1], mapped[j][1]
        return not clashes[max(a, b)] >> min(a, b) & 1

    return arcs, truncated, compatible


@_harness("thm1-intersection-injectivity", "tilings", "arcs", "multisets")
def verify_thm1(report, marked_max=8, mult_cap=3):
    """Intersection vectors determine compatible multisets on admissible
    disc tilings; even type V tilings yield explicit counterexamples.

    Each dissection of the 4- to marked_max-gon is first tested on its
    chords (`_chords_in_taxonomy`): those with a tile outside types III-V
    are counted under `outside_taxonomy`, and only the others are built as
    combinatorial maps and classified, so a classification error on one of
    them is a fault and propagates.

    The tau-rigid strings and their pairwise compatibility depend only on
    the isomorphism class of the tiling algebra, so they are computed once
    per class (`_algebra_class`, `_class_record`); each tiling maps the
    class words back onto its own arrows and builds its arcs from them, in
    the order `enumerate_tau_rigid` gives (`_tiling_arcs`), and
    `_dual_path_check` checks them against chord geometry.  The intersection
    vector and the segment profile of each multiset are accumulated arc by
    arc as the sweep extends it, both packed in one int per multiset (see
    `_arc_weights`); neither is recomputed from the whole multiset.

    Phases: `tilings` (chord sets, the taxonomy test, maps and their
    classification; timed once per polygon and once per tiling), `arcs`
    (per-class strings, arcs and the chord oracle) and `multisets` (the
    sweep with its compatibility tests), both timed once per tiling.
    """
    tilings = unclassifiable = passing = failing = 0
    multisets_checked = 0
    converse_found = []
    classes = {}  # _algebra_class key -> _class_record
    for m in _until_failed(report, range(4, marked_max + 1)):
        with _phase(report, "tilings"):
            chord_sets = []
            for chords in _noncrossing_chord_sets(m):
                if _chords_in_taxonomy(m, chords):
                    chord_sets.append(chords)
                else:
                    unclassifiable += 1
        for chords in _until_failed(report, chord_sets):
            with _phase(report, "tilings"):
                disc = DiscTiling(m, chords)
                t = disc.to_complex()
                t.classify_tiles()
            tilings += 1
            with _phase(report, "arcs"):
                arcs, truncated, compatible = _tiling_arcs(t, classes)
                if not truncated:
                    _dual_path_check(disc, arcs, compatible)
            if truncated:
                report.verdict = "truncated"
                report.witnesses.append(
                    {"bound": "string cap", "tiling": disc.chords})
                continue
            n_arcs = len(t.arcs)
            by_vec = {}
            by_profile = {}
            collision = None
            with _phase(report, "multisets"):
                weights, (_, width) = _arc_weights(t, arcs, mult_cap)
                shift = width * n_arcs
                mask = (1 << shift) - 1
                for chosen, weight in _compatible_multisets(
                        compatible, weights, mult_cap):
                    multisets_checked += 1
                    vec = weight & mask
                    if vec in by_vec:
                        collision = (by_vec[vec], chosen, vec)
                    else:
                        by_vec[vec] = chosen
                    prof = weight >> shift
                    if prof in by_profile:
                        report.fail({
                            "check": "seg-profile collision",
                            "tiling": disc.chords,
                            "multisets": [by_profile[prof], chosen]})
                    else:
                        by_profile[prof] = chosen
            witness = None if collision is None else {
                "vector": _unpack(collision[2], n_arcs, width),
                "multisets": [_multiset_desc(arcs, collision[0]),
                              _multiset_desc(arcs, collision[1])]}
            if t.forbidden_tile_scan():
                passing += 1
                if witness is not None:
                    report.fail({
                        "check": "injectivity broken on admissible tiling",
                        "tiling": disc.chords, **witness})
            else:
                failing += 1
                if witness is not None:
                    converse_found.append(
                        {"tiling": (m, disc.chords), **witness})
    report.counts = {
        "tilings": tilings, "outside_taxonomy": unclassifiable,
        "admissible": passing, "forbidden": failing,
        "multisets": multisets_checked,
        "converse_witnesses": len(converse_found)}
    report.cache = {"algebra_classes": len(classes),
                    "class_reuses": tilings - len(classes)}
    if converse_found:
        report.witnesses.append({"converse": converse_found[0]})
    octagon_square = any(w["tiling"] == (8, ((1, 3), (1, 7), (3, 5), (5, 7)))
                         for w in converse_found)
    # the smallest octagon witness sets two arcs against two others, so
    # none exists below total multiplicity 2
    if marked_max >= 8 and mult_cap >= 2 and not octagon_square:
        report.fail({"converse": "no collision found on the octagon "
                                 "central-square tiling"})


def _multiset_desc(arcs, chosen):
    return [{"endpoints": tuple(p + 1 for p in arcs[i].endpoints),
             "mult": mult} for i, mult in chosen]


def _dual_path_check(disc, arcs, compatible):
    """Check the string route's arcs of the disc tiling, as (endpoints,
    intersection vector) pairs, and `compatible(i, j)` against chord
    geometry: the arcs of `geometric_disc_arcs`, and chords that do not
    interleave.  A disagreement raises `WitnessedFault`."""
    string = sorted((tuple(sorted(p + 1 for p in a.endpoints)), a.intersection)
                    for a in arcs)
    geometric = sorted((g["endpoints"], g["vector"])
                       for g in geometric_disc_arcs(disc))
    if string != geometric:
        raise WitnessedFault({"check": "string and geometric arcs differ",
                              "tiling": disc.chords, "string": string,
                              "geometric": geometric})
    for i, j in itertools.combinations(range(len(arcs)), 2):
        ok = compatible(i, j)
        if ok == chords_interleave(arcs[i].endpoints, arcs[j].endpoints):
            raise WitnessedFault({
                "check": "module and chord compatibility differ",
                "tiling": disc.chords, "module": ok, "endpoints": [
                    tuple(p + 1 for p in arcs[k].endpoints) for k in (i, j)]})


# ---------------------------------------------------------------------------
# the dimension-vector dichotomy over gentle algebras


def _arrow_grids(n, arrow_max):
    """All in/out-degree <= 2 arrow-count grids with at most arrow_max arrows."""
    rows = []
    cells = [(i, j) for i in range(n) for j in range(n)]

    def rec(idx, grid, total, out_deg, in_deg):
        if idx == len(cells):
            if total:
                rows.append(dict(grid))
            return
        i, j = cells[idx]
        max_here = min(2 - out_deg[i], 2 - in_deg[j], arrow_max - total)
        for c in range(max_here + 1):
            if c:
                grid[(i, j)] = c
                out_deg[i] += c
                in_deg[j] += c
            rec(idx + 1, grid, total + c, out_deg, in_deg)
            if c:
                del grid[(i, j)]
                out_deg[i] -= c
                in_deg[j] -= c

    rec(0, {}, 0, [0] * n, [0] * n)
    return rows


def _connected(n, grid):
    adj = {v: set() for v in range(n)}
    for (i, j) in grid:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@functools.cache
def _local_relation_patterns(n_in, n_out):
    """The G2/G3-admissible relation sets at a vertex with n_in incoming and
    n_out outgoing arrows, as tuples of (in position, out position) pairs:
    smaller sets first, then in `itertools.combinations` order.

    Positions within the in- and the out-arrows are distinct arrows (a loop
    takes one position on each side), so the admissible sets depend only on
    the two counts.
    """
    pairs = [(i, j) for i in range(n_in) for j in range(n_out)]
    options = []
    for subset in itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)):
        per_in = [0] * n_in
        per_out = [0] * n_out
        for i, j in subset:
            per_in[i] += 1
            per_out[j] += 1
        if all(c <= 1 and n_out - c <= 1 for c in per_in) and \
                all(c <= 1 and n_in - c <= 1 for c in per_out):
            options.append(subset)
    return tuple(options)


def _relation_choices(n, arrows):
    """All G2/G3-admissible relation sets for the arrow list."""
    by_vertex = []
    for v in range(n):
        ins = [a.id for a in arrows if a.tgt == v]
        outs = [a.id for a in arrows if a.src == v]
        by_vertex.append([
            frozenset((ins[i], outs[j]) for i, j in subset)
            for subset in _local_relation_patterns(len(ins), len(outs))])
    for combo in itertools.product(*by_vertex):
        yield frozenset().union(*combo)


def _grid_key(n, grid):
    """The least sorted arrow list, one (source, target) pair per arrow, over
    the `_signature_labellings` of the arrow-count grid; two grids get the
    same key exactly when they are isomorphic."""
    arrows = [ij for ij, c in grid.items() for _ in range(c)]
    return min(tuple(sorted((p[i], p[j]) for i, j in arrows))
               for p in _signature_labellings(n, arrows))


def _automorphisms(n, arrows):
    """The quiver's automorphisms as arrow-id maps: each vertex permutation
    that fixes the arrow-count grid, combined with each ordering of each
    group of parallel arrows."""
    groups = {}
    for a in arrows:
        groups.setdefault((a.src, a.tgt), []).append(a.id)
    maps = []
    for p in itertools.permutations(range(n)):
        images = [groups.get((p[i], p[j]), ()) for i, j in groups]
        if any(len(ids) != len(image)
               for ids, image in zip(groups.values(), images)):
            continue
        for orders in itertools.product(*map(itertools.permutations, images)):
            maps.append({a: b for ids, order in zip(groups.values(), orders)
                         for a, b in zip(ids, order)})
    return maps


def _canonical_bound_quiver(automorphisms, relations):
    """The least image of the relation set under the quiver's automorphisms:
    equal for two relation sets on one quiver exactly when an automorphism
    maps one to the other."""
    return min(tuple(sorted((g[a], g[b]) for a, b in relations))
               for g in automorphisms)


def enumerate_gentle_algebras(vertex_max, arrow_max):
    """Connected gentle bound quivers up to isomorphism: the first gentle
    member of each class, in enumeration order (vertex count, then arrow
    grid, then relation set).

    Only the first grid of each isomorphism class of grids is visited, and
    on it only the first relation set of each automorphism orbit (orderly
    generation).  This still finds the first member of every class:
    isomorphic bound quivers have isomorphic grids, and each bound quiver on
    a later grid of a class has an isomorphic copy on the first grid of that
    class, so every class first appears there; and two relation sets on one
    grid give isomorphic bound quivers exactly when an automorphism of the
    grid's quiver maps one to the other.
    """
    out = []
    for n in range(1, vertex_max + 1):
        grid_classes = set()
        for grid in _arrow_grids(n, arrow_max):
            if not _connected(n, grid):
                continue
            grid_key = _grid_key(n, grid)
            if grid_key in grid_classes:
                continue
            grid_classes.add(grid_key)
            arrows = [Arrow(f"a{i}_{j}_{k}", i, j)
                      for (i, j), c in sorted(grid.items()) for k in range(c)]
            automorphisms = _automorphisms(n, arrows)
            orbits = set()
            for rels in _relation_choices(n, arrows):
                key = _canonical_bound_quiver(automorphisms, rels)
                if key in orbits:
                    continue
                orbits.add(key)
                q = BoundQuiver(n, arrows, rels)
                if check_gentle(q).ok:
                    out.append(q)
    return out


def _rigid_multisets(rigid, inv, cap):
    """(width, sweep): `_compatible_multisets` over the tau-rigid strings
    `rigid` of the inventory up to total multiplicity `cap`, their
    compatibility read from the inventory and their dimension vectors
    packed `width` bits a field (`_pack`)."""
    words = [w for w, _ in rigid]
    width = _field_width([d for _, d in rigid], cap)
    return width, _compatible_multisets(
        lambda i, j: inv.compatible(words[i], words[j]),
        [_pack(d, width) for _, d in rigid], cap)


def _dim_collision(rigid, inv, cap):
    """The first collision of total dimension vectors among compatible
    multisets: (earlier multiset, later multiset, vector), or None.  The
    vectors are swept packed (`_rigid_multisets`)."""
    width, multisets = _rigid_multisets(rigid, inv, cap)
    next(multisets)  # the empty multiset
    by_vec = {}
    for chosen, vec in multisets:
        if vec in by_vec:
            return (by_vec[vec], chosen, _unpack(vec, inv.q.n, width))
        by_vec[vec] = chosen
    return None


@_harness("thm2-dimension-dichotomy", "enumerate", "tau", "collisions")
def verify_thm2(report, vertex_max=4, arrow_max=6, mult_cap=3):
    """Even full-relation cycles exist exactly when distinct tau-rigid
    modules share a dimension vector; Cartan determinant cross-check.  The
    `collisions` phase includes the Hom computations of the compatibility
    tests."""
    with _phase(report, "enumerate"):
        algebras = enumerate_gentle_algebras(vertex_max, arrow_max)
    finite = skipped = with_cycle = without_cycle = 0
    max_cap_needed = 0
    report.cache = {"tau_hits": 0, "tau_misses": 0}
    for q in _until_failed(report, algebras):
        acyclic, _ = letter_graph_acyclic(q)
        if not acyclic:
            skipped += 1
            continue
        finite += 1
        cycle = detect_even_full_cycle(q)
        _, det = cartan_matrix(q)
        if (det == 0) != (cycle is not None):
            report.fail({"check": "cartan-determinant",
                         "quiver": q.to_json(), "det": det,
                         "even_cycle": cycle})
            continue
        with _phase(report, "tau"):
            inv = StringInventory(q)
            rigid, _ = enumerate_tau_rigid(inv)
        if cycle is None:
            without_cycle += 1
            with _phase(report, "collisions"):
                coll = _dim_collision(rigid, inv, mult_cap)
            if coll is not None:
                report.fail({"check": "injectivity broken without even cycle",
                             "quiver": q.to_json(), "vector": coll[2]})
        else:
            with_cycle += 1
            found = None
            with _phase(report, "collisions"):
                for cap in range(2, max(mult_cap, q.n + 2) + 1):
                    found = _dim_collision(rigid, inv, cap)
                    if found is not None:
                        max_cap_needed = max(max_cap_needed, cap)
                        break
            if found is None:
                report.fail({"check": "no collision despite even cycle",
                             "quiver": q.to_json()})
        report.cache["tau_hits"] += inv.tau_hits
        report.cache["tau_misses"] += inv.tau_misses
    report.counts = {"algebras": len(algebras),
                     "representation_finite": finite,
                     "representation_infinite_skipped": skipped,
                     "with_even_cycle": with_cycle,
                     "without_even_cycle": without_cycle,
                     "max_multiplicity_needed": max_cap_needed}


# ---------------------------------------------------------------------------
# cluster monomials told apart by their vectors


def _check_injectivity(graph, degree_cap, kind, where, report):
    """Count the monomials of degree <= degree_cap, failing on the first two
    whose `kind` vectors ("d" or "fbar") agree; returns the count so far."""
    seen = {}
    count = 0
    for key in enumerate_monomials(graph, degree_cap):
        count += 1
        vec = monomial_vectors(graph, key)[kind]
        if vec in seen:
            report.fail({"where": where, kind: vec,
                         "monomials": [seen[vec], key]})
            break
        seen[vec] = key
    return count


# ---------------------------------------------------------------------------
# f-vector injectivity for type A via discs


@_harness("thm3-fbar-injectivity", "monomials", "triangulations")
def verify_fvector_injectivity(report, n_max=3, degree_cap=3):
    """Modified f-vectors separate cluster monomials in type A; intersection
    vectors of polygon arcs match the f-vectors of their cluster variables.

    The f-vectors depend only on the exchange matrix, and triangulations of
    one polygon share matrices, so each distinct matrix is explored once per
    call; the arcs are still enumerated for every triangulation.  Phases:
    `monomials`, timed once per rank, and `triangulations`, once per polygon.
    """
    totals = {}
    for n in _until_failed(report, range(2, n_max + 1)):
        where = f"A{n}"
        with _phase(report, "monomials"):
            graph = explore(standard_matrix("A", n))
            totals[f"{where}_monomials"] = _check_injectivity(
                graph, degree_cap, "fbar", where, report)
        # initial fbar vectors are the d-vectors -e_k, so no non-initial
        # monomial (fbar nonnegative) can collide with them; the root's
        # variables x_1..x_n are interned first, in cluster order
        for k, info in enumerate(graph.variables[:n]):
            if info.d != tuple(-1 if r == k else 0 for r in range(n)):
                report.fail({"where": where, "check": "initial d-vector",
                             "variable": info.poly.to_str(), "d": info.d})
    # cross-check: arcs of triangulated polygons against cluster f-vectors
    matched = 0
    f_vectors = {}  # matrix -> sorted f-vectors of its non-initial variables
    for m in _until_failed(report, range(5, n_max + 4)):
        with _phase(report, "triangulations"):
            for disc in _until_failed(report, disc_tilings(m)):
                if len(disc.chords) != m - 3:
                    continue
                t = disc.to_complex()
                b = b_matrix_from_triangulation(t)
                if b not in f_vectors:
                    f_vectors[b] = sorted(
                        info.f for info in explore(b).variables
                        if not info.initial)
                arcs, _ = t.enumerate_permissible_arcs()
                ivecs = sorted(a.intersection for a in arcs)
                if f_vectors[b] != ivecs:
                    report.fail({"triangulation": (m, disc.chords),
                                 "f_vectors": f_vectors[b],
                                 "intersection_vectors": ivecs})
                else:
                    matched += 1
    report.counts = {**totals, "triangulations_cross_checked": matched}


# ---------------------------------------------------------------------------
# denominator-vector injectivity for types A, B, C


def _check_d_columns_independent(graph, where, report):
    """Each cluster's d-vectors, as `explore` stored them, have full rank."""
    for vid, cluster in enumerate(graph.vertices):
        d_vectors = [graph.variables[i].d for i in cluster]
        if linalg.rank(d_vectors, graph.n) != graph.n:
            report.fail({"where": where, "check": "D-matrix rank",
                         "vertex": vid, "d_vectors": d_vectors})


@_harness("thm4-denominator-injectivity", "explore", "checks")
def verify_denominator(report, series="C", n_max=3, degree_cap=3,
                       initial_seeds="all"):
    """Denominator vectors separate bounded-degree cluster monomials, from
    every cluster of every explored finite-type pattern in the series.

    The explored graph and both checks depend only on the exchange matrix,
    and rerooted matrices repeat, so each distinct matrix is explored and
    checked once; its monomial count is added at every reroot.  Phases:
    `explore` and `checks` (both d-vector checks), timed once per distinct
    matrix.
    """
    monomials = 0
    reroots = 0

    def check(matrix, where):
        with _phase(report, "explore"):
            graph = explore(matrix)
        with _phase(report, "checks"):
            count = _check_injectivity(graph, degree_cap, "d", where,
                                       report)
            _check_d_columns_independent(graph, where, report)
        return graph, count

    for n in _until_failed(report, range(2, n_max + 1)):
        base = standard_matrix(series, n)
        graph, count = check(base, f"{series}{n} root")
        monomials += count
        # matrix -> monomial count; counts, not graphs, to keep memory flat
        counted = {base: count}
        if initial_seeds == "all":
            for vid in _until_failed(report, range(graph.cluster_count())):
                b_t = graph.reps[vid].matrix()
                if b_t not in counted:
                    counted[b_t] = check(
                        b_t, f"{series}{n} cluster {vid}")[1]
                reroots += 1
                monomials += counted[b_t]
    report.counts = {"monomials": monomials, "reroots": reroots}


@_harness("thm4-bc-duality", "explore", "checks")
def verify_denominator_duality(report, n_max=3, degree_cap=3,
                               initial_seeds="root"):
    """Paired B/C verdicts agree, mirroring the Langlands reduction.  The
    phases are the sums of the two `verify_denominator` runs' phases."""
    verdicts = {}
    for series in ("B", "C"):
        sub = verify_denominator(series=series, n_max=n_max,
                                 degree_cap=degree_cap,
                                 initial_seeds=initial_seeds)
        for name, seconds in sub.phases.items():
            report.phases[name] += seconds
        verdicts[series] = sub.verdict
        if sub.verdict != "pass":
            report.fail({"series": series, "witnesses": sub.witnesses})
    if verdicts["B"] != verdicts["C"]:
        report.fail({"check": "paired verdicts differ", "verdicts": verdicts})
    report.counts = {"verdicts": verdicts}


# ---------------------------------------------------------------------------
# type C categorification


def _tau_rigid_pairs(rigid, inv, cap):
    """(module multiset, projective multiset) pairs of total degree <= cap.

    The projective part P(i)^c needs Hom(P(i), M) = 0, i.e. the module part
    vanishes at vertex i; projectives are pairwise compatible.  The module
    dimension vectors are swept packed (`_rigid_multisets`) and unpacked
    once per module multiset.
    """
    n = inv.q.n
    width, multisets = _rigid_multisets(rigid, inv, cap)
    pairs = []
    for chosen, packed in multisets:
        mdim = _unpack(packed, n, width)
        total = sum(mult for _, mult in chosen)
        allowed = [v for v in range(n) if mdim[v] == 0]
        for part, _ in _compatible_multisets(
                lambda i, j: True, [0] * len(allowed), cap - total):
            if chosen or part:
                proj = tuple((allowed[k], c) for k, c in part)
                pairs.append((chosen, proj, mdim))
    return pairs


@_harness("typec-categorification", "tau", "pairs", "monomials")
def verify_type_c_categorification(report, n_max=2, degree_cap=3):
    """tau-rigid pairs of the type C quiver algebra match cluster monomials
    through the halved first dimension coordinate.

    Phases, timed once per rank: `tau` (the inventory and its tau-rigid
    strings), `pairs` (tau-rigid pairs and their vectors) and `monomials`
    (the exchange graph and its monomials' d-vectors).
    """
    if n_max < 2:
        raise ValueError("type C needs rank at least 2")
    report.cache = {"tau_hits": 0, "tau_misses": 0}
    for n in _until_failed(report, range(2, n_max + 1)):
        base = standard_matrix("C", n)
        q = type_c_quiver(base)
        cond = check_qb_conditions(q)
        if not all(cond.values()):
            report.fail({"rank": n, "check": "conditions (a)-(e)",
                         "result": cond})
        if detect_even_full_cycle(q) is not None:
            report.fail({"rank": n, "check": "unexpected even full cycle"})
        with _phase(report, "tau"):
            inv = StringInventory(q)
            rigid, truncated = enumerate_tau_rigid(inv)
        if truncated:
            report.verdict = "truncated"
            continue
        for _, d in rigid:
            if d[0] % 2 != 0:
                report.fail({"rank": n, "check": "odd first coordinate",
                             "dim": d})
        with _phase(report, "monomials"):
            graph = explore(base)
        # indecomposable level: adjusted dimensions vs non-initial d-vectors
        adjusted = sorted((d[0] // 2,) + tuple(d[1:]) for _, d in rigid)
        dvecs = sorted(info.d for info in graph.variables if not info.initial)
        if adjusted != dvecs:
            report.fail({"rank": n, "check": "indecomposable bijection",
                         "module_side": adjusted, "cluster_side": dvecs})
        # pair level, degree by degree
        with _phase(report, "pairs"):
            pairs = _tau_rigid_pairs(rigid, inv, degree_cap)
            module_vectors = {}
            for chosen, proj, mdim in pairs:
                deg = sum(m for _, m in chosen) + sum(c for _, c in proj)
                d = [mdim[0] // 2] + list(mdim[1:])
                for v, c in proj:
                    d[v] -= c
                module_vectors.setdefault(deg, []).append(tuple(d))
        report.cache["tau_hits"] += inv.tau_hits
        report.cache["tau_misses"] += inv.tau_misses
        with _phase(report, "monomials"):
            cluster_vectors = {}
            for key in enumerate_monomials(graph, degree_cap):
                deg = sum(e for _, e in key)
                d = monomial_vectors(graph, key)["d"]
                cluster_vectors.setdefault(deg, []).append(d)
        for deg in range(1, degree_cap + 1):
            left = sorted(module_vectors.get(deg, []))
            right = sorted(cluster_vectors.get(deg, []))
            if left != right:
                report.fail({"rank": n, "degree": deg,
                             "check": "pair bijection",
                             "module_side_count": len(left),
                             "cluster_side_count": len(right)})
        report.counts[f"C{n}_ind_tau_rigid"] = len(rigid)
        report.counts[f"C{n}_pairs"] = sum(
            len(v) for v in module_vectors.values())
