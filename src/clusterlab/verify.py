"""Theorem-verification harnesses and structured reports.

Each harness enumerates a finite instance family exhaustively, checks the
claimed property with exact arithmetic, and returns a VerifyReport whose
verdict is pass or fail.  Failures always carry a concrete witness.
Enumeration order is deterministic, so identical parameters reproduce
identical verdicts, counts and witnesses, and hence the same result digest;
only the timings differ between runs.

Every harness body runs in one report frame, `_harness`, which builds the
report from the call's arguments, zeroes its phases and times the call.  A
cross-check that disagrees, in a harness or in the library beneath it, raises
`WitnessedFault`, and the frame is the one place that fails a report: a
harness stops at its first failed check, and a `fail` report carries
exactly that check's witness.  thm1's converse record is not a failure;
the body appends it to the witnesses itself.  There is no third verdict: a
string listing that its length cap cuts short is a fault
(`_finite_tau_rigid`).

thm1 and thm2 fan out over every CPU the process may use by one path:
tasks record their members (`_recorded`), replayed in order (`_replayed`).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field

from . import linalg
from .errors import WitnessedFault
from .explore import (_compatible_multisets, enumerate_monomials, explore,
                      monomial_vectors, standard_matrix)
from .modules import StringInventory, enumerate_tau_rigid, string_order
from .quiver import (Arrow, BoundQuiver, StringWord, canonical_word,
                     cartan_matrix, check_gentle, check_qb_conditions,
                     detect_even_full_cycle, letter_graph_acyclic)
from .tiling import (ArcMultiset, DiscTiling, _chords_in_taxonomy,
                     _dissection_count, _noncrossing_chord_sets,
                     b_matrix_from_triangulation, chords_interleave,
                     disc_tilings, geometric_disc_arcs, seg_profile)
from .tracking import check_dual_seeds


@dataclass
class VerifyReport:
    experiment: str
    params: dict
    verdict: str = "pass"  # pass | fail
    witnesses: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    duration_s: float = 0.0
    # seconds per phase; timing, so neither a count nor part of the result
    phases: dict = field(default_factory=dict)
    # cache and reuse counts; how the work was shared, not part of the result
    cache: dict = field(default_factory=dict)
    # processes the members were checked on; not part of the result either
    workers: int = 1

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
                "cache": self.cache, "workers": self.workers,
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
    """Add the time the block takes to report.phases[name]; `report` is a
    `VerifyReport` or a `_Member`."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report.phases[name] += time.perf_counter() - start


def _harness(experiment, *phases):
    """Turn `body(report, *params)` into the harness taking `params`: it
    builds the `experiment` report with the bound arguments as params,
    zeroes `phases` and times the body.  The report passes unless a
    `WitnessedFault` raised beneath it fails the report with its witness."""
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


@dataclass
class _Member:
    """One family member's share of a harness report, recorded where the
    member was checked, which may be a worker process: its phase seconds
    and the counts it raised, by name; its cache counts; what it found for
    the harness to read (thm2's collision multiplicity, thm1's converse
    witness), or None; and the witness of its failed check, or None.  A
    failed member counted nothing after the check that failed and has no
    cache counts."""
    phases: Counter = field(default_factory=Counter)
    counted: Counter = field(default_factory=Counter)
    cache: dict = field(default_factory=dict)
    found: object = None
    witness: dict | None = None


def _recorded(check, items, *args):
    """One `_Member` per item, filled by `check(member, item, *args)`.  A
    failed check is recorded on its member, not raised, and ends the list,
    so that the list can come back from a worker process."""
    members = []
    for item in items:
        members.append(_Member())
        try:
            check(members[-1], item, *args)
        except WitnessedFault as fault:
            members[-1].witness = fault.witness
            break
    return members


def _replayed(report, check, tasks, steps):
    """Yield the members of `steps` in turn, each replayed into the report.
    A step is a `_Member`, or the index of the task whose next member comes
    there, the tasks being mapped by `check` (`_mapped_in_order`).  A
    member adds its counts and phase seconds, then raises its failed check
    or adds its cache counts.  So the report, a failed one included, is the
    one that checking the members in turn gives, on any number of CPUs,
    and its phases are seconds summed over the members, which can exceed
    the call's duration.  A reader that stops early leaves the pool as a
    failed check does, not as an interrupt."""
    report.workers = _usable_cpus()
    with _mapped_in_order(check, tasks) as done:
        started = []  # per task, an iterator over its members
        for step in steps:
            if isinstance(step, int):
                while len(started) <= step:
                    started.append(iter(next(done)))
                step = next(started[step])
            for name, n in step.counted.items():
                report.counts[name] += n
            for name, seconds in step.phases.items():
                report.phases[name] += seconds
            if step.witness is not None:
                raise WitnessedFault(step.witness)
            for name, n in step.cache.items():
                report.cache[name] += n
            try:
                yield step
            except GeneratorExit:
                break


def _usable_cpus():
    """The number of CPUs this process may use, or 1 where it cannot tell:
    where the affinity call is missing (macOS, Windows), so is a safe
    fork."""
    return (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)


@contextlib.contextmanager
def _mapped_in_order(fn, items):
    """Yield an iterator of fn(item) for each item of the list `items`, in
    order.  It runs in this process when `_usable_cpus` reads 1, and
    otherwise on a pool of one forked worker per CPU; forked workers see
    the program as this process has it.  The items go out in chunks of the
    size `Pool.map` would choose, four per worker.
    The pool is closed and joined when the block is left.  When it is left
    by an error, such as a failed check, the workers first finish the items
    they were sent, and their results are dropped: a worker stopped while
    it sends a result would leave the result queue's lock held, and the
    pool's shutdown would wait on that lock for ever.  Only an interrupt
    (an exception that is not an `Exception`) stops the workers at once."""
    workers = _usable_cpus()
    if workers == 1:
        yield map(fn, items)
        return
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        yield pool.imap(fn, items,
                        max(1, -(-len(items) // (4 * workers))))
    except BaseException as error:
        if not isinstance(error, Exception):
            pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


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
    profiles = [seg_profile(ArcMultiset(((arc, 1),))) for arc in arcs]
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


def _least_arrow_list(n, ends):
    """(arrows, labellings): the least sorted (source, target) arrow list
    over the `_signature_labellings`, the arrow part of the class key, and
    the labellings attaining it, which are the vertex maps of the quiver's
    isomorphisms onto its class quiver."""
    labellings = {}  # sorted arrow list -> the labellings giving it
    for p in _signature_labellings(n, ends):
        labellings.setdefault(
            tuple(sorted((p[s], p[t]) for s, t in ends)), []).append(p)
    best = min(labellings)
    return best, labellings[best]


def _isomorphisms(arrows, labellings):
    """The quiver's isomorphisms (p, name) onto its class quiver: each of
    its `_least_arrow_list` labellings p with each order of each parallel
    group, arrow a named (p[source], p[target], position in its group)."""
    groups = {}
    for a in arrows:
        groups.setdefault((a.src, a.tgt), []).append(a.id)
    return [(p, {a: (p[s], p[t], k)
                 for (s, t), order in zip(groups, orders)
                 for k, a in enumerate(order)})
            for p in labellings
            for orders in itertools.product(
                *map(itertools.permutations, groups.values()))]


def _canonical_bound_quiver(isomorphisms, relations):
    """(relations, i): the least sorted relation pairs under the names of
    the isomorphisms onto the class quiver, and the index of one attaining
    them; equal for two relation sets on one quiver exactly when an
    automorphism maps one to the other."""
    return min((tuple(sorted((name[a], name[b]) for a, b in relations)), i)
               for i, (_, name) in enumerate(isomorphisms))


def _algebra_class(q):
    """(key, p, name): the class key (vertex count, `_least_arrow_list`,
    `_canonical_bound_quiver`), equal for two bound quivers exactly when
    they are isomorphic, and an isomorphism (p, name) onto the class quiver.
    """
    arrows = list(q.arrows.values())
    ends, labellings = _least_arrow_list(q.n, [(a.src, a.tgt) for a in arrows])
    isomorphisms = _isomorphisms(arrows, labellings)
    rels, i = _canonical_bound_quiver(isomorphisms, q.relations)
    return (q.n, ends, rels), *isomorphisms[i]


def _class_arrow(name):
    """Class quiver arrow id of a (source, target, position in its parallel
    group) name, as `enumerate_gentle_algebras` names its arrows."""
    return "a{}_{}_{}".format(*name)


def _class_quiver(key):
    """The canonical bound quiver of an `_algebra_class` key."""
    n, ends, rels = key
    return BoundQuiver(n, [Arrow(_class_arrow((*e, i - ends.index(e))), *e)
                           for i, e in enumerate(ends)],
                       [(_class_arrow(a), _class_arrow(b)) for a, b in rels])


def _finite_tau_rigid(inv):
    """`enumerate_tau_rigid(inv)`'s listing at its default cap, which
    truncates it only when the algebra has infinitely many strings.  No
    algebra that thm1, thm2, fvector or type-c lists has: a disc has no
    closed curves, so its tiling algebra has no bands; thm2 lists strings
    only where `letter_graph_acyclic` holds; and type-c's one-holed disc
    algebras have acyclic letter graphs.  So a truncated listing raises
    `WitnessedFault`."""
    rigid, truncated = enumerate_tau_rigid(inv)
    if truncated:
        raise WitnessedFault({"check": "infinitely many strings",
                              "quiver": inv.q.to_json()})
    return rigid


def _clash_mask(inv, words, i):
    """The int whose bit j is set when words j < i are not compatible in
    the inventory, asked in order of j."""
    return sum(1 << j for j in range(i)
               if not inv.compatible(words[i], words[j]))


def _class_record(key):
    """(rigid words, clash masks) of the class quiver.

    The words are `_finite_tau_rigid`'s, and the masks their `_clash_mask`s.
    Every pair is asked here, once per class, and the inventory is dropped:
    one int per word is all that the class's tilings read later
    (`_tiling_arcs`).
    """
    inv = StringInventory(_class_quiver(key))
    words = [w for w, _ in _finite_tau_rigid(inv)]
    return words, [_clash_mask(inv, words, i) for i in range(len(words))]


def _tiling_arcs(t, record, p, name):
    """(arcs, clash masks) of the tiling, read from `record`, the
    `_class_record` of its algebra's class, through (p, name), the
    isomorphism onto the class quiver that `_algebra_class` gave for the
    tiling algebra.

    The class words are mapped back through (p, name), re-canonicalised on
    the tiling algebra and sorted as `enumerate_tau_rigid` sorts, so the
    arcs come in the order the tiling's own inventory would give.  Bit j of
    clashes[i] is set when arcs j < i are not compatible; the masks are the
    class record's, renumbered through that order once per tiling, one
    clashing pair at a time.
    """
    q, _ = t.algebra()
    words, class_clashes = record
    vertex = {label: v for v, label in enumerate(p)}
    arrow = {_class_arrow(name[a]): a for a in q.arrows}
    mapped = []  # (word of q, index of its class word)
    for k, w in enumerate(words):
        letters = tuple((arrow[c], inv) for c, inv in w.letters)
        mapped.append(
            (canonical_word(q, StringWord(letters, vertex[w.base])), k))
    mapped.sort(key=lambda wk: string_order(wk[0]))
    arcs = [t.arc_from_word(w) for w, _ in mapped]
    at = [0] * len(mapped)  # class word index -> arc index
    for i, (_, k) in enumerate(mapped):
        at[k] = i
    clashes = [0] * len(mapped)
    for k, row in enumerate(class_clashes):
        i = at[k]
        while row:
            low = row & -row
            row ^= low
            j = at[low.bit_length() - 1]
            if j < i:
                clashes[i] |= 1 << j
            else:
                clashes[j] |= 1 << i
    return arcs, clashes


def _thm1_family(marked_max):
    """(steps, tasks): verify_thm1's disc tilings, one task per group of
    equal sorted fan sizes, and the steps that replay them in the order a
    loop over the tilings meets them.

    For each polygon in turn the chord sets are enumerated, their number is
    checked against the Kirkman-Cayley count (`_dissection_count`), and
    those with a tile outside types III-V are counted
    (`_chords_in_taxonomy`).  The others are grouped by the sorted degrees
    of their chords' points; nothing is built here.  A fan of d arcs gives a
    maximal path of d - 1 arrows without relations (two arrows meeting at
    the two ends of an arc have their angles in one tile), so isomorphic
    tiling algebras have equal fan sizes, and each algebra class lies inside
    one group.  tasks holds the discs of each group, in order of first
    appearance.  steps holds a `_Member` of each polygon's outside_taxonomy
    count and, for each tiling, the index of its group's task
    (`_replayed`).  A failed dissection count ends the steps with a
    `_Member` that carries its witness, after the counts made before it.
    """
    steps, tasks = [], []
    index = {}  # sorted fan sizes -> index of their task
    for m in range(4, marked_max + 1):
        kept, found = [], 0
        for found, chords in enumerate(_noncrossing_chord_sets(m), 1):
            if _chords_in_taxonomy(m, chords):
                kept.append(chords)
        steps.append(_Member(counted=Counter(
            outside_taxonomy=found - len(kept))))
        if found != _dissection_count(m):
            steps.append(_Member(witness={
                "check": "dissection count", "m": m,
                "expected": _dissection_count(m), "found": found}))
            return steps, tasks
        for chords in kept:
            fans = tuple(sorted(Counter(p for c in chords for p in c).values()))
            if fans not in index:
                index[fans] = len(tasks)
                tasks.append([])
            tasks[index[fans]].append(DiscTiling(m, chords))
            steps.append(index[fans])
    return steps, tasks


def _thm1_group(discs, mult_cap):
    """verify_thm1's task: the `_Member`s of one group of tilings
    (`_thm1_family`), whose class records no other group needs."""
    return _recorded(_thm1_tiling, discs, {}, mult_cap)


def _thm1_tiling(member, disc, records, mult_cap):
    """verify_thm1's checks on one disc tiling, counted into `member`; its
    converse witness, if any, is `member.found`.  The tiling is built and
    classified here, once (`_algebra_class`), and the record of its class
    (`_class_record`) is built on the first tiling of the class and kept
    in `records`, by class key."""
    member.counted["tilings"] += 1
    with _phase(member, "arcs"):
        t = disc.to_complex()
        key, p, name = _algebra_class(t.algebra()[0])
        if key in records:
            member.cache = {"class_reuses": 1}
        else:
            records[key] = _class_record(key)
            member.cache = {"algebra_classes": 1}
        arcs, clashes = _tiling_arcs(t, records[key], p, name)
        _dual_path_check(disc, arcs, clashes)
        admissible = t.admissible()
        cycle = detect_even_full_cycle(t.algebra()[0])
        if admissible != (cycle is None):
            raise WitnessedFault({
                "check": "forbidden tile and even cycle differ",
                "tiling": disc.chords, "even_cycle": cycle})
    n_arcs = len(t.arcs)
    by_vec = {}
    by_profile = {}
    collision = None
    with _phase(member, "multisets"):
        weights, (_, width) = _arc_weights(t, arcs, mult_cap)
        shift = width * n_arcs
        mask = (1 << shift) - 1
        swept = 0  # multisets swept so far, the empty one included
        try:
            for swept, (chosen, weight) in enumerate(
                    _compatible_multisets(clashes.__getitem__,
                                          weights, mult_cap), 1):
                vec = weight & mask
                if vec in by_vec:
                    collision = (by_vec[vec], chosen, vec)
                else:
                    by_vec[vec] = chosen
                prof = weight >> shift
                if prof in by_profile:
                    raise WitnessedFault({
                        "check": "seg-profile collision",
                        "tiling": disc.chords,
                        "multisets": [by_profile[prof], chosen]})
                by_profile[prof] = chosen
        finally:
            member.counted["multisets"] += swept
    witness = None if collision is None else {
        "vector": _unpack(collision[2], n_arcs, width),
        "multisets": [_multiset_desc(arcs, collision[0]),
                      _multiset_desc(arcs, collision[1])]}
    if admissible:
        member.counted["admissible"] += 1
        if witness is not None:
            raise WitnessedFault({
                "check": "injectivity broken on admissible tiling",
                "tiling": disc.chords, **witness})
    else:
        member.counted["forbidden"] += 1
        if witness is not None:
            member.counted["converse_witnesses"] += 1
            member.found = {"tiling": (disc.m, disc.chords), **witness}


@_harness("thm1-intersection-injectivity", "tilings", "arcs", "multisets")
def verify_thm1(report, marked_max=8, mult_cap=3):
    """Intersection vectors determine compatible multisets on admissible
    disc tilings; even type V tilings yield explicit counterexamples.

    The dissections of each of the 4- to marked_max-gons are counted
    against the Kirkman-Cayley closed form, then tested on their chords
    (`_chords_in_taxonomy`): those with a tile outside types III-V are
    counted under `outside_taxonomy`, and only the others are built as
    combinatorial maps and classified, so a classification error on one of
    them is a fault and propagates.

    The tau-rigid strings and their pairwise compatibility depend only on
    the isomorphism class of the tiling algebra, so they are computed once
    per class of thm2's key (`_algebra_class`, `_class_record`); each tiling
    maps the class words back onto its own arrows and builds its arcs from
    them, in the order `enumerate_tau_rigid` gives (`_tiling_arcs`), and
    `_dual_path_check` checks them against chord geometry.  A forbidden tile
    must come with an even full-relation cycle of the algebra
    (`detect_even_full_cycle`), and an admissible tiling
    (`TilingComplex.admissible`) without one.  The intersection vector and
    the segment profile of each multiset are accumulated arc by arc as the
    sweep extends it, both packed in one int per multiset (see
    `_arc_weights`); neither is recomputed.

    The tilings are grouped by fan sizes (`_thm1_family`), one task per
    group (`_thm1_group`), and replayed in their order (`_replayed`).

    Phases: `tilings` (chord sets, the taxonomy test and the grouping),
    `arcs` (each tiling's map, its classification, the class records, the
    arcs, the chord oracle and the forbidden-tile cross-check) and
    `multisets` (the sweep over the arcs' clash masks).
    """
    report.counts = dict.fromkeys(
        ("tilings", "outside_taxonomy", "admissible", "forbidden",
         "multisets", "converse_witnesses"), 0)
    report.cache = {"algebra_classes": 0, "class_reuses": 0}
    with _phase(report, "tilings"):
        steps, tasks = _thm1_family(marked_max)
    check = functools.partial(_thm1_group, mult_cap=mult_cap)
    converse_found = [member.found for member in
                      _replayed(report, check, tasks, steps) if member.found]
    if converse_found:
        report.witnesses.append({"converse": converse_found[0]})
    octagon_square = any(w["tiling"] == (8, ((1, 3), (1, 7), (3, 5), (5, 7)))
                         for w in converse_found)
    # the smallest octagon witness sets two arcs against two others, so
    # none exists below total multiplicity 2
    if marked_max >= 8 and mult_cap >= 2 and not octagon_square:
        raise WitnessedFault({"converse": "no collision found on the "
                                          "octagon central-square tiling"})


def _multiset_desc(arcs, chosen):
    return [{"endpoints": tuple(p + 1 for p in arcs[i].endpoints),
             "mult": mult} for i, mult in chosen]


def _dual_path_check(disc, arcs, clashes):
    """Check the string route's arcs of the disc tiling, as (endpoints,
    intersection vector) pairs, and their clash masks (bit i of clashes[j]
    is set when arcs i < j are not compatible) against chord geometry: the
    arcs of `geometric_disc_arcs`, and chords that do not interleave.  A
    disagreement raises `WitnessedFault`, on the first pair (i, j) in
    `itertools.combinations` order."""
    string = sorted((tuple(sorted(p + 1 for p in a.endpoints)), a.intersection)
                    for a in arcs)
    geometric = sorted((g["endpoints"], g["vector"])
                       for g in geometric_disc_arcs(disc))
    if string != geometric:
        raise WitnessedFault({"check": "string and geometric arcs differ",
                              "tiling": disc.chords, "string": string,
                              "geometric": geometric})
    for i, j in itertools.combinations(range(len(arcs)), 2):
        ok = not clashes[j] >> i & 1
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
    # rec holds itself through its closure; without this the cycle keeps
    # `rows` alive until the cycle collector runs
    del rec
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


def enumerate_gentle_algebras(vertex_max, arrow_max):
    """Connected gentle bound quivers up to isomorphism: the first gentle
    member of each class, in enumeration order (vertex count, then arrow
    grid, then relation set).

    Only a grid with a new arrow part of the `_algebra_class` key is
    visited, and on it only a relation set with a new relation part
    (orderly generation).  This still finds the first member of every
    class: isomorphic bound quivers have isomorphic grids, and each bound
    quiver on a later grid of a class has an isomorphic copy on the first
    grid of that class, so every class first appears there.

    The grids bound every degree by 2 (G1) and the per-vertex relation
    patterns enforce G2 and G3, so every generated member is gentle;
    `check_gentle` cross-checks each one, and a member it rejects raises
    `WitnessedFault`.
    """
    out = []
    for n in range(1, vertex_max + 1):
        grid_classes = set()
        for grid in _arrow_grids(n, arrow_max):
            if not _connected(n, grid):
                continue
            ends, labellings = _least_arrow_list(
                n, [ij for ij, c in sorted(grid.items()) for _ in range(c)])
            if ends in grid_classes:
                continue
            grid_classes.add(ends)
            arrows = [Arrow(_class_arrow((i, j, k)), i, j)
                      for (i, j), c in sorted(grid.items()) for k in range(c)]
            isomorphisms = _isomorphisms(arrows, labellings)
            orbits = set()
            for rels in _relation_choices(n, arrows):
                key, _ = _canonical_bound_quiver(isomorphisms, rels)
                if key in orbits:
                    continue
                orbits.add(key)
                q = BoundQuiver(n, arrows, rels)
                gentle = check_gentle(q)
                if not gentle.ok:
                    raise WitnessedFault({
                        "check": "generated relation set not gentle",
                        "quiver": q.to_json(), "violated": gentle.violated,
                        "reason": gentle.witness})
                out.append(q)
    return out


def _rigid_multisets(rigid, inv, cap):
    """(width, sweep): `_compatible_multisets` over the tau-rigid strings
    `rigid` of the inventory up to total multiplicity `cap`, their
    dimension vectors packed `width` bits a field (`_pack`).  Each string's
    `_clash_mask` is built when the sweep reaches it, so a sweep that stops
    early asks no further Hom questions."""
    words = [w for w, _ in rigid]
    width = _field_width([d for _, d in rigid], cap)
    return width, _compatible_multisets(
        functools.partial(_clash_mask, inv, words),
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


def _thm2_algebra(member, q, mult_cap):
    """verify_thm2's checks on the bound quiver q, counted into `member`.
    On an algebra with an even cycle, `member.found` is the least total
    multiplicity from 2 up at which its tau-rigid modules collide; 1 is not
    tried, so a collision of two single modules reads 2."""
    acyclic, _ = letter_graph_acyclic(q)
    if not acyclic:
        member.counted["representation_infinite_skipped"] += 1
        return
    member.counted["representation_finite"] += 1
    cycle = detect_even_full_cycle(q)
    _, det = cartan_matrix(q)
    if (det == 0) != (cycle is not None):
        raise WitnessedFault({"check": "cartan-determinant",
                              "quiver": q.to_json(), "det": det,
                              "even_cycle": cycle})
    with _phase(member, "tau"):
        inv = StringInventory(q)
        rigid = _finite_tau_rigid(inv)
    if cycle is None:
        member.counted["without_even_cycle"] += 1
        with _phase(member, "collisions"):
            coll = _dim_collision(rigid, inv, mult_cap)
        if coll is not None:
            raise WitnessedFault({
                "check": "injectivity broken without even cycle",
                "quiver": q.to_json(), "vector": coll[2]})
    else:
        member.counted["with_even_cycle"] += 1
        with _phase(member, "collisions"):
            for cap in range(2, max(mult_cap, q.n + 2) + 1):
                if _dim_collision(rigid, inv, cap) is not None:
                    member.found = cap
                    break
        if member.found is None:
            raise WitnessedFault({
                "check": "no collision despite even cycle",
                "quiver": q.to_json()})
    member.cache = {"tau_hits": inv.tau_hits, "tau_misses": inv.tau_misses}


@_harness("thm2-dimension-dichotomy", "enumerate", "tau", "collisions")
def verify_thm2(report, vertex_max=4, arrow_max=6, mult_cap=3):
    """Even full-relation cycles exist exactly when distinct tau-rigid
    modules share a dimension vector; Cartan determinant cross-check.  The
    `collisions` phase includes the Hom computations of the compatibility
    tests.

    Each algebra is one task (`_thm2_algebra`), replayed in enumeration
    order (`_replayed`).  `max_multiplicity_needed` is the largest
    `found` of the algebras with an even cycle, and 0 without one."""
    with _phase(report, "enumerate"):
        algebras = enumerate_gentle_algebras(vertex_max, arrow_max)
    counts = report.counts = {
        "algebras": len(algebras), "representation_finite": 0,
        "representation_infinite_skipped": 0, "with_even_cycle": 0,
        "without_even_cycle": 0, "max_multiplicity_needed": 0}
    report.cache = {"tau_hits": 0, "tau_misses": 0}
    check = functools.partial(
        _recorded, functools.partial(_thm2_algebra, mult_cap=mult_cap))
    for member in _replayed(report, check, [[q] for q in algebras],
                            range(len(algebras))):
        if member.found:
            counts["max_multiplicity_needed"] = max(
                counts["max_multiplicity_needed"], member.found)


# ---------------------------------------------------------------------------
# cluster monomials told apart by their vectors


def _relabelling(matrix):
    """(key, p): the least row tuple (b[p[i]][p[j]] for j) for i over all
    vertex orders p of the exchange matrix's rows b, and the least order
    attaining it.  Two matrices share a key exactly when renumbering the
    vertices of one gives the other; position i of the key is vertex p[i]
    of b.  Signs are kept: B and -B share no key unless a renumbering also
    maps one to the other."""
    b = matrix.b
    return min((tuple(tuple(b[i][j] for j in p) for i in p), p)
               for p in itertools.permutations(range(len(b))))


def _check_injectivity(graph, degree_cap, kind, where, counts, name):
    """Check that no two monomials of degree <= degree_cap have equal `kind`
    vectors ("d" or "fbar"), adding each to counts[name] as it is reached;
    the first two that agree raise `WitnessedFault`.  Returns the count."""
    seen = {}
    counts.setdefault(name, 0)
    for key in enumerate_monomials(graph, degree_cap):
        counts[name] += 1
        vec = monomial_vectors(graph, key)[kind]
        if vec in seen:
            raise WitnessedFault({"where": where, kind: vec,
                                  "monomials": [seen[vec], key]})
        seen[vec] = key
    return len(seen)


# ---------------------------------------------------------------------------
# f-vector injectivity for type A via discs


@_harness("thm3-fbar-injectivity", "monomials", "triangulations")
def verify_fvector_injectivity(report, rank_max=3, degree_cap=3):
    """Modified f-vectors separate cluster monomials in type A; intersection
    vectors of polygon arcs match the f-vectors of their cluster variables.

    The f-vectors depend only on the exchange matrix, and renumbering its
    vertices carries them over coordinate for coordinate, so one matrix of
    each `_relabelling` class is explored per call: a later matrix of the
    class reads the first one's f-vectors through the two vertex orders.
    The `monomials` graphs of A_n come first, and the triangulations of
    the (n + 3)-gon whose matrices are a relabelled A_n read them.  The
    arcs are still enumerated for every triangulation.  Cache counts:
    `matrix_classes` explored, and `class_reuses`, the triangulations
    answered from a class already explored.  Phases: `monomials`, timed
    once per rank, and `triangulations`, once per polygon.
    """
    report.cache = {"matrix_classes": 0, "class_reuses": 0}
    orders = {}  # matrix -> its _relabelling
    # relabelling key -> (order, non-initial f-vectors) of its first matrix
    f_vectors = {}

    def explored(key, p, graph):
        f_vectors[key] = p, [
            info.f for info in graph.variables if not info.initial]
        report.cache["matrix_classes"] += 1

    for n in range(2, rank_max + 1):
        where = f"A{n}"
        with _phase(report, "monomials"):
            base = standard_matrix("A", n)
            graph = explore(base)
            explored(*_relabelling(base), graph)
            _check_injectivity(graph, degree_cap, "fbar", where,
                               report.counts, f"{where}_monomials")
        # initial fbar vectors are the d-vectors -e_k, so no non-initial
        # monomial (fbar nonnegative) can collide with them; the root's
        # variables x_1..x_n are interned first, in cluster order
        for k, info in enumerate(graph.variables[:n]):
            if info.d != tuple(-1 if r == k else 0 for r in range(n)):
                raise WitnessedFault({
                    "where": where, "check": "initial d-vector",
                    "variable": info.poly.to_str(), "d": info.d})
    # cross-check: arcs of triangulated polygons against cluster f-vectors
    report.counts["triangulations_cross_checked"] = 0
    for m in range(5, rank_max + 4):
        with _phase(report, "triangulations"):
            for disc in disc_tilings(m):
                if len(disc.chords) != m - 3:
                    continue
                t = disc.to_complex()
                b = b_matrix_from_triangulation(t)
                if b not in orders:
                    orders[b] = _relabelling(b)
                key, p = orders[b]
                if key in f_vectors:
                    report.cache["class_reuses"] += 1
                else:
                    explored(key, p, explore(b))
                p0, fs = f_vectors[key]
                # coordinate p0[i] of the class's first matrix is p[i] of b
                source = [p0[p.index(v)] for v in range(len(p))]
                fvecs = sorted(tuple(f[s] for s in source) for f in fs)
                arcs = [t.arc_from_word(w)
                        for w, _ in _finite_tau_rigid(t.inventory())]
                ivecs = sorted(a.intersection for a in arcs)
                if fvecs != ivecs:
                    raise WitnessedFault({"triangulation": (m, disc.chords),
                                          "f_vectors": fvecs,
                                          "intersection_vectors": ivecs})
                report.counts["triangulations_cross_checked"] += 1


# ---------------------------------------------------------------------------
# denominator-vector injectivity for types A, B, C


def _check_d_columns_independent(graph, where):
    """Each cluster's d-vectors, as `explore` stored them, have full rank;
    the first cluster whose do not raises `WitnessedFault`."""
    for vid, cluster in enumerate(graph.vertices):
        d_vectors = [graph.variables[i].d for i in cluster]
        if linalg.rank(d_vectors, graph.n) != graph.n:
            raise WitnessedFault({"where": where, "check": "D-matrix rank",
                                  "vertex": vid, "d_vectors": d_vectors})


def _d_checks(report, matrix, degree_cap, where):
    """(graph, monomials counted): `explore`, then both d-vector checks."""
    with _phase(report, "explore"):
        graph = explore(matrix)
    with _phase(report, "checks"):
        count = _check_injectivity(graph, degree_cap, "d", where,
                                   report.counts, "monomials")
        _check_d_columns_independent(graph, where)
    return graph, count


@_harness("thm4-denominator-injectivity", "explore", "checks")
def verify_denominator(report, series="C", rank_max=3, degree_cap=3,
                       initial_seeds="all"):
    """Denominator vectors separate bounded-degree cluster monomials, from
    every cluster of every explored finite-type pattern in the series.

    The explored graph and both checks depend only on the exchange matrix,
    and renumbering its vertices carries every d-vector over coordinate for
    coordinate, so one matrix of each `_relabelling` class is explored and
    checked: the check adds its monomials to the count as it reaches them,
    and each later reroot at a matrix of the class adds the stored count.
    Cache counts: `matrix_classes` explored, and `class_reuses`, the
    reroots answered from a class already explored.  Phases: `explore` and
    `checks` (both d-vector checks), timed once per class.
    """
    if initial_seeds not in ("all", "root"):
        raise ValueError(f"initial_seeds must be 'all' or 'root', "
                         f"not {initial_seeds!r}")
    counts = report.counts = {"monomials": 0, "reroots": 0}
    report.cache = {"matrix_classes": 0, "class_reuses": 0}
    for n in range(2, rank_max + 1):
        base = standard_matrix(series, n)
        graph, count = _d_checks(report, base, degree_cap, f"{series}{n} root")
        report.cache["matrix_classes"] += 1
        keys = {base: _relabelling(base)[0]}  # matrix -> relabelling key
        # key -> monomial count; counts, not graphs, to keep memory flat
        counted = {keys[base]: count}
        if initial_seeds == "all":
            for vid, t in enumerate(graph.reps):
                b_t = t.seed.matrix
                if b_t not in keys:
                    keys[b_t] = _relabelling(b_t)[0]
                key = keys[b_t]
                if key in counted:
                    counts["monomials"] += counted[key]
                    report.cache["class_reuses"] += 1
                else:
                    _, counted[key] = _d_checks(
                        report, b_t, degree_cap, f"{series}{n} cluster {vid}")
                    report.cache["matrix_classes"] += 1
                counts["reroots"] += 1


@_harness("thm4-bc-duality", "explore", "checks")
def verify_denominator_duality(report, rank_max=3, degree_cap=3):
    """C_n = langlands_dual(B_n) seed by seed: both graphs pass the d-vector
    checks from their roots, equal BFS `reached` tables pair the seeds of one
    mutation sequence by id, and every pair passes `check_dual_seeds`."""
    counts = report.counts = {"verdicts": {}, "monomials": 0}
    for n in range(2, rank_max + 1):
        graph, dual = (_d_checks(report, standard_matrix(x, n), degree_cap,
                                 f"{x}{n} root")[0] for x in "BC")
        with _phase(report, "checks"):
            for v, (t, tv) in enumerate(zip(graph.reps, dual.reps)):
                if graph.reached[v] != dual.reached[v]:
                    raise WitnessedFault({
                        "check": "B and C seeds pair differently", "rank": n,
                        "vertex": v, "clusters": [
                            [p.to_str() for p in u.seed.cluster]
                            for u in (t, tv)]})
                check_dual_seeds(t, tv, [
                    list(zip(*(g.variables[g.variable_index[p]].d
                               for p in u.seed.cluster)))
                    for g, u in ((graph, t), (dual, tv))])
        counts[f"rank{n}_pairs"] = len(graph.reps)
    counts["verdicts"].update(B="pass", C="pass")


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
                lambda i: 0, [0] * len(allowed), cap - total):
            if chosen or part:
                proj = tuple((allowed[k], c) for k, c in part)
                pairs.append((chosen, proj, mdim))
    return pairs


@_harness("typec-categorification", "tau", "pairs", "monomials")
def verify_type_c_categorification(report, rank_max=2, degree_cap=3):
    """tau-rigid pairs of the type C gentle algebra match cluster monomials
    through the halved first dimension coordinate.

    At rank n the algebra is read off the one-holed disc with n + 1 points,
    tiled by the loop at point 1 around the hole and the fan of chords from
    point 1 to points 2..n, the chords (k, n + 2) of the cut polygon.  Its
    vertices are the loop, then the chords, in the vertex order of
    `standard_matrix("C", n)`: the loop around the hole is the long root,
    and an arc crosses it twice, hence the halved coordinate.  Beside the
    loop at vertex 0, the arrows run 0 -> 1 -> ... -> n-1, and the loop
    squared is the only relation.

    Phases, timed once per rank: `tau` (the inventory and its tau-rigid
    strings), `pairs` (tau-rigid pairs and their vectors) and `monomials`
    (the exchange graph and its monomials' d-vectors).
    """
    if rank_max < 2:
        raise ValueError("type C needs rank at least 2")
    report.cache = {"tau_hits": 0, "tau_misses": 0}
    for n in range(2, rank_max + 1):
        base = standard_matrix("C", n)
        q, _ = DiscTiling(n + 1, [(k + 1, n + 2) for k in range(1, n)],
                          holed=True).to_complex().algebra()
        cond = check_qb_conditions(q)
        if not all(cond.values()):
            raise WitnessedFault({"rank": n, "check": "conditions (a)-(e)",
                                  "result": cond})
        if detect_even_full_cycle(q) is not None:
            raise WitnessedFault({"rank": n,
                                  "check": "unexpected even full cycle"})
        with _phase(report, "tau"):
            inv = StringInventory(q)
            rigid = _finite_tau_rigid(inv)
        for _, d in rigid:
            if d[0] % 2 != 0:
                raise WitnessedFault({"rank": n,
                                      "check": "odd first coordinate",
                                      "dim": d})
        with _phase(report, "monomials"):
            graph = explore(base)
        # indecomposable level: adjusted dimensions vs non-initial d-vectors
        adjusted = sorted((d[0] // 2,) + tuple(d[1:]) for _, d in rigid)
        dvecs = sorted(info.d for info in graph.variables if not info.initial)
        if adjusted != dvecs:
            raise WitnessedFault({"rank": n,
                                  "check": "indecomposable bijection",
                                  "module_side": adjusted,
                                  "cluster_side": dvecs})
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
                raise WitnessedFault({"rank": n, "degree": deg,
                                      "check": "pair bijection",
                                      "module_side_count": len(left),
                                      "cluster_side_count": len(right)})
        report.counts[f"C{n}_ind_tau_rigid"] = len(rigid)
        report.counts[f"C{n}_pairs"] = sum(
            len(v) for v in module_vectors.values())
