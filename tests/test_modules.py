import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterlab.modules import (
    QuiverRep, StringInventory, ar_translate, enumerate_tau_rigid, hom_dim,
    minimal_presentation, presented_hom_dim, string_module, zero_rep,
)
from clusterlab import linalg, modules
from clusterlab.quiver import (
    Arrow, BoundQuiver, StringWord, enumerate_strings, letter_graph_acyclic,
)
from clusterlab.verify import enumerate_gentle_algebras, verify_thm2


def loop_algebra():
    return BoundQuiver(1, [Arrow("rho", 0, 0)], [("rho", "rho")])


def a2_path():
    return BoundQuiver(2, [Arrow("a", 0, 1)], [])


def two_cycle_full():
    return BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)],
                       [("a", "b"), ("b", "a")])


def four_cycle_full():
    arrows = [Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 2, 3), Arrow("d", 3, 0)]
    rels = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    return BoundQuiver(4, arrows, rels)


def simple(q, v):
    return string_module(q, StringWord((), v))


# Oracles: the projective modules, direct sums and tau-rigidity of whole
# modules, which the harnesses read only through `StringInventory`.

def projective_module(q: BoundQuiver, i) -> QuiverRep:
    """The projective at vertex i with basis the relation-avoiding paths."""
    p = modules._ProjectiveSum(q, [i])
    mats = {}
    for aid, a in q.arrows.items():
        mats[aid] = linalg.zeros(p.dims[a.tgt], p.dims[a.src])
        for j, t in enumerate(p.arrow_action(aid, a.src)):
            if t is not None:
                mats[aid][t][j] = 1
    return QuiverRep(q, p.dims, mats)


def direct_sum(first: QuiverRep, other: QuiverRep) -> QuiverRep:
    if other.quiver is not first.quiver and \
            other.quiver.to_json() != first.quiver.to_json():
        raise ValueError("direct sum needs a common quiver")
    dims = tuple(a + b for a, b in zip(first.dims, other.dims))
    mats = {}
    for aid, a in first.quiver.arrows.items():
        m1, m2 = first.mats[aid], other.mats[aid]
        rows = first.dims[a.tgt] + other.dims[a.tgt]
        cols = first.dims[a.src] + other.dims[a.src]
        m = linalg.zeros(rows, cols)
        for i in range(first.dims[a.tgt]):
            for j in range(first.dims[a.src]):
                m[i][j] = m1[i][j]
        for i in range(other.dims[a.tgt]):
            for j in range(other.dims[a.src]):
                m[first.dims[a.tgt] + i][first.dims[a.src] + j] = m2[i][j]
        mats[aid] = m
    return QuiverRep(first.quiver, dims, mats)


def is_tau_rigid(q: BoundQuiver, m: QuiverRep) -> bool:
    if not any(m.dims):
        return True
    presentation = minimal_presentation(q, m)
    return presented_hom_dim(presentation,
                             ar_translate(q, m, presentation)) == 0


def test_string_module_shapes():
    q = a2_path()
    s = simple(q, 0)
    assert s.dims == (1, 0)
    m = string_module(q, StringWord((("a", False),), 0))
    assert m.dims == (1, 1)
    assert m.mats["a"] == [[1]]


def test_string_module_pullback_shape():
    # 1 -a-> 2 <-b- 3, word a b^-1
    q = BoundQuiver(3, [Arrow("a", 0, 1), Arrow("b", 2, 1)], [])
    m = string_module(q, StringWord((("a", False), ("b", True)), 0))
    assert m.dims == (1, 1, 1)


def test_relation_violation_rejected():
    q = two_cycle_full()
    with pytest.raises(ValueError):
        QuiverRep(q, (1, 1), {"a": [[1]], "b": [[1]]})


def test_missing_matrices_are_zero_and_given_ones_checked():
    # 0 -a-> 1 -b-> 2 with b.a = 0: a missing matrix is zero and breaks
    # neither a shape nor the relation; a given one is checked in full
    q = BoundQuiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2)], [("a", "b")])
    m = QuiverRep(q, (2, 1, 3), {"a": [[1, 1]]})
    assert m.mats == {"a": [[1, 1]], "b": [[0], [0], [0]]}
    with pytest.raises(ValueError, match="wrong shape"):
        QuiverRep(q, (2, 1, 3), {"b": [[1], [1]]})
    with pytest.raises(ValueError, match="does not vanish"):
        QuiverRep(q, (2, 1, 3), {"a": [[1, 0]], "b": [[0], [1], [0]]})


def check_relation_against_oracle(dims, a, b):
    """On 0 -a-> 1 -b-> 2 with b.a = 0, `QuiverRep` raises exactly when the
    oracle, which forms the product b.a and looks for a nonzero entry, finds
    one; returns the oracle's verdict."""
    q = BoundQuiver(3, [Arrow("a", 0, 1), Arrow("b", 1, 2)], [("a", "b")])
    fails = any(any(x != 0 for x in row) for row in linalg.mat_mul(b, a))
    if fails:
        with pytest.raises(ValueError, match="does not vanish"):
            QuiverRep(q, dims, {"a": a, "b": b})
    else:
        QuiverRep(q, dims, {"a": a, "b": b})
    return fails


@st.composite
def one_relation_reps(draw):
    dims = draw(st.tuples(*[st.integers(0, 3)] * 3))
    entry = st.integers(-2, 2)
    a = draw(st.lists(st.lists(entry, min_size=dims[0], max_size=dims[0]),
                      min_size=dims[1], max_size=dims[1]))
    b = draw(st.lists(st.lists(entry, min_size=dims[1], max_size=dims[1]),
                      min_size=dims[2], max_size=dims[2]))
    return dims, a, b


@given(one_relation_reps())
@settings(max_examples=300, deadline=None)
def test_relation_check_matches_the_dense_product(rep):
    check_relation_against_oracle(*rep)


@pytest.mark.parametrize("dims, a, b, fails", [
    ((1, 2, 1), [[1], [-1]], [[1, 1]], False),  # the products cancel
    ((1, 2, 1), [[1], [1]], [[1, 1]], True),
    ((2, 0, 3), [], [[], [], []], False),  # 0-dimensional middle vertex
])
def test_relation_check_fixed_cases(dims, a, b, fails):
    assert check_relation_against_oracle(dims, a, b) == fails


def test_thm2_round_builds_and_products(monkeypatch):
    # one verify_thm2(4, 4, 3) run checks every one of its 6,075 builds;
    # neither the relation check nor a Hom block forms a product, so the
    # only products left are the actions of paths of length 2 or more
    counts = {"builds": 0, "products": 0}
    build, product = QuiverRep.__init__, linalg.mat_mul

    def counted_build(self, *args):
        counts["builds"] += 1
        build(self, *args)

    def counted_product(a, b):
        counts["products"] += 1
        return product(a, b)

    monkeypatch.setattr(QuiverRep, "__init__", counted_build)
    monkeypatch.setattr(linalg, "mat_mul", counted_product)
    assert verify_thm2(4, 4, 3).verdict == "pass"
    assert counts == {"builds": 6075, "products": 1971}


def test_projective_modules():
    q = a2_path()
    assert projective_module(q, 0).dims == (1, 1)
    assert projective_module(q, 1).dims == (0, 1)
    ql = loop_algebra()
    assert projective_module(ql, 0).dims == (2,)


def test_hom_identity_and_simples():
    q = a2_path()
    s0, s1 = simple(q, 0), simple(q, 1)
    assert hom_dim(q, s0, s0) == 1
    assert hom_dim(q, s0, s1) == 0
    # a nonzero map S_2 -> P_1 exists (socle inclusion)
    p0 = projective_module(q, 0)
    assert hom_dim(q, s1, p0) == 1
    assert hom_dim(q, s0, p0) == 0


def test_hom_projective_formula():
    # dim Hom(P_i, M) equals the dimension of M at vertex i
    for q in (a2_path(), two_cycle_full(), four_cycle_full(), loop_algebra()):
        mods = [simple(q, v) for v in range(q.n)] + \
               [projective_module(q, v) for v in range(q.n)]
        for i in range(q.n):
            p = projective_module(q, i)
            for m in mods:
                assert hom_dim(q, p, m) == m.dims[i]


def test_tau_of_projective_is_zero():
    for q in (a2_path(), two_cycle_full(), loop_algebra(), four_cycle_full()):
        for v in range(q.n):
            assert not any(ar_translate(q, projective_module(q, v)).dims)


def test_tau_a2_simple():
    # AR quiver of the A2 path algebra: tau S_1 = S_2
    q = a2_path()
    t = ar_translate(q, simple(q, 0))
    assert t.dims == (0, 1)


def test_tau_loop_simple_not_rigid():
    q = loop_algebra()
    s = simple(q, 0)
    t = ar_translate(q, s)
    assert t.dims == (1,)
    assert hom_dim(q, s, t) == 1
    assert not is_tau_rigid(q, s)
    assert is_tau_rigid(q, projective_module(q, 0))


def test_tau_four_cycle_simples():
    # full-relation 4-cycle with rad^2 = 0: tau S_i = S_{i+1}
    q = four_cycle_full()
    for v in range(4):
        t = ar_translate(q, simple(q, v))
        expected = tuple(1 if u == (v + 1) % 4 else 0 for u in range(4))
        assert t.dims == expected


def test_tau_additive_on_sums():
    q = four_cycle_full()
    m = direct_sum(simple(q, 0), simple(q, 2))
    t = ar_translate(q, m)
    t0 = ar_translate(q, simple(q, 0))
    t2 = ar_translate(q, simple(q, 2))
    assert t.dims == tuple(a + b for a, b in
                                   zip(t0.dims, t2.dims))
    # projective summands contribute nothing
    mp = direct_sum(simple(q, 0), projective_module(q, 1))
    assert ar_translate(q, mp).dims == t0.dims


def test_hom_invariant_under_realization():
    # permuted basis realization of the same string gives the same numbers
    q = a2_path()
    m1 = string_module(q, StringWord((("a", False),), 0))
    m2 = QuiverRep(q, (1, 1), {"a": [[-3]]})  # isomorphic realization
    t1, t2 = ar_translate(q, m1), ar_translate(q, m2)
    assert t1.dims == t2.dims
    assert hom_dim(q, m1, t1) == hom_dim(q, m2, t2)


def test_translates_stay_integer():
    # string modules have 0/1 entries, and every pivot division on the way
    # to their translates is exact
    translated = 0
    for q in enumerate_gentle_algebras(3, 4):
        acyclic, longest = letter_graph_acyclic(q)
        if not acyclic:
            continue
        inv = StringInventory(q)
        for w in enumerate_strings(q, max(longest, 1))[0]:
            _, _, entries = minimal_presentation(q, inv.module(w))
            coefs = [c for terms in entries.values() for _, c in terms]
            tau = inv.tau(w)
            coefs += [x for mat in tau.mats.values() for row in mat
                      for x in row]
            assert all(type(x) is int for x in coefs), (q.to_json(), w)
            translated += 1
    assert translated == 550  # over 44 algebras


def test_presented_hom_matches_intertwiner():
    # dim Hom(M, N) read off M's minimal presentation equals the nullity of
    # the intertwiner system, for every string module M and every N that is
    # a string module or the translate of one
    pairs = 0
    for q in enumerate_gentle_algebras(4, 4):
        acyclic, longest = letter_graph_acyclic(q)
        if not acyclic:
            continue
        inv = StringInventory(q)
        words = enumerate_strings(q, max(longest, 1))[0]
        targets = [inv.module(w) for w in words] + [inv.tau(w) for w in words]
        for w in words:
            m, presentation = inv.module(w), inv.presentation(w)
            for n in targets:
                assert presented_hom_dim(presentation, n) == \
                    hom_dim(q, m, n), (q.to_json(), w, n.dims)
            pairs += len(targets)
    assert pairs == 67902


def test_projectives_presentations_translates_fingerprint():
    # pins the bases, not just the isomorphism classes: the dims and
    # matrices of every projective, and the minimal presentation and
    # translate of every string, over the 143 representation-finite
    # algebras of enumerate_gentle_algebras(4, 4)
    h = hashlib.sha256()
    algebras = strings = 0
    for q in enumerate_gentle_algebras(4, 4):
        acyclic, longest = letter_graph_acyclic(q)
        if not acyclic:
            continue
        algebras += 1
        for v in range(q.n):
            p = projective_module(q, v)
            h.update(repr((p.dims, sorted(p.mats.items()))).encode())
        for w in enumerate_strings(q, max(longest, 1))[0]:
            m = string_module(q, w)
            presentation = minimal_presentation(q, m)
            tops0, tops1, entries = presentation
            tau = ar_translate(q, m, presentation)
            h.update(repr((tops0, tops1, sorted(entries.items()), (
                tau.dims, sorted(tau.mats.items())))).encode())
            strings += 1
    assert (algebras, strings) == (143, 2025)
    assert h.hexdigest() == (
        "9348c50d895cd50861d4458edcc6361f33aa1a9252513deb9deccb4ce3a5370d")


def test_presented_hom_of_a_presentation_with_fraction_entries():
    # the Kronecker point (1/2 : 1/3) is the cokernel of
    # P(2) -> P(1), e_2 -> (1/3) a - (1/2) b
    q = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)], [])
    m = QuiverRep(q, (1, 1), {"a": [[Fraction(1, 2)]], "b": [[Fraction(1, 3)]]})
    presentation = minimal_presentation(q, m)
    assert presentation[:2] == ([0], [1])
    for n in (m, QuiverRep(q, (1, 1), {"a": [[3]], "b": [[2]]}),
              QuiverRep(q, (1, 1), {"a": [[1]], "b": [[1]]}),
              projective_module(q, 0), simple(q, 0), simple(q, 1)):
        assert presented_hom_dim(presentation, n) == hom_dim(q, m, n)


def test_minimal_presentation_of_a_module_with_dense_syzygy():
    # a 4-cycle with one relation and a module that is not a string module:
    # the kernel of P0 -> M has basis vectors with several nonzero entries;
    # reading their coordinates at their first nonzero entry in place of
    # their free column gives a syzygy with a fourth generator.  The
    # presentation and translate are the ones a per-vector linear solve
    # gives
    q = BoundQuiver(4, [Arrow("a", 0, 3), Arrow("b", 1, 2), Arrow("c", 2, 0),
                        Arrow("d", 3, 1)], [("a", "d")])
    m = QuiverRep(q, (2, 1, 3, 2), {
        "a": [[-1, 0], [0, 0]], "b": [[0], [2], [0]],
        "c": [[2, -1, -1], [0, 1, 0]], "d": [[0, 0]]})
    tops0, tops1, _ = minimal_presentation(q, m)
    assert (tops0, tops1) == ([1, 2, 2, 3], [0, 1, 3])
    assert ar_translate(q, m).dims == (2, 1, 0, 1)


def test_kernel_arrow_stability_check_catches_a_wrong_action(monkeypatch):
    # the radical of P(1) over the loop algebra is the kernel of P(1) -> S;
    # an arrow action that sends it onto the top is caught
    q = loop_algebra()
    tops0, tops1, _ = minimal_presentation(q, simple(q, 0))
    assert (tops0, tops1) == ([0], [0])
    monkeypatch.setattr(modules._ProjectiveSum, "arrow_action",
                        lambda self, aid, src: [None, 0])
    with pytest.raises(AssertionError, match="kernel is not arrow-stable"):
        minimal_presentation(q, simple(q, 0))


def test_kernel_arrow_stability_check_runs_where_the_target_kernel_is_zero(
        monkeypatch):
    # 0 -a-> 1 <-c- 2, 1 -d-> 3 with d.c = 0, and M the string a d plus the
    # simple at 2: the kernel of P0 -> M is c at vertex 1 and zero at 3, where
    # P0 still has the basis path d.a; an action of d that sends c onto d.a is
    # caught even though the target kernel is zero
    q = BoundQuiver(4, [Arrow("a", 0, 1), Arrow("c", 2, 1), Arrow("d", 1, 3)],
                    [("c", "d")])
    m = QuiverRep(q, (1, 1, 1, 1), {"a": [[1]], "d": [[1]]})
    tops0, tops1, _ = minimal_presentation(q, m)
    assert (tops0, tops1) == ([0, 2], [1])
    monkeypatch.setattr(modules._ProjectiveSum, "arrow_action",
                        lambda self, aid, src: [0] * len(self.vertex_basis[src]))
    with pytest.raises(AssertionError, match="kernel is not arrow-stable"):
        minimal_presentation(q, m)


def test_hom_with_fraction_entries():
    # Kronecker modules of dimension (1, 1) are the points (a : b) of the
    # projective line; Hom between two of them is 1 when the points agree
    q = BoundQuiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)], [])

    def point(a, b):
        return QuiverRep(q, (1, 1), {"a": [[a]], "b": [[b]]})

    m = point(Fraction(1, 2), Fraction(1, 3))
    assert hom_dim(q, m, m) == 1
    assert hom_dim(q, m, point(3, 2)) == 1
    assert hom_dim(q, point(3, 2), m) == 1
    assert hom_dim(q, m, point(1, 1)) == 0
    assert hom_dim(q, m, point(Fraction(2, 3), Fraction(1, 2))) == 0
    assert hom_dim(q, simple(q, 1), m) == 1
    assert hom_dim(q, m, simple(q, 1)) == 0


def test_enumerate_tau_rigid_a2():
    q = a2_path()
    rigid, truncated = enumerate_tau_rigid(StringInventory(q))
    assert not truncated
    assert sorted(d for _, d in rigid) == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_tau_rigid_loop():
    q = loop_algebra()
    rigid, _ = enumerate_tau_rigid(StringInventory(q))
    assert [d for _, d in rigid] == [(2,)]


def test_enumerate_tau_rigid_two_cycle():
    # both projectives share the dimension vector (1, 1): the dichotomy
    # witness; the simples are tau-rigid too (tau S_i = S_{3-i}, Hom = 0)
    q = two_cycle_full()
    rigid, _ = enumerate_tau_rigid(StringInventory(q))
    dims = sorted(d for _, d in rigid)
    assert dims == [(0, 1), (1, 0), (1, 1), (1, 1)]


def test_direct_sum_rigidity_matches_multiset_rule():
    q = four_cycle_full()
    inv = StringInventory(q)
    words = {}
    rigid, _ = enumerate_tau_rigid(inv)
    for w, d in rigid:
        words[d] = w
    # adjacent projectives around the cycle are compatible
    p01 = words[(1, 1, 0, 0)]
    p12 = words[(0, 1, 1, 0)]
    assert inv.compatible(p01, p12)
    m = direct_sum(inv.module(p01), inv.module(p12))
    assert is_tau_rigid(q, m)


def test_rigidity_additive_monotone():
    # M + M rigid exactly when M is
    q = loop_algebra()
    s = simple(q, 0)
    assert not is_tau_rigid(q, direct_sum(s, s))
    p = projective_module(q, 0)
    assert is_tau_rigid(q, direct_sum(p, p))


def test_zero_rep_conventions():
    q = a2_path()
    z = zero_rep(q)
    assert is_tau_rigid(q, z)
    assert not any(ar_translate(q, z).dims)
