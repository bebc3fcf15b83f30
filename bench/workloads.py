"""Workload inputs and the closed-form oracles that check their outputs.

A workload is a list of operations run in the same order every round.  An
operation is one `clusterlab` CLI invocation (a harness, driven in-process
through the click entry point) or one seeded random mutation walk.
`Operation.check` lists the problems the checks below find in a harness
report; an empty list means the report passed.

The expected counts are computed here from closed forms, never copied from
an earlier run of the program:

* cluster complex face numbers (Fomin-Zelevinsky, "Y-systems and
  generalized associahedra", 2003): A_n f_k = C(n,k) C(n+k+2,k)/(k+1) and
  B_n/C_n f_k = C(n,k) C(n+k,k); a k-face carries C(d-1,k-1) monomials of
  degree exactly d, and the top faces are the clusters;
* polygon dissections (Kirkman-Cayley): an m-gon has f_k(A_{m-3})
  dissections with k diagonals, summing to the little Schroeder number.
"""

from __future__ import annotations

import random
from math import comb

WORKLOADS = ("gentle", "tiling", "cluster")

# Harness parameters.  `tiling` and `cluster` run at the acceptance
# parameters; `gentle` keeps 4-vertex quivers but caps arrows at 4 so that a
# round takes seconds rather than the 50 s of the acceptance (4, 6, 3).
GENTLE = {"vertex_max": 4, "arrow_max": 4, "mult_cap": 3}
TILING = {"marked_max": 8, "mult_cap": 3}
CLUSTER_RANK = 3
CLUSTER_DEGREE = 3
WALK_RANKS = (2, 3, 4)
WALKS_PER_MATRIX = 4
WALK_LENGTH = 12


# ---------------------------------------------------------------------------
# closed forms


def faces(series, n, k):
    """Number of k-element faces of the cluster complex of type series_n."""
    if k == 0:
        return 1
    if series == "A":
        return comb(n, k) * comb(n + k + 2, k) // (k + 1)
    return comb(n, k) * comb(n + k, k)


def clusters(series, n):
    return faces(series, n, n)


def monomials(series, n, degree_cap):
    """Cluster monomials of total degree 1..degree_cap."""
    return sum(faces(series, n, k) * comb(d - 1, k - 1)
               for d in range(1, degree_cap + 1)
               for k in range(1, min(n, d) + 1))


def dissections(m):
    """Dissections of a convex m-gon by non-crossing diagonals, none included."""
    return sum(faces("A", m - 3, k) for k in range(m - 2))


# ---------------------------------------------------------------------------
# operations


class Operation:
    def __init__(self, name, argv=None, walk=None):
        self.name = name
        self.argv = argv  # CLI arguments after `clusterlab`
        self.walk = walk  # (series, rank, directions)

    def check(self, report):
        """Problems in a parsed harness report (empty when it passes)."""
        problems = []
        if report.get("verdict") != "pass":
            problems.append(f"verdict {report.get('verdict')!r}")
        problems.extend(_CHECKS[self.argv[1]](self, report["counts"], report))
        return problems


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, closed form gives {want!r}")


def _param(op, flag):
    return int(op.argv[op.argv.index(flag) + 1])


def _check_thm1(op, counts, report):
    problems = []
    m_max = _param(op, "--marked-max")
    _expect(problems, "tilings + outside_taxonomy",
            counts["tilings"] + counts["outside_taxonomy"],
            sum(dissections(m) for m in range(4, m_max + 1)))
    _expect(problems, "admissible + forbidden",
            counts["admissible"] + counts["forbidden"], counts["tilings"])
    if m_max >= 8:
        witnesses = [w["converse"] for w in report["witnesses"]
                     if isinstance(w.get("converse"), dict)]
        if not any(_octagon_central_square(w["tiling"]) and
                   w["multisets"][0] != w["multisets"][1]
                   for w in witnesses):
            problems.append("no octagon central-square converse witness")
    return problems


def _octagon_central_square(tiling):
    """Four chords of the octagon, each skipping exactly one point."""
    m, chords = tiling
    return m == 8 and len(chords) == 4 and all(
        (b - a) % 8 in (2, 6) for a, b in chords) and len(
        {p for c in chords for p in c}) == 4


def _check_thm2(op, counts, report):
    problems = []
    _expect(problems, "representation_finite + representation_infinite_skipped",
            counts["representation_finite"]
            + counts["representation_infinite_skipped"], counts["algebras"])
    _expect(problems, "with_even_cycle + without_even_cycle",
            counts["with_even_cycle"] + counts["without_even_cycle"],
            counts["representation_finite"])
    if not counts["with_even_cycle"] or not counts["without_even_cycle"]:
        problems.append("an even-cycle class is empty")
    if counts["max_multiplicity_needed"] < 2:
        problems.append("max_multiplicity_needed below 2")
    return problems


def _check_denominator(op, counts, report):
    problems = []
    series = op.argv[op.argv.index("--series") + 1]
    ranks = range(2, _param(op, "--rank-max") + 1)
    d = _param(op, "--degree-cap")
    reroots = sum(clusters(series, n) for n in ranks)
    _expect(problems, f"{series} reroots", counts["reroots"], reroots)
    _expect(problems, f"{series} monomials", counts["monomials"],
            sum((1 + clusters(series, n)) * monomials(series, n, d)
                for n in ranks))
    return problems


def _check_fvector(op, counts, report):
    problems = []
    n_max = _param(op, "--rank-max")
    d = _param(op, "--degree-cap")
    for n in range(2, n_max + 1):
        _expect(problems, f"A{n}_monomials", counts[f"A{n}_monomials"],
                monomials("A", n, d))
    _expect(problems, "triangulations_cross_checked",
            counts["triangulations_cross_checked"],
            sum(clusters("A", m - 3) for m in range(5, n_max + 4)))
    return problems


def _check_duality(op, counts, report):
    problems = []
    _expect(problems, "verdicts", counts["verdicts"],
            {"B": "pass", "C": "pass"})
    return problems


def _check_type_c(op, counts, report):
    problems = []
    d = _param(op, "--degree-cap")
    for n in range(2, _param(op, "--rank-max") + 1):
        _expect(problems, f"C{n}_ind_tau_rigid", counts[f"C{n}_ind_tau_rigid"],
                n * n)
        _expect(problems, f"C{n}_pairs", counts[f"C{n}_pairs"],
                monomials("C", n, d))
    return problems


_CHECKS = {"thm1": _check_thm1, "thm2": _check_thm2,
           "denominator": _check_denominator, "fvector": _check_fvector,
           "duality": _check_duality, "type-c": _check_type_c}


def _verify_argv(command, **params):
    argv = ["verify", command]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["--format", "json"]


def _walks(seed):
    """Seeded random walks: WALKS_PER_MATRIX per standard matrix of series
    A, B, C at each rank in WALK_RANKS, never repeating a direction twice in
    a row (that would only undo the previous step)."""
    rng = random.Random(seed)
    out = []
    for series in "ABC":
        for n in WALK_RANKS:
            for _ in range(WALKS_PER_MATRIX):
                dirs = []
                for _ in range(WALK_LENGTH):
                    dirs.append(rng.choice(
                        [k for k in range(1, n + 1) if not dirs or k != dirs[-1]]))
                out.append((series, n, tuple(dirs)))
    return out


def build(workload, seed):
    """The operations of one round of `workload`, generated from `seed`.

    The harnesses enumerate fixed finite families, so the seed only draws
    the random walks of the `cluster` workload.
    """
    if workload == "gentle":
        return [Operation("thm2", _verify_argv("thm2", **GENTLE))]
    if workload == "tiling":
        return [Operation("thm1", _verify_argv("thm1", **TILING))]
    if workload == "cluster":
        rank = {"rank_max": CLUSTER_RANK, "degree_cap": CLUSTER_DEGREE}
        ops = [Operation(f"denominator-{s}",
                         _verify_argv("denominator", series=s,
                                      initial_seeds="all", **rank))
               for s in "ABC"]
        ops += [Operation("fvector", _verify_argv("fvector", **rank)),
                Operation("duality", _verify_argv("duality", **rank)),
                Operation("type-c", _verify_argv("type-c", **rank))]
        ops += [Operation(f"walk-{s}{n}-{i}", walk=(s, n, dirs))
                for i, (s, n, dirs) in enumerate(_walks(seed))]
        return ops
    raise ValueError(f"unknown workload {workload!r}")
