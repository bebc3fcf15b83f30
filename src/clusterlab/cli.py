"""Command-line interface.

Subcommands mirror the library layers: `mutate`, `vectors` and `explore`
drive seed patterns; `gentle analyze` inspects a bound quiver; `tiling ...`
works with disc or general tilings; `verify ...` runs the theorem harnesses
and can persist reports.  Every command honors --format json|text and --out.

Each `verify` command is built from its harness's signature: a parameter
is the option of its name (`rank_max` is `--rank-max`), with its default.
"""

from __future__ import annotations

import inspect
import json
import sys

import click

from .errors import InfiniteDimensionalAlgebraError
from .exchange import ExchangeMatrix, parse_mutation_sequence
from .explore import enumerate_monomials, explore
from .quiver import BoundQuiver, cartan_matrix, check_gentle, \
    detect_even_full_cycle
from .modules import StringInventory, enumerate_tau_rigid
from .tracking import ClusterMonomial, d_matrix, run_walk, \
    vectors_of_monomial
from .tiling import DiscTiling, TilingComplex, one_holed_disc_tiling
from . import verify as verify_mod


def _load(path, option, build):
    """`build` applied to the text of the input file at `path`.  A malformed
    file is a usage error of `option`, not a traceback: a missing key or
    index, a wrong type, bad JSON or a value the library rejects
    (json.JSONDecodeError and NotSkewSymmetrizableError are ValueErrors,
    and reading a key off a JSON array is an AttributeError)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return build(text)
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        raise click.BadParameter(f"{path}: {type(exc).__name__}: {exc}",
                                 param_hint=f"'{option}'") from None


def _load_matrix(path):
    return _load(path, "--matrix", ExchangeMatrix.from_json)


def _load_quiver(path):
    return _load(path, "--quiver", BoundQuiver.from_json)


def _load_tiling(path):
    """The tiling at `path`, classified: a tile outside I-V is bad input."""
    def build(text):
        t = _tiling(json.loads(text))
        t.classify_tiles()
        return t
    return _load(path, "--tiling", build)


def _tiling(data):
    surface = data.get("surface", "disc")
    if surface == "disc":
        disc = DiscTiling(data["marked"],
                          tuple(tuple(c) for c in data["chords"]))
        return disc.to_complex()
    if surface == "one-holed-disc":
        return one_holed_disc_tiling(
            data["marked"], [tuple(c) for c in data.get("occ_chords", ())])
    if surface == "general":
        holes = {(a, d): c for a, d, c in data.get("holes", ())}
        fans = {int(p): [tuple(tok) for tok in fan]
                for p, fan in data["fans"].items()}
        return TilingComplex(
            data["marked"], data["boundary"],
            [(a["id"], a["ends"][0], a["ends"][1]) for a in data["arcs"]],
            fans, holes=holes)
    raise ValueError(f"unknown surface kind {surface!r}")


def _emit(result, fmt, out):
    text = json.dumps(result, indent=2, default=str)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if fmt == "json":
        click.echo(text)
    else:
        _emit_text(result)


def _scalar_list(v):
    return isinstance(v, (list, tuple)) and \
        all(not isinstance(x, (dict, list, tuple)) for x in v)


def _emit_text(result, indent=0):
    pad = "  " * indent
    if isinstance(result, dict):
        for k, v in result.items():
            if _scalar_list(v):
                click.echo(f"{pad}{k}: {list(v)}")
            elif isinstance(v, (dict, list)) and v:
                click.echo(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                click.echo(f"{pad}{k}: {v}")
    elif isinstance(result, list):
        for v in result:
            if _scalar_list(v):
                click.echo(f"{pad}- {list(v)}")
            elif isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                click.echo(f"{pad}- {v}")
    else:
        click.echo(f"{pad}{result}")


def format_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                      default="text", help="output format")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="also write the JSON result to this file")(fn)
    return fn


def _walk(matrix, seq):
    """The walk `seq` names and the tracked seed it reaches; a direction
    that is not an integer in 1..n is a usage error."""
    try:
        walk = parse_mutation_sequence(seq)
        if not all(1 <= k <= matrix.n for k in walk):
            raise ValueError(f"directions must lie in 1..{matrix.n}")
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--seq'") from None
    return walk, run_walk(matrix, walk)


def _tracked_matrices(t):
    """The C, G, F and D matrices of a tracked seed, as row lists."""
    return {"C": [list(r) for r in t.c], "G": [list(r) for r in t.g],
            "F": [list(r) for r in t.f], "D": d_matrix(t)}


@click.group()
def main():
    """Exact cluster-algebra, gentle-algebra and tiling computations."""


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--seq", default="", help="comma-separated 1-based directions")
@format_options
def mutate(matrix_path, seq, fmt, out):
    """Mutate a seed along a direction sequence."""
    walk, t = _walk(_load_matrix(matrix_path), seq)
    result = {
        "walk": walk,
        "B": [list(r) for r in t.seed.matrix.b],
        "cluster": [p.to_str() for p in t.seed.cluster],
        **_tracked_matrices(t),
    }
    _emit(result, fmt, out)


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--seq", default="", help="comma-separated 1-based directions")
@click.option("--exponents", default=None,
              help="monomial exponents at the reached cluster, e.g. 1,0,2")
@format_options
def vectors(matrix_path, seq, exponents, fmt, out):
    """C/G/F/D matrices and per-monomial d/g/f/fbar vectors."""
    _, t = _walk(_load_matrix(matrix_path), seq)
    result = _tracked_matrices(t)
    if exponents:
        try:
            monomial = ClusterMonomial(
                t, tuple(int(x) for x in exponents.split(",")))
        except ValueError as exc:
            raise click.BadParameter(str(exc),
                                     param_hint="'--exponents'") from None
        vecs = vectors_of_monomial(monomial)
        result["monomial"] = {k: list(v) for k, v in vecs.items()}
    _emit(result, fmt, out)


@main.command("explore")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--max-seeds", default=100000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--degree-cap", default=0, type=click.IntRange(min=0),
              help="also count monomials up to this degree")
@click.option("--variables/--no-variables", default=False,
              help="include the full variable table")
@format_options
def explore_cmd(matrix_path, max_seeds, degree_cap, variables, fmt, out):
    """Exhaustively close a seed pattern and report counts."""
    matrix = _load_matrix(matrix_path)
    graph = explore(matrix, max_seeds=max_seeds)
    result = {
        "complete": graph.complete,
        "clusters": len(graph.vertices),
        "cluster_variables": len(graph.variables),
    }
    if not graph.complete:
        result["note"] = f"max-seeds bound {max_seeds} exceeded"
    if degree_cap and graph.complete:
        result["monomials"] = sum(
            1 for _ in enumerate_monomials(graph, degree_cap))
    if variables:
        result["variables"] = [
            {"expansion": info.poly.to_str(), "d": list(info.d),
             "g": list(info.g), "f": list(info.f)}
            for info in graph.variables]
    _emit(result, fmt, out)


@main.group()
def gentle():
    """Gentle bound quiver commands."""


@gentle.command()
@click.option("--quiver", "quiver_path", required=True, type=click.Path(exists=True))
@click.option("--cap", default=None, type=click.IntRange(min=1),
              help="string length cap")
@format_options
def analyze(quiver_path, cap, fmt, out):
    """Gentleness, full-relation cycles, Cartan data, tau-rigid modules."""
    q = _load_quiver(quiver_path)
    cert = check_gentle(q)
    result = {"gentle": cert.ok}
    if not cert.ok:
        result["violation"] = {"condition": cert.violated,
                               "witness": cert.witness}
        _emit(result, fmt, out)
        return
    cycle = detect_even_full_cycle(q)
    result["even_full_cycle"] = cycle
    try:
        c, det = cartan_matrix(q)
    except InfiniteDimensionalAlgebraError as exc:
        # tau needs finite-dimensional projectives: no tau-rigid listing
        result["cartan_matrix"] = f"unavailable: {exc}"
        _emit(result, fmt, out)
        return
    result["cartan_matrix"] = c
    result["cartan_determinant"] = det
    inventory = StringInventory(q)
    rigid, truncated = enumerate_tau_rigid(inventory, cap)
    result["tau_rigid_truncated"] = truncated
    result["tau_rigid"] = [
        {"word": [f"{a}^-1" if inv else a for a, inv in w.letters]
         or [f"e_{w.base + 1}"],
         "dim": list(d)} for w, d in rigid]
    result["cache"] = {"tau_hits": inventory.tau_hits,
                       "tau_misses": inventory.tau_misses}
    _emit(result, fmt, out)


@main.group()
def tiling():
    """Tiling commands (disc, one-holed disc, or general JSON)."""


@tiling.command()
@click.option("--tiling", "tiling_path", required=True, type=click.Path(exists=True))
@format_options
def classify(tiling_path, fmt, out):
    """Tile types and the forbidden-tile scan."""
    t = _load_tiling(tiling_path)
    types = t.classify_tiles()
    result = {
        "tiles": {str(fid): kind for fid, kind in sorted(types.items())},
        "forbidden_scan_passes": t.admissible(),
    }
    _emit(result, fmt, out)


@tiling.command()
@click.option("--tiling", "tiling_path", required=True, type=click.Path(exists=True))
@format_options
def algebra(tiling_path, fmt, out):
    """The tiling algebra as a bound quiver."""
    t = _load_tiling(tiling_path)
    q, corners = t.algebra()
    result = json.loads(q.to_json())
    result["vertices_are_arcs"] = [a for a, _, _ in t.arcs]
    result["arrow_points"] = {aid: t.corner_point(c) + 1
                              for aid, c in corners.items()}
    _emit(result, fmt, out)


@tiling.command()
@click.option("--tiling", "tiling_path", required=True, type=click.Path(exists=True))
@click.option("--cap", default=None, type=click.IntRange(min=1))
@format_options
def arcs(tiling_path, cap, fmt, out):
    """Self-compatible permissible arcs with intersection vectors."""
    t = _load_tiling(tiling_path)
    arcs_list, truncated = t.enumerate_permissible_arcs(cap)
    result = {
        "truncated": truncated,
        "arcs": [{"endpoints": [p + 1 for p in a.endpoints],
                  "intersection_vector": list(a.intersection)}
                 for a in arcs_list],
    }
    _emit(result, fmt, out)


@main.group()
def verify():
    """Theorem-verification harnesses."""


# What the harness signatures leave out: the least value of an int (1 if
# unlisted), below which a family is empty, and the values of a string.
_MIN = {"marked_max": 4, "rank_max": 2}
_CHOICES = {"series": ["A", "B", "C"], "initial_seeds": ["all", "root"]}


def _verify_command(name, harness, help):
    """The `verify name` command: one option per parameter of `harness`,
    then --report-dir and the format options; a failed report exits 1.
    The harness is looked up by name when the command runs, so a wrapper
    put on `verify.<name>` after import (a tracer, a test) is the one run."""
    @click.option("--report-dir", default=None, type=click.Path())
    @format_options
    def run(report_dir, fmt, out, **params):
        report = getattr(verify_mod, harness.__name__)(**params)
        if report_dir:
            verify_mod.write_report(report, report_dir)
        _emit(report.to_dict(), fmt, out)
        if report.verdict == "fail":
            sys.exit(1)

    for p in reversed(inspect.signature(harness).parameters.values()):
        kind = click.Choice(_CHOICES[p.name]) if p.name in _CHOICES \
            else click.IntRange(min=_MIN.get(p.name, 1))
        run = click.option("--" + p.name.replace("_", "-"), default=p.default,
                           show_default=True, type=kind)(run)
    return click.command(name, help=help)(run)


for _args in (
        ("thm1", verify_mod.verify_thm1,
         "Intersection vectors determine arc multisets (and converse "
         "witnesses)."),
        ("thm2", verify_mod.verify_thm2,
         "Dimension-vector dichotomy over small gentle algebras."),
        ("fvector", verify_mod.verify_fvector_injectivity,
         "Modified f-vector injectivity for type A, with arc cross-checks."),
        ("denominator", verify_mod.verify_denominator,
         "Denominator-vector injectivity on bounded-degree monomials."),
        ("duality", verify_mod.verify_denominator_duality,
         "Langlands duality of the B and C exchange graphs, seed by seed."),
        ("type-c", verify_mod.verify_type_c_categorification,
         "Type C categorification through a one-holed disc's algebra.")):
    verify.add_command(_verify_command(*_args))


if __name__ == "__main__":
    main()
