"""Command-line interface.

Subcommands mirror the library layers: `mutate`, `vectors` and `explore`
drive seed patterns; `gentle analyze` inspects a bound quiver; `tiling ...`
works with disc or general tilings; `verify ...` runs the theorem harnesses
and can persist reports.  Every command honors --format json|text and --out.
"""

from __future__ import annotations

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


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return ExchangeMatrix.from_json(fh.read())


def _load_quiver(path):
    with open(path, encoding="utf-8") as fh:
        return BoundQuiver.from_json(fh.read())


def _load_tiling(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
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
    raise click.ClickException(f"unknown surface kind {surface!r}")


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
    matrix = _load_matrix(matrix_path)
    walk = parse_mutation_sequence(seq)
    t = run_walk(matrix, walk)
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
    matrix = _load_matrix(matrix_path)
    t = run_walk(matrix, parse_mutation_sequence(seq))
    result = _tracked_matrices(t)
    if exponents:
        exps = tuple(int(x) for x in exponents.split(","))
        vecs = vectors_of_monomial(ClusterMonomial(t, exps))
        result["monomial"] = {k: list(v) for k, v in vecs.items()}
    _emit(result, fmt, out)


@main.command("explore")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(exists=True))
@click.option("--max-seeds", default=100000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--degree-cap", default=0, help="also count monomials up to this degree")
@click.option("--variables/--no-variables", default=False,
              help="include the full variable table")
@format_options
def explore_cmd(matrix_path, max_seeds, degree_cap, variables, fmt, out):
    """Exhaustively close a seed pattern and report counts."""
    matrix = _load_matrix(matrix_path)
    graph = explore(matrix, max_seeds=max_seeds)
    result = {
        "complete": graph.complete,
        "clusters": graph.cluster_count(),
        "cluster_variables": graph.variable_count(),
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
        "forbidden_scan_passes": t.forbidden_tile_scan(),
    }
    _emit(result, fmt, out)


@tiling.command()
@click.option("--tiling", "tiling_path", required=True, type=click.Path(exists=True))
@format_options
def algebra(tiling_path, fmt, out):
    """The tiling algebra as a bound quiver."""
    t = _load_tiling(tiling_path)
    q, geo = t.algebra()
    result = json.loads(q.to_json())
    result["vertices_are_arcs"] = [a for a, _, _ in t.arcs]
    result["arrow_points"] = {aid: g["point"] + 1 for aid, g in geo.items()}
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


def _report_command(report, report_dir, fmt, out):
    if report_dir:
        verify_mod.write_report(report, report_dir)
    _emit(report.to_dict(), fmt, out)
    if report.verdict == "fail":
        sys.exit(1)


@verify.command("thm1")
@click.option("--marked-max", default=8, show_default=True,
              type=click.IntRange(min=4))
@click.option("--mult-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_thm1_cmd(marked_max, mult_cap, report_dir, fmt, out):
    """Intersection vectors determine arc multisets (and converse witnesses)."""
    _report_command(verify_mod.verify_thm1(marked_max, mult_cap),
                    report_dir, fmt, out)


@verify.command("thm2")
@click.option("--vertex-max", default=4, show_default=True,
              type=click.IntRange(min=1))
@click.option("--arrow-max", default=6, show_default=True,
              type=click.IntRange(min=1))
@click.option("--mult-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_thm2_cmd(vertex_max, arrow_max, mult_cap, report_dir, fmt, out):
    """Dimension-vector dichotomy over small gentle algebras."""
    _report_command(verify_mod.verify_thm2(vertex_max, arrow_max, mult_cap),
                    report_dir, fmt, out)


@verify.command("fvector")
@click.option("--rank-max", default=3, show_default=True,
              type=click.IntRange(min=2))
@click.option("--degree-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_fvector_cmd(rank_max, degree_cap, report_dir, fmt, out):
    """Modified f-vector injectivity for type A, with arc cross-checks."""
    _report_command(verify_mod.verify_fvector_injectivity(rank_max, degree_cap),
                    report_dir, fmt, out)


@verify.command("denominator")
@click.option("--series", type=click.Choice(["A", "B", "C"]), default="C")
@click.option("--rank-max", default=3, show_default=True,
              type=click.IntRange(min=2))
@click.option("--degree-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--initial-seeds", type=click.Choice(["all", "root"]),
              default="all", show_default=True)
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_denominator_cmd(series, rank_max, degree_cap, initial_seeds,
                           report_dir, fmt, out):
    """Denominator-vector injectivity on bounded-degree monomials."""
    _report_command(
        verify_mod.verify_denominator(series, rank_max, degree_cap,
                                      initial_seeds),
        report_dir, fmt, out)


@verify.command("duality")
@click.option("--rank-max", default=3, show_default=True,
              type=click.IntRange(min=2))
@click.option("--degree-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--initial-seeds", type=click.Choice(["all", "root"]),
              default="root", show_default=True)
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_duality_cmd(rank_max, degree_cap, initial_seeds, report_dir, fmt, out):
    """Paired B/C denominator verdicts."""
    _report_command(
        verify_mod.verify_denominator_duality(rank_max, degree_cap,
                                              initial_seeds),
        report_dir, fmt, out)


@verify.command("type-c")
@click.option("--rank-max", default=2, show_default=True,
              type=click.IntRange(min=2))
@click.option("--degree-cap", default=3, show_default=True,
              type=click.IntRange(min=1))
@click.option("--report-dir", default=None, type=click.Path())
@format_options
def verify_type_c_cmd(rank_max, degree_cap, report_dir, fmt, out):
    """Type C categorification through the loop quiver algebra."""
    _report_command(
        verify_mod.verify_type_c_categorification(rank_max, degree_cap),
        report_dir, fmt, out)


if __name__ == "__main__":
    main()
