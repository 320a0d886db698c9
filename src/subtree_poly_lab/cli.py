"""Batch experiment driver.

One command per run, one JSON document (or CSV table) on stdout,
diagnostics on stderr. Every document embeds the resolved experiment
spec and the artifact version, so a run is reproducible from its own
output. Exit codes: 0 success, 1 validation error, 2 capacity error,
3 certification/assertion failure.

The --threads flag caps module parallelism; it is an execution knob, not
part of the experiment spec, and never changes results or output bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import __version__
from .counting import (
    DEFAULT_ENUMERATION_CAP,
    MAX_BITMASK_VERTICES,
    check_ratio_inequalities,
    complete_graph_counts,
    spanning_tree_count,
    subtree_counts,
)
from .errors import CapacityError, CertificationError, SubtreeLabError, ValidationError
from .graphs import (
    FamilySpec,
    Graph,
    degree_profile,
    from_edge_list,
    generate,
    is_connected,
    parse_family,
)
from .polyroots import build_polynomial, find_roots, poisson_deviation, rouche_margin, tree_root_check
from .rng import DOMAIN_SAMPLE, stream
from .spanning import (
    estimate_beta,
    exact_beta,
    leaf_weight,
    verify_weight_identity,
    weight_experiment,
    wilson_sample,
)

THREADS_ENV = "SUBTREE_POLY_LAB_THREADS"
WORST_ITERATES_SHOWN = 5

_EPILOG = """\
graph sources:
  --graph accepts complete(n), cycle(n), path(n), gnp(n,p), random_tree(n),
  complete_minus_perfect_matching(n); --edge-list reads the documented
  edge-list format (header "n m", then m lines "u v", 0 <= u < v < n).

CSV columns (fixed per command):
  counts:     k,s_k
  beta:       n,estimate,standard_error,samples,seed
  sample:     index,weight,leaf_count,edges
  roots:      index,re,im,residual,modulus
  rouche:     n,C,radius,beta,max_margin,witness_ok
  poisson:    k,dev,dev_exact
  verify:     check,index,lhs,rhs,passed
  tree-check: n,max_modulus,bound,within_bound,annulus_ok
  experiment: b,tail_count,empirical_tail,bound_min_degree,bound_alpha_form,status
  sweep:      per inner command, see --help of sweep

environment:
  SUBTREE_POLY_LAB_THREADS sets the default --threads value.

exit codes: 0 ok, 1 validation error, 2 capacity error, 3 assertion failure.
"""


@dataclass
class ExperimentSpec:
    """Resolved run description, echoed verbatim into every output document."""

    command: str
    graph_source: str | None
    seed: int
    output_format: str
    parameters: dict

    def to_json_dict(self) -> dict:
        doc = {
            "command": self.command,
            "graph": self.graph_source,
            "seed": self.seed,
            "format": self.output_format,
        }
        doc.update(self.parameters)
        return doc


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for capacity here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="subtree-poly-lab",
        description="Subtree-count vectors, spanning-tree experiments, and "
        "subtree-polynomial root diagnostics.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"subtree-poly-lab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    graph_args = argparse.ArgumentParser(add_help=False)
    src = graph_args.add_mutually_exclusive_group()
    src.add_argument("--graph", help="family spec, e.g. complete(4) or gnp(10,0.5)")
    src.add_argument("--edge-list", help="path to an edge-list document")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get(THREADS_ENV, "1")),
        help="cap on module parallelism (execution knob, results unchanged)",
    )

    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help=f"vertex cap for exact counting (default {DEFAULT_ENUMERATION_CAP}; "
        f"at most {MAX_BITMASK_VERTICES}, the width of the subset bitmasks)",
    )

    p = sub.add_parser("counts", parents=[graph_args, common, caps], help="exact subtree-count vector")

    p = sub.add_parser("beta", parents=[graph_args, common], help="Monte Carlo estimate of s_(n-1)/s_n")
    p.add_argument("--samples", type=int, default=10000)

    p = sub.add_parser("sample", parents=[graph_args, common], help="draw uniform spanning trees")
    p.add_argument("--samples", type=int, default=1)

    p = sub.add_parser("roots", parents=[graph_args, common, caps], help="certified roots of the subtree polynomial")
    p.add_argument("--precision-bits", type=int, default=192)

    p = sub.add_parser("rouche", parents=[graph_args, common, caps], help="sampled margin on the critical circle")
    p.add_argument("--C", type=float, default=7.0)
    p.add_argument("--circle-points", type=int, default=256)
    p.add_argument("--precision-bits", type=int, default=192)

    p = sub.add_parser("poisson", parents=[graph_args, common, caps], help="factorial-normalized deviations")
    p.add_argument("--k-max", type=int, default=3)

    p = sub.add_parser("verify", parents=[graph_args, common, caps], help="identity and inequality battery")
    p.add_argument("--tree-cap", type=int, default=10**6)

    p = sub.add_parser("tree-check", parents=[graph_args, common], help="root bound diagnostics for a tree host")
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = sub.add_parser("experiment", parents=[graph_args, common], help="sampling battery: beta, leaf counts, tails")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--b-grid", default="0.2,0.3,0.4,0.5")
    p.add_argument("--epsilon", type=float, default=0.05)

    p = sub.add_parser(
        "sweep",
        parents=[common, caps],
        help="one CSV row per n for a family template",
        description="CSV columns: counts -> n,m,s_n,beta; beta -> n,estimate,"
        "standard_error,samples,seed; roots -> n,max_modulus,vieta_relative_error,"
        "iterations; rouche -> n,radius,beta,max_margin,witness_ok; "
        "poisson -> n,dev_0..dev_kmax,max_abs_dev",
    )
    p.add_argument("--family", required=True, help="complete, cycle, path, random_tree, gnp")
    p.add_argument("--p", type=float, default=0.5, help="edge probability for gnp sweeps")
    p.add_argument("--n-list", required=True, help="comma-separated vertex counts, may be empty")
    p.add_argument("--command", required=True, dest="inner",
                   choices=("counts", "beta", "roots", "rouche", "poisson"))
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--C", type=float, default=7.0)
    p.add_argument("--circle-points", type=int, default=256)
    p.add_argument("--k-max", type=int, default=3)
    return parser


def _load_graph(args) -> tuple[Graph, FamilySpec | None, str]:
    if getattr(args, "edge_list", None):
        with open(args.edge_list, encoding="utf-8") as handle:
            text = handle.read()
        return from_edge_list(text), None, f"edge-list:{args.edge_list}"
    if getattr(args, "graph", None):
        family = parse_family(args.graph)
        return generate(family, args.seed), family, str(family)
    raise ValidationError("a graph source is required: --graph or --edge-list")


def _counts_for(graph: Graph, family: FamilySpec | None, cap: int):
    # complete-family requests use the closed form: exact, and not limited
    # by the enumeration cap (the two agree wherever both run)
    if family is not None and family.name == "complete":
        return complete_graph_counts(family.args[0])
    return subtree_counts(graph, cap=cap)


def _document(spec: ExperimentSpec, result: dict) -> str:
    doc = {
        "artifact": "subtree-poly-lab",
        "version": __version__,
        "spec": spec.to_json_dict(),
        "result": result,
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv_table(spec: ExperimentSpec, header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    out.write(f"# subtree-poly-lab {__version__} spec={json.dumps(spec.to_json_dict())}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _fraction_str(x: Fraction) -> str:
    return str(x)


def _cmd_counts(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    counts = _counts_for(graph, family, args.cap)
    spec = ExperimentSpec("counts", source, args.seed, args.format, {"cap": args.cap})
    if args.format == "csv":
        rows = [[k, str(counts.s(k))] for k in range(1, counts.n + 1)]
        return _csv_table(spec, ["k", "s_k"], rows), 0
    result = counts.to_json_dict()
    result["fingerprint"] = counts.fingerprint
    result["connected"] = counts.s(counts.n) > 0
    return _document(spec, result), 0


def _cmd_beta(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    estimate = estimate_beta(graph, args.samples, args.seed, threads=args.threads)
    spec = ExperimentSpec("beta", source, args.seed, args.format, {"samples": args.samples})
    result = estimate.to_json_dict()
    if family is not None and family.name == "complete":
        exact = exact_beta(complete_graph_counts(family.args[0]))
        result["exact"] = float(exact)
        result["exact_fraction"] = _fraction_str(exact)
    if args.format == "csv":
        rows = [[graph.n, repr(float(estimate.mean)), repr(estimate.standard_error),
                 estimate.samples, estimate.seed]]
        return _csv_table(spec, ["n", "estimate", "standard_error", "samples", "seed"], rows), 0
    return _document(spec, result), 0


def _cmd_sample(args) -> tuple[str, int]:
    graph, _, source = _load_graph(args)
    if args.samples < 1:
        raise ValidationError("--samples must be positive")
    spec = ExperimentSpec("sample", source, args.seed, args.format, {"samples": args.samples})
    trees = []
    for i in range(args.samples):
        tree = wilson_sample(graph, stream(args.seed, i, domain=DOMAIN_SAMPLE))
        sample = leaf_weight(tree, graph)
        trees.append(
            {
                "index": i,
                "edges": [[u, v] for u, v in sorted(tree.edges)],
                "leaf_set": sorted(tree.leaf_set),
                "leaf_count": sample.leaf_count,
                "weight": _fraction_str(sample.weight),
            }
        )
    if args.format == "csv":
        rows = [
            [t["index"], t["weight"], t["leaf_count"],
             ";".join(f"{u}-{v}" for u, v in t["edges"])]
            for t in trees
        ]
        return _csv_table(spec, ["index", "weight", "leaf_count", "edges"], rows), 0
    return _document(spec, {"trees": trees}), 0


def _mp_str(x) -> str:
    return mp.nstr(x, 20)


def _cmd_roots(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    counts = _counts_for(graph, family, args.cap)
    analysis = find_roots(build_polynomial(counts), precision_bits=args.precision_bits)
    spec = ExperimentSpec(
        "roots", source, args.seed, args.format,
        {"cap": args.cap, "precision_bits": args.precision_bits},
    )
    if args.format == "csv":
        rows = [
            [i, _mp_str(r.real), _mp_str(r.imag), repr(res), _mp_str(abs(r))]
            for i, (r, res) in enumerate(zip(analysis.roots, analysis.residuals))
        ]
        return _csv_table(spec, ["index", "re", "im", "residual", "modulus"], rows), 0
    return _document(spec, analysis.to_json_dict()), 0


def _cmd_rouche(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    counts = _counts_for(graph, family, args.cap)
    alpha = degree_profile(graph).alpha
    report = rouche_margin(
        counts, alpha, C=args.C, circle_points=args.circle_points,
        precision_bits=args.precision_bits,
    )
    spec = ExperimentSpec(
        "rouche", source, args.seed, args.format,
        {"C": args.C, "circle_points": args.circle_points, "cap": args.cap,
         "precision_bits": args.precision_bits},
    )
    status = 0 if report.witness_ok else 3
    if args.format == "csv":
        rows = [[report.n, repr(report.C), repr(report.radius), repr(float(report.beta)),
                 repr(report.max_margin), report.witness_ok]]
        return _csv_table(spec, ["n", "C", "radius", "beta", "max_margin", "witness_ok"], rows), status
    return _document(spec, report.to_json_dict()), status


def _cmd_poisson(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    counts = _counts_for(graph, family, args.cap)
    if args.k_max >= counts.n:
        raise ValidationError(f"--k-max must be below n = {counts.n}")
    devs = poisson_deviation(counts, args.k_max)
    spec = ExperimentSpec(
        "poisson", source, args.seed, args.format, {"k_max": args.k_max, "cap": args.cap}
    )
    if args.format == "csv":
        rows = [[k, repr(float(d)), _fraction_str(d)] for k, d in enumerate(devs)]
        return _csv_table(spec, ["k", "dev", "dev_exact"], rows), 0
    result = {
        "k_max": args.k_max,
        "deviations": [float(d) for d in devs],
        "deviations_exact": [_fraction_str(d) for d in devs],
    }
    return _document(spec, result), 0


def _cmd_verify(args) -> tuple[str, int]:
    graph, family, source = _load_graph(args)
    spec = ExperimentSpec("verify", source, args.seed, args.format,
                          {"cap": args.cap, "tree_cap": args.tree_cap})
    connected = is_connected(graph)
    if not connected:
        # the identities under test assume a connected host: flag and stop
        result = {"connected": False, "checks_run": False}
        print("input graph is disconnected; verification checks skipped", file=sys.stderr)
        return _document(spec, result), 1
    counts = _counts_for(graph, family, args.cap)
    profile = degree_profile(graph)
    identity = verify_weight_identity(graph, cap=args.tree_cap)
    inequalities = check_ratio_inequalities(counts, profile.alpha, profile.min_degree)
    matrix_tree = spanning_tree_count(graph)
    base_checks = {
        "s_1_equals_n": counts.s(1) == graph.n,
        "s_2_equals_m": counts.s(2) == graph.m,
        "s_n_equals_matrix_tree": counts.s(counts.n) == matrix_tree,
        "tree_count_matches_matrix_tree": identity.tree_count == matrix_tree,
    }
    ok = identity.equal and inequalities.all_passed and all(base_checks.values())
    result = {
        "connected": True,
        "checks_run": True,
        "weight_identity": identity.to_json_dict(),
        "ratio_inequalities": inequalities.to_json_dict(),
        "base_checks": base_checks,
        "all_passed": ok,
    }
    if args.format == "csv":
        rows = [["weight_identity", "", str(identity.weight_sum), str(identity.s_n_minus_1), identity.equal]]
        rows += [["base:" + name, "", "", "", passed] for name, passed in base_checks.items()]
        rows += [
            [c.kind, c.index, str(c.lhs), str(c.rhs), c.passed]
            for c in inequalities.checks
        ]
        return _csv_table(spec, ["check", "index", "lhs", "rhs", "passed"], rows), 0 if ok else 3
    return _document(spec, result), 0 if ok else 3


def _cmd_tree_check(args) -> tuple[str, int]:
    graph, _, source = _load_graph(args)
    report = tree_root_check(graph, tolerance=args.tolerance)
    spec = ExperimentSpec("tree-check", source, args.seed, args.format,
                          {"tolerance": args.tolerance})
    status = 0 if report.within_bound else 3
    if args.format == "csv":
        rows = [[report.n, repr(report.max_modulus), repr(report.bound),
                 report.within_bound, report.annulus_ok]]
        return _csv_table(spec, ["n", "max_modulus", "bound", "within_bound", "annulus_ok"], rows), status
    return _document(spec, report.to_json_dict()), status


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"bad b-grid {text!r}, expected comma-separated reals")
    if not grid:
        raise ValidationError("b-grid must be nonempty")
    return grid


def _cmd_experiment(args) -> tuple[str, int]:
    graph, _, source = _load_graph(args)
    b_grid = _parse_grid(args.b_grid)
    beta_report, leaf_report, tails = weight_experiment(
        graph, args.samples, args.seed, b_grid, args.epsilon, threads=args.threads
    )
    spec = ExperimentSpec(
        "experiment", source, args.seed, args.format,
        {"samples": args.samples, "b_grid": b_grid, "epsilon": args.epsilon},
    )
    if args.format == "csv":
        rows = [
            [r.b, r.tail_count, repr(r.empirical_tail), repr(r.bound_min_degree),
             repr(r.bound_alpha_form), r.status_min_degree]
            for r in tails.rows
        ]
        return _csv_table(
            spec,
            ["b", "tail_count", "empirical_tail", "bound_min_degree",
             "bound_alpha_form", "status"],
            rows,
        ), 0
    result = {
        "beta": beta_report.to_json_dict(),
        "leaf_counts": leaf_report.to_json_dict(),
        "concentration": tails.to_json_dict(),
    }
    return _document(spec, result), 0


def _sweep_instance(args, n: int):
    if args.family == "complete":
        return None, complete_graph_counts(n)
    if args.family == "gnp":
        spec = FamilySpec("gnp", (n, args.p))
    else:
        spec = FamilySpec(args.family, (n,))
    graph = generate(spec, args.seed)
    return graph, None


def _cmd_sweep(args) -> tuple[str, int]:
    n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    params = {
        "family": args.family, "n_list": n_list, "inner_command": args.inner,
        "cap": args.cap, "samples": args.samples, "C": args.C,
        "circle_points": args.circle_points, "k_max": args.k_max,
    }
    if args.family == "gnp":
        params["p"] = args.p
    spec = ExperimentSpec("sweep", None, args.seed, "csv", params)
    headers = {
        "counts": ["n", "m", "s_n", "beta"],
        "beta": ["n", "estimate", "standard_error", "samples", "seed"],
        "roots": ["n", "max_modulus", "vieta_relative_error", "iterations"],
        "rouche": ["n", "radius", "beta", "max_margin", "witness_ok"],
        "poisson": ["n"] + [f"dev_{k}" for k in range(args.k_max + 1)] + ["max_abs_dev"],
    }
    rows = []
    for n in n_list:
        try:
            rows.append(_sweep_row(args, n))
        except SubtreeLabError as err:
            # same object, so a certification failure keeps its iterates
            err.args = (f"sweep aborted at n={n}: {err}",)
            raise
    return _csv_table(spec, headers[args.inner], rows), 0


def _sweep_row(args, n: int) -> list:
    graph, counts = _sweep_instance(args, n)
    if args.inner == "beta":
        if graph is None:
            graph = generate(FamilySpec("complete", (n,)), args.seed)
        est = estimate_beta(graph, args.samples, args.seed, threads=args.threads)
        return [n, repr(float(est.mean)), repr(est.standard_error), est.samples, est.seed]
    if counts is None:
        counts = subtree_counts(graph, cap=args.cap)
    if args.inner == "counts":
        beta = exact_beta(counts) if counts.s(n) else None
        return [n, str(counts.s(2)), str(counts.s(n)),
                repr(float(beta)) if beta is not None else ""]
    if args.inner == "roots":
        analysis = find_roots(build_polynomial(counts))
        return [n, repr(analysis.max_modulus), repr(analysis.vieta_relative_error),
                analysis.iterations]
    if args.inner == "rouche":
        alpha = Fraction(n - 1, n) if graph is None else degree_profile(graph).alpha
        report = rouche_margin(counts, alpha, C=args.C, circle_points=args.circle_points)
        return [n, repr(report.radius), repr(float(report.beta)),
                repr(report.max_margin), report.witness_ok]
    if args.inner == "poisson":
        devs = poisson_deviation(counts, min(args.k_max, n - 1))
        floats = [float(d) for d in devs] + [float("nan")] * (args.k_max + 1 - len(devs))
        max_abs = max((abs(float(d)) for d in devs[1:]), default=0.0)
        return [n] + [repr(v) for v in floats] + [repr(max_abs)]
    raise ValidationError(f"unknown sweep command {args.inner!r}")


_DISPATCH = {
    "counts": _cmd_counts,
    "beta": _cmd_beta,
    "sample": _cmd_sample,
    "roots": _cmd_roots,
    "rouche": _cmd_rouche,
    "poisson": _cmd_poisson,
    "verify": _cmd_verify,
    "tree-check": _cmd_tree_check,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            raise ValidationError("a command is required")
        output, status = _DISPATCH[args.command](args)
        sys.stdout.write(output)
        return status
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 2
    except CertificationError as err:
        print(f"certification failure: {err}", file=sys.stderr)
        for line in _worst_iterates(err):
            print(line, file=sys.stderr)
        return 3


def _worst_iterates(err: CertificationError) -> list[str]:
    """The largest residuals (NaN first) with their indices and iterates."""
    residuals = err.residuals
    ranked = sorted(
        range(len(residuals)), key=lambda i: (not math.isnan(residuals[i]), -residuals[i])
    )[:WORST_ITERATES_SHOWN]
    lines = [f"worst {len(ranked)} of {len(residuals)} residuals:"]
    for i in ranked:
        z = mp.mpc(err.roots[i])
        lines.append(
            f"  index {i}  residual {residuals[i]:.3e}  "
            f"iterate ({_mp_str(z.real)}, {_mp_str(z.imag)})"
        )
    return lines


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
