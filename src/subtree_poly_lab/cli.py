"""Batch experiment driver.

One command per run, one JSON document (or CSV table) on stdout,
diagnostics on stderr. Every document embeds the resolved experiment
spec and the artifact version, so a run is reproducible from its own
output. Exit codes: 0 success, 1 validation error, 2 capacity error,
3 certification/assertion failure.

Commands are rows of two tables, `_COMMANDS` (graph commands) and
`_SWEEP` (sweep rows); `_render` is the one place that writes either
format, and the help text's CSV columns are read from the tables. A
sweep row and its command's document project one report, computed by one
function such as `_roots`. The library's reports carry no output format:
`_json` writes each one, and its table `_FORMATS` holds every key or
value that differs from a field.

Each numeric flag is parsed by the library's check of its parameter
(`params`), so a value out of range exits 1 before any work starts.

The --threads flag caps module parallelism; it is an execution knob, not
part of the experiment spec, and never changes results or output bytes.

Each handler imports the lab modules it runs (and numpy through them)
when it is called, so a process loads only what its command uses.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import partial

from . import __version__
from . import params as checks
from .counting import (
    MAX_BITMASK_VERTICES,
    check_ratio_inequalities,
    closed_form_counts,
    counts_for,
    exact_beta,
    poisson_deviation,
)
from .errors import CapacityError, CertificationError, SubtreeLabError, ValidationError
from .graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    degree_profile,
    from_edge_list,
    generate,
    is_connected,
    parse_family,
)

WORST_ITERATES_SHOWN = 5

_EPILOG = """\
graph sources:
  --graph accepts complete(n), cycle(n), path(n), gnp(n,p), random_tree(n),
  complete_minus_perfect_matching(n); --edge-list reads the documented
  edge-list format (header "n m", then m lines "u v", 0 <= u < v < n).

CSV columns (fixed per command):
{columns}  sweep:      per inner command, see --help of sweep

exit codes: 0 ok, 1 validation error, 2 capacity error, 3 assertion failure.
"""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for capacity here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _numeric(parser, flag: str, check, default, **kwargs) -> None:
    """Add `flag`, parsed by the library's `check` under the flag's name."""
    parser.add_argument(flag, type=partial(check, name=flag), default=default, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    columns = "".join(f"  {name + ':':<12}{header}\n" for name, (_, header) in _COMMANDS.items())
    parser = _ArgumentParser(
        prog="subtree-poly-lab",
        description="Subtree-count vectors, spanning-tree experiments, and "
        "subtree-polynomial root diagnostics.",
        epilog=_EPILOG.format(columns=columns),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"subtree-poly-lab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    graph_args = argparse.ArgumentParser(add_help=False)
    src = graph_args.add_mutually_exclusive_group()
    src.add_argument("--graph", help="family spec, e.g. complete(4) or gnp(10,0.5)")
    src.add_argument("--edge-list", help="path to an edge-list document")

    common = argparse.ArgumentParser(add_help=False)
    _numeric(common, "--seed", checks.seed, checks.DEFAULT_SEED,
             help=f"64-bit seed (default {checks.DEFAULT_SEED})")
    # no default, so that sweep can tell a request for JSON from no request;
    # every other command reads an absent --format as json
    common.add_argument("--format", choices=("json", "csv"))
    _numeric(common, "--threads", checks.threads, checks.DEFAULT_THREADS,
             help="cap on module parallelism (execution knob, results unchanged)")

    caps = argparse.ArgumentParser(add_help=False)
    _numeric(
        caps, "--cap", checks.cap, checks.DEFAULT_ENUMERATION_CAP,
        help=f"vertex cap for exact counting (default {checks.DEFAULT_ENUMERATION_CAP}; "
        f"at most {MAX_BITMASK_VERTICES}, the width of the subset bitmasks)",
    )

    p = sub.add_parser("counts", parents=[graph_args, common, caps], help="exact subtree-count vector")

    p = sub.add_parser("beta", parents=[graph_args, common], help="Monte Carlo estimate of s_(n-1)/s_n")
    _numeric(p, "--samples", checks.samples, 10000)

    p = sub.add_parser("sample", parents=[graph_args, common], help="draw uniform spanning trees")
    _numeric(p, "--samples", checks.samples, 1)

    p = sub.add_parser("roots", parents=[graph_args, common, caps], help="certified roots of the subtree polynomial")
    _numeric(p, "--precision-bits", checks.precision_bits, checks.DEFAULT_PRECISION_BITS)

    p = sub.add_parser("rouche", parents=[graph_args, common, caps], help="sampled margin on the critical circle")
    _numeric(p, "--C", checks.rouche_C, checks.DEFAULT_ROUCHE_C)
    _numeric(p, "--circle-points", checks.circle_points, checks.DEFAULT_CIRCLE_POINTS)
    _numeric(p, "--precision-bits", checks.precision_bits, checks.DEFAULT_PRECISION_BITS)

    p = sub.add_parser("poisson", parents=[graph_args, common, caps], help="factorial-normalized deviations")
    _numeric(p, "--k-max", checks.k_max, 3)

    p = sub.add_parser("verify", parents=[graph_args, common, caps], help="identity and inequality battery")
    _numeric(p, "--tree-cap", checks.tree_cap, checks.DEFAULT_SPANNING_TREE_CAP)

    p = sub.add_parser("tree-check", parents=[graph_args, common], help="root bound diagnostics for a tree host")
    _numeric(p, "--tolerance", checks.finite, checks.DEFAULT_TOLERANCE)

    p = sub.add_parser("experiment", parents=[graph_args, common], help="sampling battery: beta, leaf counts, tails")
    _numeric(p, "--samples", checks.samples, 10000)
    _numeric(p, "--b-grid", checks.b_grid, "0.2,0.3,0.4,0.5")
    _numeric(p, "--epsilon", checks.finite, checks.DEFAULT_EPSILON)

    p = sub.add_parser(
        "sweep",
        parents=[common, caps],
        help="one CSV row per n for a family template",
        description="CSV columns: "
        + "; ".join(f"{name} -> {header}" for name, (_, header, _) in _SWEEP.items()),
    )
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    # no default, so that a family without a p can refuse the flag; gnp reads 0.5
    _numeric(p, "--p", checks.probability, None, help="edge probability for gnp sweeps")
    p.add_argument("--n-list", required=True, help="comma-separated vertex counts, may be empty")
    p.add_argument("--command", required=True, dest="inner", choices=tuple(_SWEEP))
    _numeric(p, "--samples", checks.samples, 10000)
    _numeric(p, "--C", checks.rouche_C, checks.DEFAULT_ROUCHE_C)
    _numeric(p, "--circle-points", checks.circle_points, checks.DEFAULT_CIRCLE_POINTS)
    _numeric(p, "--k-max", checks.k_max, 3)
    # the roots and rouche rows run at the commands' default precision; no flag
    p.set_defaults(precision_bits=checks.DEFAULT_PRECISION_BITS)
    return parser


def _load_graph(args) -> tuple[Graph, FamilySpec | None, str]:
    if getattr(args, "edge_list", None):
        try:
            with open(args.edge_list, encoding="utf-8-sig") as handle:  # a leading BOM is dropped
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ValidationError(f"cannot read edge list {args.edge_list!r}: {err}")
        return from_edge_list(text), None, f"edge-list:{args.edge_list}"
    if getattr(args, "graph", None):
        family = parse_family(args.graph)
        return generate(family, args.seed), family, str(family)
    raise ValidationError("a graph source is required: --graph or --edge-list")


def _spec(args, source: str | None, output_format: str, params: dict) -> dict:
    """Resolved run description, echoed verbatim into every output document."""
    return {"command": args.command, "graph": source, "seed": args.seed,
            "format": output_format, **params}


def _render(spec: dict, header: list[str], result: dict | None, rows: list[list]) -> str:
    """The JSON document or the CSV table, whichever spec["format"] names."""
    if spec["format"] == "json":
        doc = {"artifact": "subtree-poly-lab", "version": __version__, "spec": spec, "result": result}
        return json.dumps(doc, indent=2) + "\n"
    out = io.StringIO()
    out.write(f"# subtree-poly-lab {__version__} spec={json.dumps(spec)}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _nstr(x: tuple[int, int], digits: int = 20) -> str:
    from .dyadic import nstr  # a dyadic (m, e), written as mpmath's nstr writes m 2^e

    return nstr(x, digits)


def _json(report):
    """A library report as JSON: its fields in order, each under its own name
    unless `_FORMATS` has a rule for it; a Fraction as its exact string, a
    tuple as a list, a nested report as its own document."""
    if isinstance(report, Fraction):
        return str(report)
    names = getattr(report, "_fields", None)  # a report is a named tuple, so test it first
    if names is None:
        return [_json(v) for v in report] if isinstance(report, tuple) else report
    rules = _FORMATS.get(type(report).__name__, {})
    doc = {}
    for name, value in zip(names, report):
        doc.update(rules[name](value) if name in rules else {name: _json(value)})
    return doc


def _as(key: str, form=_json):
    """Rule: the value under `key`, written by `form`."""
    return lambda value: {key: form(value)}


def _with_exact(key: str):
    """Rule: a Fraction as a float under `key`, and exactly under `key_exact`."""
    return lambda value: {key: float(value), key + "_exact": str(value)}


# report type -> {field: rule}, every place a document differs from its
# report's fields. A rule maps a value to its entries in the document. Keyed
# by type name, so that building the table imports no library module.
_FORMATS = {
    # decimal strings: counts outgrow the integers a JSON reader keeps exact
    "SubtreeCountVector": {"counts": _as("counts", lambda counts: [str(c) for c in counts])},
    "BetaEstimate": {"mean": _with_exact("estimate"),
                     "bound_violations": _as("weight_bound_violations")},
    "LeafCountStats": {"mean": _with_exact("mean"),
                       "bound_violations": _as("weight_bound_violations")},
    "ConcentrationReport": {"mean": _with_exact("mean"),
                            "bound_violations": _as("weight_bound_violations")},
    "WeightIdentityReport": {"weight_sum": _as("lhs_weight_sum"),
                             "s_n_minus_1": _as("rhs_s_n_minus_1", str),
                             # read by verify's base checks, not printed
                             "matrix_tree_count": lambda value: {}},
    "RootAnalysis": {
        "roots": _as("roots", lambda roots: [[_nstr((xr, -t), 25), _nstr((xi, -t), 25)]
                                             for xr, xi, t in roots]),
        # taken at the working precision: they leave double range (K_160's are 9e-347)
        "vieta_product": _as("vieta_product", lambda v: _nstr(v, 25)),
        "vieta_target": _as("vieta_target", lambda v: _nstr(v, 25)),
        "clusters": _as("clusters", lambda clusters: [[repr(c.real), repr(c.imag), mult]
                                                      for c, mult in clusters]),
    },
    "RoucheReport": {"beta": _with_exact("beta")},
}


def _counts(args, graph, family):
    return counts_for(graph, family, args.cap)


def _counts_row(args, counts) -> list:
    beta = repr(float(exact_beta(counts))) if counts.s(counts.n) else ""
    return [str(counts.s(2)), str(counts.s(counts.n)), beta]


def _cmd_counts(args, graph, family):
    counts = _counts(args, graph, family)
    result = _json(counts)
    result["fingerprint"] = graph.fingerprint()
    result["connected"] = counts.s(counts.n) > 0
    rows = [[k, str(counts.s(k))] for k in range(1, counts.n + 1)]
    return {"cap": args.cap}, result, rows


def _beta(args, graph, family):
    from .sampling import estimate_beta

    return estimate_beta(graph, args.samples, args.seed, threads=args.threads)


def _beta_row(args, est) -> list:
    return [repr(float(est.mean)), repr(est.standard_error), est.samples, est.seed]


def _cmd_beta(args, graph, family):
    estimate = _beta(args, graph, family)
    result = _json(estimate)
    closed = closed_form_counts(family)
    if closed is not None:
        exact = exact_beta(closed)
        result["exact"] = float(exact)
        result["exact_fraction"] = str(exact)
    return {"samples": args.samples}, result, [[graph.n, *_beta_row(args, estimate)]]


def _cmd_sample(args, graph, family):
    from .rng import DOMAIN_SAMPLE, stream
    from .sampling import leaf_weight, wilson_sample

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
                "weight": str(sample.weight),
            }
        )
    rows = [
        [t["index"], t["weight"], t["leaf_count"], ";".join(f"{u}-{v}" for u, v in t["edges"])]
        for t in trees
    ]
    return {"samples": args.samples}, {"trees": trees}, rows


def _roots(args, graph, family):
    from .polyroots import find_roots

    return find_roots(_counts(args, graph, family), precision_bits=args.precision_bits)


def _cmd_roots(args, graph, family):
    from .polyroots import root_modulus

    analysis = _roots(args, graph, family)
    params = {"cap": args.cap, "precision_bits": args.precision_bits}
    if args.format != "csv":  # each CSV row writes three numbers, so build only one form
        return params, _json(analysis), []
    bits = analysis.precision_bits  # the modulus of the root's own digits
    rows = [[i, _nstr((xr, -t)), _nstr((xi, -t)), repr(res), _nstr(root_modulus((xr, xi, t), bits))]
            for i, ((xr, xi, t), res) in enumerate(zip(analysis.roots, analysis.residuals))]
    return params, None, rows


def _rouche(args, graph, family):
    from .polyroots import rouche_margin

    return rouche_margin(_counts(args, graph, family), degree_profile(graph).alpha, C=args.C,
                         circle_points=args.circle_points, precision_bits=args.precision_bits)


def _rouche_row(args, report) -> list:
    return [repr(report.radius), repr(float(report.beta)), repr(report.max_margin), report.witness_ok]


def _cmd_rouche(args, graph, family):
    report = _rouche(args, graph, family)
    params = {"C": args.C, "circle_points": args.circle_points, "cap": args.cap,
              "precision_bits": args.precision_bits}
    rows = [[report.n, repr(report.C), *_rouche_row(args, report)]]
    return params, _json(report), rows, 0 if report.witness_ok else 3


def _poisson(args, graph, family):
    # k < n only: the command refuses a larger --k-max first, a sweep row stops at n - 1
    return poisson_deviation(_counts(args, graph, family), min(args.k_max, graph.n - 1))


def _poisson_row(args, devs) -> list:  # nan for each k >= n
    floats = [float(d) for d in devs] + [float("nan")] * (args.k_max + 1 - len(devs))
    max_abs = max((abs(float(d)) for d in devs[1:]), default=0.0)
    return [repr(v) for v in floats] + [repr(max_abs)]


def _cmd_poisson(args, graph, family):
    checks.deviation_order(args.k_max, graph.n, "--k-max")  # before the counts are taken
    devs = _poisson(args, graph, family)
    result = {
        "k_max": args.k_max,
        "deviations": [float(d) for d in devs],
        "deviations_exact": [str(d) for d in devs],
    }
    rows = [[k, repr(float(d)), str(d)] for k, d in enumerate(devs)]
    return {"k_max": args.k_max, "cap": args.cap}, result, rows


def _cmd_verify(args, graph, family):
    params = {"cap": args.cap, "tree_cap": args.tree_cap}
    if not is_connected(graph):
        # the identities under test assume a connected host: flag and stop
        print("input graph is disconnected; verification checks skipped", file=sys.stderr)
        return params, {"connected": False, "checks_run": False}, [], 1
    from .spanning import verify_weight_identity

    counts = _counts(args, graph, family)
    profile = degree_profile(graph)
    identity = verify_weight_identity(graph, cap=args.tree_cap)
    inequalities = check_ratio_inequalities(counts, profile.alpha, profile.min_degree)
    matrix_tree = identity.matrix_tree_count
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
        "weight_identity": _json(identity),
        "ratio_inequalities": _json(inequalities),
        "base_checks": base_checks,
        "all_passed": ok,
    }
    rows = [["weight_identity", "", str(identity.weight_sum), str(identity.s_n_minus_1), identity.equal]]
    rows += [["base:" + name, "", "", "", passed] for name, passed in base_checks.items()]
    rows += [[c.kind, c.index, str(c.lhs), str(c.rhs), c.passed] for c in inequalities.checks]
    return params, result, rows, 0 if ok else 3


def _cmd_tree_check(args, graph, family):
    from .polyroots import tree_root_check

    report = tree_root_check(graph, tolerance=args.tolerance)
    rows = [[report.n, repr(report.max_modulus), repr(report.bound),
             report.within_bound, report.annulus_ok]]
    return {"tolerance": args.tolerance}, _json(report), rows, 0 if report.within_bound else 3


def _cmd_experiment(args, graph, family):
    from .sampling import weight_experiment

    beta_report, leaf_report, tails = weight_experiment(
        graph, args.samples, args.seed, args.b_grid, args.epsilon, threads=args.threads
    )
    result = {
        "beta": _json(beta_report),
        "leaf_counts": _json(leaf_report),
        "concentration": _json(tails),
    }
    rows = [
        [r.b, r.tail_count, repr(r.empirical_tail), repr(r.bound_min_degree),
         repr(r.bound_alpha_form), r.status_min_degree]
        for r in tails.rows
    ]
    params = {"samples": args.samples, "b_grid": args.b_grid, "epsilon": args.epsilon}
    return params, result, rows


# command -> (handler, CSV header); a handler takes (args, graph, family) and
# returns (spec parameters, JSON result, CSV rows[, exit status])
_COMMANDS = {
    "counts": (_cmd_counts, "k,s_k"),
    "beta": (_cmd_beta, "n,estimate,standard_error,samples,seed"),
    "sample": (_cmd_sample, "index,weight,leaf_count,edges"),
    "roots": (_cmd_roots, "index,re,im,residual,modulus"),
    "rouche": (_cmd_rouche, "n,C,radius,beta,max_margin,witness_ok"),
    "poisson": (_cmd_poisson, "k,dev,dev_exact"),
    "verify": (_cmd_verify, "check,index,lhs,rhs,passed"),
    "tree-check": (_cmd_tree_check, "n,max_modulus,bound,within_bound,annulus_ok"),
    "experiment": (_cmd_experiment, "b,tail_count,empirical_tail,bound_min_degree,bound_alpha_form,status"),
}


def _run_graph_command(args) -> tuple[str, int]:
    handler, header = _COMMANDS[args.command]
    graph, family, source = _load_graph(args)
    params, result, rows, *status = handler(args, graph, family)
    output = _render(_spec(args, source, args.format or "json", params), header.split(","), result, rows)
    return output, status[0] if status else 0


# inner command -> (its command's report function, CSV header, projection of
# (args, report) to the columns after n); beta's and rouche's projections are
# their commands' CSV rows after n (and C); dev_0..dev_kmax stands for one
# column per k up to --k-max
_SWEEP = {
    "counts": (_counts, "n,m,s_n,beta", _counts_row),
    "beta": (_beta, _COMMANDS["beta"][1], _beta_row),
    "roots": (_roots, "n,max_modulus,vieta_relative_error,iterations",
              lambda args, a: [repr(a.max_modulus), repr(a.vieta_relative_error), a.iterations]),
    "rouche": (_rouche, "n,radius,beta,max_margin,witness_ok", _rouche_row),
    "poisson": (_poisson, "n,dev_0..dev_kmax,max_abs_dev", _poisson_row),
}


def _cmd_sweep(args) -> tuple[str, int]:
    if args.format == "json":
        raise ValidationError("sweep writes CSV only")
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"bad n-list {args.n_list!r}, expected comma-separated integers")
    takes_p = "p" in FAMILIES[args.family].args
    if args.p is not None and not takes_p:
        raise ValidationError(f"--p does not apply to family {args.family}")
    extra = {"p": 0.5 if args.p is None else args.p} if takes_p else {}
    params = {
        "family": args.family, "n_list": n_list, "inner_command": args.inner,
        "cap": args.cap, "samples": args.samples, "C": args.C,
        "circle_points": args.circle_points, "k_max": args.k_max, **extra,
    }
    report_for, header, project = _SWEEP[args.inner]
    columns = header.split(",")
    if args.inner == "poisson":
        checks.sweep_order(args.k_max, n_list, "--k-max")  # before the header is built
        columns[1:2] = [f"dev_{k}" for k in range(args.k_max + 1)]
    rows = []
    for n in n_list:
        family = FamilySpec(args.family, (n, *extra.values()))
        try:
            rows.append([n, *project(args, report_for(args, generate(family, args.seed), family))])
        except SubtreeLabError as err:
            # same object, so a certification failure keeps its iterates
            err.args = (f"sweep aborted at n={n}: {err}",)
            raise
    return _render(_spec(args, None, "csv", params), columns, None, rows), 0


def run(argv=None) -> int:
    parser = _build_parser()
    # exact counts can exceed Python's int-to-str digit limit (4300 digits by
    # default, 0 when off): lift it while the command runs
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            raise ValidationError("a command is required")
        output, status = _cmd_sweep(args) if args.command == "sweep" else _run_graph_command(args)
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _worst_iterates(err: CertificationError) -> list[str]:
    """The largest residuals (NaN first) with their indices and iterates (xr, xi, t)."""
    from .dyadic import rounded

    residuals = err.residuals
    ranked = sorted(
        range(len(residuals)), key=lambda i: (not math.isnan(residuals[i]), -residuals[i])
    )[:WORST_ITERATES_SHOWN]
    lines = [f"worst {len(ranked)} of {len(residuals)} residuals:"]
    for i in ranked:
        xr, xi, t = err.roots[i]
        re, im = (_nstr(rounded(v, -t, 53)) for v in (xr, xi))  # each part at a double's 53 bits
        lines.append(f"  index {i}  residual {residuals[i]:.3e}  iterate ({re}, {im})")
    return lines


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
