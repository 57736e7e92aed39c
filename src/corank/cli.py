"""Batch front door.

    corank params|gamma|zf|mrcr|trees|classify|gb|sweep|reproduce-appendix

Inputs are graph6/digraph6 lines or an edge/arc list; `-` reads stdin, an
existing path reads a file, anything else parses as inline text.  Exit
codes: 0 success; 1 assertion or diff failure, invalid argument, or a file
that cannot be read or written; 2 parse error; 3 a budget-undecided result,
under --strict, or always when a command stops at a budget (gb over its
S-pair or degree cap).
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .cache import DecisionCache
from .config import RunConfig
from .criticalideals import gamma, groebner_basis_of_critical_ideal
from .formats import FormatError, autodetect, canonical_graph6
from .goldens import gap_table
from .graphs import Digraph
from .minrank import mrcr_bounds, tree_suite
from .polyring import (ORDERS, QQ, ZZ, BudgetExceeded, buchberger, format_polynomial,
                       ideals_equal, parse_polynomial)
from .report import (RENDERERS, build_parameter_report, parse_domain,
                     render_json, report_undecided)
from .sweeps import SWEEPS, reproduce_gap_table
from .zeroforcing import zero_forcing_number

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNDECIDED = 3


def _read_input(token, digraph_lists=False):
    if token == "-":
        text = sys.stdin.read()
    else:
        p = Path(token)
        try:
            is_file = p.exists()
        except OSError:  # e.g. an inline graph6 token longer than a file name may be
            is_file = False
        text = p.read_text() if is_file else token
    return autodetect(text, digraph_lists=digraph_lists)


def _config_from_args(args):
    kwargs = {}
    if args.box is not None:
        kwargs["box_radius"] = args.box
    if args.budget_spairs is not None:
        kwargs["spair_cap"] = args.budget_spairs
    if args.budget_degree is not None:
        kwargs["degree_cap"] = args.budget_degree
    return RunConfig(**kwargs)


def _domains(args):
    if args.domain:
        return [parse_domain(d) for d in args.domain]
    return [ZZ, QQ]


def _emit(args, text):
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _report_worker(payload):
    """One graph's report, from its own cache, whatever the --jobs width.

    Domains travel as text: QQ and ZZ are compared by identity, so they are
    parsed again inside each worker process.
    """
    g, config, domains_text, cache_dir, timings = payload
    doms = [parse_domain(d) for d in domains_text]
    return build_parameter_report(g, config, DecisionCache(cache_dir), doms,
                                  include_timings=timings)


def cmd_params(args):
    graphs = _read_input(args.input, args.digraph)
    config = _config_from_args(args)
    payloads = [(g, config, args.domain or ["z", "q"], args.cache, args.timings)
                for g in graphs]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(pool.map(_report_worker, payloads))
    else:
        reports = list(map(_report_worker, payloads))
    _emit(args, RENDERERS[args.format](reports))
    if args.strict and any(report_undecided(r) for r in reports):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_gamma(args):
    graphs = _read_input(args.input, args.digraph)
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    out = []
    undecided = False
    for g in graphs:
        entry = {"graph_id": canonical_graph6(g)}
        for dom in _domains(args):
            res = gamma(g, dom, config, cache)
            entry[res.domain] = res.to_json()
            undecided |= res.status != "exact"
        out.append(entry)
    _emit(args, render_json(out))
    return EXIT_UNDECIDED if args.strict and undecided else EXIT_OK


def cmd_zf(args):
    graphs = _read_input(args.input, args.digraph)
    config = _config_from_args(args)
    out = []
    for g in graphs:
        r = zero_forcing_number(g, config)
        out.append({"graph_id": canonical_graph6(g), "n": g.n, "z": r.z,
                    "mz": g.n - r.z, "exact": r.exact,
                    "record": r.witness.to_json()})
    _emit(args, render_json(out))
    return EXIT_OK


def cmd_mrcr(args):
    graphs = _read_input(args.input, args.digraph)
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    out = []
    for g in graphs:
        for dom in _domains(args):
            pre = gamma(g, dom, config, cache)
            b = mrcr_bounds(g, dom, config.box_radius, config, gamma_result=pre)
            out.append({"graph_id": canonical_graph6(g), "domain": b.domain,
                        "lower": b.lower, "upper": b.upper,
                        "witness": list(b.witness) if b.witness else None,
                        "exhaustive": b.exhaustive})
    _emit(args, render_json(out))
    return EXIT_OK


def cmd_trees(args):
    graphs = _read_input(args.input, False)
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    out = []
    for g in graphs:
        out.append(tree_suite(g, config, cache).to_json())
    _emit(args, render_json(out))
    return EXIT_OK


def cmd_classify(args):
    from .classify import classify_digraph1, classify_rank1_graph
    graphs = _read_input(args.input, args.digraph)
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    out = []
    disagreements = 0
    for g in graphs:
        rep = classify_digraph1(g, config, cache) if isinstance(g, Digraph) \
            else classify_rank1_graph(g, config, cache)
        out.append({"graph_id": canonical_graph6(g), **rep.to_json()})
        disagreements += 0 if rep.agreement else 1
    _emit(args, render_json(out))
    return EXIT_OK if disagreements == 0 else EXIT_FAIL


def cmd_gb(args):
    graphs = _read_input(args.input, args.digraph)
    if len(graphs) != 1:
        print("gb expects exactly one input graph", file=sys.stderr)
        return EXIT_PARSE
    g = graphs[0]
    config = _config_from_args(args)
    order = ORDERS[args.order]
    domain = parse_domain(args.domain[0]) if args.domain else QQ
    result = groebner_basis_of_critical_ideal(g, args.index, domain, order, config)
    if domain is ZZ:
        basis, decision = result
    else:
        basis, decision = result, None
    payload = {
        "graph_id": canonical_graph6(g),
        "index": args.index,
        "order": order.name,
        "field_basis": [format_polynomial(p, order) for p in basis.generators],
    }
    if decision is not None:
        payload["z_trivial"] = decision.to_json()
    exit_code = EXIT_OK
    if args.compare:
        texts = [ln.strip() for ln in Path(args.compare).read_text().splitlines()
                 if ln.strip() and not ln.startswith("#")]
        gens = [parse_polynomial(t, g.n, basis.domain) for t in texts]
        equal = ideals_equal(basis, buchberger(gens, order, config.spair_cap,
                                               config.degree_cap))
        payload["compare"] = {"file": args.compare, "ideal_equal": equal}
        if not equal:
            exit_code = EXIT_FAIL
    _emit(args, render_json([payload]))
    return exit_code


def cmd_sweep(args):
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    result = SWEEPS[args.theorem](config=config, cache=cache)
    _emit(args, render_json([result.to_json()]))
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_reproduce_appendix(args):
    config = _config_from_args(args)
    cache = DecisionCache(args.cache)
    ok, rows, diffs = reproduce_gap_table(config=config, cache=cache)
    payload = {
        "rows": [{"graph6": g6, "mz": m, "gamma_z": gz, "gamma_r": gq}
                 for g6, m, gz, gq in rows],
        "row_count": len(rows),
        "golden_count": len(gap_table()),
        "match": ok,
        "diffs": diffs,
    }
    _emit(args, render_json([payload]))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corank",
        description="Exact zero-forcing, co-rank and minimum-rank computations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="file, '-' for stdin, or inline text")
        p.add_argument("--domain", action="append",
                       help="z, q, or fp:P (repeatable; default z and q)")
        p.add_argument("--digraph", action="store_true",
                       help="treat plain pair lists as arc lists")
        p.add_argument("--box", type=int, default=None, help="box radius")
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
        p.add_argument("--cache", default=None, help="cache directory")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--budget-spairs", type=int, default=None)
        p.add_argument("--budget-degree", type=int, default=None)
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when any result is budget-undecided")
        p.add_argument("--timings", action="store_true")
        p.add_argument("--output", default=None)

    common(sub.add_parser("params", help="full parameter reports"))
    common(sub.add_parser("gamma", help="algebraic co-rank per domain"))
    common(sub.add_parser("zf", help="zero forcing number and record"))
    common(sub.add_parser("mrcr", help="diagonal-evaluation rank bounds"))
    common(sub.add_parser("trees", help="tree parameter suite"))
    common(sub.add_parser("classify", help="rank-one classifications"))

    gb = sub.add_parser("gb", help="reduced basis of a minor ideal")
    common(gb)
    gb.add_argument("--index", "-i", type=int, required=True,
                    help="minor size i of the ideal I_i")
    gb.add_argument("--order", choices=tuple(ORDERS), default="degrevlex")
    gb.add_argument("--compare", default=None,
                    help="file of polynomials to test ideal equality against")

    sw = sub.add_parser("sweep", help="run one theorem verification sweep")
    sw.add_argument("theorem", choices=tuple(SWEEPS))
    common(sw, needs_input=False)

    common(sub.add_parser("reproduce-appendix",
                          help="recompute the small-graph gap table and diff"),
           needs_input=False)
    return parser


COMMANDS = {
    "params": cmd_params,
    "gamma": cmd_gamma,
    "zf": cmd_zf,
    "mrcr": cmd_mrcr,
    "trees": cmd_trees,
    "classify": cmd_classify,
    "gb": cmd_gb,
    "sweep": cmd_sweep,
    "reproduce-appendix": cmd_reproduce_appendix,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BudgetExceeded as exc:
        print(f"undecided: {exc.reason}, partial basis of {len(exc.partial)} "
              f"polynomials", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
