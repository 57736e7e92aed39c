"""Batch front door.

    corank params|gamma|zf|mrcr|trees|classify|gb|sweep|reproduce-appendix

Inputs are graph6/digraph6 lines or an edge/arc list; `-` reads stdin, an
existing path reads a file, anything else parses as inline text.  Exit
codes: 0 success; 1 assertion or diff failure, invalid argument, or a file
that cannot be read or written; 2 parse error; 3 a budget-undecided result,
under --strict, or always when a command stops at a budget (gb over its
S-pair or degree cap, or a canonical labeling over its work cap).
"""

import argparse
import sys
from functools import partial
from pathlib import Path

from .cache import DecisionCache
from .classify import classify_digraph1, classify_rank1_graph
from .config import RunConfig
from .criticalideals import gamma, groebner_basis_of_critical_ideal
from .formats import FormatError, autodetect, canonical_graph6
from .goldens import gap_table
from .graphs import Digraph, LabelingOverCap
from .minrank import mrcr_bounds, tree_suite
from .polyring import (ORDERS, QQ, ZZ, BudgetExceeded, DomainMismatch, PolynomialParseError,
                       buchberger, format_polynomial, ideals_equal, parse_polynomial)
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
            is_file = token != "" and p.exists()  # Path("") is the directory "."
        except OSError:  # e.g. an inline graph6 token longer than a file name may be
            is_file = False
        text = p.read_text() if is_file else token
    return autodetect(text, digraph_lists=digraph_lists)


# the RunConfig field each budget option sets; RunConfig has no other field
CONFIG_OPTIONS = {"box": "box_radius", "budget_spairs": "spair_cap",
                  "budget_degree": "degree_cap"}


def _config_from_args(args):
    return RunConfig(**{field: getattr(args, option) for option, field in CONFIG_OPTIONS.items()
                        if getattr(args, option, None) is not None})


def _domains(args):
    return [parse_domain(d) for d in args.domain] if args.domain else [ZZ, QQ]


def _emit(args, text):
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _cache(directory):
    """The --cache directory's DecisionCache, or None without one."""
    return DecisionCache(directory) if directory else None


def _graph_rows(rows, cache_dir, config, g):
    return list(rows(g, config, _cache(cache_dir)))


def _process_pool(workers):
    """A pool of worker processes; concurrent.futures is loaded only here,
    since only --jobs N > 1 over two or more graphs makes one."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _each_graph(args, rows):
    """Run rows(g, config, cache) -> [row] over every input graph; with
    --cache DIR each graph gets its own DecisionCache(DIR), so that no row
    reads what another input line left in memory, and without it the cache
    is None.  With --jobs N > 1 the graphs go to a process pool.  Emit all
    rows in input order and return them."""
    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    graphs = _read_input(args.input, getattr(args, "digraph", False))
    per_graph = partial(_graph_rows, rows, getattr(args, "cache", None),
                        _config_from_args(args))
    workers = min(jobs, len(graphs))
    if workers > 1:
        with _process_pool(workers) as pool:
            per_line = list(pool.map(per_graph, graphs))
    else:
        per_line = map(per_graph, graphs)
    out = [row for line in per_line for row in line]
    _emit(args, RENDERERS[getattr(args, "format", "json")](out))
    return out


# a module-level function, unlike the other commands' rows, because --jobs
# workers unpickle it
def _report_rows(domains, timings, g, config, cache):
    return [build_parameter_report(g, config, cache, domains, timings)]


def cmd_params(args):
    reports = _each_graph(args, partial(_report_rows, _domains(args), args.timings))
    if args.strict and any(report_undecided(r) for r in reports):
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_gamma(args):
    domains, statuses = _domains(args), set()

    def rows(g, config, cache):
        results = [gamma(g, dom, config, cache) for dom in domains]
        statuses.update(r.status for r in results)
        return [{"graph_id": canonical_graph6(g), **{r.domain: r.to_json() for r in results}}]

    _each_graph(args, rows)
    return EXIT_UNDECIDED if args.strict and statuses - {"exact"} else EXIT_OK


def cmd_zf(args):
    def rows(g, config, cache):
        r = zero_forcing_number(g)
        return [{"graph_id": canonical_graph6(g), "n": g.n, "z": r.z, "mz": g.n - r.z,
                 "exact": r.exact, "record": r.witness.to_json()}]

    _each_graph(args, rows)
    return EXIT_OK


def cmd_mrcr(args):
    domains = _domains(args)

    def rows(g, config, cache):
        for dom in domains:
            b = mrcr_bounds(g, dom, gamma(g, dom, config, cache), config)
            yield {"graph_id": canonical_graph6(g), "domain": b.domain, **b.to_json()}

    _each_graph(args, rows)
    return EXIT_OK


def cmd_trees(args):
    _each_graph(args, lambda g, config, cache: [tree_suite(g, config, cache).to_json()])
    return EXIT_OK


def cmd_classify(args):
    def rows(g, config, cache):
        classify = classify_digraph1 if isinstance(g, Digraph) else classify_rank1_graph
        return [{"graph_id": canonical_graph6(g), **classify(g, config, cache).to_json()}]

    out = _each_graph(args, rows)
    return EXIT_OK if all(row["agreement"] for row in out) else EXIT_FAIL


def cmd_gb(args):
    graphs = _read_input(args.input, args.digraph)
    if len(graphs) != 1:
        print("gb expects exactly one input graph", file=sys.stderr)
        return EXIT_FAIL
    g = graphs[0]
    config = _config_from_args(args)
    order = ORDERS[args.order]
    domain = parse_domain(args.domain)
    basis, decision = groebner_basis_of_critical_ideal(g, args.index, domain, order, config)
    payload = {
        "graph_id": canonical_graph6(g),
        "index": args.index,
        "order": order.name,
        "field_basis": [format_polynomial(p, order) for p in basis.generators],
    }
    if decision is not None:
        payload["z_trivial"] = decision.to_json()
    equal = True
    if args.compare:
        gens = []
        for number, line in enumerate(Path(args.compare).read_text().splitlines(), 1):
            if not line.strip() or line.startswith("#"):
                continue
            try:
                gens.append(parse_polynomial(line.strip(), g.n, basis.domain))
            except (PolynomialParseError, DomainMismatch) as exc:
                # DomainMismatch: a denominator that vanishes mod p
                raise FormatError(f"{args.compare} line {number}: {exc}") from None
        equal = ideals_equal(basis, buchberger(gens, order, config.spair_cap,
                                               config.degree_cap))
        payload["compare"] = {"file": args.compare, "ideal_equal": equal}
    _emit(args, render_json([payload]))
    return EXIT_OK if equal else EXIT_FAIL


def cmd_sweep(args):
    result = SWEEPS[args.theorem](config=_config_from_args(args), cache=_cache(args.cache))
    _emit(args, render_json([result.to_json()]))
    return EXIT_OK if result.passed else EXIT_FAIL


def cmd_reproduce_appendix(args):
    ok, rows, diffs = reproduce_gap_table(config=_config_from_args(args),
                                          cache=_cache(args.cache))
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


_OPTIONS = {
    "--domain": dict(action="append",
                     help="z, q, or fp:P (repeatable; default z and q)"),
    "--digraph": dict(action="store_true", help="treat plain pair lists as arc lists"),
    "--box": dict(type=int, default=None, help="box radius"),
    "--format": dict(choices=("json", "csv", "md"), default="json"),
    "--cache": dict(default=None, help="cache directory"),
    "--jobs": dict(type=int, default=1),
    "--budget-spairs": dict(type=int, default=None),
    "--budget-degree": dict(type=int, default=None),
    "--strict": dict(action="store_true",
                     help="exit 3 when any result is budget-undecided"),
    "--timings": dict(action="store_true"),
    "--output": dict(default=None),
}
_BUDGETS = ("--box", "--budget-spairs", "--budget-degree", "--cache", "--output")
_PER_DOMAIN = ("--digraph", "--domain") + _BUDGETS
# name -> (handler, help, the shared options it reads); a command offers no other
SUBCOMMANDS = {
    "params": (cmd_params, "full parameter reports", tuple(_OPTIONS)),
    "gamma": (cmd_gamma, "algebraic co-rank per domain", _PER_DOMAIN + ("--strict",)),
    "zf": (cmd_zf, "zero forcing number and record", ("--digraph", "--output")),
    "mrcr": (cmd_mrcr, "diagonal-evaluation rank bounds", _PER_DOMAIN),
    "trees": (cmd_trees, "tree parameter suite", _BUDGETS),
    "classify": (cmd_classify, "rank-one classifications", ("--digraph",) + _BUDGETS),
    "gb": (cmd_gb, "reduced basis of a minor ideal",
           ("--digraph", "--budget-spairs", "--budget-degree", "--output")),
    "sweep": (cmd_sweep, "run one theorem verification sweep", _BUDGETS),
    "reproduce-appendix": (cmd_reproduce_appendix,
                           "recompute the small-graph gap table and diff", _BUDGETS),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="corank",
        description="Exact zero-forcing, co-rank and minimum-rank computations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        if name == "sweep":
            p.add_argument("theorem", choices=tuple(SWEEPS))
        elif name != "reproduce-appendix":
            p.add_argument("input", help="file, '-' for stdin, or inline text")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])

    gb = sub.choices["gb"]
    gb.add_argument("--domain", default="q", help="z, q, or fp:P (default q)")
    gb.add_argument("--index", "-i", type=int, required=True,
                    help="minor size i of the ideal I_i")
    gb.add_argument("--order", choices=tuple(ORDERS), default="degrevlex")
    gb.add_argument("--compare", default=None,
                    help="file of polynomials to test ideal equality against")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
    except LabelingOverCap as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
