"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON line with the pass's set-up time,
per-item latencies, peak RSS, output-check results, a digest of the
label-invariant outputs and, when traced, the per-layer metrics.

Every pass runs in its own process because corank keeps state between calls
in one process (``criticalideals._GLOBAL_CACHE``, the ``lru_cache``s of
``enumeration``): a second tree sweep in one process runs about 4x faster.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import PROBE_EVERY_S, speed_probe, to_reference

# The machine's speed as set-up starts, before the corank imports.
START_PROBE_S = speed_probe()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corank.criticalideals as ci  # noqa: E402 - needs the path above
import corank.enumeration as enumeration  # noqa: E402
import corank.minrank as mr  # noqa: E402
import corank.zeroforcing as zf  # noqa: E402
from corank.cache import DecisionCache  # noqa: E402
from corank.criticalideals import generalized_laplacian  # noqa: E402
from corank.formats import canonical_graph6  # noqa: E402
from corank.graphs import relabel  # noqa: E402
from corank.linalg import exact_rank  # noqa: E402
from corank.polyring import QQ, ZZ  # noqa: E402
from corank.sweeps import reproduce_gap_table  # noqa: E402
from tracing import (ENUMERATION_TARGETS, LAYER_TARGETS, Tracer,  # noqa: E402
                     import_all_corank)

# Calls inside the timed region go through module attributes (ci.gamma, ...)
# so that the tracer's rebinding reaches them.

WORKLOADS = ("gap-table", "trees", "ideals", "gap-table-warm")
# The sweep range is n <= 10, but n = 10 alone takes 30-40 s.  A pass's
# scan cost depends on its labeling (at n <= 8 by up to 2x), so a run must
# average many labelings; at n <= 7 thirty of them fit in a run.
TREE_MAX_N = 7
GRAPH_MAX_N = 6     # the appendix table: 143 connected graphs



def _relabeled(graphs, rng, seed):
    """Each graph under a seeded random vertex relabeling (identity at seed 0)."""
    out = []
    for g in graphs:
        perm = list(range(g.n))
        if seed:
            rng.shuffle(perm)
        out.append(relabel(g, perm))
    return out


def build_items(workload, seed, labeling=0):
    """The pass's inputs, fixed by the seed and the labeling index.

    Labeling k of a seed is its own random relabeling and input order, so
    that a run of several passes averages over several labelings.  Seed 0 is
    the identity labeling in the enumeration order, for every k.
    """
    rng = random.Random(f"{seed}/{labeling}")
    if workload == "trees":
        trees = [t for n in range(1, TREE_MAX_N + 1) for t in enumeration.all_trees(n)]
        items = _relabeled(trees, rng, seed)
    else:
        graphs = _relabeled(enumeration.enumerate_connected_graphs(GRAPH_MAX_N), rng, seed)
        if workload == "ideals":
            items = [(g, i) for g in graphs for i in range(2, g.n + 1)]
        else:
            items = graphs
    if seed:
        rng.shuffle(items)
    return items


class ReadOnlyCache(DecisionCache):
    """A DecisionCache over a filled directory that counts puts and writes none.

    gamma and ideal_trivial put only after a get missed, so a warm pass
    whose cache saw no put had every get hit.
    """

    puts = 0

    def put(self, key, value):
        self.puts += 1


def make_runner(workload, cache_dir):
    """A function running one item, and the per-pass state it needs."""
    if workload in ("gap-table", "gap-table-warm"):
        cache = DecisionCache(cache_dir) if workload == "gap-table" \
            else ReadOnlyCache(cache_dir)

        def run(g):
            z = zf.zero_forcing_number(g)
            return z, ci.gamma(g, ZZ, cache=cache), ci.gamma(g, QQ, cache=cache)
        return run, cache
    if workload == "trees":
        return lambda t: mr.tree_suite(t), None

    def run(item):
        g, i = item
        return ci.groebner_basis_of_critical_ideal(g, i, ZZ)
    return run, None


def check_outputs(workload, items, outputs, errors, puts, reference):
    """Per-item failure flags, undecided count, decisions and the invariant digest.

    Every check is label-invariant: graphs are looked up by canonical graph6.
    """
    failed = [e is not None for e in errors]
    undecided = 0
    rows = []
    if workload in ("gap-table", "gap-table-warm"):
        decisions = 2 * len(items)
        table = {}
        keys = [canonical_graph6(g) for g in items]
        for k, (g, key, out) in enumerate(zip(items, keys, outputs)):
            if out is None:
                continue
            z, gz, gq = out
            undecided += (gz.status != "exact") + (gq.status != "exact")
            got = [g.n - z.z, gz.value, gq.value]
            failed[k] |= got != reference["graphs"].get(key) or puts[k] > 0
            rows.append([key] + got)
            table[key] = {"graph": g, "z": z.z, "mz": g.n - z.z,
                          "gamma_z": gz, "gamma_q": gq}
        _, _, diffs = reproduce_gap_table(table=table)
        bad = {d.get("graph") for d in diffs}
        for k, key in enumerate(keys):
            failed[k] |= key in bad or None in bad
    elif workload == "trees":
        decisions = len(items)
        for k, (t, out) in enumerate(zip(items, outputs)):
            if out is None:
                continue
            key = canonical_graph6(t)
            got = [out.mz, out.P, out.Delta, out.nu2]
            rank = exact_rank(generalized_laplacian(t).evaluate(out.diagonal)).rank
            failed[k] |= (got != reference["trees"].get(key)
                          or not out.gamma_z == out.gamma_q == out.mr == out.mz
                          or rank != out.mz)
            rows.append([key] + got + [out.gamma_z, out.gamma_q])
    else:
        decisions = len(items)
        for k, ((g, i), out) in enumerate(zip(items, outputs)):
            if out is None:
                continue
            q_basis, z_decision = out
            undecided += z_decision.trivial is None
            key = canonical_graph6(g)
            _, gz, gq = reference["graphs"][key]
            # gamma is the largest trivial index and triviality is downward
            # monotone in i, so the decision at i is exactly "i <= gamma".
            got = [z_decision.trivial, q_basis.is_trivial()]
            failed[k] |= got != [i <= gz, i <= gq]
            rows.append([key, i] + got)
    undecided += sum(1 for e in errors if e and e.startswith("BudgetExceeded"))
    digest = hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()
    return failed, undecided, decisions, digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--labeling", type=int, default=0,
                        help="which of the seed's labelings to use")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_all_corank()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ENUMERATION_TARGETS)
    items = build_items(args.workload, args.seed, args.labeling)
    run, cache = make_runner(args.workload, args.cache_dir)
    if tracer:
        enumeration_s = tracer.enumeration_seconds()
        tracer.install(LAYER_TARGETS)
        tracer.install_cache()
        left = tracer.unwrapped_bindings()
        if left:
            sys.exit(f"tracing left unwrapped bindings: {left}")
        tracer.reset()
    setup_s = time.monotonic() - args.t0 - START_PROBE_S
    probes = [speed_probe()]
    setup = {"setup_s": setup_s,
             "setup_ref_s": to_reference(setup_s, START_PROBE_S, probes[0])}
    if args.setup_only:
        print(json.dumps(setup))
        return

    latencies, outputs, errors, puts = [], [], [], []
    perf = time.perf_counter
    stretch = ref_s = probe_s = 0.0
    start = perf()
    for k, item in enumerate(items):
        before = getattr(cache, "puts", 0)
        t = perf()
        try:
            outputs.append(run(item))
            errors.append(None)
        except Exception as exc:  # noqa: BLE001 - a failing item is counted, not fatal
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        latencies.append(perf() - t)
        puts.append(getattr(cache, "puts", 0) - before)
        stretch += latencies[-1]
        if stretch >= PROBE_EVERY_S or k == len(items) - 1:
            t = perf()
            probes.append(speed_probe())
            probe_s += perf() - t
            ref_s += to_reference(stretch, probes[-2], probes[-1])
            stretch = 0.0
    wall = perf() - start - probe_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    reference = json.loads((HERE / "reference.json").read_text())
    failed, undecided, decisions, digest = check_outputs(
        args.workload, items, outputs, errors, puts, reference)
    result = {**setup, "wall_s": wall, "ref_s": ref_s,
              "probe_ms": 1000 * sorted(probes)[len(probes) // 2], "latencies": latencies,
              "rss_mb": rss_mb, "failed": sum(failed), "undecided": undecided,
              "decisions": decisions, "digest": digest,
              "errors": [e for e in errors if e][:5],
              "failed_items": [repr(item) for item, f in zip(items, failed) if f][:5]}
    if tracer:
        result["layers"] = tracer.layer_metrics(enumeration_s)
        result["self_s"] = dict(tracer.self_s)
        result["edges"] = tracer.edge_table()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
