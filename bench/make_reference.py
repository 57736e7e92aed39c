"""Regenerate reference.json, the label-invariant outputs the benchmark checks.

    python3 bench/make_reference.py

It computes, with the corank sources next to this directory:
  graphs: canonical graph6 -> [mz, gamma_Z, gamma_Q] for the 143 connected
          graphs on at most 6 vertices, cross-checked against the golden
          appendix rows (goldens.gap_table) through reproduce_gap_table;
  trees:  canonical graph6 -> [mz, P, Delta, nu2] for every tree on at most
          worker.TREE_MAX_N vertices, cross-checked against the exhaustive
          oracles path_cover_oracle, delta_oracle and nu2_oracle.
It takes about a minute.
"""

import json

from worker import GRAPH_MAX_N, HERE, TREE_MAX_N
from corank.cache import DecisionCache
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.formats import canonical_graph6
from corank.minrank import delta_oracle, nu2_oracle, path_cover_oracle, tree_suite
from corank.sweeps import compute_gamma_table, reproduce_gap_table


def main():
    table = compute_gamma_table(enumerate_connected_graphs(GRAPH_MAX_N),
                                cache=DecisionCache())
    ok, rows, diffs = reproduce_gap_table(table=table)
    if not ok or len(table) != 143:
        raise SystemExit(f"gap table disagrees with the golden rows: {diffs}")
    graphs = {key: [e["mz"], e["gamma_z"].value, e["gamma_q"].value]
              for key, e in sorted(table.items())}
    trees = {}
    for n in range(1, TREE_MAX_N + 1):
        for t in all_trees(n):
            p = tree_suite(t)
            got = [p.mz, p.P, p.Delta, p.nu2]
            oracle = [n - path_cover_oracle(t), path_cover_oracle(t),
                      delta_oracle(t), nu2_oracle(t)]
            if got != oracle:
                raise SystemExit(f"tree {canonical_graph6(t)}: {got} != oracle {oracle}")
            trees[canonical_graph6(t)] = got
    out = {"graphs": graphs, "trees": dict(sorted(trees.items()))}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(graphs)} graphs ({len(rows)} gap rows), {len(trees)} trees")


if __name__ == "__main__":
    main()
