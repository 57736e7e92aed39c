"""Digest of the gate output set: every CLI run a report-preserving change
must leave byte-identical.

    PYTHONPATH=src python tests/gate_outputs.py

Runs each command line through ``corank.cli.main`` in this one process and
prints the sha256 of (exit code, stdout, stderr) per run, then one sha256
over all runs.  Run it on two source trees and compare the last line; the
per-run lines show which run differs.  pytest does not collect this file.

The set: ``reproduce-appendix``; ``params`` at ``--jobs 1`` and ``--jobs 2``,
``gamma`` over z, q, fp:3 and fp:5, ``mrcr`` at the default box and
``--box 1``, ``zf`` and ``classify``, each over the named catalog plus the
31 connected graphs with n <= 5 and over eight lines that hold four graphs
in two labelings each; ``params`` with budgets, as csv and md, with
``--strict`` and on a digraph; ``gamma --strict`` at one S-pair; ``trees``
on the 25 trees with n <= 7; ``classify`` on the three disconnected
digraphs where the five-way agreement fails; ``gb --index 3|4`` over z, q
and fp:3 in lex, grlex and degrevlex on four graphs; the nine sweeps;
``zf`` on E_12, K_{6,6} and G(12, 1/2) drawn with seed 5, at the top of
the exact zero forcing tier.
"""

import contextlib
import hashlib
import io
import random
from itertools import combinations

from corank.cli import main
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.formats import write_digraph6, write_graph6
from corank.generators import NAMED_GRAPHS, complete_multipartite, graph_a
from corank.graphs import Graph
from corank.sweeps import SWEEPS, _disconnected_exceptions

CATALOG = "".join(write_graph6(g) + "\n" for g in
                  [make() for make in NAMED_GRAPHS.values()] + enumerate_connected_graphs(5))
TREES = "".join(write_graph6(t) + "\n" for n in range(1, 8) for t in all_trees(n))
DISAGREEING = "".join(write_digraph6(d) + "\n" for d in _disconnected_exceptions())
# four graphs, each in two labelings, one after the other
RELABELED = "E`]o\nEygW\nE`]w\nEywW\nEJnW\nE^bg\nEJnw\nE|{o\n"
_RNG = random.Random(5)
EXACT_TOP = [Graph(12), complete_multipartite([6, 6]),
             Graph(12, [e for e in combinations(range(12), 2) if _RNG.random() < 0.5])]
GB_GRAPHS = ("D{O", "E`]o", write_graph6(graph_a()), write_graph6(NAMED_GRAPHS["bull"]()))


def _graph_runs(text):
    yield ["params", "--jobs", "1", text]
    yield ["params", "--jobs", "2", text]
    for domain in ("z", "q", "fp:3", "fp:5"):
        yield ["gamma", "--domain", domain, text]
    yield ["mrcr", text]
    yield ["mrcr", "--box", "1", text]
    yield ["zf", text]
    yield ["classify", text]


def runs():
    yield ["reproduce-appendix"]
    yield from _graph_runs(CATALOG)
    yield from _graph_runs(RELABELED)
    yield ["params", "--box", "1", "--budget-spairs", "500", "--budget-degree", "12", CATALOG]
    yield ["params", "--format", "csv", CATALOG]
    yield ["params", "--format", "md", CATALOG]
    yield ["params", "--strict", "--domain", "fp:3", "--domain", "z", CATALOG]
    yield ["params", "--digraph", "4 4\n0 1\n1 2\n2 3\n3 0\n"]
    yield ["gamma", "--domain", "q", "--budget-spairs", "1", "--strict",
           write_graph6(graph_a())]
    yield ["trees", TREES]
    yield ["classify", DISAGREEING]
    for g6 in GB_GRAPHS:
        for index in ("3", "4"):
            for domain in ("z", "q", "fp:3"):
                for order in ("lex", "grlex", "degrevlex"):
                    yield ["gb", "--index", index, "--domain", domain, "--order", order, g6]
    for name in SWEEPS:
        yield ["sweep", name]
    for g in EXACT_TOP:
        yield ["zf", write_graph6(g)]


def run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def _label(argv):
    return " ".join(a if "\n" not in a else f"<{a.count(chr(10))} lines>" for a in argv)


if __name__ == "__main__":
    total = hashlib.sha256()
    count = 0
    for argv in runs():
        digest = run_digest(argv)
        total.update(digest.encode())
        count += 1
        print(digest, _label(argv))
    print(f"{total.hexdigest()} over {count} runs")
