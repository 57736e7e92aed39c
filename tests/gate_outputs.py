"""Digest of the gate output set: every CLI run a report-preserving change
must leave byte-identical.

    PYTHONPATH=src python tests/gate_outputs.py

Runs each command line through ``corank.cli.main`` in this one process and
prints the sha256 of (exit code, stdout, stderr) per run, then of each
cache directory the runs filled, then one sha256 over all of them.  Run it on two source trees and compare the last line; the
per-run lines show which run differs.  pytest does not collect this file.

The set: ``reproduce-appendix``; ``params`` at ``--jobs 1`` and ``--jobs 2``,
``gamma`` over z, q, fp:3 and fp:5, ``mrcr`` at the default box and
``--box 1``, ``zf`` and ``classify``, each over the named catalog plus the
31 connected graphs with n <= 5 and over eight lines that hold four graphs
in two labelings each; ``params`` with budgets, as csv and md, with
``--strict`` and on a digraph; ``gamma --strict`` at one S-pair; ``gamma
--box 0|1`` over z and q and ``gamma --domain fp:2`` over the catalog; ``trees``
on the 25 trees with n <= 7, and on the 23 trees with n = 8 in their own
labeling and in one drawn with seed 8, which pin the {-1,0}^n diagonal
where gamma's own box scan gives it; ``classify`` on the three disconnected
digraphs where the five-way agreement fails; ``gb --index 3|4`` over z, q
and fp:3 in lex, grlex and degrevlex on four graphs, and on the same graphs
over z, q and fp:3 ``gb --index 1|2``, ``gb --index 2 --budget-degree 1``,
``gb --index 3 --budget-degree 2`` and ``gb --index n`` for each graph's
own n; ``gb --digraph --index 1|2|3``
over z, q and fp:3 on two digraphs with n = 4; the principal rule at
i = n: ``gb --digraph --index 4`` over z, q and fp:3 in lex and grlex on
the second of those digraphs, and ``gb --index 6 --budget-degree 5`` over
z, q and fp:3 on graph-a, past the rule's degree cap; the nine sweeps;
``zf`` on E_12, K_{6,6} and G(12, 1/2) drawn with seed 5, at the top of
the exact zero forcing tier.  Then the runs over ``--cache`` directories,
each in a fresh temporary directory: ``reproduce-appendix`` twice over one
directory (cold, then warm); ``gamma`` over the catalog, then over the
eight relabeled lines, through a second; ``params --jobs 1`` over the
catalog, then over the relabeled lines, through a third; ``trees`` on the
25 trees with n <= 7 through a fourth.  A directory's digest is the sha256
over its sorted (file name, sha256 of the bytes).
"""

import contextlib
import hashlib
import io
import os
import random
import tempfile
from itertools import combinations

from corank.cli import main
from corank.enumeration import all_trees, enumerate_connected_graphs
from corank.formats import parse_graph6, write_digraph6, write_graph6
from corank.generators import NAMED_GRAPHS, complete_multipartite, graph_a
from corank.graphs import Graph, relabel
from corank.sweeps import SWEEPS, _disconnected_exceptions

CATALOG = "".join(write_graph6(g) + "\n" for g in
                  [make() for make in NAMED_GRAPHS.values()] + enumerate_connected_graphs(5))
TREES = "".join(write_graph6(t) + "\n" for n in range(1, 8) for t in all_trees(n))
TREES_8 = "".join(write_graph6(t) + "\n" for t in all_trees(8))
_PERMS = random.Random(8)
TREES_8_RELABELED = "".join(write_graph6(relabel(t, _PERMS.sample(range(8), 8))) + "\n"
                            for t in all_trees(8))
DISAGREEING = "".join(write_digraph6(d) + "\n" for d in _disconnected_exceptions())
# four graphs, each in two labelings, one after the other
RELABELED = "E`]o\nEygW\nE`]w\nEywW\nEJnW\nE^bg\nEJnw\nE|{o\n"
_RNG = random.Random(5)
EXACT_TOP = [Graph(12), complete_multipartite([6, 6]),
             Graph(12, [e for e in combinations(range(12), 2) if _RNG.random() < 0.5])]
# the bull, one of the relabeled lines, graph-a, and ELrw, whose index 4
# reaches Buchberger over Q; each has n - Z = 3, so gb at index 3 and below
# takes the zero forcing certificate's rule
GB_GRAPHS = ("D{O", "E`]o", write_graph6(graph_a()), "ELrw")
# two digraphs with n = 4 whose 2- and 3-minor ideals have no unit minor: an
# acyclic one and one with nine arcs, where minors drop by both the row and
# the column form of the repeated-column relation
GB_DIGRAPHS = ("4 5\n2 1\n3 1\n3 2\n2 0\n3 0\n",
               "4 9\n1 2\n2 1\n3 1\n2 0\n3 0\n2 3\n1 0\n3 2\n1 3\n")


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
    # gamma's box scan when no shell or one block follows shell 1
    for box in ("0", "1"):
        yield ["gamma", "--box", box, "--domain", "z", "--domain", "q", CATALOG]
    yield ["gamma", "--domain", "fp:2", CATALOG]
    yield ["trees", TREES]
    yield ["trees", TREES_8]
    yield ["trees", TREES_8_RELABELED]
    yield ["classify", DISAGREEING]
    for g6 in GB_GRAPHS:
        for index in ("3", "4"):
            for domain in ("z", "q", "fp:3"):
                for order in ("lex", "grlex", "degrevlex"):
                    yield ["gb", "--index", index, "--domain", domain, "--order", order, g6]
    # the certificate rule's range and edges: a field past its degree cap
    # keeps the scan path, which at index 3 and degree cap 2 stops at the
    # cap on the bull over q and on graph-a over q and fp:3
    for g6 in GB_GRAPHS:
        for domain in ("z", "q", "fp:3"):
            for index in ("1", "2", str(parse_graph6(g6).n)):
                yield ["gb", "--index", index, "--domain", domain, g6]
            for index, cap in (("2", "1"), ("3", "2")):
                yield ["gb", "--index", index, "--budget-degree", cap, "--domain", domain, g6]
    for arcs in GB_DIGRAPHS:
        for index in ("1", "2", "3"):
            for domain in ("z", "q", "fp:3"):
                yield ["gb", "--digraph", "--index", index, "--domain", domain, arcs]
    # the principal rule at i = n in the orders the loops above leave out, and
    # the scan route past its degree cap, which stops at det's degree n
    for domain in ("z", "q", "fp:3"):
        for order in ("lex", "grlex"):
            yield ["gb", "--digraph", "--index", "4", "--domain", domain, "--order", order,
                   GB_DIGRAPHS[1]]
        yield ["gb", "--index", "6", "--budget-degree", "5", "--domain", domain,
               write_graph6(graph_a())]
    for name in SWEEPS:
        yield ["sweep", name]
    for g in EXACT_TOP:
        yield ["zf", write_graph6(g)]


def cache_runs(root):
    """The runs over cache directories under root, and the directories."""
    appendix, catalog, params, trees = (os.path.join(root, d)
                                        for d in ("appendix", "gamma", "params", "trees"))
    yield ["reproduce-appendix", "--cache", appendix]
    yield ["reproduce-appendix", "--cache", appendix]
    yield ["gamma", "--cache", catalog, CATALOG]
    yield ["gamma", "--cache", catalog, RELABELED]
    yield ["params", "--jobs", "1", "--cache", params, CATALOG]
    yield ["params", "--jobs", "1", "--cache", params, RELABELED]
    yield ["trees", "--cache", trees, TREES]


def run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def directory_digest(path):
    total = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            total.update(f"{name} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
    return total.hexdigest()


def _label(argv, root=None):
    return " ".join(a.replace(root, "TMP") if root and a.startswith(root)
                    else a if "\n" not in a else f"<{a.count(chr(10))} lines>"
                    for a in argv)


if __name__ == "__main__":
    total = hashlib.sha256()
    count = 0

    def emit(digest, label):
        global count
        total.update(digest.encode())
        count += 1
        print(digest, label)

    for argv in runs():
        emit(run_digest(argv), _label(argv))
    with tempfile.TemporaryDirectory() as root:
        for argv in cache_runs(root):
            emit(run_digest(argv), _label(argv, root))
        for name in sorted(os.listdir(root)):
            emit(directory_digest(os.path.join(root, name)), f"directory TMP/{name}")
    print(f"{total.hexdigest()} over {count} runs and directories")
