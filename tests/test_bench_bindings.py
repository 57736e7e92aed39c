"""The names the benchmark binds in corank still resolve.

``bench/test_bench.py`` runs the benchmark itself and takes minutes; this
checks in a second that no corank function or module the harness imports,
wraps or calls by name has been deleted or renamed.  ``bench/worker.py`` is
read with ``ast`` rather than imported: importing it runs a speed probe.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import corank.linalg as linalg
import corank.minrank as minrank
from corank.cache import DecisionCache

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _corank_names(path):
    """(module, name) of every corank name the file imports, and of every
    ``x.name`` it reads off a module imported as ``import corank.m as x``."""
    tree = ast.parse(path.read_text())
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname, a.name) for a in node.names
                           if a.asname and a.name.split(".")[0] == "corank")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "corank":
            names += [(node.module, a.name) for a in node.names]
    names += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases]
    return names


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = tracing.ENUMERATION_TARGETS + tracing.LAYER_TARGETS
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(f"corank.{module}"), attr)), \
            f"corank.{module}.{attr}"
    for method in tracing.CACHE_METHODS:
        assert callable(getattr(DecisionCache, method))


@pytest.mark.parametrize("script", ["worker.py", "make_reference.py"])
def test_every_corank_name_the_bench_reads_resolves(script):
    names = _corank_names(BENCH / script)
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_the_rank_the_bench_reads():
    assert minrank.exact_rank is linalg.exact_rank
    assert linalg.exact_rank([[1]]).rank == 1
