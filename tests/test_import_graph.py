"""The package's modules import one another without a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "corank"


def import_graph():
    """{module: set of sibling modules it imports}, from every relative
    import in its source, at module level or inside a function."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}
    stack = []

    def visit(m):
        state[m] = "open"
        stack.append(m)
        for d in sorted(graph.get(m, ())):
            if state.get(d) == "open":
                return stack[stack.index(d):] + [d]
            if d not in state:
                cycle = visit(d)
                if cycle:
                    return cycle
        stack.pop()
        state[m] = "done"
        return None

    for m in sorted(graph):
        if m not in state:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


def test_find_cycle_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert "criticalideals" in graph["sweeps"]  # the reader sees the imports
    assert find_cycle(graph) is None
