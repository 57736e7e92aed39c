"""Every name src defines is reached from what a program runs.

The roots are ``cli.main``, every ``__all__``, the public names of
``generators`` (the construction catalog) and the allow-list below.  From
them the names are walked with ``ast``:

- a bare name reaches what it resolves to in its module, through the
  module's relative imports as well;
- an attribute read reaches every method of that name, and a reached class
  reaches its dunder methods.  So a method can be missed, but a reached one
  is never flagged.

Code at module level outside a definition runs on import, so it is a root
too.  Dunder names are exempt.  A function, class, method or module
constant that only tests or the bench use fails the check: such code moves
to ``tests/oracles.py``, or is allowed here with its reason.
"""

import ast
from pathlib import Path

from test_bench_bindings import BENCH, _corank_names, _tracing

PACKAGE = Path(__file__).parents[1] / "src" / "corank"

# An entry whose reason starts with "bench" must be a name that bench/ reads.
_BENCH = "bench: read by bench/{}; moves to tests/oracles.py once the bench counts in-process"
_WORKED = "the paper's worked example, kept beside the other reference bases"
ALLOWED = {
    "linalg.rank_mod_p": _BENCH.format("tracing.py"),
    "criticalideals.field_points": _BENCH.format("tracing.py"),
    "minrank.path_cover_oracle": _BENCH.format("make_reference.py"),
    "minrank.delta_oracle": _BENCH.format("make_reference.py"),
    "minrank.nu2_oracle": _BENCH.format("make_reference.py"),
    "linalg.det_exact": "the determinant oracle, kept in linalg by ROADMAP decision",
    "formats.write_edge_list": "writes the edge-list input that formats.parse_edge_list reads",
    "formats.write_arc_list": "writes the arc-list input that formats.parse_arc_list reads",
    "goldens.octahedron_for_reference_i4": _WORKED,
    "goldens.OCTAHEDRON_I3_OVER_Z": _WORKED,
    "goldens.OCTAHEDRON_I4_OVER_R": _WORKED,
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Index:
    """The definitions of a set of modules and how their names resolve."""

    def __init__(self, sources):
        self.defs = {}       # "module.name" or "module.Class.method" -> [nodes]
        self.methods = {}    # method name -> ["module.Class.method"]
        self.dunders = {}    # "module.Class" -> ["module.Class.__x__"]
        self.imports = {}    # module -> {local name: (module, name)}
        self.aliases = {}    # module -> {local name: module}
        self.import_time = []
        for module, source in sources.items():
            self._read(module, ast.parse(source))

    def _define(self, key, node):
        self.defs.setdefault(key, []).append(node)

    def _read(self, module, tree):
        imports = self.imports.setdefault(module, {})
        aliases = self.aliases.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        imports[a.asname or a.name] = (node.module, a.name)
                    else:
                        aliases[a.asname or a.name] = a.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._define(f"{module}.{node.name}", node)
            elif isinstance(node, ast.ClassDef):
                key = f"{module}.{node.name}"
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = f"{key}.{item.name}"
                        self._define(method, item)
                        if _dunder(item.name):
                            self.dunders.setdefault(key, []).append(method)
                        else:
                            self.methods.setdefault(item.name, []).append(method)
                    else:
                        self._define(key, item)
                self._define(key, ast.Module(body=node.bases + node.decorator_list,
                                             type_ignores=[]))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
                if names and all(isinstance(t, (ast.Name, ast.Tuple)) for t in targets):
                    for name in names:
                        self._define(f"{module}.{name}", node)
                    continue
                self.import_time.append((module, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.import_time.append((module, node))

    def resolve(self, module, name, seen=()):
        """The definitions a bare ``name`` read in ``module`` can mean."""
        if (module, name) in seen:
            return []
        keys = [f"{module}.{name}"] if f"{module}.{name}" in self.defs else []
        if name in self.imports.get(module, {}):
            keys += self.resolve(*self.imports[module][name], seen + ((module, name),))
        return keys

    def reads(self, module, node):
        """The definitions the code under ``node`` reads."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield from self.resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute):
                yield from self.methods.get(sub.attr, [])
                aliases = self.aliases.get(module, {})
                if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                    yield from self.resolve(aliases[sub.value.id], sub.attr)

    def reach(self, roots):
        """Every definition reached from the ``(module, name)`` roots and
        from the code that runs on import."""
        todo = [key for root in roots for key in self.resolve(*root)]
        for module, node in self.import_time:
            todo += self.reads(module, node)
        reached = set()
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            module = key.split(".")[0]
            for node in self.defs[key]:
                todo += self.reads(module, node)
            todo += self.dunders.get(key, [])
        return reached

    def unreached(self, roots):
        reached = self.reach(roots)
        return sorted(key for key in self.defs
                      if key not in reached and not _dunder(key.rsplit(".", 1)[1]))


def _sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def program_roots(sources):
    """``cli.main``, every module's ``__all__`` and the public names that
    ``generators`` defines."""
    roots = [("cli", "main")]
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = ([t.id for t in node.targets if isinstance(t, ast.Name)]
                     if isinstance(node, ast.Assign) else
                     [node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [])
            if "__all__" in names:
                roots += [(module, name) for name in ast.literal_eval(node.value)]
            elif module == "generators":
                roots += [(module, name) for name in names if not name.startswith("_")]
    return roots


def _bench_names():
    tracing = _tracing()
    names = {f"{module}.{attr}"
             for module, attr, _ in tracing.ENUMERATION_TARGETS + tracing.LAYER_TARGETS}
    for script in ("worker.py", "make_reference.py"):
        names |= {f"{module.removeprefix('corank.')}.{name}"
                  for module, name in _corank_names(BENCH / script)}
    return names


def test_reach_flags_what_only_a_test_calls():
    sources = {
        "cli": "from .util import helper\ndef main():\n    return helper().run()\n",
        "util": ("from . import cli\nLIMIT = 3\nUNUSED = 4\nTABLE = {}\nTABLE['k'] = LIMIT\n"
                 "class Box:\n    def __init__(self):\n        self.size = LIMIT\n"
                 "    def run(self):\n        return self\n    def only_tested(self):\n"
                 "        return cli.main\n"
                 "def helper():\n    return Box()\ndef only_a_test_calls_this():\n"
                 "    return helper()\n"),
    }
    index = _Index(sources)
    assert index.unreached([("cli", "main")]) == [
        "util.Box.only_tested", "util.UNUSED", "util.only_a_test_calls_this"]
    assert index.unreached([("cli", "main"), ("util", "only_a_test_calls_this")]) == [
        "util.Box.only_tested", "util.UNUSED"]


def test_src_holds_only_what_a_program_reaches():
    sources = _sources()
    index = _Index(sources)
    allowed = [tuple(key.split(".", 1)) for key in ALLOWED]
    assert index.unreached(program_roots(sources) + allowed) == []


def test_every_allowed_name_exists_is_unreached_and_says_why():
    sources = _sources()
    index = _Index(sources)
    unreached = set(index.unreached(program_roots(sources)))
    for key, reason in ALLOWED.items():
        assert key in index.defs, f"{key} is not defined in src"
        assert key in unreached, f"{key} is reached: drop it from ALLOWED"
        assert reason.strip(), key


def test_every_bench_entry_is_a_name_the_bench_reads():
    bench = _bench_names()
    stale = [key for key, reason in ALLOWED.items()
             if reason.startswith("bench") and key not in bench]
    assert stale == []
