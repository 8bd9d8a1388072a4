"""Source-level rules for the library."""
import argparse
import ast
import re
from pathlib import Path

import kcut
from kcut.cli import build_parser

SRC = Path(kcut.__file__).parent


def _nodes(top=False):
    """(file name, AST node) for every node of every module under src/kcut;
    with ``top``, for every top-level statement instead."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in (tree.body if top else ast.walk(tree)):
            yield path.relative_to(SRC), node


def _names(node, name):
    """Whether ``node`` names ``name``: as a variable, an import or an attribute."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)
            or isinstance(node, ast.Attribute) and node.attr == name)


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # silently disappears; library checks raise typed errors instead.
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_networkx():
    # networkx is a test-only dependency: the independent reference that
    # stoer_wagner_mincut is checked against.
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "networkx" for m in modules):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_the_graph_module_names_the_weight_budget():
    # Every Graph's total weight fits int64 from construction on, so no
    # module but graph.py needs to know the bound or check against it.
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if str(name) != "graph.py"
             and _names(node, "MAX_WEIGHT")]
    assert found == []


def test_every_library_function_has_a_caller():
    # A function or class that nothing in the library references and the
    # package does not export is dead code, or a test helper living in src/;
    # dunder methods are called by the language itself, not by name.
    defined, referenced = {}, set()
    for name, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, f"{name}:{node.lineno} {node.name}")
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    uncalled = [where for func, where in sorted(defined.items())
                if not (func.startswith("__") and func.endswith("__"))
                and func not in kcut.__all__ and func not in referenced]
    assert uncalled == []


def test_every_exported_name_is_unique_and_resolves():
    # A name deleted from the library but left in __all__ breaks
    # `from kcut import *`.
    assert len(set(kcut.__all__)) == len(kcut.__all__)
    missing = [name for name in kcut.__all__ if not hasattr(kcut, name)]
    assert missing == []


def test_readme_cli_block_names_every_subcommand():
    # The README's CLI block shows one `kcut <subcommand>` line per
    # subcommand, so adding or removing one must update it.
    readme = (SRC.parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("kcut ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)


def test_readme_key_modules_line_names_every_module():
    # The README's "Key modules" paragraph names each module under src/kcut
    # once, so adding, removing or renaming one must update it.
    readme = (SRC.parents[1] / "README.md").read_text()
    line = readme.split("Key modules: ", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", line)
    modules = [p.stem for p in SRC.glob("*.py") if p.stem != "__init__"]
    assert sorted(documented) == sorted(modules)


def test_only_graph_construction_modules_name_induced_subgraph():
    # A solve slices its one weight matrix for every part and host, so no
    # solver layer builds an induced Graph; the generators still cut
    # clusters out of the graphs they build.
    allowed = {"graph.py", "generators.py", "__init__.py"}
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if str(name) not in allowed
             and _names(node, "induced_subgraph")]
    assert found == []


def test_only_the_memo_and_stoer_wagner_name_the_max_adjacency_phase():
    # A whole graph's maximum-adjacency order is computed once, by the
    # per-graph memo oracle._first_phase, which every layer reads;
    # _stoer_wagner calls the phase itself only for its contracted matrices.
    allowed = {"_max_adjacency_phase", "_first_phase", "_stoer_wagner"}
    found = [f"{name}:{sub.lineno}" for name, top in _nodes(top=True)
             if getattr(top, "name", None) not in allowed
             for sub in ast.walk(top) if _names(sub, "_max_adjacency_phase")]
    assert found == []
