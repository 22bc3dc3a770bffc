import ast
import importlib
import re
from pathlib import Path

import bernjac

SRC = Path(bernjac.__file__).parent
README = SRC.parents[1] / "README.md"


def names_used(tree):
    """Every name, attribute and imported name that ``tree`` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_definition_has_a_caller_in_src():
    # a private helper that only tests call belongs in the tests
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in names_used(tree)}
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []


def test_every_public_helper_has_a_caller_in_src_or_is_named_in_readme():
    # a public function that only tests call belongs in the tests.  A
    # definition is live when it is exported, named in README's helper
    # sentence, or used by live code; so a caller that is itself dead
    # keeps nothing alive
    sentence = README.read_text().split("\nHelpers are imported from their modules", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(bernjac\.\w+\.\w+)`", sentence))
    for dotted in named:
        module, name = dotted.rsplit(".", 1)
        getattr(importlib.import_module(module), name)
    nodes = [(f"bernjac.{path.stem}", node) for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text()).body]
    live = {node for module, node in nodes if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
            or node.name in bernjac.__all__ or f"{module}.{node.name}" in named}
    while True:
        used = {name for node in live for name in names_used(node)}
        more = {node for _, node in nodes if getattr(node, "name", None) in used} - live
        if not more:
            break
        live |= more
    dead = [f"{module}.{node.name}" for module, node in nodes
            if node not in live and not node.name.startswith("_")]
    assert dead == []


def test_readme_public_api_lists_exactly_the_exports():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = section[section.index("\n- "):].split("\n\n", 1)[0]
    names = set(re.findall(r"`([^`]+)`", listed))
    assert names == set(bernjac.__all__)
    assert f"exports {len(bernjac.__all__)} names" in section
    for name in names:
        getattr(bernjac, name)
