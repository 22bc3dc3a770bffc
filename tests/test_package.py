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


def units():
    """(module, class name or None, node) for every top-level statement of
    ``src/`` and every method of its classes."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            yield f"bernjac.{path.stem}", None, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"bernjac.{path.stem}", node.name, method) for method in node.body
                            if isinstance(method, ast.FunctionDef))


def shell(node):
    """The code of ``node`` outside its methods: a class stands for its
    decorators, bases and fields, so its methods are reached on their own."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return node.decorator_list + node.bases + [s for s in node.body if not isinstance(s, ast.FunctionDef)]


def dead_definitions():
    """Definitions of ``src/`` that no live code reaches.  A top-level
    definition is live when it is exported, named in README's helper
    sentence, or its name is used by live code; a method or property when
    live code reads an attribute of its name, or, for a dunder, when its
    class is live.  So a caller that is itself dead keeps nothing alive."""
    sentence = README.read_text().split("\nHelpers are imported from their modules", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(bernjac\.\w+\.\w+)`", sentence))
    for dotted in named:
        module, name = dotted.rsplit(".", 1)
        getattr(importlib.import_module(module), name)
    nodes = list(units())
    live = {node for module, cls, node in nodes if cls is None and (
        not isinstance(node, (ast.FunctionDef, ast.ClassDef))
        or node.name in bernjac.__all__ or f"{module}.{node.name}" in named)}
    while True:
        code = [part for node in live for part in shell(node)]
        used = {name for part in code for name in names_used(part)}
        attrs = {n.attr for part in code for n in ast.walk(part) if isinstance(n, ast.Attribute)}
        live_classes = {node.name for node in live if isinstance(node, ast.ClassDef)}
        more = {node for _, cls, node in nodes if hasattr(node, "name") and (
            node.name in used if cls is None
            else node.name in attrs or cls in live_classes and node.name.startswith("__"))} - live
        if not more:
            return [(module, cls, node.name) for module, cls, node in nodes if node not in live]
        live |= more


def test_every_public_helper_has_a_caller_in_src_or_is_named_in_readme():
    # a public function that only tests call belongs in the tests
    dead = [f"{module}.{name}" for module, cls, name in dead_definitions()
            if cls is None and not name.startswith("_")]
    assert dead == []


def test_every_method_has_a_caller_in_src():
    # a method or property that only tests call belongs in the tests
    dead = [f"{module}.{cls}.{name}" for module, cls, name in dead_definitions()
            if cls is not None and not name.startswith("__")]
    assert dead == []


def test_readme_public_api_lists_exactly_the_exports():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = section[section.index("\n- "):].split("\n\n", 1)[0]
    names = set(re.findall(r"`([^`]+)`", listed))
    assert names == set(bernjac.__all__)
    assert f"exports {len(bernjac.__all__)} names" in section
    for name in names:
        getattr(bernjac, name)
