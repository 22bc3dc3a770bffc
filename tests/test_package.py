import ast
import re
from pathlib import Path

import bernjac

SRC = Path(bernjac.__file__).parent
README = SRC.parents[1] / "README.md"


def test_every_private_definition_has_a_caller_in_src():
    # a private helper that only tests call belongs in the tests
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in used]
    assert unused == []


def test_readme_public_api_lists_exactly_the_exports():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = section[section.index("\n- "):].split("\n\n", 1)[0]
    names = set(re.findall(r"`([^`]+)`", listed))
    assert names == set(bernjac.__all__)
    assert f"exports {len(bernjac.__all__)} names" in section
    for name in names:
        getattr(bernjac, name)
