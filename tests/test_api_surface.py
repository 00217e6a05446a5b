"""The package's public surface is what the package itself uses.

Every top-level public function or class in src/tvkuramoto must be referenced,
by name or as an attribute, somewhere in the package outside its own
definition. A definition that only tests call pins code no user path runs.
The paper's own objects are the one exception: they stay public whoever calls them.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tvkuramoto"
PAPER_LEVEL = {"kuramoto_rhs", "poincare_map", "state_transition", "contraction_factor"}


def names_read(node) -> Counter:
    """How often each name is read under node, as an ast.Name id or ast.Attribute attribute
    (a name inside a string is no reference)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = [(module, node) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert PAPER_LEVEL <= {node.name for _, node in defined}
    everywhere = sum((names_read(tree) for tree in trees.values()), Counter())
    unused = [f"{module}.{node.name}" for module, node in defined
              if node.name not in PAPER_LEVEL
              and everywhere[node.name] == names_read(node)[node.name]]
    assert unused == []
