"""The package's public surface is what the package itself uses.

Every top-level public function or class in src/tvkuramoto must be referenced,
by name or as an attribute, somewhere in the package outside its own
definition. A definition that only tests call pins code no user path runs.
The paper's own objects are the one exception: they stay public whoever calls them.
Every top-level private function, class or constant must be read somewhere in
the package too: one that nothing reads is dead code.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tvkuramoto"
PAPER_LEVEL = {"kuramoto_rhs", "poincare_map", "state_transition", "contraction_factor"}


TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def names_read(node) -> Counter:
    """How often each name is read under node, as an ast.Name id or ast.Attribute attribute
    in a load (an assignment target or a name inside a string is no reference)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def names_defined(node) -> list:
    """Names a module-level statement binds: a def or class name, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_definition_is_used_by_the_package():
    defined = [(module, node) for module, tree in TREES.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert PAPER_LEVEL <= {node.name for _, node in defined}
    everywhere = sum((names_read(tree) for tree in TREES.values()), Counter())
    unused = [f"{module}.{node.name}" for module, node in defined
              if node.name not in PAPER_LEVEL
              and everywhere[node.name] == names_read(node)[node.name]]
    assert unused == []


def test_every_private_definition_is_read_by_the_package():
    # module dunders such as __all__ are read by Python itself
    defined = [(module, name, node) for module, tree in TREES.items() for node in tree.body
               for name in names_defined(node)
               if name.startswith("_") and not name.startswith("__")]
    assert {"_xi_steps", "_XI_CELLS"} <= {name for _, name, _ in defined}
    everywhere = sum((names_read(tree) for tree in TREES.values()), Counter())
    unread = [f"{module}.{name}" for module, name, node in defined
              if everywhere[name] == names_read(node)[name]]
    assert unread == []
