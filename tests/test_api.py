"""The package states its public surface once, in ``ttsketch.__all__``."""

import ast
from pathlib import Path

import ttsketch

SRC = Path(ttsketch.__file__).parent


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names]
    assert sorted(ttsketch.__all__) == sorted(imported)
    assert len(set(ttsketch.__all__)) == len(ttsketch.__all__)


def test_every_public_definition_is_called_or_exported():
    # A public top-level function or class of src/ttsketch must be used by
    # another top-level statement of the package, or be listed in __all__.
    defined, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = (path.name, node.name)
                if not node.name.startswith("_"):
                    defined.append(own)
            names = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
            uses.append((own, names))
    orphans = [(module, name) for module, name in defined
               if name not in ttsketch.__all__
               and not any(name in names for own, names in uses if own != (module, name))]
    assert orphans == []
