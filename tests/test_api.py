"""The package states its public surface once, in ``ttsketch.__all__``."""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def attribute_counts(node):
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_is_used():
    # A public method or property of a class of src/ttsketch must be read as
    # an attribute somewhere in the package outside its own body.
    total, methods = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += attribute_counts(tree)
        methods += [(path.name, node.name, m) for node in tree.body if isinstance(node, ast.ClassDef)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    orphans = [(module, cls, m.name) for module, cls, m in methods
               if total[m.name] == attribute_counts(m)[m.name]]
    assert orphans == []


def test_import_loads_no_scipy():
    # scipy is not used by the package; importing it would add 0.3-0.6 s
    # and about 27 MiB to every run.  numpy.random is imported on first
    # draw (see tt._seed_words_type), which keeps it out of the import time.
    code = ("import sys, ttsketch, ttsketch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.strip() == "[]"
