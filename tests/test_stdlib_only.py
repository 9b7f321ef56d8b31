"""The package is standard-library only: importing every deladas module in a
fresh interpreter loads nothing else, and no import statement, not even one
inside a function, names anything else."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import deladas

PACKAGE = Path(deladas.__file__).resolve().parent

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import deladas
for module in pkgutil.iter_modules(deladas.__path__):
    if not module.name.startswith("__"):  # __main__ would run the CLI
        importlib.import_module("deladas." + module.name)
print(json.dumps(sorted(sys.modules)))
"""


def _foreign(names) -> list[str]:
    return sorted(name for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names
                  and name.partition(".")[0] not in ("deladas", "__main__"))


def test_every_module_loads_only_the_standard_library():
    # -S skips site-packages' .pth hooks, which may import modules of their
    # own; the package is found through PYTHONPATH alone.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", IMPORT_ALL],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    loaded = json.loads(out.stdout)
    assert {"deladas.cli", "deladas.madme", "deladas.solver"} <= set(loaded)
    assert _foreign(loaded) == []


def test_every_import_statement_names_the_standard_library():
    """Also the imports inside functions, which loading a module skips."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.append(node.module)
    assert "socket" in names
    assert _foreign(names) == []
