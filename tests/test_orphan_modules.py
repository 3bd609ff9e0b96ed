"""Every module under ``src/repro`` is reached from a program file.

A module is reached when some other file under ``src/``, ``examples/``
or ``benchmarks/`` imports it or names it in a string literal: the
lazy table in ``runtime/__init__.py`` is the only file that names
``repro.runtime.sim_env``, so a scan that stopped reading strings
would fail here.  Tests do not count: a module only tests import is
code no workload runs, and a per-def scan misses it when its defs
reference one another.

The per-def check this test leaves out — a def no run enters — is the
census gate, ``python benchmarks/census.py --check
benchmarks/census_allow.txt`` (Python 3.12+, ``sys.monitoring``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM_DIRS = (SRC, ROOT / "examples", ROOT / "benchmarks")


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _named_modules(path, known):
    """Every known module ``path`` imports or names in a string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update("{}.{}".format(node.module, alias.name)
                         for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.partition(":")[0])
    return names & known


def _orphans():
    modules = {_module_name(path): path
               for path in (SRC / "repro").rglob("*.py")}
    reached = set()
    for directory in PROGRAM_DIRS:
        for path in directory.rglob("*.py"):
            own = _module_name(path) if directory is SRC else None
            reached |= _named_modules(path, modules.keys()) - {own}
    return sorted(name for name, path in modules.items()
                  if path.stem not in ("__init__", "__main__")
                  and name not in reached)


def test_every_module_is_reached_from_a_program_file():
    assert _orphans() == []

