"""The census gate's comparison, on synthetic sets.

``benchmarks/census.py`` runs every entry point under a
``sys.monitoring`` hook (Python 3.12+) and gates on the defs no run
enters.  The comparison itself is pure, so it is checked here on any
Python: a planted never-entered def is reported, and so is an allowlist
entry that a run enters or that names no def.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "benchmarks" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def _package(tmp_path):
    package = tmp_path / "repro"
    (package / "core").mkdir(parents=True)
    (package / "core" / "mod.py").write_text(
        "def used():\n"
        "    def inner():\n"
        "        pass\n"
        "    return inner\n"
        "\n"
        "\n"
        "def planted():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 0\n"
        "\n"
        "    if True:\n"
        "        def guarded(self):\n"
        "            return 1\n")
    return census.top_level_defs(tmp_path, "repro")


def test_top_level_defs_are_functions_and_methods(tmp_path):
    assert _package(tmp_path) == {
        "repro/core/mod.py::used": 4,
        "repro/core/mod.py::planted": 2,
        "repro/core/mod.py::Thing.value": 3,
        "repro/core/mod.py::Thing.guarded": 2,
    }


def test_planted_never_entered_def_is_reported(tmp_path):
    defs = _package(tmp_path)
    entered = {"repro/core/mod.py::used", "repro/core/mod.py::Thing.value",
               "repro/core/mod.py::Thing.guarded",
               "repro/core/mod.py::used.<locals>.inner"}
    assert census.verdict(defs, entered, {}) == (
        ["repro/core/mod.py::planted"], [])
    allowed = {"repro/core/mod.py::planted": "kept for a reason"}
    assert census.verdict(defs, entered, allowed) == ([], [])


def test_stale_allowlist_entries_are_reported(tmp_path):
    defs = _package(tmp_path)
    entered = set(defs) - {"repro/core/mod.py::planted"}
    allowed = {"repro/core/mod.py::planted": "kept",
               "repro/core/mod.py::used": "entered by a run now",
               "repro/core/gone.py::deleted": "no such def any more"}
    assert census.verdict(defs, entered, allowed) == (
        [], ["repro/core/gone.py::deleted", "repro/core/mod.py::used"])


def test_split_into_entered_tests_only_and_never_entered(tmp_path):
    defs = _package(tmp_path)
    entered = {"repro/core/mod.py::used"}
    tested = {"repro/core/mod.py::used", "repro/core/mod.py::Thing.value"}
    assert census.split(defs, entered, tested) == (
        ["repro/core/mod.py::used"],
        ["repro/core/mod.py::Thing.value"],
        ["repro/core/mod.py::Thing.guarded", "repro/core/mod.py::planted"])


def test_allowlist_entries_need_a_reason():
    allowed, malformed = census.parse_allowlist(
        "# a comment line\n"
        "\n"
        "repro/a.py::f  # test introspection\n"
        "repro/a.py::g\n"
        "repro/a.py::h  #\n"
        "not a key  # reason\n")
    assert allowed == {"repro/a.py::f": "test introspection"}
    assert malformed == ["repro/a.py::g", "repro/a.py::h  #",
                         "not a key  # reason"]


def test_committed_allowlist_is_well_formed_and_names_real_defs():
    allowed, malformed = census.parse_allowlist(
        (ROOT / "benchmarks" / "census_allow.txt").read_text())
    assert malformed == []
    assert sorted(set(allowed) - set(census.top_level_defs())) == []
