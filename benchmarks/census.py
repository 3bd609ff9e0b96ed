#!/usr/bin/env python3
"""Dead-code census: which defs under ``src/repro`` does any run enter?

Usage (Python 3.12 or later, from the repository root)::

    python benchmarks/census.py --check benchmarks/census_allow.txt \\
        [--out DIR]

The census runs every program entry point the repository documents --
each experiment at ``--quick``, each example, the checker's ``run``,
``census``, ``repro`` and ``gen`` commands, the report compiler, one
profiled experiment, the ledger at ``--smoke`` and a live
``repro.serve`` cluster under a seeded bench -- and records every
top-level def (module functions and class methods, nested functions
count as part of their enclosing def) that any of their processes
enters.  Then it runs tier-1 under the same hook, to split the defs no
run enters into a tests-only list and a never-entered list.

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``.  It
registers a ``sys.monitoring`` ``PY_START`` callback that records each
code object under ``src/repro`` once and then returns ``DISABLE``, so a
hooked run costs about what an unhooked one does.  Every process writes
its set when it ends: at ``atexit``, from a wrapped ``os._exit`` and
from a ``SIGTERM`` handler (a terminated pool worker ends that way; a
serve node handles ``SIGTERM`` itself and exits through ``atexit``).

The gate (``--check``) exits nonzero when a def no run enters is not in
the allowlist, when an allowlist entry is entered by a run or names a
def that no longer exists, or when an entry has no reason.  An entry
is one line, ``repro/path.py::Qual.name  # reason``.  ``--out`` writes
the three lists (``entered.txt``, ``tests_only.txt``,
``never_entered.txt``), one ``key  lines`` row each.
"""

import argparse
import ast
import http.client
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HOOK = '''\
import atexit
import os
import signal
import sys

_OUT = os.environ.get("REPRO_CENSUS_OUT")
if _OUT and hasattr(sys, "monitoring"):
    _PREFIX = os.environ["REPRO_CENSUS_SRC"] + os.sep
    _seen = set()
    _monitoring = sys.monitoring
    _DISABLE = _monitoring.DISABLE

    def _start(code, offset):
        path = code.co_filename
        if not os.path.isabs(path):
            path = os.path.abspath(path)
        if path.startswith(_PREFIX):
            _seen.add(path[len(_PREFIX):] + "::" + code.co_qualname)
        return _DISABLE

    def _flush():
        if _seen:
            name = os.path.join(_OUT, "{}.txt".format(os.getpid()))
            with open(name, "a") as handle:
                handle.write("".join(key + "\\n" for key in _seen))
            _seen.clear()

    _os_exit = os._exit

    def _exit(code):
        _flush()
        _os_exit(code)

    def _terminated(signum, frame):
        _flush()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    _tool = _monitoring.COVERAGE_ID
    _monitoring.use_tool_id(_tool, "repro-census")
    _monitoring.register_callback(_tool, _monitoring.events.PY_START, _start)
    _monitoring.set_events(_tool, _monitoring.events.PY_START)
    atexit.register(_flush)
    os._exit = _exit
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _terminated)
'''


# -- the comparison (pure; tier-1 tests it on any Python) -----------------


def _collect(body, rel, prefix, found):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            key = "{}::{}{}".format(rel, prefix, node.name)
            found[key] = found.get(key, 0) + node.end_lineno - first + 1
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, rel, prefix + node.name + ".", found)
        elif isinstance(node, ast.stmt):
            _collect(ast.iter_child_nodes(node), rel, prefix, found)


def top_level_defs(src=SRC, package="repro"):
    """``{"repro/path.py::Qual.name": lines}`` of every module function
    and class method under ``src/package``.  Defs that share a key (a
    property's getter and setter) count as one, with their lines summed."""
    found = {}
    for path in sorted((Path(src) / package).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree.body, rel, "", found)
    return found


def parse_allowlist(text):
    """``({key: reason}, [malformed lines])`` of an allowlist's text."""
    allowed, malformed = {}, []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, _, reason = line.partition("#")
        key, reason = key.strip(), reason.strip()
        if "::" not in key or " " in key or not reason:
            malformed.append(line)
        else:
            allowed[key] = reason
    return allowed, malformed


def verdict(defs, entered, allowed):
    """``(unlisted, stale)``: the defs no run enters that the allowlist
    does not name, and the allowlist entries a run enters or that name
    no def."""
    unlisted = sorted(set(defs) - set(entered) - set(allowed))
    stale = sorted(key for key in allowed
                   if key not in defs or key in entered)
    return unlisted, stale


def split(defs, entered, tested):
    """The entered, tests-only and never-entered lists, each sorted."""
    return (sorted(key for key in defs if key in entered),
            sorted(key for key in defs
                   if key not in entered and key in tested),
            sorted(key for key in defs
                   if key not in entered and key not in tested))


# -- the runs --------------------------------------------------------------


def _read_sets(directory):
    keys = set()
    for path in Path(directory).glob("*.txt"):
        keys.update(path.read_text().split())
    return keys


class Hooked:
    """Runs commands from the repository root with the hook on."""

    def __init__(self, hook_dir, out_dir):
        self.env = dict(os.environ)
        path = [str(hook_dir), str(SRC)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.env["REPRO_CENSUS_OUT"] = str(out_dir)
        self.env["REPRO_CENSUS_SRC"] = str(SRC)

    def popen(self, argv, **kwargs):
        return subprocess.Popen([sys.executable, *argv], cwd=str(ROOT),
                                env=self.env, **kwargs)

    def run(self, argv, expect=0):
        start = time.perf_counter()
        proc = self.popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
        out, _ = proc.communicate()
        if proc.returncode != expect:
            sys.stdout.write(out[-4000:])
            raise SystemExit("census: `{}` exited {}".format(
                " ".join(argv), proc.returncode))
        print("  {:6.1f}s  {}".format(time.perf_counter() - start,
                                      " ".join(argv)), flush=True)
        return out


def _free_base_port(mnodes):
    wanted = mnodes + 1
    for base in range(31000, 39000, 97):
        ports = [base + i for i in range(wanted)]
        ports += [port + 1000 for port in ports]
        try:
            for port in ports:
                with socket.socket() as probe:
                    probe.bind(("127.0.0.1", port))
        except OSError:
            continue
        return base
    raise SystemExit("census: no free loopback port range")


def _wait_port(port, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                return
        except OSError:
            time.sleep(0.05)
    raise SystemExit("census: nothing listens on port {}".format(port))


def run_serve(hooked, scratch, mnodes=3):
    """``repro.serve up`` with real WAL files, a seeded ``bench``, two
    ``client`` stats (``/`` and a missing path) and one ``/metrics``
    scrape of every node, then ``SIGINT`` to ``up``, which stops its
    nodes with ``SIGTERM``."""
    start = time.perf_counter()
    base = _free_base_port(mnodes)
    common = ["--mnodes", str(mnodes), "--base-port", str(base)]
    up = hooked.popen(["-m", "repro.serve", "up", *common, "--wal-dir",
                       str(scratch / "wal")],
                      stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        for i in range(mnodes + 1):
            _wait_port(base + i)
        hooked.run(["-m", "repro.serve", "bench", *common,
                    "--ops", "200", "--seed", "3", "--dirs", "8"])
        # The servers' last RPC deadlines (2 s by default) come due
        # while the loop idles: their alarm rings on every run.
        time.sleep(2.5)
        hooked.run(["-m", "repro.serve", "client", *common, "stat", "/"])
        # An error reply (ENOENT) on every run, not only when a bench
        # op happens to fail.
        hooked.run(["-m", "repro.serve", "client", *common, "stat",
                    "/census-missing"], expect=1)
        for i in range(mnodes + 1):
            conn = http.client.HTTPConnection("127.0.0.1", base + i + 1000,
                                              timeout=10)
            conn.request("GET", "/metrics")
            if conn.getresponse().status != 200:
                raise SystemExit("census: /metrics scrape failed")
            conn.close()
    finally:
        # SIGINT makes `up` send its nodes SIGTERM and reap them; a node
        # killed any harder would write no set.
        up.send_signal(signal.SIGINT)
        try:
            up.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(up.pid, signal.SIGKILL)
            up.wait()
    print("  {:6.1f}s  repro.serve up, bench, client, /metrics, stop"
          .format(time.perf_counter() - start), flush=True)


def run_programs(hooked, scratch):
    """Every documented entry point, each in its own hooked process."""
    listing = hooked.run(["-m", "repro.experiments", "--list"])
    for name in [line.split()[0] for line in listing.splitlines() if line]:
        hooked.run(["-m", "repro.experiments", name, "--quick"])
    hooked.run(["-m", "repro.experiments", "grayfail", "--quick",
                "--jobs", "2"])
    hooked.run(["-m", "repro.experiments", "fig11", "--quick", "--profile"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        hooked.run([str(example.relative_to(ROOT))])
    sys.path.insert(0, str(SRC))
    from repro.check.schedule import NEMESIS_MIXES

    for mix in NEMESIS_MIXES:
        hooked.run(["-m", "repro.check", "run", "--seeds", "5", "--jobs",
                    "2", "--nemesis-mix", mix, "--out",
                    str(scratch / "check")])
    hooked.run(["-m", "repro.check", "census", "--seeds", "20", "--jobs",
                "2"])
    hooked.run(["-m", "repro.check", "repro",
                "tests/golden/rename_redelivery_schedule.json"])
    hooked.run(["-m", "repro.check", "gen", "--seed", "0"])
    hooked.run(["-m", "repro.analysis.report", "benchmarks/results"])
    hooked.run(["benchmarks/ledger/run.py", "--smoke", "--out",
                str(scratch / "ledger")])
    run_serve(hooked, scratch)


def _write_list(path, keys, defs):
    path.write_text("".join("{}  {}\n".format(key, defs[key])
                            for key in keys))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python benchmarks/census.py",
        description="Which defs under src/repro does any run enter?")
    parser.add_argument("--check", metavar="ALLOWLIST",
                        help="exit 1 on a def no run enters that the "
                             "allowlist does not name, or a stale entry")
    parser.add_argument("--out", metavar="DIR",
                        help="write entered.txt, tests_only.txt and "
                             "never_entered.txt here")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 12):
        raise SystemExit("census: needs Python 3.12 or later "
                         "(sys.monitoring); this is {}".format(
                             sys.version.split()[0]))

    defs = top_level_defs()
    allowed, malformed = {}, []
    if args.check:
        allowed, malformed = parse_allowlist(Path(args.check).read_text())
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        for name in ("hook", "runs", "tests"):
            (scratch / name).mkdir()
        (scratch / "hook" / "sitecustomize.py").write_text(HOOK)
        start = time.perf_counter()
        print("runs:", flush=True)
        run_programs(Hooked(scratch / "hook", scratch / "runs"), scratch)
        runs_s = time.perf_counter() - start
        print("tier-1:", flush=True)
        Hooked(scratch / "hook", scratch / "tests").run(
            ["-m", "pytest", "-q", "-p", "no:cacheprovider"])
        tests_s = time.perf_counter() - start - runs_s
        entered = _read_sets(scratch / "runs")
        tested = _read_sets(scratch / "tests")

    lists = dict(zip(("entered", "tests_only", "never_entered"),
                     split(defs, entered, tested)))
    print("{} defs ({} lines) in src/repro; runs {:.0f}s, tier-1 {:.0f}s"
          .format(len(defs), sum(defs.values()), runs_s, tests_s))
    for name, keys in lists.items():
        print("  {:<14} {:5} defs {:6} lines".format(
            name, len(keys), sum(defs[key] for key in keys)))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, keys in lists.items():
            _write_list(out / (name + ".txt"), keys, defs)
    if not args.check:
        return 0
    unlisted, stale = verdict(defs, entered, allowed)
    for key in unlisted:
        print("NOT ENTERED, NOT ALLOWLISTED: {}  ({} lines, {})".format(
            key, defs[key], "tests only" if key in tested else "no test"))
    for key in stale:
        print("STALE ALLOWLIST ENTRY: {}  ({})".format(
            key, "entered by a run" if key in defs else "no such def"))
    for line in malformed:
        print("MALFORMED ALLOWLIST LINE: {}".format(line))
    failed = bool(unlisted or stale or malformed)
    print("census gate: {} ({} allowlisted)".format(
        "FAIL" if failed else "ok", len(allowed)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
