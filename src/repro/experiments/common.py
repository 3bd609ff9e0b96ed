"""Shared experiment utilities: cluster builders, the fault experiments'
checked schedule and phase report, table rendering, and the shared
``--jobs`` fan-out for point-parallel sweeps."""

from repro.baselines import CephCluster, JuiceCluster, LustreCluster
from repro.check.runner import run_schedule
from repro.core import FalconCluster, FalconConfig
from repro.metrics import percentile
from repro.sim.rng import RandomStreams

#: Systems compared throughout the evaluation, in the paper's order.
SYSTEMS = ("falconfs", "cephfs", "lustre", "juicefs")

_BUILDERS = {
    "falconfs": FalconCluster,
    "cephfs": CephCluster,
    "lustre": LustreCluster,
    "juicefs": JuiceCluster,
}


def build_cluster(system, num_mnodes=4, num_storage=12, seed=0,
                  tracer=None, **config):
    """Build a cluster for ``system`` ("falconfs" or a baseline name).

    Pass a :class:`repro.obs.Tracer` as ``tracer`` to capture request
    spans across the whole cluster (zero-cost when omitted).
    """
    if system not in _BUILDERS:
        raise KeyError(
            "unknown system {!r}; choose from {}".format(system, SYSTEMS)
        )
    cfg = FalconConfig(
        num_mnodes=num_mnodes, num_storage=num_storage, seed=seed, **config
    )
    return _BUILDERS[system](cfg, tracer=tracer)


def add_workload_client(cluster, system, mode="libfs",
                        cache_budget_bytes=None):
    """Attach a client appropriate for ``system``.

    FalconFS clients honour ``mode`` ("vfs" / "libfs" / "nobypass");
    baselines are always stateful and only honour the cache budget.
    """
    if system == "falconfs":
        return cluster.add_client(
            mode=mode, cache_budget_bytes=cache_budget_bytes
        )
    return cluster.add_client(cache_budget_bytes=cache_budget_bytes)


def prefill_dcache(client, tree, path_ino, rng=None):
    """Warm any stateful client's dentry cache with a tree's directories.

    Randomized insertion order makes the budget-limited retained subset an
    unbiased sample — the steady state of a long random traversal.
    """
    from repro.vfs import InodeAttrs
    from repro.vfs.attrs import ROOT_INO
    from repro.vfs.pathwalk import basename, parent_path

    dirs = list(tree.dirs)
    if rng is not None:
        rng.shuffle(dirs)
    for dpath in dirs:
        pid = path_ino.get(parent_path(dpath), ROOT_INO)
        client.dcache.insert(
            pid, basename(dpath),
            InodeAttrs(ino=path_ino[dpath], is_dir=True, mode=0o755),
        )


# -- the fault experiments' common ground (failover, restart, election,
# grayfail): each run is one checker schedule -------------------------------

#: About what a healthy op takes; it sizes each client's op list so the
#: workload spans the run's ``duration_us``.
_OP_US = 100.0


def victim(seed, num_mnodes):
    """The slot a fault experiment crashes: the first draw of the seed's
    ``faults`` stream, which is where the injector draws an omitted
    ``index`` from."""
    return RandomStreams(seed).stream("faults").randrange(num_mnodes)


def fault_schedule(seed, nemeses, threads, num_dirs, duration_us,
                   read_back=True, **config):
    """The checker schedule of one fault experiment.

    One client per thread runs ``duration_us / 100`` ops back to back,
    each creating a fresh file under its ``/w`` directory (with
    ``read_back``, every other op stats the file just created instead),
    while ``nemeses`` fire ``at_us`` after the preload.  ``config`` is the cluster's own part of the
    schedule's config (``num_mnodes``, ``num_storage``,
    ``rpc_timeout_us``, ...)."""
    ops = []
    for client in range(threads):
        for i in range(int(duration_us / _OP_US)):
            stat = read_back and i % 2 == 1
            if not stat:
                path = "/w{}/f{}-{}".format(client % num_dirs, client, i)
            ops.append({"id": len(ops), "client": client,
                        "kind": "getattr" if stat else "create",
                        "path": path, "delay_us": 0.0})
    return {
        "version": 1,
        "seed": seed,
        "config": dict(config, num_clients=threads, replication=True,
                       op_deadline_us=0.0, budget_us=600000.0,
                       quiesce_budget_us=300000.0),
        "preload_dirs": ["/w{}".format(d) for d in range(num_dirs)],
        "ops": ops,
        "nemeses": nemeses,
    }


def run_checked(schedule):
    """Run ``schedule`` through the checker and return its result; any
    violation (oracle, structural, residue or replication) raises,
    naming its invariant."""
    result = run_schedule(schedule)
    if result["violations"]:
        raise RuntimeError("the checker found {} violation(s): {}".format(
            len(result["violations"]), "; ".join(
                "[{invariant}] {message}".format(**violation)
                for violation in result["violations"][:5])))
    return result


def phase_stats(history, fault_at, healed_at, kinds=None):
    """Per-phase ``ops``, ``errors``, ``p50_us``, ``p99_us`` and
    ``max_us`` of a run's history (only ``kinds``, when given): ops that
    finished before ``fault_at``, that overlap ``[fault_at, healed_at]``
    ("during") and that started after ``healed_at``."""
    phases = {"before": [], "during": [], "after": []}
    for entry in history:
        if kinds is not None and entry["kind"] not in kinds:
            continue
        if entry["end_us"] < fault_at:
            phase = "before"
        elif entry["start_us"] > healed_at:
            phase = "after"
        else:
            phase = "during"
        phases[phase].append(entry)
    stats = {}
    for phase, entries in phases.items():
        latencies = [e["end_us"] - e["start_us"] for e in entries]
        stats[phase] = {
            "ops": len(entries),
            "errors": sum(1 for e in entries if e["status"] != "ok"),
            "p50_us": percentile(latencies, 50) if latencies else 0.0,
            "p99_us": percentile(latencies, 99) if latencies else 0.0,
            "max_us": max(latencies, default=0.0),
        }
    return stats


def format_table(rows, columns=None, title=None):
    """Render row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [_cell(row.get(col)) for col in columns] for row in rows
    ]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in rendered))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    lines.extend(
        "  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rendered
    )
    return "\n".join(lines)


def _cell(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "{:,.0f}".format(value)
        if abs(value) >= 10:
            return "{:.1f}".format(value)
        return "{:.3f}".format(value)
    return str(value)
