"""Shared experiment utilities: cluster builders, the fault experiments'
common workload, table rendering, and the shared ``--jobs`` fan-out for
point-parallel sweeps."""

from repro.baselines import CephCluster, JuiceCluster, LustreCluster
from repro.core import FalconCluster, FalconConfig
from repro.net.rpc import RpcFailure

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
# grayfail, rebalance) ----------------------------------------------------

def replicated_cluster(num_dirs, **config):
    """A replicated FalconFS cluster holding ``/w0`` .. ``/w<num_dirs-1>``
    with the setup shipments drained."""
    cluster = FalconCluster(FalconConfig(replication=True, **config))
    fs = cluster.fs()
    for d in range(num_dirs):
        fs.mkdir("/w{}".format(d))
    cluster.run_for(5000.0)  # drain setup shipments
    return cluster


def drive_clients(cluster, threads, num_dirs, duration_us, read_back=True):
    """Run ``threads`` closed-loop workers on one new libfs client for
    ``duration_us``: each creates a fresh file under its ``/w`` directory
    and, with ``read_back``, stats it on alternate turns.

    Returns ``(records, acked)``: one ``(start_us, end_us, ok, creating)``
    per op, and the paths whose create was acknowledged."""
    env = cluster.env
    client = cluster.add_client(mode="libfs")
    end_at = env.now + duration_us
    records, acked = [], []

    def worker(wid):
        i = 0
        last = None
        while env.now < end_at:
            creating = not read_back or last is None or i % 2 == 0
            if creating:
                last = "/w{}/f{}-{}".format(wid % num_dirs, wid, i)
                op = client.create(last, exclusive=False)
            else:
                op = client.getattr(last)
            start = env.now
            ok = True
            try:
                yield from op
            except RpcFailure:
                ok = False
            records.append((start, env.now, ok, creating))
            if creating and ok:
                acked.append(last)
            i += 1

    workers = [env.process(worker(w)) for w in range(threads)]
    env.run(until=env.all_of(workers))
    return records, acked


def phase_buckets(records, fault_at, healed_at):
    """Split op records into those finished before the fault, those
    overlapping ``[fault_at, healed_at]`` and those started after it."""
    return {
        "before": [r for r in records if r[1] < fault_at],
        "during": [r for r in records
                   if r[1] >= fault_at and r[0] <= healed_at],
        "after": [r for r in records if r[0] > healed_at],
    }


def lost_acked(cluster, paths):
    """Look every acknowledged create up again through a new client;
    returns the paths that no longer resolve."""
    probe = cluster.add_client(mode="libfs")
    lost = []

    def sweep():
        for path in paths:
            try:
                yield from probe.getattr(path)
            except RpcFailure:
                lost.append(path)

    cluster.run_process(sweep())
    return lost


def parallel_map(tasks, fn, jobs=1):
    """Run ``fn`` over ``tasks``, returning results **in task order**.

    The shared ``--jobs`` plumbing for every sweep: ``jobs <= 1`` runs
    inline (the bit-identical serial reference path — no pool, no
    pickling); ``jobs > 1`` fans out over a persistent worker pool.
    Each simulated point is an independent cluster lifetime keyed only
    by its task, and every row is assembled inside ``fn`` (a pure,
    picklable dict), so the merged row list — and therefore every
    rendered table and output file — is identical at any ``jobs``.

    ``fn`` must be module-level and each task picklable; a failed task
    raises :class:`repro.parallel.ParallelError` with its traceback
    after the remaining tasks drain.
    """
    tasks = list(tasks)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    from repro.parallel import pmap

    return pmap(tasks, fn, jobs=jobs)


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
