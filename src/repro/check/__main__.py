"""CLI for the simulation checker.

``python -m repro.check run --seeds 50``
    explore seeds 0..49; on the first failure, shrink it and write a
    seed file with the minimal reproducer, then exit 2.

``python -m repro.check run --seeds 200 --jobs 8``
    same contract, seeds fanned out across 8 worker processes.  The
    verdict stream, the first failing seed (always the lowest in seed
    order) and the written seed file are byte-identical to ``--jobs 1``:
    results come back through an ordered merge and shrinking stays
    serial in the parent.

``python -m repro.check run --seeds 1000 --keep-going``
    explore every seed even past failures, then print a histogram of
    violation signatures (invariant plus message with numbers and
    bracketed lists normalised); the lowest failing seed is shrunk and
    written as above, and the exit status is still 2.

``python -m repro.check census --seeds 3000 --jobs 2 --out red.json``
    run every mix in ``NEMESIS_MIXES`` over one seed block, keep-going
    and unshrunk, and write ``{mix: {seed: signature}}`` for the red
    seeds.  ``--check tests/golden/red_seeds.json`` exits 1 when any
    mix's red set over the block is not a subset of the file's.

``python -m repro.check repro <seed-file>``
    replay a written seed file (the minimal schedule by default, the
    original with ``--original``) or a bare schedule such as the pinned
    ``tests/golden/*_schedule.json``; exit 1 if violations reproduce,
    exit 2 without a verdict if a nemesis event is malformed.

``python -m repro.check gen --seed 7``
    print the expanded schedule for one seed (debugging aid).
"""

import argparse
import json
import os
import re
import sys
import time
from collections import defaultdict

from repro.check.runner import run_schedule
from repro.check.schedule import NEMESIS_MIXES, generate_schedule
from repro.check.shrink import shrink
from repro.check.worker import explore_seed


def _schedule_kwargs(args):
    return {
        "num_ops": args.ops,
        "num_clients": args.clients,
        "num_mnodes": args.mnodes,
        "num_storage": args.storage,
        "num_nemeses": args.nemeses,
        "budget_us": args.budget_us,
        "quiesce_budget_us": args.quiesce_budget_us,
        "nemesis_mix": args.nemesis_mix,
    }


def _summarize(stats):
    return ("{} ops ({} ok, {} failed), {} nemeses, "
            "{} promotions, t={:.0f}us").format(
        stats["ops_total"], stats["ops_ok"], stats["ops_failed"],
        stats["nemesis_fired"], stats["promotions"],
        stats["final_now_us"])


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_BRACKETED = re.compile(r"\[.*\]")


def signature(violation):
    """One violation's signature: its invariant plus its message with
    ids, times and node indexes (every number) and bracketed lists
    normalised, so the same failure in two seeds reads the same."""
    message = _BRACKETED.sub("[...]", violation["message"])
    return "[{}] {}".format(violation["invariant"],
                            _NUMBER.sub("N", message))


def _signatures(record):
    """A failing seed's distinct violation signatures, sorted."""
    if "error" in record:
        return ["[error] checker infrastructure failure"]
    return sorted({signature(v) for v in record["result"]["violations"]})


def _print_histogram(failures):
    """Failing seeds grouped by violation signature, commonest first."""
    seeds = defaultdict(list)
    for record in failures:
        for sig in _signatures(record):
            seeds[sig].append(record["seed"])
    print("# {} failing seeds, {} signatures".format(len(failures),
                                                     len(seeds)))
    for sig, hits in sorted(seeds.items(),
                            key=lambda item: (-len(item[1]), item[0])):
        print("{:5d}  {}  (seeds {})".format(
            len(hits), sig, " ".join(str(s) for s in hits)))


def _per_minute(count, seconds):
    """Rate per minute, or ``None`` when no wall time was observed
    (a sub-resolution run has no honest rate — don't invent one)."""
    if seconds <= 0:
        return None
    return count * 60.0 / seconds


def _format_rate(rate):
    return "n/a" if rate is None else "{:.1f}".format(rate)


def _explore(tasks, jobs):
    """Yield one verdict record per task, in seed order.

    Serial (``jobs <= 1``) runs inline; parallel runs fan out over a
    persistent :class:`~repro.parallel.WorkerPool` whose ordered merge
    yields the identical record stream.  A worker-side infrastructure
    failure (crash or escaped exception — ``run_schedule`` converts
    simulation failures into violations, so this is checker breakage)
    surfaces as an ``error`` record.
    """
    if jobs <= 1:
        for task in tasks:
            yield explore_seed(task)
        return
    from repro.parallel import WorkerPool

    with WorkerPool(min(jobs, len(tasks))) as pool:
        for result in pool.imap(explore_seed, tasks):
            if result.ok:
                yield result.value
            else:
                yield {"seed": tasks[result.index][0], "error": result.error}


def cmd_run(args):
    started = time.monotonic()
    schedule_kwargs = _schedule_kwargs(args)
    tasks = [(seed, schedule_kwargs)
             for seed in range(args.start_seed,
                               args.start_seed + args.seeds)]
    explored = 0
    failures = []
    for record in _explore(tasks, args.jobs):
        if "error" in record:
            print("seed {:4d}: checker infrastructure failure"
                  .format(record["seed"]), file=sys.stderr)
            print(record["error"], file=sys.stderr)
            return 3
        explored += 1
        seed = record["seed"]
        if record["failed"]:
            print("seed {:4d}: FAIL {}".format(
                seed, _summarize(record["result"]["stats"])))
            for violation in record["result"]["violations"]:
                print("  [{}] {}".format(violation["invariant"],
                                         violation["message"]))
            failures.append(record)
            if not args.keep_going:
                break
        else:
            print("seed {:4d}: ok   {}".format(
                seed, _summarize(record["stats"])))
        if args.heartbeat and explored % args.heartbeat == 0 \
                and explored < len(tasks):
            rate = _per_minute(explored, time.monotonic() - started)
            print("# {}/{} seeds done, {} failing, {} schedules/minute"
                  .format(explored, len(tasks), len(failures),
                          _format_rate(rate)),
                  file=sys.stderr)

    # Exploration-only wall clock: captured before any shrinking, so
    # the reported rate measures seed throughput, never debug work.
    explore_rate = _per_minute(explored, time.monotonic() - started)

    if not failures:
        print("{} seeds clean ({} schedules/minute)".format(
            args.seeds, _format_rate(explore_rate)))
        return 0
    if args.keep_going:
        _print_histogram(failures)

    failure = failures[0]
    seed = failure["seed"]
    result = failure["result"]
    schedule = result["schedule"]
    report = {
        "seed": seed,
        "violations": result["violations"],
        "stats": result["stats"],
        "history": result["history"],
        "schedule": schedule,
        "minimal": None,
    }
    if not args.no_shrink:
        # Shrinking is serial in the parent, by design: ddmin replays
        # depend on each candidate's verdict, and a single process
        # keeps the shrink path bit-identical at every --jobs value.
        print("shrinking (budget {} runs)...".format(
            args.max_shrink_runs))
        minimal, runs, min_result = shrink(
            schedule, max_runs=args.max_shrink_runs)
        print("shrunk to {} ops + {} nemesis events in {} runs"
              .format(len(minimal["ops"]), len(minimal["nemeses"]),
                      runs))
        report["minimal"] = minimal
        report["minimal_violations"] = min_result["violations"]
        report["minimal_history"] = min_result["history"]
        report["shrink_runs"] = runs
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "seed-{}.json".format(seed))
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("seed file: {}".format(path))
    print("reproduce: python -m repro.check repro {}".format(path))
    print("# explored {} seeds ({} schedules/minute, exploration only)"
          .format(explored, _format_rate(explore_rate)),
          file=sys.stderr)
    return 2


def cmd_census(args):
    block = range(args.start_seed, args.start_seed + args.seeds)
    census = {}
    for mix in sorted(NEMESIS_MIXES):
        kwargs = dict(_schedule_kwargs(args), nemesis_mix=mix)
        red = {str(record["seed"]): " | ".join(_signatures(record))
               for record in _explore([(seed, kwargs) for seed in block],
                                      args.jobs)
               if "error" in record or record["failed"]}
        census[mix] = red
        print("{}: {} red of {} seeds {}".format(
            mix, len(red), args.seeds, " ".join(red)), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(census, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if not args.check:
        return 0
    with open(args.check) as handle:
        allowed = json.load(handle)
    status = 0
    for mix, red in sorted(census.items()):
        known = allowed.get(mix, {})
        for seed in sorted(set(red) - set(known), key=int):
            status = 1
            print("{}: NEW red {}  {}".format(mix, seed, red[seed]))
        healed = [seed for seed in known if int(seed) in block
                  and seed not in red]
        if healed:
            print("{}: now green {}".format(mix, " ".join(healed)))
    return status


def cmd_repro(args):
    with open(args.file) as handle:
        report = json.load(handle)
    schedule = report.get("schedule", report)
    if not args.original and report.get("minimal"):
        schedule = report["minimal"]
    try:
        result = run_schedule(schedule)
    except ValueError as error:
        # A malformed nemesis event is bad input, not a verdict against
        # the system: ``FaultInjector.apply`` refuses it at scheduling
        # time, before any simulated time passes.
        print("input error: {}".format(error), file=sys.stderr)
        return 2
    print(_summarize(result["stats"]))
    if not result["violations"]:
        print("no violations (did not reproduce)")
        return 0
    for violation in result["violations"]:
        print("[{}] {}".format(violation["invariant"],
                               violation["message"]))
    return 1


def cmd_gen(args):
    schedule = generate_schedule(args.seed, **_schedule_kwargs(args))
    json.dump(schedule, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _add_schedule_args(parser, mix=True):
    parser.add_argument("--ops", type=int, default=80)
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument("--mnodes", type=int, default=3)
    parser.add_argument("--storage", type=int, default=2)
    parser.add_argument("--nemeses", type=int, default=3)
    parser.add_argument("--budget-us", type=float, default=600000.0)
    parser.add_argument("--quiesce-budget-us", type=float,
                        default=300000.0)
    if not mix:
        parser.set_defaults(nemesis_mix=None)
        return
    parser.add_argument(
        "--nemesis-mix", choices=sorted(NEMESIS_MIXES), default="mixed",
        help="fault family: classic (crash/corrupt/hang/partition), "
             "gray (slow disk/lossy link/clock skew/stampede), mixed, "
             "election (consensus tier), or migrate (online slot "
             "handoffs under live traffic, mixed with crash/gray)")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m repro.check")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser(
        "run", help="explore seeds; shrink and save the first failure")
    run_parser.add_argument("--seeds", type=int, default=50)
    run_parser.add_argument("--start-seed", type=int, default=0)
    run_parser.add_argument("--out", default="check-artifacts")
    run_parser.add_argument("--no-shrink", action="store_true")
    run_parser.add_argument(
        "--keep-going", action="store_true",
        help="explore every seed past failures and end with a histogram "
             "of violation signatures (the lowest failing seed is still "
             "shrunk and saved)")
    run_parser.add_argument("--max-shrink-runs", type=int, default=150)
    run_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for seed exploration (default 1; the "
             "verdict stream and any seed file are identical at every "
             "value)")
    run_parser.add_argument(
        "--heartbeat", type=int, default=25,
        help="progress line to stderr every N clean seeds "
             "(0 disables)")
    _add_schedule_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    census_parser = commands.add_parser(
        "census", help="red seeds of every nemesis mix over one block")
    census_parser.add_argument("--seeds", type=int, default=300)
    census_parser.add_argument("--start-seed", type=int, default=0)
    census_parser.add_argument("--jobs", type=int, default=1)
    census_parser.add_argument(
        "--out", help="write {mix: {seed: signature}} here")
    census_parser.add_argument(
        "--check", metavar="FILE",
        help="exit 1 when a mix's red set over the block is not a subset "
             "of FILE's")
    _add_schedule_args(census_parser, mix=False)
    census_parser.set_defaults(func=cmd_census)

    repro_parser = commands.add_parser(
        "repro", help="replay a saved seed file")
    repro_parser.add_argument("file")
    repro_parser.add_argument(
        "--original", action="store_true",
        help="replay the full original schedule, not the minimal one")
    repro_parser.set_defaults(func=cmd_repro)

    gen_parser = commands.add_parser(
        "gen", help="print the schedule for one seed")
    gen_parser.add_argument("--seed", type=int, required=True)
    _add_schedule_args(gen_parser)
    gen_parser.set_defaults(func=cmd_gen)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
