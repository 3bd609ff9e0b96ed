#!/usr/bin/env python3
"""The layered performance ledger: the repo's benchmark of record.

Full ledger (what a person runs)::

    PYTHONPATH=src python benchmarks/ledger/run.py --seed S [--out DIR]

runs the five workloads with tracing off (five interleaved repetitions
each, every repetition in a fresh child process, one at a time), then one
span-traced and one profiled repetition per workload plus the
microbenchmarks, checks every output, prints every metric by name with its
unit and writes ``ledger.json``, ``layers_<workload>.json`` and
``trace_<workload>.jsonl`` to ``--out``.

One workload (what the PR driver runs, the contract in BENCHMARK.json)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds T --trace 0|1

prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Also: ``--compare A.json B.json``, ``--selfcheck``, ``--manifest`` and
``--smoke`` (tiny sizes, for the test).  See README.md beside this file.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit("benchmarks/ledger/run.py: {} holds no repro package; the "
             "ledger measures the program in src/".format(SRC))
sys.path.insert(0, SRC)

from metrics import (ALL, END_TO_END, EXACT, LAYERS, LEDGER_ROWS,  # noqa: E402
                     PER_LAYER, PER_LAYER_NAMES, PLAIN, PROFILE, SIMULATED,
                     SPANS, WORKLOADS, manifest, size_of)

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]
RUN_SECONDS = 10
LEDGER_REPS = 5
#: Repetitions of one driver run: until ``--seconds`` of timed region have
#: been measured, within these limits.
MIN_REPS, MAX_REPS = 3, 6


class LedgerError(Exception):
    """A correctness violation or determinism break: no result is written."""


# -- one repetition, in a child process -----------------------------------


def child(args):
    """Run one repetition (or the microbenchmarks) and print its result."""
    if args.rep == "micro":
        import micro
        print(json.dumps({"values": micro.run_all(args.seed, args.smoke)}))
        return 0
    import live
    import tracing
    import workloads
    functions = {
        "create_storm": workloads.create_storm,
        "deep_stat": workloads.deep_stat,
        "train_epoch": workloads.train_epoch,
        "fault_sweep": workloads.fault_sweep,
        "live_mix": live.live_mix,
    }
    result = functions[args.rep](args.seed, size_of(args.rep, args.smoke),
                                 args.mode)
    spans = result.pop("spans", None)
    if spans and args.out:
        tracing.write_spans(
            os.path.join(args.out, "trace_{}.jsonl".format(args.rep)), spans)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    servers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = result["values"]
    values["setup_s"] = result.pop("setup_done") - args.t0
    values["peak_rss_mb"] = max(own, servers) / 1024.0
    values["failed_share"] = result["failed"] / result["attempted"]
    print(json.dumps(result))
    return 0


def run_rep(workload, seed, mode=PLAIN, smoke=False, out=None):
    """One repetition in a fresh child process; returns its result dict."""
    argv = [sys.executable, os.path.abspath(__file__), "--rep", workload,
            "--seed", str(seed), "--mode", mode,
            "--t0", repr(time.monotonic())]
    if smoke:
        argv.append("--smoke")
    if out:
        argv += ["--out", out]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise LedgerError("{} repetition exited {}".format(
            workload, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result.get("problems"):
        raise LedgerError("{}: {}".format(
            workload, "; ".join(result["problems"])))
    return result


# -- from repetitions to metrics ------------------------------------------


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


#: Interference on a shared machine only ever adds time, so the fastest
#: repetition is the steadiest estimate of host speed; everything else is
#: a median.  The samples stay in ledger.json beside the value.
BEST_OF = {"host_ops_per_s": max, "peak_rss_mb": max}


def summarise(workload, reps):
    """metric -> {value, samples} over the untraced repetitions; exact
    metrics must not differ at all."""
    out = {
        "timed_s": {"samples": [rep["timed_s"] for rep in reps]},
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "inputs": reps[0]["inputs"],
    }
    for name in reps[0]["values"]:
        samples = [rep["values"][name] for rep in reps]
        if name in EXACT and len(set(samples)) > 1:
            raise LedgerError("determinism break: {} on {} reads {}".format(
                name, workload, sorted(set(samples))))
        pick = BEST_OF.get(name, statistics.median)
        out[name] = {"value": pick(samples), "samples": samples}
    return out


def same_simulation(workload, summary, traced):
    """The traced pass must simulate exactly what the untraced runs did."""
    for name, value in traced["values"].items():
        if name in EXACT and value != summary[name]["value"]:
            raise LedgerError(
                "determinism break: {} on {} reads {} traced, {} untraced"
                .format(name, workload, value, summary[name]["value"]))


def traced_pass(workload, seed, summary, micro_values, smoke, out):
    """Per-layer metrics of one workload: counts from the untraced runs,
    one span-traced and one profiled repetition, the microbenchmarks."""
    layer = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    layer.update({name: summary[name]["value"] for name in layer
                  if name in summary})
    layer.update(micro_values)
    timed_s = statistics.median(summary["timed_s"]["samples"])
    sim_us = {}
    if workload in SIMULATED:  # only build_cluster takes a Tracer
        spans = run_rep(workload, seed, SPANS, smoke, out)
        same_simulation(workload, summary, spans)
        sim_us = spans["sim_us"]
        layer.update(sim_us)
        layer["obs.tracer_overhead_ratio"] = spans["timed_s"] / timed_s
    profiled = run_rep(workload, seed, PROFILE, smoke)
    same_simulation(workload, summary, profiled)
    shares = profiled["layers"]
    if abs(sum(shares.values()) - 1.0) > 0.02:
        raise LedgerError("{}: host_self_share sums to {}".format(
            workload, sum(shares.values())))
    for name in LAYERS:
        layer[name + ".host_self_share"] = shares[name]
    layer["obs.profile_overhead_ratio"] = profiled["timed_s"] / timed_s
    if out:
        with open(os.path.join(out, "layers_{}.json".format(workload)),
                  "w") as handle:
            json.dump({"workload": workload, "seed": seed,
                       "host_self_share": shares,
                       "sim_us_per_op": sim_us,
                       "profiled_timed_s": profiled["timed_s"],
                       "untraced_timed_s": timed_s}, handle, indent=2)
    return layer


# -- the driver's contract: one workload, one JSON line ---------------------


def driver(args):
    reps, measured = [], 0.0
    limit = 1 if args.trace else MAX_REPS
    floor = min(limit, MIN_REPS)
    try:
        while len(reps) < floor or (measured < args.seconds
                                    and len(reps) < limit):
            reps.append(run_rep(args.workload, args.seed, smoke=args.smoke))
            measured += reps[-1]["timed_s"]
        summary = summarise(args.workload, reps)
        if args.trace:
            micro_values = run_rep("micro", args.seed,
                                   smoke=args.smoke)["values"]
            if args.out:
                os.makedirs(args.out, exist_ok=True)
            layer = traced_pass(args.workload, args.seed, summary,
                                micro_values, args.smoke, args.out)
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit, _, _, _ in PER_LAYER}
        else:
            metrics = {name: {"value": summary[name]["value"], "unit": unit}
                       for name, unit, _, _, _ in END_TO_END}
    except LedgerError as error:
        print("ledger: {}".format(error), file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


# -- the full ledger ---------------------------------------------------------


def ledger_rows(results):
    """The issue's twelve end-to-end names, one row per home workload."""
    rows = []
    for name, unit, better, bound, exact, homes, key, factor in LEDGER_ROWS:
        for workload in homes:
            entry = results[workload]["summary"][key]
            samples = [s * factor for s in entry["samples"]]
            q1, q3 = quartiles(samples)
            rows.append({
                "metric": name, "workload": workload, "unit": unit,
                "better": better, "bound": bound, "exact": exact,
                "value": entry["value"] * factor, "samples": samples,
                "q1": q1, "q3": q3, "n": len(samples),
            })
    return rows


def run_ledger(seed, out, smoke=False, quiet=False):
    """Run everything once; returns the ledger document (also written)."""
    os.makedirs(out, exist_ok=True)
    count = 2 if smoke else LEDGER_REPS
    reps = {workload: [] for workload in ALL}
    # Round-robin, so a noisy interval hits every workload alike.
    for index in range(count):
        for workload in ALL:
            reps[workload].append(run_rep(workload, seed, smoke=smoke))
    micro_values = run_rep("micro", seed, smoke=smoke)["values"]
    results = {}
    for workload in ALL:
        summary = summarise(workload, reps[workload])
        layer = traced_pass(workload, seed, summary, micro_values, smoke, out)
        results[workload] = {"size": size_of(workload, smoke),
                             "why": WORKLOADS[workload][0],
                             "summary": summary, "per_layer": layer}
    document = {
        "command": COMMAND, "paths": PATHS, "seed": seed, "smoke": smoke,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "repetitions": count,
        "end_to_end": ledger_rows(results),
        "per_layer": [
            {"metric": name, "unit": unit, "better": better,
             "source": source, "moves": moves,
             "values": {w: results[w]["per_layer"][name] for w in ALL}}
            for name, unit, better, source, moves in PER_LAYER
        ],
        "workloads": {
            w: {"why": r["why"], "size": r["size"],
                "attempted": r["summary"]["attempted"],
                "failed": r["summary"]["failed"],
                "inputs": r["summary"]["inputs"],
                "timed_s": r["summary"]["timed_s"]["samples"]}
            for w, r in results.items()
        },
    }
    with open(os.path.join(out, "ledger.json"), "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    if not quiet:
        print_ledger(document)
    return document


def print_ledger(document):
    print("end-to-end (seed {}, {} repetitions; medians, but the fastest "
          "repetition for rates and the largest for RSS)".format(
        document["seed"], document["repetitions"]))
    for row in document["end_to_end"]:
        print("  {:<26} {:<13} {:>16.6g} {:<6} n={} iqr=[{:.6g}, {:.6g}] "
              "bound={:g}".format(row["metric"], row["workload"],
                                  row["value"], row["unit"], row["n"],
                                  row["q1"], row["q3"], row["bound"]))
    print("per-layer ({})".format(", ".join(ALL)))
    for row in document["per_layer"]:
        print("  {:<36} {:<6} {:<7} {}".format(
            row["metric"], row["unit"], row["source"],
            "  ".join("{:>12.6g}".format(row["values"][w]) for w in ALL)))


# -- comparing two ledgers ---------------------------------------------------


def verdict(a, b):
    """same / better / worse / unresolved for one (metric, workload)."""
    bound = a["bound"]
    sign = 1.0 if a["better"] == "lower" else -1.0
    if a["value"] == 0:
        worse_by = sign * (b["value"] - a["value"])
    else:
        worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max((row["q3"] - row["q1"]) / abs(row["value"])
                 if row["value"] else 0.0 for row in (a, b))
    if not a["exact"] and spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a, b):
    """Print one row per (metric, workload); returns the rows."""
    theirs = {(r["metric"], r["workload"]): r for r in b["end_to_end"]}
    rows = []
    print("{:<26} {:<13} {:>14} {:>14} {:>23} {:>23} {:>6}  verdict".format(
        "metric", "workload", "A median", "B median", "A quartiles",
        "B quartiles", "bound"))
    for ours in a["end_to_end"]:
        other = theirs[(ours["metric"], ours["workload"])]
        row = dict(metric=ours["metric"], workload=ours["workload"],
                   exact=ours["exact"], a=ours["value"], b=other["value"],
                   verdict=verdict(ours, other))
        rows.append(row)
        print("{:<26} {:<13} {:>14.6g} {:>14.6g} {:>23} {:>23} {:>6g}  {}"
              .format(row["metric"], row["workload"], row["a"], row["b"],
                      "[{:.5g}, {:.5g}]".format(ours["q1"], ours["q3"]),
                      "[{:.5g}, {:.5g}]".format(other["q1"], other["q3"]),
                      ours["bound"], row["verdict"]))
    return rows


def selfcheck(seed, out, smoke):
    """Two full sets of runs of the working tree must agree."""
    first = run_ledger(seed, os.path.join(out, "selfcheck_a"), smoke, True)
    second = run_ledger(seed, os.path.join(out, "selfcheck_b"), smoke, True)
    bad = [row for row in compare(first, second)
           if row["verdict"] == "worse"
           or (row["exact"] and (row["verdict"] == "unresolved"
                                 or row["a"] != row["b"]))]
    for row in bad:
        print("selfcheck: {metric} on {workload}: {verdict} "
              "({a} -> {b})".format(**row), file=sys.stderr)
    return 1 if bad else 0


# -- command line -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="directory for ledger.json, layers_*.json and "
                             "trace_*.jsonl (default benchmarks/ledger/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the plumbing, not speed")
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json as these tables define it")
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--mode", default=PLAIN, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.rep:
        gc.collect()
        return child(args)
    if args.manifest:
        print(json.dumps(manifest(COMMAND, PATHS, RUN_SECONDS), indent=2))
        return 0
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as handle:
                documents.append(json.load(handle))
        rows = compare(*documents)
        return 1 if any(r["verdict"] == "worse" for r in rows) else 0
    if args.workload:
        return driver(args)
    out = args.out or os.path.join(HERE, "out")
    try:
        if args.selfcheck:
            return selfcheck(args.seed, out, args.smoke)
        run_ledger(args.seed, out, args.smoke)
    except LedgerError as error:
        print("ledger: {}".format(error), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
