"""Command-line experiment runner.

Run any paper experiment by name and print its table::

    python -m repro.experiments fig13            # default scale
    python -m repro.experiments fig10 --quick    # reduced scale
    python -m repro.experiments grayfail --jobs 8   # point-parallel sweep
    python -m repro.experiments --list
"""

import argparse
import inspect
import sys
import time

from repro.experiments import (
    ablation,
    breakdown,
    burst,
    cache_sweep,
    corner_cases,
    data_path,
    election,
    failover,
    grayfail,
    labeling,
    load_balance,
    memory_budget,
    metadata_latency,
    metadata_scaling,
    rebalance,
    restart,
    sensitivity,
    straggler,
    training,
)

#: name -> (module, default kwargs, quick kwargs)
EXPERIMENTS = {
    "fig02": (cache_sweep, {},
              {"budgets": (0.1, 1.0), "max_files": 1000, "threads": 96}),
    "fig04": (burst, {"systems": ("cephfs",)},
              {"systems": ("cephfs",), "bursts": (1, 100),
               "num_dirs": 16, "files_per_dir": 50, "threads": 128}),
    "fig10": (metadata_scaling, {},
              {"servers": (4, 8), "num_ops": 600, "threads": 128}),
    "fig11": (metadata_latency, {}, {"num_ops": 60}),
    "fig12": (data_path, {},
              {"sizes": (16 << 10, 256 << 10), "num_files": 500,
               "threads": 96}),
    "fig13": (memory_budget, {},
              {"budgets": (0.1, 1.0), "max_files": 1500, "threads": 128}),
    "fig14": (burst, {},
              {"bursts": (1, 100), "num_dirs": 16, "files_per_dir": 50,
               "threads": 128}),
    "tab03": (load_balance, {"scales": {"ImageNet": 0.12, "CelebA": 0.5},
                             "num_mnodes": 16, "epsilon": 0.01},
              {"scale": 0.05, "num_mnodes": 8, "epsilon": 0.05}),
    "fig15a": (ablation, {}, {"num_ops": 500, "threads": 128}),
    "fig15b": (corner_cases, {}, {"num_ops": 500, "threads": 48}),
    "fig16": (labeling, {}, {"num_tasks": 400, "threads": 128}),
    "fig17": (training, {},
              {"gpu_counts": (8, 32, 64), "num_files": 2500}),
    "election": (election, {},
                 {"threads": 4, "duration_us": 25000.0,
                  "warm_us": 7000.0}),
    "failover": (failover, {},
                 {"threads": 6, "duration_us": 20000.0,
                  "warm_us": 5000.0}),
    "grayfail": (grayfail, {},
                 {"kinds": ("degrade_link", "stampede"),
                  "threads": 4, "duration_us": 20000.0,
                  "warm_us": 5000.0, "fault_duration_us": 6000.0}),
    "rebalance": (rebalance, {},
                  {"end_mnodes": 8, "num_slots": 16, "threads": 4,
                   "num_dirs": 4, "stage_us": 8000.0}),
    "restart": (restart, {},
                {"seeds": (0,), "threads": 6, "duration_us": 20000.0,
                 "warm_us": 5000.0}),
    "sensitivity": (sensitivity, {}, {"num_ops": 600, "threads": 128}),
    "straggler": (straggler, {},
                  {"num_dirs": 16, "files_per_dir": 25, "threads": 96}),
    "breakdown": (breakdown, {}, {"num_ops": 40}),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a FalconFS paper experiment.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale for a fast look")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top-25 "
                             "cumulative hot spots, then the cyclic "
                             "collector's time and collections")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweeps whose points "
                             "are independent (default 1; output is "
                             "identical at any value)")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for name in sorted(EXPERIMENTS):
            module = EXPERIMENTS[name][0]
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print("{:<12} {}".format(name, summary))
        return 0

    try:
        module, default_kwargs, quick_kwargs = EXPERIMENTS[args.experiment]
    except KeyError:
        parser.error("unknown experiment {!r}; use --list".format(
            args.experiment))
    kwargs = dict(quick_kwargs if args.quick else default_kwargs)
    accepted = inspect.signature(module.run).parameters
    if args.jobs != 1:
        if "jobs" not in accepted:
            parser.error("{} does not support --jobs (its points are "
                         "not independent)".format(args.experiment))
        kwargs["jobs"] = args.jobs
    start = time.time()
    if args.profile:
        import cProfile
        import pstats

        from repro.obs import CollectorTimer

        profiler = cProfile.Profile()
        with CollectorTimer() as collector:
            rows = profiler.runcall(module.run, **kwargs)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        print(collector.report())
        print("(cProfile charges collector time to whichever function was "
              "allocating when a collection began: it is inside the rows "
              "above, never one of them)")
    else:
        rows = module.run(**kwargs)
    print(module.format_rows(rows))
    print("\n({} rows in {:.1f}s wall)".format(len(rows),
                                               time.time() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
