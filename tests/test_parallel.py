"""The parallel execution layer: pool semantics and the determinism
contract.

Two families:

* **pool semantics** (`repro.parallel.pool`) — results in task order
  regardless of completion order, a raising task surfaces its traceback
  while the worker survives, a *dying* worker fails only its own task
  (the pool respawns and drains the rest), and early consumer exit
  terminates promptly;
* **determinism under parallelism** — `python -m repro.check run` must
  produce a byte-identical verdict stream, first-failure seed, and seed
  file at every ``--jobs`` value, and an experiment sweep's merged rows
  must be identical between ``jobs=1`` and ``jobs>1``.

Task functions live at module level: the spawn start method pickles
them by reference, so a worker importing ``tests.test_parallel`` is
itself part of what's under test (tasks must be self-contained).
"""

import json
import os
import time

import pytest

from repro.check.schedule import generate_schedule
from repro.check.worker import SUMMARY_KEYS, explore_seed
from repro.parallel import ParallelError, WorkerPool, pmap
from repro.parallel.pool import TaskResult


# ----------------------------------------------------------------------
# worker-side task functions (module-level: pickled by reference)
# ----------------------------------------------------------------------

def _echo_task(task):
    """Sleep inversely to index so completion order inverts task order."""
    index, delay_s = task
    time.sleep(delay_s)
    return (index, os.getpid())


def _volatile_task(task):
    if task == "boom":
        raise ValueError("boom")
    if task == "die":
        os._exit(17)
    return task * 10


def _failing_explore_seed(task):
    """``explore_seed`` with a deterministic planted verdict: every
    seed divisible by 3 (except 0) fails with one synthetic violation.
    Used to drive the CLI's first-failure path identically at every
    ``--jobs`` value without depending on a real product bug."""
    seed, _kwargs = task
    record = explore_seed(task)
    if seed % 3 == 0 and seed != 0:
        from repro.check.runner import run_schedule

        result = run_schedule(generate_schedule(seed, **_kwargs))
        result["violations"] = [{
            "invariant": "planted",
            "message": "synthetic failure for seed {}".format(seed),
        }]
        return {"seed": seed, "failed": True, "result": result}
    return record


# ----------------------------------------------------------------------
# pool semantics
# ----------------------------------------------------------------------

class TestWorkerPool:
    def test_results_in_task_order_despite_completion_order(self):
        # Task 0 sleeps longest: completion order is roughly reversed,
        # the yielded order must not be.
        tasks = [(i, 0.15 - 0.04 * i) for i in range(4)]
        values = pmap(tasks, _echo_task, jobs=2)
        assert [v[0] for v in values] == [0, 1, 2, 3]
        # ...and the work really ran in other processes.
        assert os.getpid() not in {v[1] for v in values}

    def test_jobs_one_runs_inline(self):
        values = pmap([(0, 0.0), (1, 0.0)], _echo_task, jobs=1)
        assert {v[1] for v in values} == {os.getpid()}

    def test_single_task_runs_inline_even_with_jobs(self):
        values = pmap([(0, 0.0)], _echo_task, jobs=4)
        assert values[0][1] == os.getpid()

    def test_task_exception_surfaces_traceback_pool_survives(self):
        with WorkerPool(2) as pool:
            results = list(pool.imap(_volatile_task, [1, "boom", 2, 3]))
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.ok for r in results] == [True, False, True, True]
        assert "ValueError: boom" in results[1].error
        assert not results[1].crashed
        assert [r.value for r in results if r.ok] == [10, 20, 30]

    def test_worker_crash_fails_one_task_rest_complete(self):
        with WorkerPool(2) as pool:
            results = list(pool.imap(_volatile_task, [1, "die", 2, 3, 4]))
        crashed = results[1]
        assert crashed.crashed and not crashed.ok
        assert "exit code 17" in crashed.error
        survivors = [r for r in results if r.index != 1]
        assert all(r.ok for r in survivors)
        assert [r.value for r in survivors] == [10, 20, 30, 40]

    def test_pmap_raises_parallel_error_with_traceback(self):
        with pytest.raises(ParallelError) as excinfo:
            pmap([1, "boom", 2], _volatile_task, jobs=2)
        assert "ValueError: boom" in str(excinfo.value)
        assert [f.index for f in excinfo.value.failures] == [1]

    def test_early_close_terminates_workers(self):
        pool = WorkerPool(2)
        iterator = pool.imap(_echo_task, [(i, 0.2) for i in range(8)])
        next(iterator)
        iterator.close()  # the KeyboardInterrupt/break path
        assert pool._workers == []  # all terminated and joined

    def test_pool_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_task_result_repr(self):
        assert "ok" in repr(TaskResult(0, value=1))
        assert "crashed" in repr(TaskResult(1, error="x", crashed=True))


# ----------------------------------------------------------------------
# determinism: check run at --jobs 1 vs --jobs N
# ----------------------------------------------------------------------

_RUN_ARGS = ["run", "--seeds", "4",
             "--budget-us", "300000", "--quiesce-budget-us", "200000"]


def _verdict_lines(out):
    """The per-seed verdict stream — every line except wall-clock rate
    reporting (rates are honest about timing, hence not byte-stable)."""
    return [line for line in out.splitlines()
            if not line.endswith("schedules/minute)")]


def test_check_run_verdicts_identical_serial_vs_parallel(tmp_path,
                                                         capsys):
    from repro.check.__main__ import main

    assert main(_RUN_ARGS + ["--out", str(tmp_path / "a")]) == 0
    serial = capsys.readouterr().out
    assert main(_RUN_ARGS + ["--jobs", "3",
                             "--out", str(tmp_path / "b")]) == 0
    parallel = capsys.readouterr().out
    assert _verdict_lines(serial) == _verdict_lines(parallel)
    assert len(_verdict_lines(serial)) == 4


def test_check_run_first_failure_identical_serial_vs_parallel(
        tmp_path, capsys, monkeypatch):
    """Seeds 3 and 6 fail (planted); both modes must stop at seed 3 —
    the first failure in *seed order*, not completion order — print the
    same verdict stream, and write byte-identical seed files."""
    import repro.check.__main__ as cli

    monkeypatch.setattr(cli, "explore_seed", _failing_explore_seed)
    args = ["run", "--seeds", "8", "--no-shrink",
            "--budget-us", "300000", "--quiesce-budget-us", "200000"]

    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 2
    serial = capsys.readouterr().out
    assert cli.main(args + ["--jobs", "3",
                            "--out", str(tmp_path / "parallel")]) == 2
    parallel = capsys.readouterr().out

    assert "seed    3: FAIL" in serial
    assert "seed    4" not in serial  # stopped at the first failure
    serial_lines = [line.replace(str(tmp_path / "serial"), "OUT")
                    for line in _verdict_lines(serial)]
    parallel_lines = [line.replace(str(tmp_path / "parallel"), "OUT")
                      for line in _verdict_lines(parallel)]
    assert serial_lines == parallel_lines

    serial_file = (tmp_path / "serial" / "seed-3.json").read_bytes()
    parallel_file = (tmp_path / "parallel" / "seed-3.json").read_bytes()
    assert serial_file == parallel_file


def test_check_run_heartbeat_goes_to_stderr(tmp_path, capsys):
    from repro.check.__main__ import main

    assert main(_RUN_ARGS + ["--heartbeat", "2",
                             "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "2/4 seeds done" in captured.err
    assert "seeds done" not in captured.out  # verdict stream stays clean


def test_check_worker_record_shapes():
    """Clean seeds ship only the summary stats (the pool's per-task
    payload must stay small); the record is picklable JSON."""
    kwargs = {"num_ops": 20, "num_clients": 2, "num_mnodes": 2,
              "num_storage": 2, "num_nemeses": 1,
              "budget_us": 300000.0, "quiesce_budget_us": 200000.0,
              "nemesis_mix": "mixed"}
    record = explore_seed((0, kwargs))
    assert record == json.loads(json.dumps(record))
    if not record["failed"]:
        assert set(record["stats"]) == set(SUMMARY_KEYS)


# ----------------------------------------------------------------------
# determinism: experiment sweep rows at jobs=1 vs jobs=2
# ----------------------------------------------------------------------

def test_grayfail_sweep_rows_identical_serial_vs_parallel():
    from repro.experiments import grayfail

    kwargs = dict(kinds=("stampede",), severities={"stampede": (1, 2)},
                  threads=2, num_dirs=2, duration_us=12000.0,
                  warm_us=3000.0, fault_duration_us=4000.0)
    serial = grayfail.run(jobs=1, **kwargs)
    parallel = grayfail.run(jobs=2, **kwargs)
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))
