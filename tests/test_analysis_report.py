"""Tests for the results report compiler."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.report import RESULT_ORDER, compile_report, main


def test_compiles_present_results(tmp_path):
    (tmp_path / "fig11_latency.txt").write_text("latency table body\n")
    report = compile_report(str(tmp_path))
    assert "Figure 11" in report
    assert "latency table body" in report
    assert "1 of {} results present".format(len(RESULT_ORDER)) in report


def test_missing_results_noted(tmp_path):
    report = compile_report(str(tmp_path))
    assert "not regenerated yet" in report
    assert "0 of {} results present".format(len(RESULT_ORDER)) in report


def test_order_matches_paper(tmp_path):
    for name, _ in RESULT_ORDER:
        (tmp_path / (name + ".txt")).write_text(name + " body\n")
    report = compile_report(str(tmp_path))
    positions = [report.index(name + " body") for name, _ in RESULT_ORDER]
    assert positions == sorted(positions)


def test_main_writes_file(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "fig02_cache_sweep.txt").write_text("sweep\n")
    out = tmp_path / "report.md"
    assert main([str(results), str(out)]) == 0
    assert "sweep" in out.read_text()


def test_main_prints_without_output_arg(tmp_path, capsys):
    assert main([str(tmp_path)]) == 0
    assert "FalconFS reproduction results" in capsys.readouterr().out


def test_real_results_directory_compiles():
    results = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                           "results")
    if not os.path.isdir(results):
        return  # benches not run yet in this checkout
    report = compile_report(results)
    assert "Figure 17" in report


def test_module_entry_point_runs_without_a_warning(tmp_path):
    """``python -m repro.analysis.report`` (README's entry point) runs
    with every RuntimeWarning an error: the package must not import
    the module it is about to run as ``__main__``."""
    (tmp_path / "fig11_latency.txt").write_text("latency table body\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.analysis.report", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "latency table body" in proc.stdout
