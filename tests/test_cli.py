"""Tests for the command-line experiment runner."""

import pytest

from repro.experiments.__main__ import EXPERIMENTS, main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig02", "fig17", "tab03", "sensitivity"):
        assert name in out


def test_no_argument_lists(capsys):
    assert main([]) == 0
    assert "fig10" in capsys.readouterr().out


def test_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_registry_covers_all_paper_results():
    assert set(EXPERIMENTS) == {
        "fig02", "fig04", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15a", "fig15b", "fig16", "fig17", "tab03", "sensitivity",
        "straggler", "breakdown", "failover", "restart",
        "grayfail", "election", "rebalance",
    }


def test_quick_run_fig11(capsys):
    assert main(["fig11", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "latency" in out
    assert "falconfs" in out


def test_quick_run_breakdown(capsys):
    assert main(["breakdown", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "falconfs" in out
    assert "cephfs" in out
    assert "wal_us" in out


def test_quick_run_fig15b(capsys):
    assert main(["fig15b", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "one-hop" in out


def test_profile_reports_the_collector(capsys):
    """``--profile`` prints what no cProfile row can: the collector's
    time and collections, and leaves no callback installed."""
    import gc

    callbacks = list(gc.callbacks)
    assert main(["breakdown", "--quick", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert "cyclic collector:" in out and "gen0/gen1/gen2" in out
    assert gc.callbacks == callbacks
