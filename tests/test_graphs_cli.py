"""Tests for the CLI (``python -m repro``)."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.workload import list_scenarios


class TestCli:
    def test_explain_command(self, capsys):
        code = cli_main(["--seed", "3", "explain", "SELECT * FROM t0 JOIN t1 ON t0.key0 = t1.pk"])
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out
        assert "candidate plans" in out

    def test_fleet_select_command(self, capsys):
        code = cli_main(["--seed", "3", "fleet-select", "--projects", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "projects pass the Filter" in out

    def test_scenarios_list_names_every_registered_builder(self, capsys):
        assert cli_main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name, _description in list_scenarios():
            assert name in out

    def test_scenarios_replays_one_scenario(self, capsys):
        code = cli_main(["--seed", "3", "scenarios", "--scenario", "steady", "--epochs", "2"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "steady via gateway" in out
        assert any(line.startswith("steady ") and "|" in line for line in out.splitlines())

    def test_scenarios_needs_list_or_scenario(self):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["scenarios"])
        assert exit_info.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])
