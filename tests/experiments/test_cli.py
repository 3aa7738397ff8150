"""The ``python -m repro experiments`` surface, against a temp results dir.

Uses the registry's cheapest real spec (``spec_complexity``: 2 cells of
pure counting) so the CLI paths run in milliseconds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.cli import DEFAULT_RESULTS_DIR, experiments_main


class TestList:
    def test_list_mentions_every_spec(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2_hello_nosec", "msgperf", "datagrid"):
            assert name in out

    def test_no_action_prints_help_and_exits_2(self, capsys):
        assert experiments_main([]) == 2

    def test_unknown_spec_name_is_an_error(self):
        with pytest.raises(SystemExit, match="no experiment spec named"):
            experiments_main(["--run", "no_such_spec"])


class TestRunAndCheck:
    def test_run_then_check_round_trips(self, tmp_path, capsys):
        results = str(tmp_path)
        assert experiments_main(["--run", "spec_complexity", "--results", results]) == 0
        assert (tmp_path / "experiments" / "spec_complexity.json").exists()
        assert experiments_main(["--check", "spec_complexity", "--results", results]) == 0
        out = capsys.readouterr().out
        assert "spec_complexity: ok" in out

    def test_tampered_record_fails_the_check(self, tmp_path, capsys):
        results = str(tmp_path)
        experiments_main(["--run", "spec_complexity", "--results", results])
        record_path = tmp_path / "experiments" / "spec_complexity.json"
        payload = json.loads(record_path.read_text())
        cell = payload["cells"][0]
        leaf = next(k for k, v in cell["values"].items() if isinstance(v, (int, float)))
        cell["values"][leaf] = cell["values"][leaf] + 1
        record_path.write_text(json.dumps(payload))
        assert experiments_main(["--check", "spec_complexity", "--results", results]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_summary_reports_ok(self, tmp_path, capsys):
        results = str(tmp_path)
        experiments_main(["--run", "spec_complexity", "--results", results])
        capsys.readouterr()
        code = experiments_main(
            ["--check", "spec_complexity", "--results", results, "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True
        assert summary["check"]["spec_complexity"]["ok"] is True

    def test_resume_flag_reuses_checkpoints(self, tmp_path, capsys):
        results = str(tmp_path)
        experiments_main(["--run", "spec_complexity", "--results", results])
        capsys.readouterr()
        assert (
            experiments_main(
                ["--run", "spec_complexity", "--resume", "--results", results]
            )
            == 0
        )
        assert "0 measured, 2 resumed" in capsys.readouterr().out


def test_check_leaves_the_committed_results_untouched(capsys):
    def snapshot():
        return {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in Path(DEFAULT_RESULTS_DIR).rglob("*")
            if path.is_file()
        }

    before = snapshot()
    assert experiments_main(["--check", "spec_complexity"]) == 0
    assert snapshot() == before
