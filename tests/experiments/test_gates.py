"""The regression gate, exercised with planted tampering.

Every failure class check.sh relies on is demonstrated here: a planted
ordering flip, a tie, a +5% drift, a changed string and a flipped bool
(each a leaf the gate must name), invariant violations, a changed grid
contract, missing/extra cells, and stale artifacts.
"""

import dataclasses

from repro.experiments import (
    CellResult,
    ExperimentEngine,
    check_against_record,
    check_artifacts,
    make_record,
    run_in_memory,
)
from tests.experiments.conftest import make_toy_spec, toy_measure


def tampered(record, cell_index, **new_values):
    """A copy of ``record`` with one cell's values overridden."""
    cells = list(record.cells)
    target = cells[cell_index]
    cells[cell_index] = CellResult(
        cell_id=target.cell_id,
        params=target.params,
        seed=target.seed,
        values={**target.values, **new_values},
    )
    return dataclasses.replace(record, cells=cells)


def gate_with(cell_index=0, **new_values):
    """The toy spec's report for a fresh run with one cell tampered."""
    spec = make_toy_spec()
    recorded = run_in_memory(spec)
    fresh = tampered(run_in_memory(spec), cell_index, **new_values)
    return check_against_record(spec, recorded, fresh)


def assert_names_leaf(report, path):
    assert not report.ok
    assert any(
        line.startswith(f"mode=none,stack=wsrf:{path}") for line in report.mismatches
    ), report.mismatches


class TestOrderingFlips:
    def test_identical_runs_have_no_flips(self):
        spec = make_toy_spec()
        record = run_in_memory(spec)
        assert check_against_record(spec, record, record).ok

    def test_planted_flip_is_detected(self):
        # Recorded: wsrf get (10.0) > transfer get (6.0) under mode=none.
        # Plant the reversal in the fresh run.
        report = gate_with(get_ms=1.0)
        assert_names_leaf(report, "get_ms: 10.0 → 1.0")

    def test_planted_tie_fails_the_gate(self):
        # Collapsing a strict ordering into a tie is a changed value.
        assert_names_leaf(gate_with(get_ms=6.0), "get_ms: 10.0 → 6.0")


class TestDrift:
    def test_identical_runs_have_no_drift(self):
        spec = make_toy_spec()
        report = check_against_record(spec, run_in_memory(spec), run_in_memory(spec))
        assert report.mismatches == []

    def test_planted_drift_fails_the_gate(self):
        assert_names_leaf(gate_with(get_ms=10.5), "get_ms: 10.0 → 10.5")  # +5%

    def test_vanished_and_appeared_leaves_are_reported(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        cells = list(run_in_memory(spec).cells)
        target = cells[0]
        values = dict(target.values)
        del values["seed_echo"]
        values["surprise_ms"] = 1.0
        cells[0] = CellResult(
            cell_id=target.cell_id, params=target.params, seed=target.seed, values=values
        )
        fresh = dataclasses.replace(recorded, cells=cells)
        report = check_against_record(spec, recorded, fresh)
        assert_names_leaf(report, "seed_echo vanished")
        assert_names_leaf(report, "surprise_ms appeared")


class TestEveryLeaf:
    """Strings, bools and types are leaves too, not only numbers."""

    def _gate(self, recorded_values, fresh_values):
        spec = make_toy_spec()
        recorded = tampered(run_in_memory(spec), 0, **recorded_values)
        return check_against_record(spec, recorded, tampered(recorded, 0, **fresh_values))

    def test_planted_string_change_fails_the_gate(self):
        report = self._gate({"phase": {"name": "sign"}}, {"phase": {"name": "verify"}})
        assert_names_leaf(report, 'phase.name: "sign" → "verify"')

    def test_planted_bool_flip_fails_the_gate(self):
        report = self._gate({"flags": [True, False]}, {"flags": [True, True]})
        assert_names_leaf(report, "flags.1: false → true")

    def test_number_type_change_fails_the_gate(self):
        assert_names_leaf(self._gate({"n": 1}, {"n": True}), "n: 1 → true")

    def test_json_equal_payloads_pass(self):
        # Tuples and lists serialize alike, so a fresh tuple matches a
        # recorded list.
        assert self._gate({"pair": [1, 2]}, {"pair": (1, 2)}).ok


class TestCheckAgainstRecord:
    def test_clean_run_passes(self):
        spec = make_toy_spec()
        report = check_against_record(spec, run_in_memory(spec), run_in_memory(spec))
        assert report.ok
        assert report.lines() == []

    def test_fingerprint_change_is_structural_and_short_circuits(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = run_in_memory(make_toy_spec(seed=1))
        report = check_against_record(spec, recorded, fresh)
        assert not report.ok
        assert "fingerprint changed" in report.structural_problems[0]
        # No noise from downstream classes once the contract moved.
        assert report.mismatches == []

    def test_missing_cell_is_structural(self):
        spec = make_toy_spec()
        recorded = run_in_memory(spec)
        fresh = dataclasses.replace(recorded, cells=list(recorded.cells[:-1]))
        report = check_against_record(spec, recorded, fresh)
        assert any("missing" in p for p in report.structural_problems)

    def test_invariant_violation_fails_the_gate(self):
        def inverted(params, seed):
            values = toy_measure(params, seed)
            if params["mode"] == "x509":
                values["get_ms"] = 0.5
            return values

        spec = make_toy_spec(measure=inverted)
        recorded = run_in_memory(spec)
        report = check_against_record(spec, recorded, run_in_memory(spec))
        assert report.invariant_violations
        assert report.mismatches == []
        assert not report.ok

    def test_exact_gate_fails_on_the_same_drift(self):
        report = gate_with(get_ms=9.0)
        assert report.mismatches
        assert any("mismatch" in line for line in report.lines())


class TestCheckArtifacts:
    def test_written_artifacts_pass(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        record = engine.run(spec)
        assert check_artifacts(spec, record, str(tmp_path)) == []

    def test_missing_artifact_reported(self, tmp_path):
        spec = make_toy_spec()
        record = make_record(spec, run_in_memory(spec).cells)
        problems = check_artifacts(spec, record, str(tmp_path))
        assert problems and "missing" in problems[0]

    def test_stale_artifact_reported(self, tmp_path):
        spec = make_toy_spec()
        engine = ExperimentEngine(str(tmp_path))
        record = engine.run(spec)
        name = next(iter(spec.artifacts(record)))
        with open(tmp_path / name, "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        problems = check_artifacts(spec, record, str(tmp_path))
        assert problems and "stale" in problems[0]
